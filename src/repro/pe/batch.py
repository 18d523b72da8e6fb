"""Vectorized batch stepping for the PE interpreter.

Two mechanisms live here, both exact-by-construction (and empirically
gated by ``repro.perf.bench --compare`` plus
``tests/perf/test_fastpath_equiv.py``):

**Vector-op batch queue.**  The PE timing model is inherently sequential
— every instruction's issue time feeds the next — but the *functional*
effect of a run of identically-shaped vector instructions is not: as long
as no queued instruction reads bytes a queued predecessor writes (RAW),
gathering all operands, applying one stacked NumPy computation over the
batch axis, and scattering the results in queue order produces bit-exact
scratchpad state.  :class:`VectorOpQueue` defers only that functional
block; issue timing, stall accounting, ARC/hazard interlocks and counters
stay eager and per-instruction in ``PE._exec_vector``.  The queue is
flushed before anything else can observe scratchpad bytes (``ld.sram`` /
``st.sram`` / ``halt`` / program load / the fault hook that corrupts a
vector result), so no other component ever sees a deferred write.  WAR
and WAW need no flush: operands are gathered before any queued write
lands, and writes land in queue order.

**PE-local span run-ahead.**  :func:`local_steps` classifies each
instruction of a program as *PE-local* (touches no shared chip state — no
DRAM/NoC access, no full-empty variable) or *shared*.  The conservative
chip scheduler uses it to step a PE straight through a local span without
cycling the event heap, but only while that PE provably remains the next
pop and passes the usual bound check — i.e. the shortcut replays exactly
the pop sequence the reference loop would have produced.  The PE keeps
its program's flags in ``PE._local``; ``ReferencePE`` keeps none, so a
chip steps it pop by pop.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint import (
    DTYPES,
    int_bounds,
    sat_reduce_add,
    saturate_cast,
    saturate_inplace,
)
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.pe.vector_unit import apply_horizontal, apply_vertical

#: Opcodes that touch shared chip state (HMC vaults, NoC links, full-empty
#: queues) or can block.  Everything else is PE-local: scalar ALU/moves,
#: branches, ``set.*``, vector ops (private scratchpad), ``v.drain``,
#: ``memfence`` (own LSU slots), ``halt`` and ``nop``.
_SHARED_OPCODES = frozenset((
    Opcode.LD_SRAM,
    Opcode.ST_SRAM,
    Opcode.LD_REG,
    Opcode.ST_REG,
    Opcode.LD_FE,
    Opcode.ST_FE,
))


def local_steps(program: Program) -> list[bool]:
    """Per-pc flags: ``True`` where the instruction is PE-local.

    Cached on the program object (programs are immutable after assembly),
    mirroring ``repro.pe.decode.predecode``.
    """
    cached = getattr(program, "_local_steps", None)
    if cached is None:
        cached = [program[i].opcode not in _SHARED_OPCODES
                  for i in range(len(program))]
        program._local_steps = cached
    return cached


class VectorOpQueue:
    """Deferred functional execution of same-shaped vector instructions.

    Queued entries share one shape key ``(opcode, vop, hop, width, rows,
    cols, fx)``; each entry is the ``(src1, src2, dst)`` scratchpad
    addresses captured at issue.  A push that changes the shape, overflows
    the queue, or reads bytes a queued entry writes flushes first — the
    flush replays the exact reference semantics (same fixed-point helpers,
    same saturation order), just stacked over the batch axis.
    """

    __slots__ = ("key", "ops", "writes")

    #: Queue depth bound: keeps the RAW overlap scan short and the stacked
    #: temporaries cache-sized.  FC kernels batch up to one op per batched
    #: input, far below this.
    CAP = 64

    def __init__(self):
        self.key: tuple | None = None
        self.ops: list[tuple[int, int, int]] = []
        self.writes: list[tuple[int, int]] = []

    def push(self, pe, opcode, vop, hop, width, rows, cols,
             src1, src2, dst, reads, writes) -> None:
        """Queue one vector instruction's functional effect."""
        key = (opcode, vop, hop, width, rows, cols, pe.fx)
        ops = self.ops
        if ops and (key != self.key or len(ops) >= self.CAP
                    or self._raw_overlap(reads)):
            self.flush(pe)
        self.key = key
        self.ops.append((src1, src2, dst))
        qw = self.writes
        for start, nbytes in writes:
            qw.append((start, start + nbytes))

    def _raw_overlap(self, reads) -> bool:
        for start, nbytes in reads:
            end = start + nbytes
            for ws, we in self.writes:
                if start < we and ws < end:
                    return True
        return False

    def flush(self, pe) -> None:
        """Apply every queued instruction's scratchpad effect, in order."""
        ops = self.ops
        if not ops:
            return
        opcode, vop, hop, width, rows, cols, fx = self.key
        self.ops = []
        self.writes = []
        data = pe.scratchpad
        dtype = DTYPES[width]
        esz = width // 8
        q = len(ops)
        if q == 1:
            # Single entry: skip the stacking.  Operand ranges were already
            # validated at issue time (``PE._exec_vector``), so raw views
            # replace the checked ``ScratchpadView`` round trips; the
            # fixed-point helpers and saturation order are the reference's.
            src1, src2, dst = ops[0]
            if opcode is Opcode.MV:
                if vop == "mul" and hop == "add":
                    # The matrix-multiply-accumulate every inference
                    # kernel issues per weight row: one widening ufunc
                    # replaces the two int64 staging copies, then the
                    # shift / per-element clamp / row-sum / clamp chain
                    # runs on that product in place — the exact
                    # ``sat_mul`` + horizontal-add reference sequence.
                    prod = np.multiply(
                        data[src1:src1 + rows * cols * esz].view(dtype)
                        .reshape(rows, cols) if rows > 1
                        else data[src1:src1 + cols * esz].view(dtype),
                        data[src2:src2 + cols * esz].view(dtype),
                        dtype=np.int64)
                    if fx:
                        np.right_shift(prod, fx, out=prod)
                    saturate_inplace(prod, width)
                    if rows == 1:
                        # One-row reduction (mr=1, the kernel's partial
                        # dot product): the int64 accumulate and clamp
                        # collapse to scalar arithmetic.  ``ndarray.sum``
                        # wraps on int64 overflow exactly like the
                        # reference's axis reduction.
                        total = int(prod.sum())
                        lo, hi = int_bounds(width)
                        if total > hi:
                            total = hi
                        elif total < lo:
                            total = lo
                        data[dst:dst + esz] = \
                            np.array([total], dtype=dtype).view(np.uint8)
                    else:
                        out = sat_reduce_add(prod, width)
                        data[dst:dst + rows * esz] = \
                            out.astype(dtype).view(np.uint8)
                else:
                    matrix = data[src1:src1 + rows * cols * esz].view(dtype) \
                        .astype(np.int64).reshape(rows, cols)
                    vector = data[src2:src2 + cols * esz].view(dtype) \
                        .astype(np.int64)
                    vert = apply_vertical(vop, matrix, vector[None, :],
                                          width, fx)
                    out = saturate_cast(apply_horizontal(hop, vert, width),
                                        width)
                    data[dst:dst + rows * esz] = out.view(np.uint8)
            else:
                a = data[src1:src1 + cols * esz].view(dtype).astype(np.int64)
                if opcode is Opcode.VV:
                    b = data[src2:src2 + cols * esz].view(dtype).astype(np.int64)
                else:
                    b = np.full(cols, data[src2:src2 + esz].view(dtype)[0],
                                dtype=np.int64)
                out = saturate_cast(apply_vertical(vop, a, b, width, fx), width)
                data[dst:dst + cols * esz] = out.view(np.uint8)
            return
        if opcode is Opcode.MV:
            nmat = rows * cols * esz
            nvec = cols * esz
            mats = np.stack([data[s1:s1 + nmat].view(dtype) for s1, _, _ in ops])
            vecs = np.stack([data[s2:s2 + nvec].view(dtype) for _, s2, _ in ops])
            vert = apply_vertical(
                vop,
                mats.astype(np.int64).reshape(q, rows, cols),
                vecs.astype(np.int64).reshape(q, 1, cols),
                width, fx,
            )
            out = apply_horizontal(hop, vert.reshape(q * rows, cols), width)
            outc = saturate_cast(out, width).reshape(q, rows)
            nout = rows * esz
            for i in range(q):
                dst = ops[i][2]
                data[dst:dst + nout] = outc[i].view(np.uint8)
        else:
            n = cols * esz
            a = np.stack([data[s1:s1 + n].view(dtype) for s1, _, _ in ops])
            nb = n if opcode is Opcode.VV else esz
            b = np.stack([data[s2:s2 + nb].view(dtype) for _, s2, _ in ops])
            res = apply_vertical(vop, a.astype(np.int64), b.astype(np.int64),
                                 width, fx)
            outc = saturate_cast(res, width)
            for i in range(q):
                dst = ops[i][2]
                data[dst:dst + n] = outc[i].view(np.uint8)
