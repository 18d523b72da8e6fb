"""The PE's one-op vector shim and PE-local span run-ahead.

**One-op vector shim.**  Every vector instruction's scratchpad effect
lands in the step that issues it (``PE._vector_effect``).  Ops past
``SHORT_VECTOR_ELEMENTS`` elements or at 64 bits go through
:class:`VectorOpQueue`: pushed, then flushed at once through
:func:`~repro.pe.vector_unit.long_vector_op`, so it never holds an op
past its step.  It remains a class only because the end-to-end
benchmark's per-layer metrics (``pe.batch.*``) time these two methods.

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

from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.pe.vector_unit import long_vector_op

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
    """The one long vector instruction a PE step is applying.

    :meth:`push` records the instruction's shape and ``(src1, src2,
    dst)`` scratchpad addresses; :meth:`flush` applies it with
    :func:`~repro.pe.vector_unit.long_vector_op` and empties the queue.
    """

    __slots__ = ("op",)

    def __init__(self):
        self.op: tuple | None = None

    def push(self, pe, opcode, vop, hop, width, rows, cols,
             src1, src2, dst) -> None:
        """Record one vector instruction of ``pe``."""
        self.op = (opcode, vop, hop, width, rows, cols, pe.fx,
                   src1, src2, dst)

    def flush(self, pe) -> None:
        """Apply the recorded instruction's scratchpad effect, if any."""
        op = self.op
        if op is not None:
            self.op = None
            long_vector_op(pe.scratchpad, *op)
