"""Per-program instruction pre-decode for the PE hot loop.

``PE.step`` and ``PE.next_issue_lower_bound`` together dominate simulation
wall time, and both re-derive the same timing-invariant facts from each
:class:`~repro.isa.instructions.Instruction` on every visit: the dispatch
handler, the element size, which scalar registers gate issue, and which
stall sources (scratchpad ranges, vector pipe, LSU capacity, fences) the
opcode can hit.  A program's instructions never change after assembly, so
all of that is decoded once per :class:`~repro.isa.program.Program` into a
flat list of :class:`DecodedInstr` records (one slot-ed object per
instruction, indexed by pc) and cached on the program object itself.

The decode tables below are the PE's one opcode → stall-source table: the
issue bound and ``PE.describe_stall`` both read them.  The straight-line
``repro.pe.reference.ReferencePE`` re-derives the same sources from the
opcode on every call, and the PE must stall on exactly the same sources,
in the same order (enforced by ``tests/perf/test_fastpath_equiv.py``).
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program

# Scratchpad-range shape of the next instruction, for the issue lower bound.
SHAPE_NONE = 0
SHAPE_MV = 1
SHAPE_VV = 2
SHAPE_VS = 3
SHAPE_LDST_SRAM = 4

# Trailing structural-stall check needed by the issue lower bound.
TAIL_NONE = 0
TAIL_VEC_PIPE = 1
TAIL_V_DRAIN = 2
TAIL_MEMFENCE = 3
TAIL_LSU_CAP = 4

_SHAPES = {
    Opcode.MV: SHAPE_MV,
    Opcode.VV: SHAPE_VV,
    Opcode.VS: SHAPE_VS,
    Opcode.LD_SRAM: SHAPE_LDST_SRAM,
    Opcode.ST_SRAM: SHAPE_LDST_SRAM,
}

_TAILS = {
    Opcode.MV: TAIL_VEC_PIPE,
    Opcode.VV: TAIL_VEC_PIPE,
    Opcode.VS: TAIL_VEC_PIPE,
    Opcode.V_DRAIN: TAIL_V_DRAIN,
    Opcode.MEMFENCE: TAIL_MEMFENCE,
    Opcode.LD_SRAM: TAIL_LSU_CAP,
    Opcode.ST_SRAM: TAIL_LSU_CAP,
    Opcode.LD_REG: TAIL_LSU_CAP,
    Opcode.ST_REG: TAIL_LSU_CAP,
}


class DecodedInstr:
    """One instruction with its timing-invariant fields resolved."""

    __slots__ = ("instr", "handler", "esz", "lb_regs", "lb_shape", "lb_tail")

    def __init__(self, instr: Instruction, handler, esz: int,
                 lb_regs: tuple[int, ...], lb_shape: int, lb_tail: int):
        self.instr = instr
        self.handler = handler  # unbound PE method from PE._DISPATCH
        self.esz = esz
        self.lb_regs = lb_regs
        self.lb_shape = lb_shape
        self.lb_tail = lb_tail


def _lower_bound_regs(instr: Instruction) -> tuple[int, ...]:
    """The registers whose valid bits gate issue of ``instr``.

    Mirrors the opcode table in ``ReferencePE.next_issue_lower_bound``,
    then drops ``r0`` (its ready time is pinned to 0.0, which can never
    raise a bound) and duplicates (``max`` is idempotent) — both exact
    simplifications.
    """
    op = instr.opcode
    if op in (Opcode.MV, Opcode.VV, Opcode.VS, Opcode.LD_SRAM, Opcode.ST_SRAM):
        regs = (instr.rd, instr.rs1, instr.rs2)
    elif op in (Opcode.ALU, Opcode.BRANCH):
        regs = (instr.rs1, instr.rs2) if instr.imm is None else (instr.rs1,)
    elif op in (Opcode.MOV, Opcode.LD_REG, Opcode.LD_FE):
        regs = (instr.rs1,)
    elif op in (Opcode.ST_REG, Opcode.ST_FE):
        regs = (instr.rd, instr.rs1)
    elif op in (Opcode.SET_VL, Opcode.SET_MR) and instr.imm is None:
        regs = (instr.rs1,)
    else:
        regs = ()
    out: list[int] = []
    for r in regs:
        if r and r not in out:
            out.append(r)
    return tuple(out)


def predecode(program: Program, dispatch) -> list[DecodedInstr]:
    """Decode every instruction of ``program`` against ``dispatch``.

    The result is cached on the program object (programs are immutable
    after assembly), so repeated ``PE.load`` of a shared kernel — the
    common case for the vault sweeps and the test suite — decodes once.
    """
    cached = getattr(program, "_predecoded", None)
    if cached is not None and cached[0] is dispatch:
        return cached[1]
    decoded = []
    for i in range(len(program)):
        instr = program[i]
        decoded.append(DecodedInstr(
            instr,
            dispatch[instr.opcode],
            instr.width // 8,
            _lower_bound_regs(instr),
            _SHAPES.get(instr.opcode, SHAPE_NONE),
            _TAILS.get(instr.opcode, TAIL_NONE),
        ))
    program._predecoded = (dispatch, decoded)
    return decoded
