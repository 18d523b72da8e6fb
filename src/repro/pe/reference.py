"""The straight-line PE interpreter: the oracle :class:`~repro.pe.pe.PE` is
checked against.

:class:`ReferencePE` runs the same instruction handlers as ``PE`` and
must give the same cycles, counters, scratchpad and DRAM bytes, but it
takes none of ``PE``'s shortcuts:

* each step looks its handler up in ``_DISPATCH`` by opcode, instead of
  reading the ``repro.pe.decode`` record;
* the issue bound re-derives every stall source from the opcode on each
  call, and keeps no operand scan for the step, so every step scans its
  operands itself;
* every vector instruction reads, computes and writes its operands
  through :class:`~repro.pe.vector_unit.ScratchpadView`, at every size:
  no Python-integer short path and no raw-view NumPy long path;
* it has no PE-local steps, so a chip schedules it pop by pop, with no
  run-ahead.

Only tests select it, by class, directly or through the
``reference=True`` runs of :mod:`repro.kernels.harness`;
:class:`ReferenceChip` is a :class:`~repro.system.chip.Chip` whose PEs
are ``ReferencePE``.  No simulator module imports this one.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.pe.pe import PE, PEStatus
from repro.pe.vector_unit import ScratchpadView, apply_horizontal, apply_vertical
from repro.system.chip import Chip


def eager_vector_op(data, opcode, vop, hop, width, rows, cols, fx,
                    src1, src2, dst) -> None:
    """Apply one MV/VV/VS instruction to the scratchpad bytes ``data``
    through range-checked :class:`ScratchpadView` reads and writes.

    Same arguments as :func:`~repro.pe.vector_unit.short_vector_op`.
    """
    sp = ScratchpadView(data)
    if opcode is Opcode.MV:
        matrix = sp.read_vector(src1, rows * cols, width).reshape(rows, cols)
        vector = sp.read_vector(src2, cols, width)
        vert = apply_vertical(vop, matrix, vector[None, :], width, fx)
        sp.write_vector(dst, apply_horizontal(hop, vert, width), width)
    elif opcode is Opcode.VV:
        a = sp.read_vector(src1, cols, width)
        b = sp.read_vector(src2, cols, width)
        sp.write_vector(dst, apply_vertical(vop, a, b, width, fx), width)
    else:
        a = sp.read_vector(src1, cols, width)
        scalar = sp.read_vector(src2, 1, width)[0]
        sp.write_vector(
            dst, apply_vertical(vop, a, np.full(cols, scalar), width, fx),
            width,
        )


class ReferencePE(PE):
    """One VIP processing engine, interpreted straight from the program.

    Constructed like :class:`~repro.pe.pe.PE`.
    """

    def load(self, program: Program) -> None:
        super().load(program)
        self._local = []

    def step(self) -> PEStatus:
        """Execute one instruction (or stay blocked)."""
        if self.status is not PEStatus.RUNNING:
            return self.status
        self._version += 1
        assert self.program is not None
        if self.pc < 0 or self.pc >= len(self.program):
            raise self._ran_off()
        instr = self.program[self.pc]
        handler = self._DISPATCH[instr.opcode]
        if self._tr is not None:
            return self._step_traced(handler, instr)
        handler(self, instr)
        return self.status

    def next_issue_lower_bound(self) -> float:
        """The issue bound of :meth:`PE.next_issue_lower_bound`, with
        every stall source re-derived from the opcode."""
        if self.status is not PEStatus.RUNNING or self.program is None:
            return self.clock
        if not 0 <= self.pc < len(self.program):
            return self.clock
        instr = self.program[self.pc]
        t = self.clock
        op = instr.opcode
        regs: tuple[int, ...] = ()
        if op in (Opcode.MV, Opcode.VV, Opcode.VS, Opcode.LD_SRAM, Opcode.ST_SRAM):
            regs = (instr.rd, instr.rs1, instr.rs2)
        elif op in (Opcode.ALU, Opcode.BRANCH):
            regs = (instr.rs1, instr.rs2) if instr.imm is None else (instr.rs1,)
        elif op in (Opcode.MOV,):
            regs = (instr.rs1,)
        elif op in (Opcode.LD_REG, Opcode.LD_FE):
            regs = (instr.rs1,)
        elif op in (Opcode.ST_REG, Opcode.ST_FE):
            regs = (instr.rd, instr.rs1)
        elif op in (Opcode.SET_VL, Opcode.SET_MR) and instr.imm is None:
            regs = (instr.rs1,)
        for r in regs:
            t = max(t, self.reg_time[r])

        esz = instr.width // 8
        ranges: list[tuple[int, int]] = []
        if op is Opcode.MV:
            ranges = [
                (self._read_reg(instr.rs1), self.mr * self.vl * esz),
                (self._read_reg(instr.rs2), self.vl * esz),
                (self._read_reg(instr.rd), self.mr * esz),
            ]
        elif op is Opcode.VV:
            n = self.vl * esz
            ranges = [
                (self._read_reg(instr.rs1), n),
                (self._read_reg(instr.rs2), n),
                (self._read_reg(instr.rd), n),
            ]
        elif op is Opcode.VS:
            n = self.vl * esz
            ranges = [
                (self._read_reg(instr.rs1), n),
                (self._read_reg(instr.rs2), esz),
                (self._read_reg(instr.rd), n),
            ]
        elif op in (Opcode.LD_SRAM, Opcode.ST_SRAM):
            count = self._read_reg(instr.rs2)
            if count >= 0:
                ranges = [(self._read_reg(instr.rd), count * esz)]
        if ranges:
            size = self.scratchpad.size
            hazard = self._hazard_on
            for start, nbytes in ranges:
                if nbytes <= 0 or start < 0 or start + nbytes > size:
                    continue
                t = max(t, self.arc.overlap_clear_time(start, nbytes, t))
                if hazard:
                    t = self._sp_wtime.max_over(start, start + nbytes, t)
        if op in (Opcode.MV, Opcode.VV, Opcode.VS):
            t = max(t, self._vec_pipe_free)
        elif op is Opcode.V_DRAIN:
            t = max(t, self._vec_last_done)
        elif op is Opcode.MEMFENCE:
            if self._outstanding:
                t = max(t, max(self._outstanding))
        elif op in (Opcode.LD_SRAM, Opcode.ST_SRAM, Opcode.LD_REG, Opcode.ST_REG):
            if len(self._outstanding) >= self.config.max_outstanding_mem:
                t = max(t, min(self._outstanding))
        return t

    def _vector_effect(self, opcode, vop, hop, width, rows, cols,
                       src1, src2, dst) -> None:
        eager_vector_op(self.scratchpad, opcode, vop, hop, width, rows, cols,
                        self.fx, src1, src2, dst)


class ReferenceChip(Chip):
    """A :class:`~repro.system.chip.Chip` whose PEs are
    :class:`ReferencePE`; constructed like ``Chip``."""

    def __init__(self, config=None, num_pes: int | None = None):
        super().__init__(config, num_pes)
        self.pes = [ReferencePE(pe.config, memory=pe.memory, pe_id=pe.pe_id)
                    for pe in self.pes]
