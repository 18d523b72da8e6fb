"""Unit tests for the stepping machinery of :mod:`repro.pe.batch`.

The end-to-end exactness gate lives in ``test_fastpath_equiv.py`` (the
PE must be byte-identical to the straight-line reference interpreter on
every harness kernel); these tests pin that every vector result lands in
the scratchpad in the step that issues it, and the PE-local step flags
the chip's run-ahead uses.
"""

import numpy as np

from repro.isa import assemble
from repro.pe import PE, FlatMemory
from repro.pe.batch import VectorOpQueue, local_steps
from repro.pe.pe import PEStatus
from repro.pe.reference import ReferencePE
from repro.pe.vector_unit import ScratchpadView

#: Back-to-back long (40 elements at 16 bits) and 64-bit vector ops.  Each
#: reads the previous op's destination (read-after-write), and the
#: destinations overlap earlier sources (write-after-read) and earlier
#: destinations (write-after-write).
_LONG_OPS = """
    set.vl 40
    set.fx 3
    mov.imm r1, 0
    mov.imm r2, 100
    mov.imm r3, 200
    mov.imm r4, 261
    v.v.add[16] r3, r1, r2
    v.v.add[16] r4, r3, r2
    v.v.add[16] r1, r4, r3
    v.v.add[16] r3, r1, r4
    v.v.mul[16] r2, r3, r1
    v.s.sub[16] r1, r2, r4
    set.mr 2
    mov.imm r5, 400
    m.v.mul.add[16] r5, r1, r2
    m.v.mul.add[16] r1, r1, r5
    set.mr 1
    m.v.mul.add[16] r4, r4, r1
    m.v.nop.max[16] r3, r4, r4
    set.vl 4
    set.mr 3
    mov.imm r6, 601
    v.v.mul[64] r6, r1, r2
    v.s.add[64] r2, r6, r6
    m.v.mul.add[64] r6, r2, r6
    m.v.nop.min[64] r1, r6, r2
    halt
"""

#: The instructions of ``_LONG_OPS`` that take the long path.
_LONG_COUNT = 14


def test_vector_results_land_at_issue(monkeypatch):
    pushes = []
    original = VectorOpQueue.push

    def counting_push(self, pe, *args):
        pushes.append(args)
        return original(self, pe, *args)

    monkeypatch.setattr(VectorOpQueue, "push", counting_push)
    program = assemble(_LONG_OPS)
    pes = []
    for pe_class in (PE, ReferencePE):
        pe = pe_class(memory=FlatMemory())
        pe.scratchpad[:] = np.random.default_rng(5).integers(
            0, 256, pe.scratchpad.size, dtype=np.uint8)
        pe.load(program)
        pes.append(pe)
    pe, reference = pes
    while reference.status is PEStatus.RUNNING:
        instr = program[reference.pc]
        pe.step()
        reference.step()
        assert pe.pc == reference.pc
        assert pe._vq.op is None, instr
        assert np.array_equal(pe.scratchpad, reference.scratchpad), instr
    assert pe.status is PEStatus.HALTED
    assert pe.clock == reference.clock
    assert len(pushes) == _LONG_COUNT


def test_flush_on_empty_queue_is_noop():
    class _FakePE:
        fx = 0
        scratchpad = np.arange(64, dtype=np.uint8)
        sp = ScratchpadView(scratchpad)

    before = _FakePE.scratchpad.copy()
    VectorOpQueue().flush(_FakePE())
    assert np.array_equal(_FakePE.scratchpad, before)


def test_local_steps_classifies_shared_opcodes():
    from repro.isa.builder import ProgramBuilder

    b = ProgramBuilder()
    b.set_vl(4)
    r_a, r_cnt = b.alloc_reg(), b.alloc_reg()
    b.movi(r_a, 0)
    b.movi(r_cnt, 8)
    b.ld_sram(r_a, r_a, r_cnt)   # shared: DRAM access
    b.vv("add", r_a, r_a, r_a)   # local: private scratchpad
    b.st_sram(r_a, r_a, r_cnt)   # shared
    b.halt()                     # local
    program = b.build()
    flags = local_steps(program)
    assert len(flags) == len(program)
    from repro.isa.instructions import Opcode as Op
    for pc, flag in enumerate(flags):
        op = program[pc].opcode
        assert flag == (op not in (Op.LD_SRAM, Op.ST_SRAM, Op.LD_REG,
                                   Op.ST_REG, Op.LD_FE, Op.ST_FE))
    assert local_steps(program) is flags  # cached on the program
