"""PE functional execution: every instruction class."""

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError, TimingHazardError
from repro.isa import assemble
from repro.pe import PE, FlatMemory, HazardMode, PEConfig


def run(pe, text):
    return pe.run(assemble(text))


class TestScalar:
    def test_movi_and_alu(self, pe):
        run(pe, "mov.imm r1, 10\nadd r2, r1, 5\nsub r3, r2, r1\nhalt")
        assert pe.regs[2] == 15
        assert pe.regs[3] == 5

    def test_mov(self, pe):
        run(pe, "mov.imm r1, 42\nmov r2, r1\nhalt")
        assert pe.regs[2] == 42

    def test_r0_reads_zero(self, pe):
        run(pe, "mov.imm r0, 99\nadd r1, r0, 1\nhalt")
        assert pe.regs[1] == 1

    def test_loop(self, pe):
        run(pe, """
            mov.imm r1, 0
            mov.imm r2, 10
            loop:
            add r1, r1, 1
            blt r1, r2, loop
            halt
        """)
        assert pe.regs[1] == 10

    def test_jmp_skips(self, pe):
        run(pe, "jmp skip\nmov.imm r1, 1\nskip: halt")
        assert pe.regs[1] == 0

    def test_shift_ops(self, pe):
        run(pe, "mov.imm r1, 1\nsll r2, r1, 10\nsrl r3, r2, 3\nhalt")
        assert pe.regs[2] == 1024
        assert pe.regs[3] == 128


class TestVector:
    def test_vv_add(self, pe):
        pe.sp.write_vector(0, np.arange(8), 16)
        pe.sp.write_vector(16, np.arange(8) * 10, 16)
        run(pe, """
            set.vl 8
            mov.imm r1, 32
            mov.imm r2, 0
            mov.imm r3, 16
            v.v.add[16] r1, r2, r3
            halt
        """)
        assert list(pe.sp.read_vector(32, 8, 16)) == [i * 11 for i in range(8)]

    def test_vs_scalar_from_scratchpad(self, pe):
        pe.sp.write_vector(0, np.array([10, 20, 30]), 16)
        pe.sp.write_vector(100, np.array([7]), 16)
        run(pe, """
            set.vl 3
            mov.imm r1, 50
            mov.imm r2, 0
            mov.imm r3, 100
            v.s.sub[16] r1, r2, r3
            halt
        """)
        assert list(pe.sp.read_vector(50, 3, 16)) == [3, 13, 23]

    def test_mv_min_sum(self, pe):
        matrix = np.array([[0, 5], [5, 0]], dtype=np.int16)
        vector = np.array([10, 2], dtype=np.int16)
        pe.sp.write_vector(0, matrix.ravel(), 16)
        pe.sp.write_vector(64, vector, 16)
        run(pe, """
            set.vl 2
            set.mr 2
            mov.imm r1, 128
            mov.imm r2, 0
            mov.imm r3, 64
            m.v.add.min[16] r1, r2, r3
            halt
        """)
        assert list(pe.sp.read_vector(128, 2, 16)) == [7, 2]

    def test_mv_mul_add_dot_product(self, pe):
        pe.set_fx = 0  # documentation only; fx register set by program
        pe.sp.write_vector(0, np.array([1, 2, 3, 4]), 16)
        pe.sp.write_vector(64, np.array([5, 6, 7, 8]), 16)
        run(pe, """
            set.vl 4
            set.mr 1
            set.fx 0
            mov.imm r1, 128
            mov.imm r2, 0
            mov.imm r3, 64
            m.v.mul.add[16] r1, r2, r3
            halt
        """)
        assert pe.sp.read_vector(128, 1, 16)[0] == 5 + 12 + 21 + 32

    def test_mv_nop_min_is_pure_reduction(self, pe):
        pe.sp.write_vector(0, np.array([5, 3, 9, 1]), 16)
        run(pe, """
            set.vl 4
            set.mr 1
            mov.imm r1, 100
            mov.imm r2, 0
            m.v.nop.min[16] r1, r2, r2
            halt
        """)
        assert pe.sp.read_vector(100, 1, 16)[0] == 1

    def test_set_fx_affects_multiply(self, pe):
        pe.sp.write_vector(0, np.array([256]), 16)
        pe.sp.write_vector(16, np.array([256]), 16)
        run(pe, """
            set.vl 1
            set.fx 8
            mov.imm r1, 32
            mov.imm r2, 0
            mov.imm r3, 16
            v.v.mul[16] r1, r2, r3
            halt
        """)
        assert pe.sp.read_vector(32, 1, 16)[0] == 256

    def test_vl_out_of_range(self, pe):
        with pytest.raises(SimulationError):
            run(pe, "set.vl 0\nhalt")

    def test_vector_out_of_scratchpad(self, pe):
        with pytest.raises(SimulationError):
            run(pe, """
                set.vl 16
                mov.imm r1, 4090
                v.v.add[16] r1, r1, r1
                halt
            """)


class TestLoadStore:
    def test_ld_st_sram(self, pe):
        pe.memory.store.write_array(0x1000, np.arange(8), np.int16)
        run(pe, """
            set.vl 8
            mov.imm r1, 0
            mov.imm r2, 0x1000
            mov.imm r3, 8
            ld.sram[16] r1, r2, r3
            mov.imm r4, 0x2000
            st.sram[16] r1, r4, r3
            memfence
            halt
        """)
        assert list(pe.memory.store.read_array(0x2000, 8, np.int16)) == list(range(8))

    def test_ld_st_reg(self, pe):
        run(pe, """
            mov.imm r1, -123
            mov.imm r2, 0x800
            st.reg r1, r2
            ld.reg r3, r2
            halt
        """)
        assert pe.regs[3] == -123

    def test_fe_store_then_load(self, pe):
        run(pe, """
            mov.imm r1, 77
            mov.imm r2, 0x900
            st.fe r1, r2
            ld.fe r3, r2
            halt
        """)
        assert pe.regs[3] == 77

    def test_fe_load_empty_deadlocks(self, pe):
        with pytest.raises(DeadlockError):
            run(pe, "mov.imm r2, 0x900\nld.fe r3, r2\nhalt")

    def test_negative_count_rejected(self, pe):
        with pytest.raises(SimulationError):
            run(pe, """
                mov.imm r1, 0
                mov.imm r2, 0x1000
                mov.imm r3, -1
                ld.sram[16] r1, r2, r3
                halt
            """)


class TestControl:
    def test_missing_halt_detected(self, pe):
        with pytest.raises(SimulationError, match="ran off"):
            run(pe, "nop")

    def test_run_without_program(self):
        with pytest.raises(SimulationError):
            PE().run()

    def test_step_budget_allows_exactly_max_steps(self, pe):
        program = assemble("mov.imm r1, 7\nhalt")
        pe.run(program, max_steps=2)
        assert pe.regs[1] == 7
        with pytest.raises(SimulationError, match="exceeded 1 simulation steps"):
            PE(memory=FlatMemory()).run(program, max_steps=1)

    def test_strict_hazard_mode_raises(self):
        pe = PE(PEConfig(hazard_mode=HazardMode.ERROR), memory=FlatMemory())
        with pytest.raises(TimingHazardError):
            pe.run(assemble("""
                set.vl 16
                mov.imm r1, 0
                mov.imm r2, 64
                v.v.add[16] r2, r1, r1
                v.v.add[16] r1, r2, r2   ; reads r2's result too early
                halt
            """))

    def test_drain_makes_strict_mode_safe(self):
        pe = PE(PEConfig(hazard_mode=HazardMode.ERROR), memory=FlatMemory())
        pe.run(assemble("""
            set.vl 16
            mov.imm r1, 0
            mov.imm r2, 64
            v.v.add[16] r2, r1, r1
            v.drain
            v.v.add[16] r1, r2, r2
            halt
        """))
