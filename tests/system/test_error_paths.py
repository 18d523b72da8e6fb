"""Structured failure reporting: BlockedReport on deadlock and max-steps."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.isa import assemble
from repro.pe import PE, PEConfig
from repro.system import BlockedReport, Chip

#: Programs that park a single PE on one stall cause after ``steps``
#: steps, with the ``(cause, detail)`` that ``describe_stall`` gave for
#: them when it re-derived every stall source from the opcode.
STALLS = {
    "register": ('''
        mov.imm r2, 64
        ld.reg r3, r2
        add r4, r3, 1
        halt''', 2, {}, ("register", "r3 ready at 52.0")),
    "arc": ('''
        set.vl 16
        mov.imm r1, 0
        mov.imm r2, 64
        mov.imm r3, 16
        mov.imm r4, 256
        ld.sram[16] r1, r2, r3
        v.v.add[16] r4, r1, r1
        halt''', 6, {}, ("arc", "sp[0:32] busy until 63.0")),
    "sp-hazard": ('''
        set.vl 16
        mov.imm r1, 0
        mov.imm r2, 64
        mov.imm r3, 128
        mov.imm r4, 16
        mov.imm r5, 4096
        v.v.mul[16] r3, r1, r2
        st.sram[16] r3, r5, r4
        halt''', 7, {}, ("sp-hazard", "sp[128:160] written at 13.0")),
    "vector-pipe": ('''
        set.vl 64
        mov.imm r1, 0
        mov.imm r2, 256
        mov.imm r3, 512
        mov.imm r4, 1024
        v.v.add[16] r3, r1, r2
        v.v.add[16] r4, r1, r2
        halt''', 6, {}, ("vector-pipe", "free at 21.0")),
    "vector-drain": ('''
        set.vl 16
        mov.imm r1, 0
        mov.imm r2, 64
        mov.imm r3, 128
        v.v.mul[16] r3, r1, r2
        v.drain
        halt''', 5, {}, ("vector-drain", "last result at 11.0")),
    "lsu-slots": ('''
        mov.imm r1, 7
        mov.imm r2, 64
        st.reg r1, r2
        st.reg r1, r2
        st.reg r1, r2
        halt''', 4, {"max_outstanding_mem": 2},
        ("lsu", "all 2 slots busy until 53.0")),
    "lsu-memfence": ('''
        mov.imm r1, 7
        mov.imm r2, 64
        st.reg r1, r2
        memfence
        halt''', 3, {}, ("lsu", "1 outstanding, last at 53.0")),
    "pc-out-of-range": ("nop", 1, {}, ("pc-out-of-range", "pc=1")),
}


class TestDeadlockReport:
    def test_deadlock_carries_blocked_report(self):
        chip = Chip(num_pes=1)
        waiter = assemble("mov.imm r2, 0x100000\nld.fe r3, r2\nhalt")
        with pytest.raises(DeadlockError) as excinfo:
            chip.run([waiter])
        report = excinfo.value.report
        assert isinstance(report, BlockedReport)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.pe_id == 0
        assert entry.pc == 1
        assert "ld.fe" in entry.instruction
        assert entry.cause == "full-empty"
        assert "0x100000" in entry.detail

    def test_report_text_in_message(self):
        chip = Chip(num_pes=2)
        waiter = assemble("mov.imm r2, 0x100000\nld.fe r3, r2\nhalt")
        quick = assemble("halt")
        with pytest.raises(DeadlockError) as excinfo:
            chip.run([waiter, quick])
        message = str(excinfo.value)
        assert "PE 0" in message and "full-empty" in message

    def test_two_waiters_both_reported(self):
        chip = Chip(num_pes=2)
        w0 = assemble("mov.imm r2, 0x100000\nld.fe r3, r2\nhalt")
        w1 = assemble("mov.imm r2, 0x100008\nld.fe r3, r2\nhalt")
        with pytest.raises(DeadlockError) as excinfo:
            chip.run([w0, w1])
        report = excinfo.value.report
        assert [e.pe_id for e in report.entries] == [0, 1]
        assert {e.cause for e in report.entries} == {"full-empty"}


class TestMaxStepsReport:
    def test_max_steps_carries_report(self):
        chip = Chip(num_pes=1)
        spin = assemble("label: jmp label\nhalt")
        with pytest.raises(SimulationError) as excinfo:
            chip.run([spin], max_steps=50)
        report = excinfo.value.report
        assert isinstance(report, BlockedReport)
        assert report.entries and report.entries[0].pe_id == 0
        assert "jmp" in report.entries[0].instruction
        assert "jmp" in str(excinfo.value)


class TestDescribeStall:
    def test_ready_pe(self):
        chip = Chip(num_pes=1)
        chip.pes[0].load(assemble("halt"))
        assert chip.pes[0].describe_stall() == ("ready", "")

    def test_halted_pe(self):
        chip = Chip(num_pes=1)
        assert chip.pes[0].describe_stall()[0] == "halted"

    @pytest.mark.parametrize("case", sorted(STALLS))
    def test_stall_cause_and_detail(self, case):
        source, steps, config, expected = STALLS[case]
        pe = PE(PEConfig(**config))
        pe.load(assemble(source))
        for _ in range(steps):
            pe.step()
        assert pe.describe_stall() == expected

    def test_blocked_report_render(self):
        report = Chip(num_pes=2).blocked_report()
        assert len(report.entries) == 0  # all PEs halted at construction
        assert report.render() == ""
