"""The operand scan the issue bound keeps for the step.

On :class:`PE` the chip scheduler's bound check reads each scratchpad
operand's ARC clear time and write-ready time, and the step that follows
applies them instead of scanning again.  :class:`ReferencePE`'s bound
keeps no scan, so its steps take the scan themselves.  Two PEs
contending on one vault — where every step follows a bound check — must
give both interpreters the same cycles, stall split and bytes, and every
step must charge the stalls of the per-step rescan the handlers ran
before the scan was shared.  The program makes every kept value bind:
vector destinations inside in-flight loads (ARC), destinations still
read by an in-flight store or vector (write-after-read) and sources not
yet written (read-after-write), one of them by a single overlapping byte.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.isa import Opcode, assemble
from repro.pe.pe import PE, PEStatus
from repro.pe.reference import ReferenceChip, ReferencePE
from repro.system import Chip, VIPConfig


def hazard_program(pe_id):
    dram = 4096 * (1 + pe_id)
    return assemble(f"""
        set.vl 16
        set.fx 3
        mov.imm r1, {dram}
        mov.imm r2, 64
        mov.imm r3, 16
        mov.imm r4, 512
        mov.imm r5, 1024
        mov.imm r6, {dram + 2048}
        mov.imm r7, 1536
        mov.imm r8, 0
        mov.imm r9, 4
        mov.imm r10, 2048
        mov.imm r11, 95
        mov.imm r12, 3000
        loop:
        ld.sram[16] r2, r1, r3
        v.v.add[16] r2, r4, r5
        v.v.max[8] r12, r11, r11
        st.sram[16] r4, r6, r3
        v.v.mul[16] r4, r5, r5
        ld.sram[16] r5, r1, r3
        v.s.sub[16] r7, r2, r4
        set.mr 16
        m.v.add.min[16] r7, r5, r4
        st.sram[16] r7, r6, r3
        set.mr 1
        m.v.nop.max[16] r4, r7, r7
        v.v.add[16] r10, r2, r2
        ld.sram[16] r10, r1, r3
        add r1, r1, 32
        add r6, r6, 32
        add r8, r8, 1
        blt r8, r9, loop
        halt
    """)


def run_chip(chip_class):
    chip = chip_class(VIPConfig(), num_pes=4)
    rng = np.random.default_rng(1)
    for pe in chip.pes[:2]:
        pe.scratchpad[:] = rng.integers(0, 256, pe.scratchpad.size,
                                        dtype=np.uint8)
    chip.hmc.store.write(4096, rng.integers(0, 256, 8192, dtype=np.uint8))
    result = chip.run({0: hazard_program(0), 1: hazard_program(1)})
    return result, [pe.scratchpad.copy() for pe in chip.pes[:2]]


def test_reference_tier_keeps_its_timing():
    """The cycles and stall split the simulator gave this program before
    the scan was shared."""
    result, _ = run_chip(ReferenceChip)
    assert result.cycles == 1085.6875
    assert result.counters.stall_arc == 1154.6875
    assert result.counters.stall_hazard == 648.0


def test_kept_scan_matches_reference_tier():
    run, run_sp = run_chip(Chip)
    reference, reference_sp = run_chip(ReferenceChip)
    assert run.cycles == reference.cycles
    assert run.pe_cycles == reference.pe_cycles
    assert asdict(run.counters) == asdict(reference.counters)
    for a, b in zip(run_sp, reference_sp):
        assert np.array_equal(a, b)


SCANNED = {Opcode.LD_SRAM, Opcode.ST_SRAM, Opcode.MV, Opcode.VV, Opcode.VS}


def rescan_stalls(pe, instr):
    """The ARC and hazard stalls of the next ld/st.sram or vector step
    as the handlers charged them before the scan was shared: every query
    floored at the running issue time.  Returns the ``stall_arc`` and
    ``stall_hazard`` counters after those increments, added in order."""
    regs, esz = pe.regs, instr.width // 8
    t = max(pe.clock, *(pe.reg_time[r] for r in (instr.rd, instr.rs1, instr.rs2)))
    a, b, d = regs[instr.rs1], regs[instr.rs2], regs[instr.rd]
    op = instr.opcode
    if op is Opcode.LD_SRAM:
        reads, writes = [], [(d, b * esz)]
    elif op is Opcode.ST_SRAM:
        reads, writes = [(d, b * esz)], []
    elif op is Opcode.MV:
        reads = [(a, pe.mr * pe.vl * esz), (b, pe.vl * esz)]
        writes = [(d, pe.mr * esz)]
    else:
        n = pe.vl * esz
        reads = [(a, n), (b, n if op is Opcode.VV else esz)]
        writes = [(d, n)]
    stall_arc, stall_hazard = pe.counters.stall_arc, pe.counters.stall_hazard
    for start, nbytes in reads + writes:
        cleared = pe.arc.overlap_clear_time(start, nbytes, t)
        if cleared > t:
            stall_arc += cleared - t
            t = cleared
    for group, war in ((reads, False), (writes, True)):
        ready = t
        for start, nbytes in group:
            if nbytes > 0:
                ready = pe._sp_wtime.max_over(start, start + nbytes, ready)
                if war:
                    ready = pe._sp_rtime.max_over(start, start + nbytes, ready)
        if ready > t:
            stall_hazard += ready - t
            t = ready
    return stall_arc, stall_hazard


@pytest.mark.parametrize("pe_class,chip_class",
                         [(ReferencePE, ReferenceChip), (PE, Chip)],
                         ids=["reference", "vector"])
def test_every_step_charges_the_rescan_stalls(monkeypatch, pe_class,
                                              chip_class):
    """Step by step on both interpreters, whether the scan was kept by
    the issue bound or taken by the step, the interlock and hazard
    stalls equal the per-step rescan's."""
    step = pe_class.step
    checked = {"steps": 0, "stalls": 0, "arc_peak": 0}

    def checked_step(pe):
        if pe.status is not PEStatus.RUNNING:
            return step(pe)
        instr = pe.program[pe.pc]
        if instr.opcode not in SCANNED:
            return step(pe)
        want = rescan_stalls(pe, instr)
        before = pe.counters.stall_arc, pe.counters.stall_hazard
        status = step(pe)
        got = pe.counters.stall_arc, pe.counters.stall_hazard
        assert got == want
        checked["steps"] += 1
        checked["stalls"] += got != before
        checked["arc_peak"] = max(checked["arc_peak"], pe.arc.peak_occupancy)
        return status

    monkeypatch.setattr(pe_class, "step", checked_step)
    run_chip(chip_class)
    # ld.sram adds ARC-capacity stalls to stall_arc too; the program
    # never fills the ARC, so every stall_arc increment is an interlock.
    assert checked["arc_peak"] < VIPConfig().pe.arc_entries
    assert checked["steps"] == 2 * 4 * 12
    assert checked["stalls"] > 20

