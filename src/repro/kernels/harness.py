"""Six simulated kernels with their full observable state captured.

Each runner stages one kernel at a fixed geometry and seed, runs it,
and returns a :class:`KernelRun`: simulated cycles, PE counters, DRAM
and scratchpad contents.

* ``pe-vector`` — a single PE running a tight vector-ALU loop against
  an idealized :class:`~repro.pe.memoryif.FlatMemory`.
* ``vault-bp-tile`` — a four-PE vault sweeping a BP-M tile in all four
  directions (the Table IV BP methodology's inner kernel).
* ``gibbs-sweep`` — a four-PE vault running checkerboard Gibbs sweeps
  over a stereo MRF tile.
* ``conv-pass`` — a VGG-geometry convolution pass on one PE with
  faithful DRAM timing.
* ``fc-chunk`` — an FC weight-tile partial-product stream on one PE.
* ``fc-batch`` — the same stream over B resident input chunks.

The tests drive this registry: PE against the ``reference=True``
:class:`~repro.pe.reference.ReferencePE` oracle, zero-rate fault
injection, and every kernel under its roofline.  ``python -m
repro.trace`` runs ``vault-bp-tile``, ``conv-pass`` and ``fc-chunk``
with a trace collector attached.  The oracle is imported only when a
caller asks for it, so no production path loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.config import NO_FAULTS
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.pe.config import PEConfig
from repro.pe.counters import PECounters
from repro.trace.collector import NULL_TRACE


@dataclass
class KernelRun:
    """Full observable state of one simulated kernel, for equivalence
    checks between the PE and its reference interpreter."""

    cycles: float
    counters: PECounters
    dram: np.ndarray
    scratchpads: tuple[np.ndarray, ...]

    def assert_equal(self, other: "KernelRun", what: str) -> None:
        if self.cycles != other.cycles:
            raise AssertionError(
                f"{what}: cycles differ ({self.cycles} vs {other.cycles})")
        if self.counters != other.counters:
            raise AssertionError(f"{what}: counters differ")
        if not np.array_equal(self.dram, other.dram):
            raise AssertionError(f"{what}: DRAM contents differ")
        for i, (a, b) in enumerate(zip(self.scratchpads, other.scratchpads)):
            if not np.array_equal(a, b):
                raise AssertionError(f"{what}: scratchpad {i} differs")


def _classes(reference: bool):
    """``(PE, Chip)``, or the ``ReferencePE`` oracle and its chip."""
    if reference:
        from repro.pe.reference import ReferenceChip, ReferencePE

        return ReferencePE, ReferenceChip
    from repro.pe.pe import PE
    from repro.system.chip import Chip

    return PE, Chip


def _pe_vector_program(iters: int, vl: int) -> Program:
    b = ProgramBuilder()
    b.set_vl(vl)
    b.set_fx(4)
    r_a, r_b, r_c = b.alloc_reg(), b.alloc_reg(), b.alloc_reg()
    b.movi(r_a, 0)
    b.movi(r_b, vl * 2)
    b.movi(r_c, 2 * vl * 2)
    r_src = b.alloc_reg()
    b.movi(r_src, 0)
    r_cnt = b.alloc_reg()
    b.movi(r_cnt, 2 * vl)
    b.ld_sram(r_a, r_src, r_cnt)
    r_i, r_n = b.alloc_reg(), b.alloc_reg()
    b.movi(r_i, 0)
    b.movi(r_n, iters)
    b.label("loop")
    b.vv("add", r_c, r_a, r_b)
    b.vv("mul", r_a, r_c, r_b)
    b.vv("max", r_b, r_a, r_c)
    b.add(r_i, r_i, imm=1)
    b.blt(r_i, r_n, "loop")
    b.v_drain()
    b.st_sram(r_a, r_src, r_cnt)
    b.halt()
    return b.build()


def _run_pe_vector(reference: bool, quick: bool, faults=NO_FAULTS,
                   trace=NULL_TRACE) -> KernelRun:
    from repro.pe.memoryif import FlatMemory

    PE, _ = _classes(reference)
    iters, vl = (64, 16) if quick else (512, 32)
    rng = np.random.default_rng(11)
    mem = FlatMemory(faults=faults, trace=trace)
    mem.store.write_array(0, rng.integers(-500, 500, 2 * vl), dtype=np.int16)
    pe = PE(PEConfig(faults=faults, trace=trace), memory=mem)
    result = pe.run(_pe_vector_program(iters, vl))
    return KernelRun(result.cycles, result.counters,
                     mem.store.read(0, 4 * vl), (pe.scratchpad.copy(),))


def run_vault_bp_tile(reference: bool = False, quick: bool = False,
                      faults=NO_FAULTS, trace=NULL_TRACE,
                      size: tuple[int, int, int] | None = None) -> KernelRun:
    """One full BP-M iteration (all four sweep directions) on one vault.

    ``size`` is ``(rows, cols, labels)``; without it the quick tile is
    8×8×4 and the full one 12×16×8.
    """
    from repro.kernels.bp_kernel import (
        BPTileLayout,
        build_vault_sweep_programs,
        cross_extent,
    )
    from repro.system.config import VIPConfig
    from repro.workloads.bp import stereo_mrf
    from repro.workloads.bp.mrf import DIRECTIONS

    _, Chip = _classes(reference)
    rows, cols, labels = size or ((8, 8, 4) if quick else (12, 16, 8))
    config = VIPConfig(faults=faults, trace=trace)
    chip = Chip(config, num_pes=config.pes_per_vault)
    mrf, _ = stereo_mrf(rows, cols, labels=labels, seed=7)
    layout = BPTileLayout(base=4096, rows=mrf.rows, cols=mrf.cols,
                          labels=mrf.labels)
    layout.stage(chip.hmc.store, mrf, mrf.zero_messages())
    cycles = 0.0
    for direction in DIRECTIONS:
        pes = min(config.pes_per_vault, cross_extent(layout, direction))
        cycles += chip.run(
            build_vault_sweep_programs(layout, direction, pes)).cycles
    # Counters accumulate in the PEs across the four sweeps.
    counters = PECounters.sum(pe.counters for pe in chip.pes)
    return KernelRun(cycles, counters,
                     chip.hmc.store.read(layout.base, layout.total_bytes),
                     tuple(pe.scratchpad.copy() for pe in chip.pes))


def _run_gibbs_sweep(reference: bool, quick: bool, faults=NO_FAULTS,
                     trace=NULL_TRACE) -> KernelRun:
    from repro.kernels.gibbs_kernel import (
        GibbsTileLayout,
        build_vault_phase_programs,
    )
    from repro.system.config import VIPConfig
    from repro.workloads.bp import stereo_mrf

    _, Chip = _classes(reference)
    rows, cols, labels, sweeps = (8, 8, 8, 2) if quick else (12, 16, 16, 3)
    config = VIPConfig(faults=faults, trace=trace)
    chip = Chip(config, num_pes=config.pes_per_vault)
    mrf, _ = stereo_mrf(rows, cols, labels=labels, seed=7)
    layout = GibbsTileLayout(rows=rows, cols=cols, labels=labels,
                             num_pes=config.pes_per_vault, base=4096)
    layout.stage(chip.hmc.store, mrf, seed=0)
    result = None
    for _ in range(sweeps):
        for parity in (0, 1):
            result = chip.run(build_vault_phase_programs(layout, parity))
    counters = PECounters.sum(pe.counters for pe in chip.pes)
    # PE clocks accumulate across chip.run barriers, so the final
    # result's cycle count is the whole run's.
    return KernelRun(result.cycles, counters,
                     chip.hmc.store.read(layout.base, layout.end - layout.base),
                     tuple(pe.scratchpad.copy() for pe in chip.pes))


def _run_conv_pass(reference: bool, quick: bool, faults=NO_FAULTS,
                   trace=NULL_TRACE) -> KernelRun:
    """A VGG-geometry conv pass (z=64, k=3, two filters) on one PE."""
    from repro.kernels.conv_kernel import ConvTileLayout, build_conv_pass_program
    from repro.memory.hmc import HMC
    from repro.pe.memoryif import LocalVaultMemory

    PE, _ = _classes(reference)
    out_h, out_w = (4, 8) if quick else (8, 16)
    z, k, filters = 64, 3, 2
    rng = np.random.default_rng(7)
    inputs = rng.integers(-30, 30, (out_h, out_w, z)).astype(np.int16)
    weights = rng.integers(-20, 20, (filters, k, k, z)).astype(np.int16)
    bias = rng.integers(-10, 10, filters).astype(np.int16)
    layout = ConvTileLayout(base=4096, in_h=out_h + 2, in_w=out_w + 2, z=z,
                            k=k, num_filters=filters, out_h=out_h, out_w=out_w)
    hmc = HMC(faults=faults, trace=trace)
    layout.stage(hmc.store, inputs, weights, bias)
    pe = PE(PEConfig(faults=faults, trace=trace),
            memory=LocalVaultMemory(hmc, vault=0, trace=trace))
    result = pe.run(build_conv_pass_program(layout, 0, filters, 0, out_h,
                                            fx=8, strip_rows=2))
    return KernelRun(result.cycles, result.counters,
                     hmc.store.read(layout.base, layout.total_bytes),
                     (pe.scratchpad.copy(),))


def _run_fc_chunk(reference: bool, quick: bool, faults=NO_FAULTS,
                  trace=NULL_TRACE) -> KernelRun:
    """One FC partial-product tile on one PE."""
    from repro.kernels.fc_kernel import FCTileLayout, build_fc_partial_program
    from repro.memory.hmc import HMC
    from repro.pe.memoryif import LocalVaultMemory

    PE, _ = _classes(reference)
    rows, chunk = (16, 64) if quick else (48, 128)
    rng = np.random.default_rng(7)
    W = rng.integers(-40, 40, (rows, chunk)).astype(np.int16)
    X = rng.integers(-40, 40, (1, chunk)).astype(np.int16)
    layout = FCTileLayout(base=8192, rows=rows, chunk=chunk, batch=1)
    hmc = HMC(faults=faults, trace=trace)
    layout.stage(hmc.store, W, X)
    pe = PE(PEConfig(faults=faults, trace=trace),
            memory=LocalVaultMemory(hmc, vault=0, trace=trace))
    result = pe.run(build_fc_partial_program(layout, fx=6))
    return KernelRun(result.cycles, result.counters,
                     hmc.store.read(layout.base, layout.total_bytes),
                     (pe.scratchpad.copy(),))


def _run_fc_batch(reference: bool, quick: bool, faults=NO_FAULTS,
                  trace=NULL_TRACE) -> KernelRun:
    """The batched FC kernel (B resident input chunks): B back-to-back
    same-shape ``m.v.mul.add`` ops per weight row, the shape the PE's
    ``VectorOpQueue`` stacks into one numpy call."""
    from repro.kernels.fc_kernel import FCTileLayout, build_fc_partial_program
    from repro.memory.hmc import HMC
    from repro.pe.memoryif import LocalVaultMemory

    PE, _ = _classes(reference)
    rows, chunk, batch = (16, 64, 4) if quick else (48, 128, 8)
    rng = np.random.default_rng(7)
    W = rng.integers(-40, 40, (rows, chunk)).astype(np.int16)
    X = rng.integers(-40, 40, (batch, chunk)).astype(np.int16)
    layout = FCTileLayout(base=8192, rows=rows, chunk=chunk, batch=batch)
    hmc = HMC(faults=faults, trace=trace)
    layout.stage(hmc.store, W, X)
    pe = PE(PEConfig(faults=faults, trace=trace),
            memory=LocalVaultMemory(hmc, vault=0, trace=trace))
    result = pe.run(build_fc_partial_program(layout, fx=6))
    return KernelRun(result.cycles, result.counters,
                     hmc.store.read(layout.base, layout.total_bytes),
                     (pe.scratchpad.copy(),))


_SIM_RUNNERS = {
    "pe-vector": _run_pe_vector,
    "vault-bp-tile": run_vault_bp_tile,
    "gibbs-sweep": _run_gibbs_sweep,
    "conv-pass": _run_conv_pass,
    "fc-chunk": _run_fc_chunk,
    "fc-batch": _run_fc_batch,
}

#: Every kernel the harness runs, in registry order.
SIM_BENCHES = tuple(_SIM_RUNNERS)


def run_sim_kernel(name: str, reference: bool = False, quick: bool = False,
                   faults=NO_FAULTS, trace=NULL_TRACE) -> KernelRun:
    """Run one harness kernel and capture its observable state.

    The run on :class:`~repro.pe.pe.PE` and the one on the
    ``reference=True`` :class:`~repro.pe.reference.ReferencePE` must
    produce ``KernelRun``s that compare equal.  ``faults`` threads a
    fresh :class:`~repro.faults.injector.FaultInjector` through the
    kernel's whole system; the fault-plumbing tests use it to prove an
    attached all-zero-rate injector leaves every kernel byte-identical.
    ``trace`` is the event sink of the PEs and the memory system.
    """
    return _SIM_RUNNERS[name](reference, quick, faults, trace)
