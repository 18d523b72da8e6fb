"""Six simulated kernels with their full observable state captured.

Each runner stages one kernel at a fixed seed, runs it, and returns a
:class:`KernelRun`: simulated cycles, PE counters, DRAM and scratchpad
contents, and the DRAM layout it was staged through.  The vault kernels
run through :func:`~repro.workloads.bp.run_bpm_on_chip` and
:func:`~repro.workloads.gibbs.run_gibbs_on_chip` on a chip the harness
builds; :func:`run_conv_pass` and :func:`run_fc_stream` are the one
place a conv pass and an FC stream are staged, and take their geometry,
so the serving cost model and the fault sweep run them too.

* ``pe-vector`` — a single PE running a tight vector-ALU loop against
  an idealized :class:`~repro.pe.memoryif.FlatMemory`.
* ``vault-bp-tile`` — a four-PE vault sweeping a BP-M tile in all four
  directions (the Table IV BP methodology's inner kernel).
* ``gibbs-sweep`` — a four-PE vault running checkerboard Gibbs sweeps
  over a stereo MRF tile.
* ``conv-pass`` — a VGG-geometry convolution pass on one PE with
  faithful DRAM timing.
* ``fc-chunk`` — an FC weight-tile partial-product stream on one PE.
* ``fc-batch`` — the same stream over B resident input chunks: B
  back-to-back same-shape long vector ops per weight row.

The tests drive this registry: PE against the ``reference=True``
:class:`~repro.pe.reference.ReferencePE` oracle, zero-rate fault
injection, and every kernel under its roofline.  ``python -m
repro.trace`` runs ``vault-bp-tile``, ``conv-pass`` and ``fc-chunk``
with a trace collector attached.  The oracle is imported only when a
caller asks for it, so no production path loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
    #: The tile layout the kernel was staged through (its byte sizes are
    #: what a chip keeps resident); None for ``pe-vector``.
    layout: Any = None

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


def _vault_run(chip, cycles: float, layout, nbytes: int) -> KernelRun:
    """A vault kernel's state: counters summed over the PEs (they
    accumulate across ``chip.run`` calls) and ``nbytes`` of DRAM."""
    return KernelRun(cycles, PECounters.sum(pe.counters for pe in chip.pes),
                     chip.hmc.store.read(layout.base, nbytes),
                     tuple(pe.scratchpad.copy() for pe in chip.pes), layout)


def _vault_chip(reference: bool, faults, trace):
    from repro.system.config import VIPConfig

    _, Chip = _classes(reference)
    config = VIPConfig(faults=faults, trace=trace)
    return Chip(config, num_pes=config.pes_per_vault)


def run_vault_bp_tile(reference: bool = False, quick: bool = False,
                      faults=NO_FAULTS, trace=NULL_TRACE,
                      size: tuple[int, int, int] | None = None) -> KernelRun:
    """One full BP-M iteration (all four sweep directions) on one vault,
    run by :func:`~repro.workloads.bp.run_bpm_on_chip`.

    ``size`` is ``(rows, cols, labels)``; without it the quick tile is
    8×8×4 and the full one 12×16×8.
    """
    from repro.workloads.bp import run_bpm_on_chip, stereo_mrf

    rows, cols, labels = size or ((8, 8, 4) if quick else (12, 16, 8))
    chip = _vault_chip(reference, faults, trace)
    mrf, _ = stereo_mrf(rows, cols, labels=labels, seed=7)
    run = run_bpm_on_chip(mrf, iterations=1, chip=chip)
    return _vault_run(chip, run.cycles, run.layout, run.layout.total_bytes)


def _run_gibbs_sweep(reference: bool, quick: bool, faults=NO_FAULTS,
                     trace=NULL_TRACE) -> KernelRun:
    """Checkerboard Gibbs sweeps on one vault, run by
    :func:`~repro.workloads.gibbs.run_gibbs_on_chip`."""
    from repro.workloads.bp import stereo_mrf
    from repro.workloads.gibbs import run_gibbs_on_chip

    rows, cols, labels, sweeps = (8, 8, 8, 2) if quick else (12, 16, 16, 3)
    chip = _vault_chip(reference, faults, trace)
    mrf, _ = stereo_mrf(rows, cols, labels=labels, seed=7)
    run = run_gibbs_on_chip(mrf, burn_in=0, samples=sweeps, seed=0,
                            chip=chip)
    layout = run.layout
    return _vault_run(chip, run.cycles, layout, layout.end - layout.base)


def _run_on_pe(reference: bool, faults, trace, program: Program, layout,
               *data) -> KernelRun:
    """Stage ``data`` through ``layout`` into vault 0 and run ``program``
    on one PE with faithful DRAM timing."""
    from repro.memory.hmc import HMC
    from repro.pe.memoryif import LocalVaultMemory

    PE, _ = _classes(reference)
    hmc = HMC(faults=faults, trace=trace)
    layout.stage(hmc.store, *data)
    pe = PE(PEConfig(faults=faults, trace=trace),
            memory=LocalVaultMemory(hmc, vault=0, trace=trace))
    result = pe.run(program)
    return KernelRun(result.cycles, result.counters,
                     hmc.store.read(layout.base, layout.total_bytes),
                     (pe.scratchpad.copy(),), layout)


def run_conv_pass(reference: bool = False, quick: bool = False,
                  faults=NO_FAULTS, trace=NULL_TRACE,
                  size: tuple[int, int, int] | None = None) -> KernelRun:
    """A VGG-geometry conv pass (k=3, two filters) on one PE.

    ``size`` is ``(out_h, out_w, z)``; without it the quick pass is
    4×8×64 and the full one 8×16×64.
    """
    from repro.kernels.conv_kernel import ConvTileLayout, build_conv_pass_program

    out_h, out_w, z = size or ((4, 8, 64) if quick else (8, 16, 64))
    k, filters = 3, 2
    rng = np.random.default_rng(7)
    inputs = rng.integers(-30, 30, (out_h, out_w, z)).astype(np.int16)
    weights = rng.integers(-20, 20, (filters, k, k, z)).astype(np.int16)
    bias = rng.integers(-10, 10, filters).astype(np.int16)
    layout = ConvTileLayout(base=4096, in_h=out_h + 2, in_w=out_w + 2, z=z,
                            k=k, num_filters=filters, out_h=out_h, out_w=out_w)
    program = build_conv_pass_program(layout, 0, filters, 0, out_h, fx=8,
                                      strip_rows=2)
    return _run_on_pe(reference, faults, trace, program, layout,
                      inputs, weights, bias)


def fc_tile(quick: bool) -> tuple[int, int]:
    """``(rows, chunk)`` of the FC weight tile :func:`run_fc_stream`
    streams."""
    return (16, 64) if quick else (48, 128)


def run_fc_stream(reference: bool = False, quick: bool = False,
                  faults=NO_FAULTS, trace=NULL_TRACE,
                  batch: int = 1) -> KernelRun:
    """An FC weight-tile partial-product stream on one PE over ``batch``
    resident input chunks: ``batch`` back-to-back same-shape long
    ``m.v.mul.add`` ops per weight row, the serving cost model's
    batched-FC shape."""
    from repro.kernels.fc_kernel import FCTileLayout, build_fc_partial_program

    rows, chunk = fc_tile(quick)
    rng = np.random.default_rng(7)
    W = rng.integers(-40, 40, (rows, chunk)).astype(np.int16)
    X = rng.integers(-40, 40, (batch, chunk)).astype(np.int16)
    layout = FCTileLayout(base=8192, rows=rows, chunk=chunk, batch=batch)
    return _run_on_pe(reference, faults, trace,
                      build_fc_partial_program(layout, fx=6), layout, W, X)


def _run_fc_batch(reference: bool, quick: bool, faults=NO_FAULTS,
                  trace=NULL_TRACE) -> KernelRun:
    return run_fc_stream(reference, quick, faults, trace,
                         batch=4 if quick else 8)


_SIM_RUNNERS = {
    "pe-vector": _run_pe_vector,
    "vault-bp-tile": run_vault_bp_tile,
    "gibbs-sweep": _run_gibbs_sweep,
    "conv-pass": run_conv_pass,
    "fc-chunk": run_fc_stream,
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
