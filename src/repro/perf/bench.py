"""``python -m repro.perf.bench`` — the tracked simulator benchmark suite.

Runs a set of named micro and macro benchmarks, records wall time and
simulated-cycles-per-second for each, and writes a ``BENCH_<tag>.json``
snapshot so speedups (and regressions) are tracked in-repo across PRs.

Benches:

* ``fixedpoint-sat`` (micro) — numpy saturating-arithmetic throughput,
  the per-element cost underneath every vector instruction.
* ``pe-vector`` (micro) — a single PE running a tight vector-ALU loop
  against an idealized :class:`~repro.pe.memoryif.FlatMemory`.
* ``vault-bp-tile`` (macro) — a four-PE vault sweeping a BP-M tile in
  all four directions (the Table IV BP methodology's inner kernel).
* ``gibbs-sweep`` (macro) — a four-PE vault running checkerboard Gibbs
  sweeps over a stereo MRF tile (the uncertainty-quantification
  workload's inner kernel: data-dependent smoothness lookups, LCG
  draws, and software multiplies on the scalar unit).
* ``conv-pass`` (macro) — a VGG-geometry convolution pass on one PE
  with faithful DRAM timing.
* ``fc-chunk`` (macro) — an FC weight-tile partial-product stream on
  one PE with faithful DRAM timing.
* ``serve-fleet`` (macro) — the :mod:`repro.serve` serving layer on a
  fixed seeded arrival trace (bp+vgg mix, four chips): cost-table
  measurement plus the fleet event loop, end to end.
* ``serve-resilience`` (macro) — the same fleet under a seeded chip
  failure lifecycle (one fail-stop chip, one straggler, hedging on):
  health checks, retries, hedges, and breakers all exercised; records
  availability, goodput, and wasted cycles alongside wall time.
* ``serve-autoscale`` (macro) — the fleet under a bursty flash crowd
  with the simulated autoscaler on (2 boot chips, ceiling 6): scale
  decisions, warm-up, and drain/retire cycles all on the hot path;
  records scale events, elastic chip-cycles, and tail latency.
* ``serve-cluster`` (macro) — two 2-chip fleet shards behind the
  deterministic cluster router, with every chip of a shard in one
  correlated failure domain and a tight in-shard retry budget: a
  seeded zone outage pushes expiring work onto the cross-shard
  failover path, so gossip, belief staleness, and redispatch are all
  on the hot path; records failovers, gossip ticks, and the minimum
  believed-alive shard fraction alongside wall time.
* ``serve-cold-start`` (macro) — the FC cost-table build at a deep
  batch ceiling, measured twice: the exhaustive builder versus the
  cross-validated surrogate (:mod:`repro.serve.surrogate`); records the
  cold-start speedup and the surrogate's holdout-validation summary.
* ``vectorized-step`` (macro) — the batched FC kernel on the PE
  interpreter, whose ``VectorOpQueue`` stacks its same-shaped vector
  ops, versus the eager :class:`~repro.pe.reference.ReferencePE`,
  asserting byte-identical outcomes before timing, and placing the
  sustained throughput under the single-PE roofline (a point above the
  roof means dropped cycles, so it gates).

Candidate-vs-baseline timings (``--compare`` speedups, the cold-start
pair) interleave their repeats round-robin within one loop, so slow
host drift (thermal throttling, a neighbor stealing the core) lands on
both sides equally instead of biasing whichever ran last.

``--compare`` additionally runs every simulator bench on the
straight-line :class:`~repro.pe.reference.ReferencePE` oracle and
*asserts* that simulated cycles, counters, DRAM contents, and scratchpad
contents are identical before recording the PE/reference speedup: the
PE's shortcuts must be optimizations, never a model change.  The same
kernels back ``tests/perf/test_fastpath_equiv.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.faults.config import NO_FAULTS
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.pe.config import PEConfig
from repro.pe.counters import PECounters
from repro.perf.roofline import Roofline, point_from_counters, validate_point
from repro.trace.collector import NULL_TRACE

SCHEMA = "repro.perf.bench/v1"

MICRO_BENCHES = ("fixedpoint-sat", "pe-vector")
MACRO_BENCHES = ("vault-bp-tile", "gibbs-sweep", "conv-pass", "fc-chunk",
                 "serve-fleet", "serve-resilience", "serve-autoscale",
                 "serve-cluster", "serve-cold-start", "vectorized-step")
ALL_BENCHES = MICRO_BENCHES + MACRO_BENCHES

#: Single-kernel simulator benches with a ``ReferencePE`` twin — the
#: registry the PE-vs-reference equivalence checks drive.  The
#: serve-fleet macro is excluded: it layers scheduling on top of these
#: kernels and has its own serial-vs-parallel equality check instead.
SIM_BENCHES = ("pe-vector", "vault-bp-tile", "gibbs-sweep", "conv-pass",
               "fc-chunk", "fc-batch")


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


# ---------------------------------------------------------------------------
# Simulated kernels


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
    mem = FlatMemory(faults=faults)
    mem.store.write_array(0, rng.integers(-500, 500, 2 * vl), dtype=np.int16)
    pe = PE(PEConfig(faults=faults, trace=trace), memory=mem)
    result = pe.run(_pe_vector_program(iters, vl))
    return KernelRun(result.cycles, result.counters,
                     mem.store.read(0, 4 * vl), (pe.scratchpad.copy(),))


def _run_vault_bp_tile(reference: bool, quick: bool, faults=NO_FAULTS,
                       trace=NULL_TRACE) -> KernelRun:
    from repro.kernels.bp_kernel import (
        BPTileLayout,
        build_vault_sweep_programs,
        cross_extent,
    )
    from repro.system.config import VIPConfig
    from repro.workloads.bp import stereo_mrf
    from repro.workloads.bp.mrf import DIRECTIONS

    _, Chip = _classes(reference)
    rows, cols, labels = (8, 8, 4) if quick else (12, 16, 8)
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
    hmc = HMC(faults=faults)
    layout.stage(hmc.store, inputs, weights, bias)
    pe = PE(PEConfig(faults=faults, trace=trace),
            memory=LocalVaultMemory(hmc, vault=0))
    result = pe.run(build_conv_pass_program(layout, 0, filters, 0, out_h,
                                            fx=8, strip_rows=2))
    return KernelRun(result.cycles, result.counters,
                     hmc.store.read(layout.base, layout.total_bytes),
                     (pe.scratchpad.copy(),))


def _run_fc_chunk(reference: bool, quick: bool, faults=NO_FAULTS,
                  trace=NULL_TRACE) -> KernelRun:
    from repro.kernels.fc_kernel import FCTileLayout, build_fc_partial_program
    from repro.memory.hmc import HMC
    from repro.pe.memoryif import LocalVaultMemory

    PE, _ = _classes(reference)
    rows, chunk = (16, 64) if quick else (48, 128)
    rng = np.random.default_rng(7)
    W = rng.integers(-40, 40, (rows, chunk)).astype(np.int16)
    X = rng.integers(-40, 40, (1, chunk)).astype(np.int16)
    layout = FCTileLayout(base=8192, rows=rows, chunk=chunk, batch=1)
    hmc = HMC(faults=faults)
    layout.stage(hmc.store, W, X)
    pe = PE(PEConfig(faults=faults, trace=trace),
            memory=LocalVaultMemory(hmc, vault=0))
    result = pe.run(build_fc_partial_program(layout, fx=6))
    return KernelRun(result.cycles, result.counters,
                     hmc.store.read(layout.base, layout.total_bytes),
                     (pe.scratchpad.copy(),))


def _run_fc_batch(reference: bool, quick: bool, faults=NO_FAULTS,
                  trace=NULL_TRACE) -> KernelRun:
    """The batched FC kernel (B resident input chunks) — the shape the
    vectorized stepping mode exists for: B back-to-back same-shape
    ``m.v.mul.add`` ops per weight row batch into one numpy call."""
    from repro.kernels.fc_kernel import FCTileLayout, build_fc_partial_program
    from repro.memory.hmc import HMC
    from repro.pe.memoryif import LocalVaultMemory

    PE, _ = _classes(reference)
    rows, chunk, batch = (16, 64, 4) if quick else (48, 128, 8)
    rng = np.random.default_rng(7)
    W = rng.integers(-40, 40, (rows, chunk)).astype(np.int16)
    X = rng.integers(-40, 40, (batch, chunk)).astype(np.int16)
    layout = FCTileLayout(base=8192, rows=rows, chunk=chunk, batch=batch)
    hmc = HMC(faults=faults)
    layout.stage(hmc.store, W, X)
    pe = PE(PEConfig(faults=faults, trace=trace),
            memory=LocalVaultMemory(hmc, vault=0))
    result = pe.run(build_fc_partial_program(layout, fx=6))
    return KernelRun(result.cycles, result.counters,
                     hmc.store.read(layout.base, layout.total_bytes),
                     (pe.scratchpad.copy(),))


_SIM_RUNNERS = {
    "pe-vector": _run_pe_vector,
    "vault-bp-tile": _run_vault_bp_tile,
    "gibbs-sweep": _run_gibbs_sweep,
    "conv-pass": _run_conv_pass,
    "fc-chunk": _run_fc_chunk,
    "fc-batch": _run_fc_batch,
}


def run_sim_kernel(name: str, reference: bool = False, quick: bool = False,
                   faults=NO_FAULTS, trace=NULL_TRACE) -> KernelRun:
    """Run one simulator bench kernel and capture its observable state.

    This is the registry the PE-vs-reference equivalence test drives:
    the run on :class:`~repro.pe.pe.PE` and the one on the
    ``reference=True`` :class:`~repro.pe.reference.ReferencePE` must
    produce ``KernelRun``s that compare equal.  ``faults`` threads a
    fresh :class:`~repro.faults.injector.FaultInjector` through the
    kernel's whole system; the fault-plumbing tests use it to prove an
    attached all-zero-rate injector leaves every kernel byte-identical.
    ``trace`` is the PEs' event sink.
    """
    return _SIM_RUNNERS[name](reference, quick, faults, trace)


# ---------------------------------------------------------------------------
# Measurement


def _best_wall(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time; the minimum is the least noisy
    estimator of the true cost on a shared machine."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_best(fns: dict, repeat: int) -> dict:
    """Best-of-``repeat`` wall time per candidate, with the candidates
    interleaved round-robin in ONE loop.

    Timing candidate A's repeats back-to-back and then candidate B's
    hands any monotone host drift (thermal throttling, a neighbor
    landing on the core) entirely to B: earlier snapshots recorded
    sub-1.0 self-speedups that were pure drift.  Interleaving puts every
    host state on every candidate, so the best-of minimum compares like
    with like."""
    best = {name: float("inf") for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def _bench_fixedpoint(repeat: int, quick: bool, compare: bool) -> dict:
    from repro.fixedpoint import sat_add, sat_mul, saturate

    n = 1 << 13 if quick else 1 << 15
    iters = 10 if quick else 50
    rng = np.random.default_rng(11)
    a = rng.integers(-40_000, 40_000, n)
    b = rng.integers(-40_000, 40_000, n)

    def work():
        for _ in range(iters):
            saturate(a * 3, 16)
            sat_add(a, b, 16)
            sat_mul(a, b, 16, frac_shift=4)

    work()  # warmup
    wall = _best_wall(work, repeat)
    ops = 3 * n * iters
    return {
        "name": "fixedpoint-sat",
        "kind": "micro",
        "wall_s": wall,
        "elements": ops,
        "elements_per_second": ops / wall,
    }


def _bench_sim(name: str, repeat: int, quick: bool, compare: bool) -> dict:
    kind = "micro" if name in MICRO_BENCHES else "macro"
    runner = _SIM_RUNNERS[name]
    run = runner(False, quick)  # warmup (also builds/caches the programs)
    if compare:
        reference = runner(True, quick)
        run.assert_equal(reference, name)
        walls = _interleaved_best({"pe": lambda: runner(False, quick),
                                   "ref": lambda: runner(True, quick)},
                                  repeat)
        wall = walls["pe"]
    else:
        wall = _best_wall(lambda: runner(False, quick), repeat)
    record = {
        "name": name,
        "kind": kind,
        "wall_s": wall,
        "sim_cycles": run.cycles,
        "cycles_per_wall_second": run.cycles / wall,
    }
    if compare:
        record["reference_wall_s"] = walls["ref"]
        record["speedup"] = walls["ref"] / wall
    return record


def _bench_serve(repeat: int, quick: bool, compare: bool) -> dict:
    from repro.serve.fleet import ServeConfig
    from repro.serve.report import run_report
    from repro.serve.workload import WorkloadConfig

    workload = WorkloadConfig(mix="bp+vgg", arrival="poisson",
                              rate=100_000.0,
                              requests=60 if quick else 200, seed=0)
    config = ServeConfig(chips=4)

    def work(workers: int = 1) -> dict:
        return run_report(workload, config, mixes=("bp+vgg",),
                          quick=quick, max_workers=workers)[0]

    payload = work()  # warmup (also builds/caches the kernel programs)
    wall = _best_wall(work, repeat)
    m = payload["mixes"]["bp+vgg"]
    record = {
        "name": "serve-fleet",
        "kind": "macro",
        "wall_s": wall,
        "sim_cycles": m["makespan_cycles"],
        "cycles_per_wall_second": m["makespan_cycles"] / wall,
        "requests_served": m["served"],
        "sim_throughput_rps": m["throughput_rps"],
        "latency_p99_ms": m["latency_ms"]["p99"],
    }
    if compare:
        if work(workers=2) != payload:
            raise AssertionError(
                "serve-fleet: parallel cost-table run diverged from serial")
        record["parallel_equal"] = True
    return record


def _bench_serve_resilience(repeat: int, quick: bool, compare: bool) -> dict:
    from repro.serve.failures import FailureConfig
    from repro.serve.fleet import ServeConfig
    from repro.serve.report import run_report
    from repro.serve.resilience import ResilienceConfig
    from repro.serve.workload import WorkloadConfig

    workload = WorkloadConfig(mix="bp+vgg", arrival="poisson",
                              rate=100_000.0,
                              requests=60 if quick else 200, seed=0)
    config = ServeConfig(
        chips=4,
        failures=FailureConfig(
            seed=3,
            fail_stop_chips=(0,),
            fail_stop_mtbf_cycles=400_000.0,
            repair_mean_cycles=150_000.0,
            fail_slow_chips=(1,),
            fail_slow_mtbf_cycles=300_000.0,
            fail_slow_duration_cycles=200_000.0,
        ),
        resilience=ResilienceConfig(hedge_delay_cycles=20_000.0),
    )

    def work(workers: int = 1) -> dict:
        return run_report(workload, config, mixes=("bp+vgg",),
                          quick=quick, max_workers=workers)[0]

    payload = work()  # warmup (also builds/caches the kernel programs)
    wall = _best_wall(work, repeat)
    m = payload["mixes"]["bp+vgg"]
    if m["served"] + m["shed"] + m["expired"] != m["total"]:
        raise AssertionError("serve-resilience: request accounting leak")
    record = {
        "name": "serve-resilience",
        "kind": "macro",
        "wall_s": wall,
        "sim_cycles": m["makespan_cycles"],
        "cycles_per_wall_second": m["makespan_cycles"] / wall,
        "requests_served": m["served"],
        "availability": m["availability"],
        "sim_goodput_rps": m["goodput_rps"],
        "retries": m["retries"],
        "hedges": m["hedges"],
        "retry_wasted_cycles": m["retry_wasted_cycles"],
        "hedge_wasted_cycles": m["hedge_wasted_cycles"],
        "latency_p999_ms": m["latency_ms"]["p999"],
    }
    if compare:
        if work(workers=2) != payload:
            raise AssertionError(
                "serve-resilience: parallel cost-table run diverged "
                "from serial")
        record["parallel_equal"] = True
    return record


def _bench_serve_autoscale(repeat: int, quick: bool, compare: bool) -> dict:
    from repro.serve.autoscale import AutoscaleConfig
    from repro.serve.fleet import ServeConfig
    from repro.serve.report import run_report
    from repro.serve.workload import WorkloadConfig

    workload = WorkloadConfig(mix="bp+vgg", arrival="bursty",
                              rate=150_000.0,
                              requests=60 if quick else 200, seed=7,
                              burst_factor=12.0, burst_len=30.0)
    config = ServeConfig(
        chips=2,
        queue_capacity=32,
        autoscale=AutoscaleConfig(
            min_chips=2, max_chips=6,
            evaluate_interval_cycles=50_000.0,
            up_backlog_cycles=75_000.0,
            idle_cycles=100_000.0,
            warmup_cycles=50_000.0,
            cooldown_cycles=200_000.0,
        ),
    )

    def work(workers: int = 1) -> dict:
        return run_report(workload, config, mixes=("bp+vgg",),
                          quick=quick, max_workers=workers)[0]

    payload = work()  # warmup (also builds/caches the kernel programs)
    wall = _best_wall(work, repeat)
    m = payload["mixes"]["bp+vgg"]
    a = m["autoscale"]
    if a["chips_added"] < 1:
        raise AssertionError(
            "serve-autoscale: the flash crowd never triggered a scale-up "
            "— the bench is not exercising the autoscaler")
    draining = set()
    for e in a["events"]:
        if e["action"] == "drain":
            draining.add(e["chip"])
        elif e["action"] == "remove" and e["chip"] not in draining:
            raise AssertionError(
                f"serve-autoscale: chip {e['chip']} removed without a "
                f"preceding drain")
    record = {
        "name": "serve-autoscale",
        "kind": "macro",
        "wall_s": wall,
        "sim_cycles": m["makespan_cycles"],
        "cycles_per_wall_second": m["makespan_cycles"] / wall,
        "requests_served": m["served"],
        "scale_events": len(a["events"]),
        "chips_added": a["chips_added"],
        "chips_removed": a["chips_removed"],
        "peak_chips": a["peak_chips"],
        "chip_cycles_active": a["chip_cycles_active"],
        "latency_p99_ms": m["latency_ms"]["p99"],
    }
    if compare:
        if work(workers=2) != payload:
            raise AssertionError(
                "serve-autoscale: parallel cost-table run diverged "
                "from serial")
        record["parallel_equal"] = True
    return record


def _bench_serve_cluster(repeat: int, quick: bool, compare: bool) -> dict:
    from repro.serve.cluster import ClusterConfig
    from repro.serve.failures import FailureConfig
    from repro.serve.fleet import ServeConfig
    from repro.serve.report import run_report
    from repro.serve.resilience import ResilienceConfig
    from repro.serve.workload import WorkloadConfig

    # The arrival rate tracks the cost table's fidelity: full-size bp
    # requests cost far more cycles, so the full bench slows arrivals
    # to stay in the regime where failover rescues work instead of the
    # whole trace expiring against the retry deadline.
    workload = WorkloadConfig(mix="bp", arrival="bursty",
                              rate=250_000.0 if quick else 60_000.0,
                              requests=80 if quick else 200, seed=1)
    config = ServeConfig(
        chips=2,
        max_batch=4,
        queue_capacity=16,
        # The failure clocks scale with the trace: the full makespan is
        # ~6x the quick one, so the same MTBF would bury the fleet
        # under back-to-back zone outages.
        failures=FailureConfig(
            seed=1, domains=((0, 1),),
            domain_mtbf_cycles=600_000.0 if quick else 3_000_000.0,
            domain_repair_mean_cycles=(200_000.0 if quick
                                       else 400_000.0)),
        # A tight in-shard retry budget: a zone outage exhausts it
        # fast, so expiring work reaches the cross-shard failover path
        # instead of being absorbed by local retries (the same shape as
        # the chaos harness's cluster cell).
        resilience=ResilienceConfig(
            max_retries=1,
            retry_deadline_cycles=150_000.0 if quick else 600_000.0),
        cluster=ClusterConfig(shards=2, router="round-robin",
                              gossip_interval_cycles=20_000.0,
                              failover_retries=1),
    )

    def work(workers: int = 1) -> dict:
        return run_report(workload, config, mixes=("bp",),
                          quick=quick, max_workers=workers)[0]

    payload = work()  # warmup (also builds/caches the kernel programs)
    wall = _best_wall(work, repeat)
    m = payload["mixes"]["bp"]
    c = m["cluster"]
    if m["served"] + m["shed"] + m["expired"] != m["total"]:
        raise AssertionError("serve-cluster: request accounting leak")
    if c["failovers"] < 1:
        raise AssertionError(
            "serve-cluster: the zone outage never pushed work across "
            "shards — the bench is not exercising failover")
    if c["min_alive_shard_fraction"] >= 1.0:
        raise AssertionError(
            "serve-cluster: no shard was ever believed down — the "
            "domain outage did not fire")
    record = {
        "name": "serve-cluster",
        "kind": "macro",
        "wall_s": wall,
        "sim_cycles": m["makespan_cycles"],
        "cycles_per_wall_second": m["makespan_cycles"] / wall,
        "requests_served": m["served"],
        "availability": m["availability"],
        "shards": c["shards"],
        "failovers": c["failovers"],
        "failover_expired": c["failover_expired"],
        "gossip_ticks": c["gossip_ticks"],
        "min_alive_shard_fraction": c["min_alive_shard_fraction"],
        "latency_p99_ms": m["latency_ms"]["p99"],
    }
    if compare:
        if work(workers=2) != payload:
            raise AssertionError(
                "serve-cluster: parallel cost-table run diverged "
                "from serial")
        record["parallel_equal"] = True
    return record


def _bench_serve_cold_start(repeat: int, quick: bool, compare: bool) -> dict:
    from repro.serve.costmodel import build_cost_table
    from repro.serve.surrogate import (
        DEFAULT_TOLERANCE,
        build_surrogate_cost_table,
    )

    max_batch, kinds = 16, ("fc",)

    def measured():
        return build_cost_table(max_batch, quick=quick, kinds=kinds)

    def surrogate():
        return build_surrogate_cost_table(max_batch, quick=quick,
                                          kinds=kinds)

    table_s, validation = surrogate()  # warmup + the validation report
    walls = _interleaved_best({"measured": measured,
                               "surrogate": lambda: surrogate()[0]}, repeat)
    record = {
        "name": "serve-cold-start",
        "kind": "macro",
        "wall_s": walls["surrogate"],
        "measured_wall_s": walls["measured"],
        "cold_start_speedup": walls["measured"] / walls["surrogate"],
        "max_batch": max_batch,
        "fc_cap": validation["fc_cap"],
        "measured_shapes": validation["measured_shapes"],
        "total_shapes": validation["total_shapes"],
        "max_holdout_rel_error": max(
            (c["max_holdout_rel_error"] for c in validation["columns"]),
            default=0.0),
        "all_within_tolerance": validation["all_within_tolerance"],
    }
    if not validation["all_within_tolerance"]:
        raise AssertionError(
            "serve-cold-start: surrogate holdout validation did not "
            "converge within tolerance")
    if compare:
        # Grade the whole surface against the exhaustive builder.  The
        # simulated subset must be byte-exact (those shapes never came
        # from the fit).  The interpolated shapes gate at the holdout
        # tolerance on full kernel sizes; the quick FC curve is noisy
        # *between* holdouts (the gate only certifies the held-out
        # points), so quick runs record the error without gating on it.
        table_m = measured()
        simulated = {b for c in validation["columns"]
                     for b in c["measured_batches"]}
        worst = 0.0
        for shape, cycles in table_s.cycles.items():
            true = table_m.cycles[shape]
            err = abs(cycles - true) / true
            if err and shape[1] in simulated:
                raise AssertionError(
                    f"serve-cold-start: simulated shape {shape} differs "
                    f"from the exhaustive builder")
            worst = max(worst, err)
        record["full_table_max_rel_error"] = worst
        if not quick and worst > DEFAULT_TOLERANCE:
            raise AssertionError(
                f"serve-cold-start: interpolated shape off by {worst:.2%} "
                f"(tolerance {DEFAULT_TOLERANCE:.0%})")
        record["validated_against_full"] = True
    return record


def _bench_vectorized_step(repeat: int, quick: bool, compare: bool) -> dict:
    runner = _SIM_RUNNERS["fc-batch"]
    vec = runner(False, quick)  # warmup both paths, then check first
    reference = runner(True, quick)
    vec.assert_equal(reference, "vectorized-step (PE vs reference)")
    walls = _interleaved_best({"vector": lambda: runner(False, quick),
                               "reference": lambda: runner(True, quick)},
                              repeat)
    point = point_from_counters("fc-batch", vec.counters, vec.cycles)
    verdict = validate_point(point, Roofline.for_vip(num_pes=1))
    if not verdict["within_roof"]:
        raise AssertionError(
            f"vectorized-step: sustained {verdict['gops']:.2f} GOPS "
            f"exceeds the attainable single-PE roof "
            f"{verdict['attainable_gops']:.2f} GOPS — the timing model "
            f"dropped cycles")
    record = {
        "name": "vectorized-step",
        "kind": "macro",
        "wall_s": walls["vector"],
        "sim_cycles": vec.cycles,
        "cycles_per_wall_second": vec.cycles / walls["vector"],
        "reference_wall_s": walls["reference"],
        "vectorized_speedup": walls["reference"] / walls["vector"],
        "roofline": verdict,
    }
    return record


def run_benches(names: tuple[str, ...] = ALL_BENCHES, repeat: int = 3,
                quick: bool = False, compare: bool = False) -> list[dict]:
    """Run the named benches and return one JSON-able record per bench."""
    records = []
    for name in names:
        if name == "fixedpoint-sat":
            records.append(_bench_fixedpoint(repeat, quick, compare))
        elif name == "serve-fleet":
            records.append(_bench_serve(repeat, quick, compare))
        elif name == "serve-resilience":
            records.append(_bench_serve_resilience(repeat, quick, compare))
        elif name == "serve-autoscale":
            records.append(_bench_serve_autoscale(repeat, quick, compare))
        elif name == "serve-cluster":
            records.append(_bench_serve_cluster(repeat, quick, compare))
        elif name == "serve-cold-start":
            records.append(_bench_serve_cold_start(repeat, quick, compare))
        elif name == "vectorized-step":
            records.append(_bench_vectorized_step(repeat, quick, compare))
        else:
            records.append(_bench_sim(name, repeat, quick, compare))
    return records


def check_regression(records: list, baseline: dict,
                     tolerance: float = 0.15) -> tuple[list, list]:
    """Compare fresh bench records against a baseline snapshot.

    A bench regresses when its speedup vs baseline
    (``baseline_wall_s / wall_s``) falls below ``1 - tolerance`` — i.e.
    it got more than ``tolerance`` slower.  Only wall time is gated;
    simulated cycles are covered by the equivalence asserts.  Returns
    ``(regressed_names, report_lines)``; benches missing from the
    baseline are reported but never gate.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigError(f"tolerance must be in [0, 1), got {tolerance}")
    if "benches" in baseline:
        baseline = {b["name"]: b for b in baseline["benches"]}
    floor = 1.0 - tolerance
    regressed, lines = [], []
    for record in records:
        name = record["name"]
        base = baseline.get(name)
        if not base or "wall_s" not in base:
            lines.append(f"{name:>14}: SKIP (no baseline entry)")
            continue
        speedup = base["wall_s"] / record["wall_s"]
        if speedup < floor:
            regressed.append(name)
            lines.append(f"{name:>14}: FAIL {speedup:.2f}x vs baseline "
                         f"(floor {floor:.2f}x)")
        else:
            lines.append(f"{name:>14}: ok   {speedup:.2f}x vs baseline")
    return regressed, lines


def load_history(directory: str = ".") -> list[dict]:
    """Load every committed ``BENCH_*.json`` snapshot, oldest tag first.

    Tags sort numerically when they are PR numbers (the convention) and
    lexically otherwise; the untagged ``BENCH.json`` is ignored.
    """
    import glob
    import os

    snapshots = []
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        try:
            with open(path) as f:
                snap = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable snapshot {path}: {exc}") from exc
        if "benches" not in snap:
            raise ConfigError(f"{path}: not a bench snapshot (no 'benches')")
        snap.setdefault("tag", os.path.basename(path)[6:-5])
        snapshots.append(snap)
    if not snapshots:
        raise ConfigError(f"no BENCH_*.json snapshots in {directory}")

    def tag_key(snap):
        tag = str(snap["tag"])
        return (0, int(tag), "") if tag.isdigit() else (1, 0, tag)

    return sorted(snapshots, key=tag_key)


#: Eight-level bars for the per-bench wall-time sparkline, slowest
#: snapshot tallest.
_SPARK_BARS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list) -> str:
    """Unicode sparkline of a wall-time series, ``None`` gaps as spaces.

    Scaled per series (min → ``▁``, max → ``█``), so the shape answers
    "did this bench trend faster or slower across snapshots" at a
    glance; a flat series renders as all-minimum bars.
    """
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for v in values:
        if v is None:
            out.append(" ")
        elif span == 0.0:
            out.append(_SPARK_BARS[0])
        else:
            idx = round((v - lo) / span * (len(_SPARK_BARS) - 1))
            out.append(_SPARK_BARS[int(idx)])
    return "".join(out)


def render_history(snapshots: list[dict], fmt: str = "md") -> str:
    """Render the snapshot trajectory as a markdown, CSV, or sparkline
    table.

    One row per bench; per tag, the wall time and (when the snapshot
    was taken with ``--merge-baseline``) the speedup over the previous
    snapshot — the in-repo answer to "has the simulator gotten faster".
    ``md`` appends a ``trend`` sparkline column; ``spark`` is the
    wide/plottable form of the same data (one column per tag, wall
    seconds, trailing sparkline) where ``csv`` stays long-format.
    """
    tags = [str(s["tag"]) for s in snapshots]
    names: list[str] = []
    cells: dict[tuple[str, str], dict] = {}
    for snap, tag in zip(snapshots, tags):
        for r in snap["benches"]:
            if r["name"] not in names:
                names.append(r["name"])
            cells[(r["name"], tag)] = r

    def walls(name):
        return [r["wall_s"] if (r := cells.get((name, tag))) is not None
                else None for tag in tags]

    if fmt == "csv":
        lines = ["bench,tag,wall_s,speedup_vs_baseline"]
        for name in names:
            for tag in tags:
                r = cells.get((name, tag))
                if r is None:
                    continue
                ratio = r.get("speedup_vs_baseline")
                lines.append(f"{name},{tag},{r['wall_s']:.6f},"
                             f"{'' if ratio is None else f'{ratio:.3f}'}")
        return "\n".join(lines) + "\n"
    if fmt == "spark":
        lines = ["bench," + ",".join(tags) + ",spark"]
        for name in names:
            series = walls(name)
            row = [name] + ["" if w is None else f"{w:.6f}" for w in series]
            lines.append(",".join(row) + f",{_sparkline(series)}")
        return "\n".join(lines) + "\n"
    if fmt != "md":
        raise ConfigError(
            f"unknown history format {fmt!r}; choose md|csv|spark")

    def cell(name, tag):
        r = cells.get((name, tag))
        if r is None:
            return "—"
        text = f"{r['wall_s'] * 1e3:.1f} ms"
        ratio = r.get("speedup_vs_baseline")
        if ratio is not None:
            text += f" ({ratio:.2f}x)"
        return text

    header = "| bench | " + " | ".join(tags) + " | trend |"
    rule = "|---" * (len(tags) + 2) + "|"
    rows = ["| " + " | ".join([name] + [cell(name, t) for t in tags]
                              + [_sparkline(walls(name))]) + " |"
            for name in names]
    legend = ("wall time per snapshot; (Nx) = speedup over the previous "
              "snapshot recorded at bench time with --merge-baseline; "
              "trend = per-bench wall-time sparkline, slowest snapshot "
              "tallest")
    return "\n".join([header, rule] + rows + ["", legend]) + "\n"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Run the tracked simulator benchmark suite and write a "
        "JSON snapshot.",
    )
    parser.add_argument("--bench", action="append", choices=ALL_BENCHES,
                        help="run only this bench (repeatable); default all")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH.json, or "
                        "BENCH_<tag>.json with --tag)")
    parser.add_argument("--tag", default=None,
                        help="snapshot tag, e.g. the PR number")
    parser.add_argument("--repeat", type=_positive_int, default=3,
                        help="timing repetitions per bench (best-of)")
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes (CI smoke)")
    parser.add_argument("--compare", action="store_true",
                        help="also run every simulator bench on the "
                        "ReferencePE oracle, assert cycle/counter/memory "
                        "equality, and record the speedup")
    parser.add_argument("--merge-baseline", default=None,
                        help="JSON of baseline timings (a previous bench "
                        "snapshot, or {name: {wall_s, cycles}}) to record "
                        "per-bench speedup_vs_baseline against")
    parser.add_argument("--check-regression", default=None,
                        metavar="BASELINE_JSON",
                        help="gate against a baseline snapshot: exit 3 if "
                        "any bench ran more than --tolerance slower than "
                        "its baseline wall time")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional wall-time slowdown for "
                        "--check-regression (default 0.15)")
    parser.add_argument("--history", action="store_true",
                        help="render the committed BENCH_<tag>.json "
                        "trajectory instead of running benches")
    parser.add_argument("--history-format", choices=("md", "csv", "spark"),
                        default="md",
                        help="history table format (default md); spark = "
                        "wide per-tag wall seconds with a trailing "
                        "sparkline column")
    args = parser.parse_args(argv)

    if args.history:
        try:
            print(render_history(load_history(), args.history_format),
                  end="")
        except ConfigError as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return 2
        return 0

    names = tuple(args.bench) if args.bench else ALL_BENCHES
    try:
        records = run_benches(names, repeat=args.repeat, quick=args.quick,
                              compare=args.compare)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    if args.merge_baseline:
        with open(args.merge_baseline) as f:
            base = json.load(f)
        if "benches" in base:
            base = {b["name"]: b for b in base["benches"]}
        for r in records:
            b = base.get(r["name"])
            if b:
                r["baseline_wall_s"] = b["wall_s"]
                r["speedup_vs_baseline"] = b["wall_s"] / r["wall_s"]
                cycles = b.get("cycles", b.get("sim_cycles"))
                if cycles is not None:
                    r["baseline_sim_cycles"] = cycles
    out = args.out
    if out is None:
        out = f"BENCH_{args.tag}.json" if args.tag else "BENCH.json"
    payload = {
        "schema": SCHEMA,
        "tag": args.tag,
        "quick": args.quick,
        "repeat": args.repeat,
        "benches": records,
    }
    with open(out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    for r in records:
        line = f"{r['name']:>14}: {r['wall_s'] * 1e3:9.2f} ms"
        if "cycles_per_wall_second" in r:
            line += f"  {r['cycles_per_wall_second'] / 1e3:10.1f} kcycle/s"
        if "speedup" in r:
            line += f"  {r['speedup']:5.2f}x vs reference"
        if "vectorized_speedup" in r:
            line += f"  {r['vectorized_speedup']:5.2f}x vs eager reference"
        if "cold_start_speedup" in r:
            line += f"  {r['cold_start_speedup']:5.2f}x vs measured"
        if "speedup_vs_baseline" in r:
            line += f"  {r['speedup_vs_baseline']:5.2f}x vs baseline"
        print(line)
    print(f"wrote {out}")
    if args.check_regression:
        try:
            with open(args.check_regression) as f:
                baseline = json.load(f)
            regressed, lines = check_regression(records, baseline,
                                                args.tolerance)
        except OSError as exc:
            print(f"error: config: unreadable baseline: {exc}",
                  file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return 2
        print(f"regression gate vs {args.check_regression} "
              f"(tolerance {args.tolerance:g}):")
        for line in lines:
            print(line)
        if regressed:
            print(f"error: bench regression: {', '.join(regressed)}",
                  file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
