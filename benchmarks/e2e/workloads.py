"""The four benchmark workloads and the child process that runs one.

Each workload has a set-up phase (inputs, and the cost table on the
serving workloads), a timed phase that calls the simulator's public
APIs, and correctness gates that run after the timed phase.  Everything
runs serially: ``max_workers=1`` goes through each API's own argument,
so two cores are never oversubscribed and a traced run sees every call.

Why these four:

* ``mrf-fhd`` -- dense min-sum vector code on four PEs sharing one
  vault; PE vector issue, vector-op flushes and the chip scheduler do
  most of the work, and cold program assembly is part of it.
* ``vgg16-b1`` -- scalar loops and LSU-heavy convolution plus
  memory-bound FC weight streaming and pools: the PE layer used a
  different way, with more vault accesses and fewer vector flushes.
* ``serve-steady`` -- the serving happy path (batcher, admission queue,
  least-loaded dispatch, metrics rollup) below saturation.  Its timed
  phase does no PE or memory work, so it bypasses the kernel layers.
* ``serve-cluster-outage`` -- the same fleet layer driven by a sharded
  cluster through correlated zone outages: gossip ticks of
  ``advance_to`` dominate instead of arrivals, alongside breakers,
  retries and cross-shard failover.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import spans
from repro import serve
from repro.baselines import gpu
from repro.kernels import conv_kernel
from repro.memory import hmc
from repro.pe import memoryif, pe
from repro.perf import extrapolate
from repro.serve import cluster
from repro.workloads import bp as bp_workload
from repro.workloads.bp import runner as bp_runner
from repro.workloads.cnn import reference as cnn_reference
from repro.workloads.cnn import vgg
from repro.workloads.gibbs import runner as gibbs_runner

#: Table IV, simulated VIP rows (ms).
PAPER_BPM_8_ITER_MS = 41.3
PAPER_BPM_HIER_MS = 36.3
PAPER_VGG16_B1_MS = 32.3


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class _Workload:
    """One workload at one seed and size; subclasses fill in the phases."""

    name = ""
    kind = ""  # "kernel" or "serve"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.params = self.SIZES[size]

    def setup(self) -> None:
        """Everything before the timed phase (inputs, cost tables)."""

    def run(self):
        """The timed phase; returns what :meth:`results` reads."""
        raise NotImplementedError

    def results(self, out) -> tuple[dict, dict, object]:
        """(simulated metrics, facts the trace checks use, fingerprint
        payload) from the timed phase's output."""
        raise NotImplementedError

    def gates(self, out) -> dict[str, bool]:
        raise NotImplementedError


class MrfFhd(_Workload):
    name, kind = "mrf-fhd", "kernel"
    #: (image rows, image cols, labels)
    SIZES = {"full": (1080, 1920, 16), "tiny": (96, 160, 4)}

    def setup(self) -> None:
        rows, cols, labels = self.params
        self.model = extrapolate.BPPerformanceModel(rows, cols, labels,
                                                    seed=self.seed)

    def run(self):
        bp = self.model.measure(max_workers=1)
        hier = extrapolate.HierarchicalBPModel(self.model)
        # Measured serially here; HierarchicalBPModel.measure reuses it.
        coarse = hier.coarse.measure(max_workers=1)
        return {"bp": bp, "coarse": coarse, "hier": hier.measure()}

    def results(self, out):
        bp, coarse, hier = out["bp"], out["coarse"], out["hier"]
        counters = [*bp.sweep_counters.values(),
                    *coarse.sweep_counters.values(),
                    hier.construct_counters, hier.copy_counters]
        instructions = sum(c.instructions for c in counters)
        bp_ms, hier_ms = bp.frame_ms(8), hier.frame_ms(5, 5)
        err = (abs(bp_ms / PAPER_BPM_8_ITER_MS - 1)
               + abs(hier_ms / PAPER_BPM_HIER_MS - 1)) / 2
        sim = {"paper_err_pct": 100 * err, "sim_bpm_frame_ms": bp_ms,
               "sim_hier_frame_ms": hier_ms}
        facts = {"work": instructions, "instructions": instructions}
        return sim, facts, {k: asdict(v) for k, v in out.items()}

    def gates(self, out):
        rows, cols, labels = self.params
        mrf, _ = bp_workload.stereo_mrf(8, 12, labels=8, seed=self.seed)
        _, ref = bp_workload.run_bpm(mrf, 2)
        chip = bp_runner.run_bpm_on_chip(mrf, iterations=2)
        titan_ms = gpu.bpm_frame_ms(iterations=8, width=cols, height=rows,
                                    labels=labels)
        bp_ms = out["bp"].frame_ms(8)
        return {
            "bpm_bit_exact": all(np.array_equal(chip.messages[d], ref[d])
                                 for d in ref),
            "table4_vip_beats_titan_x": bp_ms < titan_ms,
            "table4_hierarchical_beats_baseline":
                out["hier"].frame_ms(5, 5) < bp_ms,
        }


class Vgg16B1(_Workload):
    name, kind = "vgg16-b1", "kernel"
    #: Layers timed (None = the whole network).
    SIZES = {"full": None, "tiny": ("c5_3", "p5", "fc8")}

    def setup(self) -> None:
        net = vgg.vgg16()
        if self.params is not None:
            net = vgg.Network(net.name, tuple(layer for layer in net
                                              if layer.name in self.params),
                              net.input_shape)
        self.model = extrapolate.CNNPerformanceModel(net, batch=1,
                                                     seed=self.seed)

    def run(self):
        return self.model.layer_timings(max_workers=1)

    def results(self, out):
        instructions = sum(t.measurement.counters.instructions for t in out)
        total_ms = sum(t.ms for t in out)
        sim = {"paper_err_pct": 100 * abs(total_ms / PAPER_VGG16_B1_MS - 1),
               "sim_network_ms": total_ms}
        facts = {"work": instructions, "instructions": instructions}
        return sim, facts, [asdict(t) for t in out]

    def gates(self, out):
        rng = np.random.default_rng(self.seed)
        out_h, out_w, z, k, filters = 4, 6, 8, 3, 2
        inputs = rng.integers(-30, 30, (out_h, out_w, z)).astype(np.int16)
        weights = rng.integers(-20, 20, (filters, k, k, z)).astype(np.int16)
        bias = rng.integers(-10, 10, filters).astype(np.int16)
        layout = conv_kernel.ConvTileLayout(
            base=4096, in_h=out_h + 2, in_w=out_w + 2, z=z, k=k,
            num_filters=filters, out_h=out_h, out_w=out_w)
        memory = hmc.HMC()
        layout.stage(memory.store, inputs, weights, bias)
        engine = pe.PE(memory=memoryif.LocalVaultMemory(memory, vault=0))
        engine.run(conv_kernel.build_conv_pass_program(
            layout, 0, filters, 0, out_h, fx=4, strip_rows=2))
        expected = cnn_reference.conv2d_vip(inputs, weights, bias, 4)
        return {"conv_pass_bit_exact":
                np.array_equal(layout.read_output(memory.store), expected)}


class _Serve(_Workload):
    kind = "serve"

    def _metrics(self, result):
        return serve.compute_metrics(result.records, result.batches,
                                     result.makespan, self.config.slo_cycles,
                                     self.config.clock_ghz)

    def results(self, out):
        result, m = out
        ms = 1 / (m.clock_ghz * 1e6)
        served = [r for r in result.records if r.outcome == "served"]
        waits = [r.queue_wait for r in served]
        sim = {
            "sim_p50_ms": m.latency_p50 * ms,
            "sim_p999_ms": m.latency_p999 * ms,
            "sim_p999_tail_n": sum(1 for r in served
                                   if r.latency > m.latency_p999),
            "sim_goodput_krps": m.goodput_rps / 1e3,
            "failed_frac": (m.shed + m.expired) / m.total,
            "serve.batch_size_mean": m.mean_batch_size,
            "serve.queue_wait_p99_ms": serve.percentile(waits, 99.0) * ms,
            "serve.resilience.retries": m.retries,
            "serve.resilience.hedges": m.hedges,
            "serve.resilience.wasted_cycles": (m.retry_wasted_cycles
                                               + m.hedge_wasted_cycles),
            "serve.resilience.expired": m.expired,
        }
        records = hashlib.sha256()
        for r in result.records:
            records.update(repr((r.rid, r.outcome, r.chip, r.batch_id,
                                 r.arrival, r.dispatch, r.start, r.finish,
                                 r.retries, r.hedged)).encode())
        costs = self.costs
        payload = {
            "costs": sorted([*key, cycles]
                            for key, cycles in costs.cycles.items()),
            "quality": costs.quality,
            "metrics": m.as_dict(),
            "records": records.hexdigest(),
        }
        facts = {"work": m.total, "fleet_steps": m.total}
        return sim, facts, payload

    def gates(self, out):
        _, m = out
        return {"conservation": (m.served + m.shed + m.expired == m.total
                                 == len(self.requests))}


class ServeSteady(_Serve):
    name = "serve-steady"
    #: (requests, quick cost table)
    SIZES = {"full": (200_000, False), "tiny": (2_000, True)}

    def setup(self) -> None:
        requests, quick = self.params
        self.costs = serve.build_cost_table(
            8, quick=quick, kinds=("bp", "conv", "fc"), max_workers=1)
        self.requests = serve.generate_requests(serve.WorkloadConfig(
            mix="bp+vgg", arrival="poisson", rate=80_000.0,
            requests=requests, seed=self.seed))
        self.config = serve.ServeConfig()

    def run(self):
        result = serve.FleetSimulator(self.config, self.costs).run(
            self.requests)
        return result, self._metrics(result)

    def gates(self, out):
        _, m = out
        # Below saturation nothing is shed or expires.
        return {**super().gates(out), "sheds_nothing": m.shed + m.expired == 0}


class ServeClusterOutage(_Serve):
    name = "serve-cluster-outage"
    SIZES = {"full": (20_000, False), "tiny": (2_000, True)}
    SHARDS = 2

    def setup(self) -> None:
        requests, quick = self.params
        self.costs = serve.build_cost_table(
            4, quick=quick, kinds=("bp", "gibbs"), max_workers=1)
        self.requests = serve.generate_requests(serve.WorkloadConfig(
            mix="bp+gibbs", arrival="bursty", rate=20_000.0,
            requests=requests, seed=self.seed))
        self.config = serve.ServeConfig(
            chips=2, max_batch=4, queue_capacity=16,
            # Each shard's two chips are one correlated zone.
            failures=serve.FailureConfig(
                seed=self.seed, domains=((0, 1),),
                domain_mtbf_cycles=3_000_000.0,
                domain_repair_mean_cycles=400_000.0),
            resilience=serve.ResilienceConfig(
                max_retries=1, retry_deadline_cycles=600_000.0),
            cluster=cluster.ClusterConfig(
                shards=self.SHARDS, router="least-loaded",
                gossip_interval_cycles=20_000.0, failover_retries=1))

    def run(self):
        result = cluster.ClusterSimulator(self.config, self.costs).run(
            self.requests)
        return result, self._metrics(result)

    def results(self, out):
        sim, facts, payload = super().results(out)
        result, _ = out
        rollup = result.rollup()
        sim.update({
            "serve.cluster.failovers": result.failovers,
            "serve.cluster.failover_expired": result.failover_expired,
            "serve.cluster.min_alive_shard_fraction":
                result.min_alive_shard_fraction,
        })
        facts.update({
            "shards": self.SHARDS,
            "gossip_ticks": result.gossip_ticks,
            # Every routed arrival and every failover re-dispatch is one
            # shard step; brown-out sheds never reach a shard.
            "fleet_steps": (len(self.requests) - result.brownout_shed
                            + result.failovers),
        })
        payload["rollup"] = rollup
        return sim, facts, payload

    def gates(self, out):
        result, _ = out
        mrf, _ = bp_workload.stereo_mrf(5, 4, labels=8, seed=self.seed)
        quality = gibbs_runner.quality_gate(mrf, burn_in=1, samples=3,
                                            seed=self.seed)
        return {
            **super().gates(out),
            "fails_over": (result.failovers >= 1
                           and result.min_alive_shard_fraction < 1.0),
            "gibbs_quality_exact": quality["ok"] and quality["exact_draws"],
        }


WORKLOADS = {w.name: w for w in (MrfFhd, Vgg16B1, ServeSteady,
                                 ServeClusterOutage)}

#: Simulated per-layer metrics read from the results (not the trace).
SIM_UNITS = {
    "paper_err_pct": "%",
    "sim_p50_ms": "sim_ms",
    "sim_p999_ms": "sim_ms",
    "sim_goodput_krps": "sim_kreq/s",
    "failed_frac": "ratio",
    "serve.batch_size_mean": "count",
    "serve.queue_wait_p99_ms": "sim_ms",
    "serve.resilience.retries": "count",
    "serve.resilience.hedges": "count",
    "serve.resilience.wasted_cycles": "cycles",
    "serve.resilience.expired": "count",
    "serve.cluster.failovers": "count",
    "serve.cluster.failover_expired": "count",
    "serve.cluster.min_alive_shard_fraction": "ratio",
}


def coverage_checks(layers: dict, facts: dict) -> dict[str, bool]:
    """Wrapper counts must equal the program's own counts, so a hot loop
    that caches a bound method fails loudly instead of being
    under-attributed; self times must cover the traced wall."""
    checks = {"unattributed_frac<=0.05":
              layers["trace.unattributed_frac"] <= 0.05}
    if "instructions" in facts:
        checks["pe.steps==instructions"] = (
            layers["pe.instructions"] == facts["instructions"])
    if "fleet_steps" in facts:
        checks["fleet.steps==routed"] = (
            layers["serve.fleet.steps"] == facts["fleet_steps"])
    if "gossip_ticks" in facts:
        checks["gossip_ticks==rollup"] = (
            layers["serve.cluster.gossip_ticks"] == facts["gossip_ticks"])
    return checks


def run_child(name: str, seed: int, size: str, traced: bool,
              trace_out: Path | None = None) -> dict:
    """One repetition in this (fresh) process; returns its record.

    ``t_run_start`` is ``time.monotonic()`` at the start of the timed
    phase, which the parent subtracts from its spawn time to get the
    set-up time.  Gates run only untraced, after the timed phase, so
    they never count toward a metric.
    """
    workload = WORKLOADS[name](seed, size)
    tracer = spans.SpanTracer() if traced else None
    if tracer is not None:
        tracer.install()
        phase = tracer.span
    else:
        phase = lambda name: contextlib.nullcontext()  # noqa: E731
    start = time.perf_counter()
    with phase(f"{spans.HARNESS}:setup"):
        workload.setup()
    t_run_start = time.monotonic()
    t0 = time.perf_counter()
    with phase(f"{spans.HARNESS}:run"):
        out = workload.run()
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sim, facts, payload = workload.results(out)
    record = {
        "workload": name, "seed": seed, "size": size, "traced": traced,
        "t_run_start": t_run_start, "run_s": end - t0,
        "peak_rss_mb": peak_rss_mb, "work": facts["work"], "sim": sim,
        "fingerprint": _digest(payload),
    }
    if tracer is None:
        record["gates"] = workload.gates(out)
        return record
    wall_s = end - start
    layers = spans.layer_metrics(tracer, wall_s, facts.get("shards", 0))
    record["layers"] = layers
    record["checks"] = coverage_checks(layers, facts)
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps({
            "workload": name, "seed": seed, "size": size, "wall_s": wall_s,
            "layers": layers, **tracer.dump()}, indent=1))
    return record
