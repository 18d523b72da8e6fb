"""End-to-end serving runs and the JSON/CSV report.

:func:`run_serve` is the programmatic entry point (generate → simulate →
roll up); :func:`run_report` runs one or more workload mixes against a
shared cost table and builds the CLI's JSON payload.  The payload is a
pure function of the configs — no wall-clock timestamps, keys sorted on
write — so two runs of the same command produce byte-identical files,
and a ``--workers N`` run matches a serial one (worker count only
parallelizes the cost-table measurements, whose values are
deterministic).  The same holds with a failure lifecycle enabled: the
lifecycle is drawn from seeded streams, never from wall-clock state.

Schema history: ``repro.serve/v1`` (PR 4) → ``repro.serve/v2`` adds the
resilience metrics (availability, goodput, expired, retry/hedge waste,
p999) and the ``failures``/``resilience`` config sections.  v3 added a
``cost_model`` section, and v4, v5 and v6 were each emitted only when a
feature was on: a policy set or autoscaler (v4), a kind with quality
metrics (v5), a cluster (v6).  ``repro.serve/v7`` is the one schema:
every section is always present, null when its feature is off (the
``config`` sections ``failures``, ``resilience``, ``policy_tree``,
``autoscale`` and ``cluster``; a mix's ``autoscale`` and ``cluster``
rollups) or empty when it is a per-kind map (``cost_table.quality``
and a mix's ``quality``).  A standalone fleet reports its chips under a
mix's ``chips`` with ``shards`` null, a cluster the other way round,
each shard with its own ``chips`` and ``autoscale``.  The ``cost_model``
section is gone: every cost table is measured.
A v3–v6 payload maps onto v7 by renaming the schema, dropping
``cost_model`` and adding each missing section as null or empty; the
records, cycles and metrics are the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.perf.checkpoint import TaskCheckpoint
from repro.serve.costmodel import (
    MEASUREMENT_VERSION,
    ServiceCostTable,
    build_cost_table,
)
from repro.serve.fleet import FleetResult, FleetSimulator, ServeConfig
from repro.serve.metrics import ServeMetrics, chip_utilization, compute_metrics
from repro.serve.resilience import DEFAULT_RESILIENCE
from repro.serve.workload import KINDS, MIXES, WorkloadConfig, generate_requests
from repro.trace.collector import NULL_TRACE, TraceSink

SCHEMA = "repro.serve/v7"

CSV_COLUMNS = (
    "mix", "rid", "kind", "tile", "arrival", "shed", "outcome", "retries",
    "hedged", "batch_id", "chip", "batch_size", "dispatch", "start",
    "finish", "batch_wait", "queue_wait", "service", "latency",
)


@dataclass
class ServeRun:
    """One mix's simulation outcome plus its rollup."""

    workload: WorkloadConfig
    #: FleetResult, or ClusterResult when config.cluster is set.
    fleet: "FleetResult | ClusterResult"
    metrics: ServeMetrics


def _needs_degraded(config: ServeConfig) -> bool:
    """Whether any chip can ever serve from the degraded cost column."""
    if config.degraded_chips:
        return True
    return (config.failures is not None
            and bool(config.failures.transient_chips))


def checkpoint_meta(config: ServeConfig, mixes, quick: bool) -> dict:
    """The identity stamped on a run's JSONL checkpoint journal.

    The CLI and the control plane both stamp exactly this, so a journal
    written by one is resumable by the other: resume compatibility is
    decided by what the cost table depends on (batch range, kernel
    geometry, degraded column, mixes, and how a shape is measured), not
    by which front end ran it.  A journal whose meta differs, such as
    one from before :data:`~repro.serve.costmodel.MEASUREMENT_VERSION`,
    starts clean with a :class:`~repro.perf.checkpoint.CheckpointWarning`.
    """
    return {"tool": "repro.serve", "max_batch": config.max_batch,
            "quick": quick, "degraded": _needs_degraded(config),
            "mixes": sorted(mixes), "measurement": MEASUREMENT_VERSION}


def open_checkpoint(path: str, config: ServeConfig, mixes, quick: bool,
                    resume: bool = False) -> TaskCheckpoint:
    """The run's cost-table journal at ``path``, stamped with
    :func:`checkpoint_meta`.

    Resuming a journal whose meta carries ``cost_model`` is refused with
    a :class:`ConfigError`: an older build, which could interpolate the
    table, wrote it, and starting it over would silently discard what
    it holds.
    """
    if resume:
        try:
            with open(path, encoding="utf-8") as fh:
                meta = json.loads(fh.readline()).get("meta")
        except (OSError, ValueError, AttributeError):
            meta = None  # no journal, or one the checkpoint rejects
        if isinstance(meta, dict) and "cost_model" in meta:
            raise ConfigError(
                f"checkpoint.meta.cost_model: {path} was stamped "
                f"cost_model={meta['cost_model']!r} by an older build; "
                f"every cost table is measured now, so delete the "
                f"journal to start afresh")
    return TaskCheckpoint(path, meta=checkpoint_meta(config, mixes, quick),
                          resume=resume)


def run_serve(workload: WorkloadConfig, config: ServeConfig,
              quick: bool = True, max_workers: int | None = None,
              costs: ServiceCostTable | None = None,
              trace: TraceSink = NULL_TRACE,
              checkpoint=None, on_progress=None) -> ServeRun:
    """Generate the arrival trace, serve it, and roll up the metrics.

    ``on_progress`` (optional) receives live snapshot dicts from
    :meth:`FleetSimulator.snapshot` as the simulation advances; the
    callback observes but never influences the run.
    """
    if costs is None:
        kinds = tuple(k for k in KINDS if k in MIXES[workload.mix])
        costs = build_cost_table(config.max_batch, quick=quick,
                                 degraded=_needs_degraded(config),
                                 kinds=kinds, max_workers=max_workers,
                                 checkpoint=checkpoint)
    requests = generate_requests(workload)
    if config.cluster is not None:
        from repro.serve.cluster import ClusterSimulator
        fleet = ClusterSimulator(config, costs, trace=trace).run(
            requests, on_progress=on_progress)
    else:
        fleet = FleetSimulator(config, costs, trace=trace).run(
            requests, on_progress=on_progress)
    metrics = compute_metrics(fleet.records, fleet.batches, fleet.makespan,
                              slo_cycles=config.slo_cycles,
                              clock_ghz=config.clock_ghz)
    return ServeRun(workload=workload, fleet=fleet, metrics=metrics)


def _quality_rollup(run: ServeRun, costs: ServiceCostTable,
                    config: ServeConfig) -> dict:
    """Per-kind delivered-quality rollup for one mix (empty when no
    served kind carries quality metrics).

    Blends the cost table's healthy/degraded quality columns by where
    each served request actually ran, attributed by the chip's *static*
    degraded column — the same scheduler-visible health the cost
    estimate uses (there is no oracle for transient fault windows).
    """
    records = run.fleet.records
    served = records.matches("outcome", "served")
    on_degraded = np.isin(records.column("chip", served),
                          sorted(config.degraded_chips))
    rollup = {}
    for kind, columns in sorted(costs.quality.items()):
        mine = records.matches("kind", kind, served)
        n = int(mine.sum())
        if not n:
            continue
        n_deg = int((mine & on_degraded).sum())
        healthy = columns.get("healthy") or columns["degraded"]
        degraded = columns.get("degraded") or healthy
        metrics = {
            key: (healthy[key] * (n - n_deg) + degraded[key] * n_deg) / n
            for key in sorted(healthy)
        }
        rollup[kind] = {"served": n, "served_degraded": n_deg, **metrics}
    return rollup


def _mix_fleet_section(run: ServeRun, config: ServeConfig) -> dict:
    """The per-mix fleet keys: flat ``chips`` utilization standalone,
    a per-shard ``shards`` list plus the ``cluster`` rollup for a
    cluster; whichever does not apply is null."""
    res = run.fleet
    if config.cluster is not None:
        return {
            "autoscale": None,
            "chips": None,
            "cluster": res.rollup(),
            "shards": [
                {"autoscale": fr.autoscale,
                 "chips": chip_utilization(fr.chips, res.makespan)}
                for fr in res.shard_results
            ],
        }
    return {
        "autoscale": res.autoscale,
        "chips": chip_utilization(res.chips, res.makespan),
        "cluster": None,
        "shards": None,
    }


def run_report(workload: WorkloadConfig, config: ServeConfig,
               mixes=("bp", "bp+vgg"), quick: bool = True,
               max_workers: int | None = None,
               trace: TraceSink = NULL_TRACE,
               checkpoint=None,
               on_progress=None,
               ) -> tuple[dict, list[ServeRun]]:
    """Serve every mix (shared cost table) and build the v7 payload.

    ``on_progress`` receives each mix's live snapshots with a ``"mix"``
    key added, so a multi-mix report streams one interleaved sequence.
    """
    kinds = tuple(k for k in KINDS if any(k in MIXES[m] for m in mixes))
    costs = build_cost_table(config.max_batch, quick=quick,
                             degraded=_needs_degraded(config),
                             kinds=kinds, max_workers=max_workers,
                             checkpoint=checkpoint)
    runs = []
    for mix in mixes:
        mix_progress = None
        if on_progress is not None:
            def mix_progress(snap, _mix=mix):
                on_progress({"mix": _mix, **snap})
        runs.append(run_serve(replace(workload, mix=mix), config,
                              quick=quick, costs=costs, trace=trace,
                              on_progress=mix_progress))
    if config.failures_enabled:
        resilience = (config.resilience or DEFAULT_RESILIENCE).as_dict()
    else:
        resilience = None
    policy_tree = None
    if config.policy_set is not None:
        ps = config.policy_set
        policy_tree = {
            "name": ps.name,
            "description": ps.description,
            "source": ps.source,
            "slots": {slot: getattr(ps, slot)
                      for slot in ("schedule", "shed", "retry", "hedge")
                      if getattr(ps, slot) is not None},
        }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "config": {
            "chips": config.chips,
            "policy": config.policy,
            "max_batch": config.max_batch,
            "max_wait_cycles": config.max_wait_cycles,
            "queue_capacity": config.queue_capacity,
            "shed_policy": config.shed_policy,
            "dispatch_overhead_cycles": config.dispatch_overhead_cycles,
            "reload_bytes_per_cycle": config.reload_bytes_per_cycle,
            "degraded_chips": list(config.degraded_chips),
            "slo_cycles": config.slo_cycles,
            "clock_ghz": config.clock_ghz,
            "failures": (config.failures.as_dict()
                         if config.failures is not None else None),
            "resilience": resilience,
            "policy_tree": policy_tree,
            "autoscale": (config.autoscale.as_dict()
                          if config.autoscale is not None else None),
            "cluster": (config.cluster.as_dict()
                        if config.cluster is not None else None),
        },
        "workload": {
            "arrival": workload.arrival,
            "rate": workload.rate,
            "requests": workload.requests,
            "seed": workload.seed,
            "num_tiles": workload.num_tiles,
            "burst_factor": workload.burst_factor,
            "burst_len": workload.burst_len,
        },
        "cost_table": {
            "shapes": {
                f"{kind}/b{batch}{'/degraded' if degraded else ''}": cycles
                for (kind, batch, degraded), cycles
                in sorted(costs.cycles.items())
            },
            "model_bytes": dict(sorted(costs.model_bytes.items())),
            "tile_bytes": dict(sorted(costs.tile_bytes.items())),
            "quality": {k: dict(sorted(v.items()))
                        for k, v in sorted(costs.quality.items())},
        },
        "mixes": {
            run.workload.mix: {
                **run.metrics.as_dict(),
                **_mix_fleet_section(run, config),
                "quality": _quality_rollup(run, costs, config),
            }
            for run in runs
        },
    }, runs


def write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(runs, path: str) -> None:
    """Per-request records of every mix, one row each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for run in runs:
            for r in run.fleet.records:
                outcome = "shed" if r.shed else r.outcome
                served = outcome == "served"
                row = {
                    "mix": run.workload.mix,
                    "rid": r.rid,
                    "kind": r.kind,
                    "tile": r.tile,
                    "arrival": f"{r.arrival:g}",
                    "shed": str(r.shed).lower(),
                    "outcome": outcome,
                    "retries": r.retries if served else "",
                    "hedged": str(r.hedged).lower() if served else "",
                    "batch_id": r.batch_id if served else "",
                    "chip": r.chip if served else "",
                    "batch_size": r.batch_size if served else "",
                    "dispatch": f"{r.dispatch:g}",
                    "start": f"{r.start:g}" if served else "",
                    "finish": f"{r.finish:g}" if served else "",
                    "batch_wait": f"{r.batch_wait:g}" if served else "",
                    "queue_wait": f"{r.queue_wait:g}" if served else "",
                    "service": f"{r.service:g}" if served else "",
                    "latency": f"{r.latency:g}" if served else "",
                }
                fh.write(",".join(str(row[c]) for c in CSV_COLUMNS) + "\n")
