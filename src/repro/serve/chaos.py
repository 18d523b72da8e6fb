"""Chaos-invariant harness: sweep failures × policies × autoscaling.

``python -m repro.serve.chaos`` runs the serving simulator across a
matrix of seeded failure schedules, decision-tree policy sets, and
autoscaler configurations, and asserts *structural invariants* on every
run — properties that must hold for any correct execution regardless of
the numbers it produces:

* **Conservation** — every generated request is accounted for exactly
  once, with exactly one terminal outcome (served / shed / expired),
  and a served request's timestamps are causally ordered
  (arrival ≤ batch close ≤ start ≤ finish).
* **No post-fail-stop completions** — no served launch overlaps a
  fail-stop window on its chip: work the timeline killed must never be
  reported as completed.
* **Queue bound** — an event-sweep reconstruction of the admission
  queue's occupancy from the run's records never exceeds the configured
  capacity (shed tiers only shrink it).
* **Replay identity** — a fresh simulator fed the same inputs
  reproduces the run record-for-record (the determinism contract under
  chaos, not just in the happy path).
* **Autoscale lifecycle** (when the autoscaler is on) — the active
  fleet stays within bounds, every removal follows a drain of the same
  chip, and no chip completes work after it retired.

One **checkpoint/resume** check per invocation truncates a cost-table
journal mid-stream and verifies the resumed report is byte-identical to
the uninterrupted one — recovery under chaos is exercised, not assumed.

``--cluster`` extends the matrix with cluster-of-fleets cells
(:mod:`repro.serve.cluster`): two shards behind the router, every chip
of one shard grouped into a correlated failure domain, cross-shard
failover on.  Each cluster cell asserts conservation over the merged
records, **no post-outage completions from dead domains** (served
launches checked against the domain-window ground truth, independently
of the scheduler's own view), **failover-bounded queue growth**
(per-shard queue occupancy stays within capacity and total failovers
within the per-request budget), and cluster replay identity; one
cluster checkpoint/resume check rides along.

The harness writes a ``repro.serve.chaos/v1`` JSON report; an invalid
command line exits 2, and a violated invariant exits 3 (the regression
exit code the bench gate uses), naming the offending (seed, mode,
policy, autoscale) cell so CI failures point at a reproducible command
line, not a flake.

Every run is a pure function of its cell coordinates: the sweep is
deterministic end to end, and each checker is an importable function
unit-tested against hand-built violations in ``tests/serve``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.errors import ConfigError
from repro.serve.autoscale import SCALE_ACTIONS, AutoscaleConfig
from repro.serve.cluster import ClusterConfig, ClusterSimulator
from repro.serve.costmodel import build_cost_table
from repro.serve.failures import FailureConfig
from repro.serve.fleet import OUTCOMES, FleetSimulator, ServeConfig
from repro.serve.policy import PolicySet, policy_from_document
from repro.serve.report import open_checkpoint, run_report
from repro.serve.resilience import ResilienceConfig
from repro.serve.workload import WorkloadConfig, generate_requests

SCHEMA = "repro.serve.chaos/v1"

#: Failure modes the matrix sweeps (over a 3-chip fleet).
MODES = ("fail-stop", "fail-slow", "compound")

#: Policy sets the matrix sweeps: the built-in trees plus two
#: structurally different overrides, so invariants are checked under
#: decisions the legacy string knobs could never express.
POLICY_DOCS = {
    "builtin": None,
    "pressure-shed": {
        "name": "pressure-shed",
        "description": "locality until the queue fills; tile-split shed",
        "schedule": {"if": {"field": "queue.depth", "op": ">=", "value": 8},
                     "then": {"pick": "least-loaded"},
                     "else": {"pick": "locality"}},
        "shed": {"if": {"field": "request.tile", "op": ">=", "value": 4},
                 "then": {"shed": "drop-oldest"},
                 "else": {"shed": "drop-newest"}},
    },
    "conservative-retry": {
        "name": "conservative-retry",
        "description": "one retry, no hedging",
        "retry": {"if": {"field": "attempt", "op": "<=", "value": 1},
                  "then": {"do": "retry"},
                  "else": {"do": "expire"}},
        "hedge": {"do": "no-hedge"},
    },
}

_CHIPS = 3


class InvariantViolation(AssertionError):
    """One structural invariant failed for one run."""


def _fail(invariant: str, message: str):
    raise InvariantViolation(f"{invariant}: {message}")


# ---------------------------------------------------------------------------
# The invariant checkers (pure functions over a finished run)


def check_conservation(records, requests) -> None:
    """Every request exactly once, one terminal outcome, causal times."""
    want = sorted(r.rid for r in requests)
    got = sorted(r.rid for r in records)
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        _fail("conservation", f"rid mismatch: missing {missing[:5]}, "
                              f"unexpected {extra[:5]}")
    seen = set()
    for r in records:
        if r.rid in seen:
            _fail("conservation", f"rid {r.rid} recorded twice")
        seen.add(r.rid)
        if r.outcome not in OUTCOMES:
            _fail("conservation", f"rid {r.rid}: unknown outcome "
                                  f"{r.outcome!r}")
        if r.shed != (r.outcome == "shed"):
            _fail("conservation", f"rid {r.rid}: shed flag disagrees "
                                  f"with outcome {r.outcome!r}")
        if r.outcome == "served":
            if not (r.arrival <= r.dispatch <= r.start <= r.finish):
                _fail("conservation",
                      f"rid {r.rid}: non-causal timestamps "
                      f"arrival={r.arrival:g} dispatch={r.dispatch:g} "
                      f"start={r.start:g} finish={r.finish:g}")


def check_post_failstop(batches, timeline) -> None:
    """No served launch overlaps a fail-stop window on its chip."""
    for b in batches:
        if b.outcome != "served":
            continue
        window = timeline.fail_stop_in(b.chip, b.start, b.finish)
        if window is not None:
            _fail("post-failstop",
                  f"batch {b.batch_id} (attempt {b.attempt}) served on "
                  f"chip {b.chip} over [{b.start:g}, {b.finish:g}) "
                  f"despite fail-stop at {window.start:g}")


def check_queue_bound(records, capacity: int) -> None:
    """Sweep-reconstruct admission-queue occupancy; bound by capacity.

    A request occupies the queue from arrival until its batch closes
    (``dispatch``) or it is shed (shed records carry the shed time in
    ``dispatch``).  Exits sort before entries at equal times, matching
    the simulator's process-due-batches-then-admit order.
    """
    events = []
    for r in records:
        exit_t = r.dispatch
        if exit_t < r.arrival:
            _fail("queue-bound", f"rid {r.rid}: exits the queue at "
                                 f"{exit_t:g}, before arrival "
                                 f"{r.arrival:g}")
        events.append((r.arrival, 1, r.rid))
        events.append((exit_t, 0, r.rid))
    waiting = 0
    for t, kind, rid in sorted(events):
        waiting += 1 if kind == 1 else -1
        if waiting > capacity:
            _fail("queue-bound",
                  f"reconstructed occupancy {waiting} exceeds capacity "
                  f"{capacity} at t={t:g} (rid {rid})")


def check_replay_identity(result, config, costs, requests) -> None:
    """A fresh simulator over the same inputs reproduces the run."""
    replay = FleetSimulator(config, costs).run(requests)
    a = _canonical(result)
    b = _canonical(replay)
    if a != b:
        for i, (x, y) in enumerate(zip(a["records"], b["records"])):
            if x != y:
                _fail("replay-identity", f"record {i} diverged: {x} != {y}")
        _fail("replay-identity", "runs diverged outside records")


def check_post_domain_outage(batches, timeline) -> None:
    """No served launch overlaps a fail-stop domain outage on its chip.

    Independent of :func:`check_post_failstop`: the overlap test here
    reads the domain-window streams directly (``domains_of`` /
    ``domain_windows_until``), so a scheduler that mishandled the
    correlated-outage merge could not also hide the evidence.
    """
    if (not timeline.config.domains
            or timeline.config.domain_mode != "fail-stop"):
        return
    for b in batches:
        if b.outcome != "served":
            continue
        for idx in timeline.domains_of(b.chip):
            for w in timeline.domain_windows_until(idx, b.finish):
                if w.start < b.finish and w.end > b.start:
                    _fail("post-domain-outage",
                          f"batch {b.batch_id} served on chip {b.chip} "
                          f"over [{b.start:g}, {b.finish:g}) despite "
                          f"domain {idx} outage "
                          f"[{w.start:g}, {w.end:g})")


def check_failover_bound(result, config, requests) -> None:
    """Failover stays within budget and never blows up shard queues.

    Total cross-shard re-dispatches are bounded by ``failover_retries``
    per generated request, and each shard's admission queue — fed by
    routed arrivals *and* failover re-dispatches — reconstructs to an
    occupancy within the configured capacity.
    """
    budget = config.cluster.failover_retries * len(requests)
    if result.failovers > budget:
        _fail("failover-bound",
              f"{result.failovers} failovers exceed the cluster budget "
              f"{budget} ({config.cluster.failover_retries}/request)")
    for i, res in enumerate(result.shard_results):
        try:
            check_queue_bound(res.records, config.queue_capacity)
        except InvariantViolation as exc:
            _fail("failover-bound", f"shard {i}: {exc}")


def check_cluster_replay(result, config, costs, requests) -> None:
    """A fresh cluster over the same inputs reproduces the run."""
    replay = ClusterSimulator(config, costs).run(requests)
    a = _canonical_cluster(result)
    b = _canonical_cluster(replay)
    if a != b:
        for i, (x, y) in enumerate(zip(a["records"], b["records"])):
            if x != y:
                _fail("replay-identity",
                      f"cluster record {i} diverged: {x} != {y}")
        _fail("replay-identity", "cluster runs diverged outside records")


def check_autoscale_lifecycle(result, config) -> None:
    """Scale events respect bounds and the drain-before-remove order."""
    rollup = result.autoscale
    if rollup is None:
        return
    limit = config.autoscale.max_chips
    draining = set()
    for e in rollup["events"]:
        if e["action"] not in SCALE_ACTIONS:
            _fail("autoscale-lifecycle",
                  f"unknown scale action {e['action']!r}")
        if e["active_after"] > limit:
            _fail("autoscale-lifecycle",
                  f"{e['active_after']} active chips at t={e['time']:g} "
                  f"exceeds max_chips {limit}")
        if e["action"] == "drain":
            draining.add(e["chip"])
        elif e["action"] == "remove" and e["chip"] not in draining:
            _fail("autoscale-lifecycle",
                  f"chip {e['chip']} removed at t={e['time']:g} without "
                  f"a preceding drain")
    retired = {c.chip_id: c.retired_at for c in result.chips
               if c.retired_at is not None}
    for b in result.batches:
        if b.outcome == "served" and b.chip in retired \
                and b.finish > retired[b.chip]:
            _fail("autoscale-lifecycle",
                  f"batch {b.batch_id} finished at {b.finish:g} on chip "
                  f"{b.chip}, after its retirement at "
                  f"{retired[b.chip]:g}")


def _canonical(result) -> dict:
    """A run reduced to comparable plain data (replay identity)."""
    return json.loads(json.dumps({
        "records": [[r.rid, r.outcome, r.dispatch, r.start, r.finish,
                     r.chip, r.retries, r.hedged] for r in result.records],
        "batches": [[b.batch_id, b.outcome, b.chip, b.close, b.start,
                     b.finish, b.attempt] for b in result.batches],
        "makespan": result.makespan,
        "autoscale_events": (result.autoscale["events"]
                             if result.autoscale else None),
    }))


def _canonical_cluster(result) -> dict:
    """A cluster run reduced to comparable plain data."""
    return json.loads(json.dumps({
        "records": [[r.rid, r.outcome, r.arrival, r.dispatch, r.start,
                     r.finish, r.chip, r.retries] for r in result.records],
        "shards": [_canonical(res) for res in result.shard_results],
        "makespan": result.makespan,
        "rollup": result.rollup(),
    }))


# ---------------------------------------------------------------------------
# The matrix


def _failure_config(mode: str, seed: int) -> FailureConfig:
    if mode == "fail-stop":
        return FailureConfig(seed=seed, fail_stop_chips=(0, 1),
                             fail_stop_mtbf_cycles=400_000.0,
                             repair_mean_cycles=150_000.0)
    if mode == "fail-slow":
        return FailureConfig(seed=seed, fail_slow_chips=(0, 1),
                             fail_slow_mtbf_cycles=300_000.0,
                             fail_slow_duration_cycles=120_000.0)
    if mode == "compound":
        return FailureConfig(seed=seed, fail_stop_chips=(0,),
                             fail_stop_mtbf_cycles=500_000.0,
                             repair_mean_cycles=150_000.0,
                             fail_slow_chips=(1,),
                             transient_chips=(2,))
    raise ConfigError(f"chaos: unknown failure mode {mode!r}; choose "
                      f"from {', '.join(MODES)}")


def _policy_set(name: str) -> PolicySet | None:
    if name not in POLICY_DOCS:
        raise ConfigError(f"chaos: unknown policy {name!r}; choose from "
                          f"{', '.join(POLICY_DOCS)}")
    doc = POLICY_DOCS[name]
    if doc is None:
        return None
    return policy_from_document(doc, name=name, source="chaos-builtin")


def _cell_config(mode: str, policy: str, seed: int,
                 autoscale: bool) -> ServeConfig:
    return ServeConfig(
        chips=_CHIPS,
        max_batch=4,
        queue_capacity=16,
        failures=_failure_config(mode, seed),
        resilience=ResilienceConfig(hedge_delay_cycles=30_000.0),
        policy_set=_policy_set(policy),
        autoscale=(AutoscaleConfig(min_chips=1, max_chips=_CHIPS + 2)
                   if autoscale else None),
    )


def _cluster_cell_config(policy: str, seed: int) -> ServeConfig:
    """Two 2-chip shards; every chip of a shard shares one correlated
    failure domain, so a seeded domain outage is a full zone outage."""
    return ServeConfig(
        chips=2,
        max_batch=4,
        queue_capacity=16,
        failures=FailureConfig(seed=seed, domains=((0, 1),),
                               domain_mtbf_cycles=600_000.0,
                               domain_repair_mean_cycles=200_000.0),
        # A tight in-shard retry budget: a zone outage exhausts it fast,
        # so expiring work actually reaches the cross-shard failover
        # path instead of being absorbed by local retries.
        resilience=ResilienceConfig(max_retries=1,
                                    retry_deadline_cycles=150_000.0),
        policy_set=_policy_set(policy),
        cluster=ClusterConfig(shards=2, router="round-robin",
                              gossip_interval_cycles=20_000.0,
                              failover_retries=1),
    )


def run_cluster_cell(seed: int, policy: str, costs,
                     requests_per_cell: int = 80, mix: str = "bp") -> dict:
    """Run one cluster matrix cell and check the cluster invariants."""
    config = _cluster_cell_config(policy, seed)
    workload = WorkloadConfig(mix=mix, arrival="bursty", rate=250_000.0,
                              requests=requests_per_cell, seed=seed)
    requests = generate_requests(workload)
    sim = ClusterSimulator(config, costs)
    result = sim.run(requests)

    check_conservation(result.records, requests)
    for shard_sim, res in zip(sim.shards, result.shard_results):
        check_post_failstop(res.batches, shard_sim.timeline)
        check_post_domain_outage(res.batches, shard_sim.timeline)
    check_failover_bound(result, config, requests)
    check_cluster_replay(result, config, costs, requests)

    outcomes = {name: 0 for name in OUTCOMES}
    for r in result.records:
        outcomes[r.outcome] += 1
    return {
        "seed": seed, "mode": "domain-outage", "policy": policy,
        "autoscale": False, "mix": mix, "requests": len(requests),
        "cluster": result.rollup(),
        "outcomes": outcomes,
        "invariants": ["conservation", "post-failstop",
                       "post-domain-outage", "failover-bound",
                       "replay-identity"],
    }


def run_cell(seed: int, mode: str, policy: str, autoscale: bool,
             costs, requests_per_cell: int = 80, mix: str = "bp") -> dict:
    """Run one matrix cell and check every invariant.

    Returns the cell's summary dict; raises :class:`InvariantViolation`
    (annotated with the cell coordinates) on the first violation.
    ``costs`` must cover every kind ``mix`` can generate.
    """
    config = _cell_config(mode, policy, seed, autoscale)
    workload = WorkloadConfig(mix=mix, arrival="bursty", rate=250_000.0,
                              requests=requests_per_cell, seed=seed)
    requests = generate_requests(workload)
    sim = FleetSimulator(config, costs)
    result = sim.run(requests)

    check_conservation(result.records, requests)
    check_post_failstop(result.batches, sim.timeline)
    check_queue_bound(result.records, config.queue_capacity)
    check_autoscale_lifecycle(result, config)
    check_replay_identity(result, config, costs, requests)

    outcomes = {name: 0 for name in OUTCOMES}
    for r in result.records:
        outcomes[r.outcome] += 1
    cell = {
        "seed": seed, "mode": mode, "policy": policy,
        "autoscale": autoscale, "mix": mix, "requests": len(requests),
        "outcomes": outcomes,
        "retries": sim.retry_count, "hedges": sim.hedge_count,
        "invariants": ["conservation", "post-failstop", "queue-bound",
                       "autoscale-lifecycle", "replay-identity"],
    }
    if result.autoscale is not None:
        cell["scale_events"] = len(result.autoscale["events"])
    return cell


def _check_resume(config: ServeConfig, seed: int, what: str) -> None:
    """Serve ``config`` twice: once journaling every cost-table
    measurement, then resuming from that journal with its tail cut off.
    The resumed payload must match the first byte for byte."""
    workload = WorkloadConfig(mix="bp", arrival="bursty", rate=250_000.0,
                              requests=40, seed=seed)
    payloads = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        journal = os.path.join(tmp, "chaos.jsonl")
        for resume in (False, True):
            if resume:
                with open(journal, encoding="utf-8") as fh:
                    lines = fh.readlines()
                with open(journal, "w", encoding="utf-8") as fh:
                    fh.writelines(lines[:max(2, len(lines) // 2)])
            checkpoint = open_checkpoint(journal, config, ("bp",), True,
                                         resume=resume)
            try:
                payload, _ = run_report(workload, config, mixes=("bp",),
                                        checkpoint=checkpoint)
            finally:
                checkpoint.close()
            payloads.append(json.dumps(payload, sort_keys=True))
    if payloads[0] != payloads[1]:
        _fail("checkpoint-resume",
              f"resumed {what}payload differs from the uninterrupted one")


def check_checkpoint_resume(seed: int = 0) -> None:
    """A journal truncated mid-stream resumes to an identical payload
    (one failure-mode report)."""
    _check_resume(_cell_config("fail-stop", "builtin", seed,
                               autoscale=False), seed, "")


def check_cluster_checkpoint_resume(seed: int = 0) -> None:
    """The checkpoint/resume byte-identity contract under a cluster."""
    _check_resume(_cluster_cell_config("builtin", seed), seed, "cluster ")


def run_matrix(seeds, modes, policies, autoscale_states,
               requests_per_cell: int = 80,
               cluster_policies=()) -> dict:
    """Run the full sweep; returns the report payload.

    ``cluster_policies`` (``--cluster``) appends one cluster cell per
    seed × policy plus a cluster checkpoint/resume check; empty keeps
    the legacy single-fleet matrix byte-for-byte.  The payload's
    ``failures`` list is empty iff every invariant held in every cell.
    """
    costs = build_cost_table(4, quick=True, degraded=True, kinds=("bp",))
    cells, failures = [], []
    for seed in seeds:
        for mode in modes:
            for policy in policies:
                for autoscale in autoscale_states:
                    coord = (f"seed={seed} mode={mode} policy={policy} "
                             f"autoscale={'on' if autoscale else 'off'}")
                    try:
                        cells.append(run_cell(seed, mode, policy,
                                              autoscale, costs,
                                              requests_per_cell))
                    except InvariantViolation as exc:
                        failures.append({"cell": coord,
                                         "violation": str(exc)})
    # One gibbs-mix cell rides along: the UQ workload family under
    # compound chaos, served from a cost table carrying the gibbs
    # quality columns — the invariants must hold for the new kind too.
    # It keeps to the requested matrix: restricting modes/policies away
    # from its coordinates (as the CLI smoke test does) drops it.
    if (seeds and "compound" in modes and "builtin" in policies
            and False in autoscale_states):
        gibbs_costs = build_cost_table(4, quick=True, degraded=True,
                                       kinds=("bp", "gibbs"))
        coord = (f"seed={min(seeds)} mode=compound policy=builtin "
                 f"autoscale=off mix=bp+gibbs")
        try:
            cells.append(run_cell(min(seeds), "compound", "builtin",
                                  False, gibbs_costs, requests_per_cell,
                                  mix="bp+gibbs"))
        except InvariantViolation as exc:
            failures.append({"cell": coord, "violation": str(exc)})
    for seed in seeds if cluster_policies else ():
        for policy in cluster_policies:
            coord = (f"seed={seed} mode=domain-outage policy={policy} "
                     f"cluster=on")
            try:
                cells.append(run_cluster_cell(seed, policy, costs,
                                              requests_per_cell))
            except InvariantViolation as exc:
                failures.append({"cell": coord, "violation": str(exc)})
    try:
        check_checkpoint_resume(seed=min(seeds) if seeds else 0)
        if cluster_policies:
            check_cluster_checkpoint_resume(
                seed=min(seeds) if seeds else 0)
        resume_ok = True
    except InvariantViolation as exc:
        resume_ok = False
        failures.append({"cell": "checkpoint-resume",
                         "violation": str(exc)})
    return {
        "schema": SCHEMA,
        "matrix": {
            "seeds": list(seeds), "modes": list(modes),
            "policies": list(policies),
            "autoscale": ["on" if a else "off"
                          for a in autoscale_states],
            "requests_per_cell": requests_per_cell,
            "cluster_policies": list(cluster_policies),
        },
        "cells": cells,
        "checkpoint_resume": "ok" if resume_ok else "failed",
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# CLI


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="Sweep failure schedules × policies × autoscaling, "
                    "asserting structural invariants on every run.")
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of seeds (0..N-1) per cell")
    parser.add_argument("--modes", nargs="+", default=list(MODES),
                        choices=MODES, metavar="MODE",
                        help=f"failure modes to sweep (default: all of "
                             f"{', '.join(MODES)})")
    parser.add_argument("--policies", nargs="+",
                        default=list(POLICY_DOCS),
                        choices=sorted(POLICY_DOCS), metavar="POLICY",
                        help=f"policy sets to sweep (default: all of "
                             f"{', '.join(POLICY_DOCS)})")
    parser.add_argument("--autoscale", choices=("off", "on", "both"),
                        default="both",
                        help="autoscaler states to sweep")
    parser.add_argument("--cluster", action="store_true",
                        help="extend the matrix with cluster-of-fleets "
                             "cells: 2 shards, a correlated zone-outage "
                             "domain, cross-shard failover, and the "
                             "cluster invariants")
    parser.add_argument("--cluster-policies", nargs="+",
                        default=["builtin", "pressure-shed"],
                        choices=sorted(POLICY_DOCS), metavar="POLICY",
                        help="policy sets the cluster cells sweep "
                             "(default: builtin, pressure-shed)")
    parser.add_argument("--requests", type=int, default=80,
                        help="requests per cell")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seeds < 1:
        print("error: config: chaos.seeds: must be >= 1", file=sys.stderr)
        return 2
    if args.requests < 1:
        print("error: config: chaos.requests: must be >= 1",
              file=sys.stderr)
        return 2
    states = {"off": (False,), "on": (True,),
              "both": (False, True)}[args.autoscale]
    try:
        report = run_matrix(tuple(range(args.seeds)), tuple(args.modes),
                            tuple(args.policies), states,
                            requests_per_cell=args.requests,
                            cluster_policies=(tuple(args.cluster_policies)
                                              if args.cluster else ()))
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    total = len(report["cells"]) + len(report["failures"])
    cluster_note = (f", cluster x {len(args.cluster_policies)} policies"
                    if args.cluster else "")
    print(f"chaos: {total} cells "
          f"({len(report['matrix']['seeds'])} seeds x "
          f"{len(report['matrix']['modes'])} modes x "
          f"{len(report['matrix']['policies'])} policies x "
          f"{len(report['matrix']['autoscale'])} autoscale states"
          f"{cluster_note}), "
          f"checkpoint-resume {report['checkpoint_resume']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if report["failures"]:
        for failure in report["failures"]:
            print(f"INVARIANT VIOLATED [{failure['cell']}]: "
                  f"{failure['violation']}", file=sys.stderr)
        # 3 = the regression exit code (the bench gate's convention),
        # distinct from 2 = invalid configuration.
        return 3
    print("all invariants held")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
