"""``python -m repro.serve`` — the serving-layer command line.

Simulates an inference service in front of a fleet of VIP chips and
reports throughput, goodput, availability, p50/p95/p99/p99.9 latency,
SLO-violation rate, and shed rate per workload mix::

    python -m repro.serve --chips 4 --arrival poisson --rate 50000 --seed 0

Resilience: ``--fail-chips N`` subjects the first N chips to a seeded
fail-stop lifecycle (``--fail-slow-chips`` / ``--transient-chips``
likewise for stragglers and transient degradation); the scheduler
defends with health checks, bounded retries, optional hedging
(``--hedge-delay-ms``), circuit breakers, and load-shedding tiers.

Serving behavior is pluggable: ``--policy-file`` loads a decision-tree
policy set (``repro.serve.policy``) overriding the schedule/shed/retry/
hedge decisions, and ``--autoscale`` turns on the deterministic
simulated autoscaler (``repro.serve.autoscale``).  Both compose with
``--scenario``, overriding the file's own sections.

Cluster scale: ``--cluster-shards N`` runs N independent fleet shards
behind the deterministic cluster router (``repro.serve.cluster``) with
bounded-staleness gossip beliefs, cross-shard failover, and optional
brown-out shedding (``--brownout-headroom``); ``--fail-domains
"0,1;2,3"`` groups chips into correlated failure domains (zone/rack
outages that fail every member in one event).  Both compose with
``--scenario`` the way ``--autoscale`` does.

Two runs of the same command write byte-identical JSON, and
``--workers N`` (parallel cost-table measurement) matches a serial run
exactly; CI asserts both.  ``--checkpoint PATH`` journals cost-table
measurements; ``--resume`` picks a killed run's journal back up and
reproduces the uninterrupted artifact bit for bit.

Invalid configurations and unwritable output paths (``--out``,
``--csv``, ``--checkpoint``) exit with status 2 and a one-line
``error:`` message on stderr, never a traceback, before anything is
simulated.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from repro.cli import check_output_paths
from repro.errors import ConfigError
from repro.perf.checkpoint import TaskCheckpoint
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.cluster import ROUTERS, ClusterConfig
from repro.serve.failures import FailureConfig
from repro.serve.fleet import POLICIES, ServeConfig
from repro.serve.policy import OBSERVABLES, list_policies, load_policy
from repro.serve.queueing import SHED_POLICIES
from repro.serve.report import (
    COST_MODELS,
    checkpoint_meta,
    run_report,
    write_csv,
    write_json,
)
from repro.serve.surrogate import DEFAULT_TOLERANCE
from repro.serve.resilience import DEFAULT_RESILIENCE, ResilienceConfig
from repro.serve.scenario import CLOCK_GHZ, list_scenarios, load_scenario
from repro.serve.workload import ARRIVALS, MIXES, WorkloadConfig


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _domains(text: str) -> tuple:
    """``"0,1;2,3"`` -> ``((0, 1), (2, 3))`` (semicolons split domains)."""
    out = tuple(_ints(group) for group in text.split(";") if group.strip())
    if any(not group for group in out):
        raise argparse.ArgumentTypeError(
            f"each domain needs at least one chip id, got {text!r}")
    return out


def _kinds(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite(text: str, path: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        # NaN slips past every bound check downstream (a NaN gossip
        # interval hangs the cluster run).  Raised as a config error
        # rather than an argparse one, so main() reports it with the
        # dotted field path the config classes and scenarios use.
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return value


def _positive_float(path: str):
    """argparse type: a finite float > 0 for the field at ``path``."""
    def number(text: str) -> float:
        value = _finite(text, path)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return value
    return number


def _nonneg_float(path: str):
    """argparse type: a finite float >= 0 for the field at ``path``."""
    def number(text: str) -> float:
        value = _finite(text, path)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value
    return number


def _ms(value: float) -> float:
    """Simulated milliseconds -> PE clock cycles."""
    return value * CLOCK_GHZ * 1e6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Batched inference serving over a multi-chip VIP fleet.",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument("--chips", type=_positive_int, default=4)
    fleet.add_argument("--policy", choices=POLICIES, default="least-loaded")
    fleet.add_argument("--degraded", type=_ints, default=(),
                       help="comma-separated chip ids running the "
                            "fault-injected (ECC-correcting) service "
                            "times from repro.faults")
    batching = parser.add_argument_group("admission and batching")
    batching.add_argument("--max-batch", type=_positive_int, default=8)
    batching.add_argument("--max-wait",
                          type=_positive_float("batching.max_wait_cycles"),
                          default=20_000.0,
                          help="batch close deadline in cycles")
    batching.add_argument("--queue-capacity", type=_positive_int, default=64)
    batching.add_argument("--shed-policy", choices=SHED_POLICIES,
                          default="drop-newest")
    workload = parser.add_argument_group("workload")
    workload.add_argument("--arrival", choices=ARRIVALS, default="poisson")
    workload.add_argument("--rate",
                          type=_positive_float("workload.rate"),
                          default=50_000.0,
                          help="offered load in requests per simulated "
                               "second")
    workload.add_argument("--requests", type=_positive_int, default=200,
                          help="requests per mix")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--mix", action="append", choices=sorted(MIXES),
                          help="workload mix (repeatable); default: "
                               "bp and bp+vgg")
    workload.add_argument("--num-tiles", type=_positive_int, default=8)
    workload.add_argument("--burst-factor",
                          type=_positive_float("workload.burst_factor"),
                          default=8.0)
    workload.add_argument("--burst-len",
                          type=_positive_float("workload.burst_len"),
                          default=20.0)
    failures = parser.add_argument_group("failure lifecycle")
    failures.add_argument("--fail-chips", type=_nonneg_int, default=0,
                          help="subject the first N chips to seeded "
                               "fail-stop events (0 disables)")
    failures.add_argument("--fail-slow-chips", type=_nonneg_int, default=0,
                          help="subject the first N chips to fail-slow "
                               "(straggler) windows")
    failures.add_argument("--transient-chips", type=_nonneg_int, default=0,
                          help="subject the first N chips to transient "
                               "degraded-service windows")
    failures.add_argument("--fail-seed", type=int, default=0,
                          help="base seed of the failure lifecycle streams")
    failures.add_argument("--mtbf-ms",
                          type=_positive_float("failures.mtbf_ms"),
                          default=2.4,
                          help="mean simulated ms between fail-stop events")
    failures.add_argument("--repair-ms",
                          type=_positive_float("failures.repair_ms"),
                          default=0.64,
                          help="mean simulated ms to repair a fail-stop")
    failures.add_argument("--fail-domains", type=_domains, default=(),
                          metavar="SPEC",
                          help="correlated failure domains as semicolon-"
                               "separated chip-id groups, e.g. '0,1;2,3' "
                               "(one seeded outage fails every member)")
    failures.add_argument("--domain-mtbf-ms",
                          type=_positive_float("failures.domain_mtbf_ms"),
                          default=4.0,
                          help="mean simulated ms between domain outages")
    failures.add_argument("--domain-repair-ms",
                          type=_positive_float("failures.domain_repair_ms"),
                          default=0.48,
                          help="mean simulated ms to repair a domain outage")
    failures.add_argument("--domain-mode",
                          choices=("fail-stop", "fail-slow"),
                          default="fail-stop",
                          help="what a domain outage does to member chips")
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--health-interval-ms", default=0.02,
        type=_positive_float("resilience.health_interval_ms"),
        help="health-check tick period (simulated ms)")
    resilience.add_argument("--detect-latency-ms",
                            type=_nonneg_float("resilience.detect_latency_ms"),
                            default=0.0,
                            help="extra detection latency after the tick")
    resilience.add_argument("--health-fp-rate",
                            type=_nonneg_float("resilience.health_fp_rate"),
                            default=0.0,
                            help="health-check false-positive probability")
    resilience.add_argument("--max-retries", type=_nonneg_int, default=3,
                            help="re-dispatch budget per killed batch")
    resilience.add_argument(
        "--retry-deadline-ms", default=1.0,
        type=_positive_float("resilience.retry_deadline_ms"),
        help="drop requests older than this instead of retrying")
    resilience.add_argument("--hedge-delay-ms",
                            type=_nonneg_float("resilience.hedge_delay_ms"),
                            default=None,
                            help="hedge a launch overrunning its healthy "
                                 "estimate by this much (default: off)")
    policy = parser.add_argument_group("policy")
    policy.add_argument("--policy-file", default=None,
                        metavar="NAME_OR_PATH",
                        help="decision-tree policy set overriding the "
                             "schedule/shed/retry/hedge decisions "
                             "(library name or path); composes with "
                             "--scenario, overriding its policy section")
    policy.add_argument("--list-policies", action="store_true",
                        help="list the named policies on the search "
                             "path and exit")
    autoscale = parser.add_argument_group("autoscale")
    autoscale.add_argument("--autoscale", action="store_true",
                           help="enable the simulated autoscaler "
                                "(composes with --scenario)")
    autoscale.add_argument("--autoscale-min", type=_positive_int, default=1,
                           help="active-fleet floor")
    autoscale.add_argument("--autoscale-max", type=_positive_int, default=8,
                           help="active-fleet ceiling")
    autoscale.add_argument(
        "--autoscale-interval-ms", default=0.04,
        type=_positive_float("autoscale.evaluate_interval_ms"),
        help="decision tick period (simulated ms)")
    autoscale.add_argument("--autoscale-warmup-ms",
                           type=_nonneg_float("autoscale.warmup_ms"),
                           default=0.04,
                           help="provisioned chips serve nothing for "
                                "this long")
    autoscale.add_argument("--autoscale-cooldown-ms",
                           type=_nonneg_float("autoscale.cooldown_ms"),
                           default=0.16,
                           help="hold-off between scale decisions")
    cluster = parser.add_argument_group("cluster")
    cluster.add_argument("--cluster-shards", type=_positive_int,
                         default=None, metavar="N",
                         help="shard the fleet into N independent fleets "
                              "behind the cluster router (--chips becomes "
                              "the per-shard size; composes with "
                              "--scenario)")
    cluster.add_argument("--cluster-router", choices=ROUTERS,
                         default="least-loaded",
                         help="routing policy over believed-alive shards")
    cluster.add_argument("--cluster-gossip-ms",
                         type=_positive_float("cluster.gossip_interval_ms"),
                         default=0.04,
                         help="belief-refresh tick period (simulated ms); "
                              "router beliefs are up to one tick stale")
    cluster.add_argument("--cluster-failover-retries", type=_nonneg_int,
                         default=1,
                         help="cross-shard re-dispatch budget per request "
                              "(0 disables failover)")
    cluster.add_argument("--brownout-headroom",
                         type=_positive_float("cluster.brownout_headroom"),
                         default=None,
                         help="shed low-priority kinds cluster-wide when "
                              "believed capacity fraction drops below "
                              "this (default: off)")
    cluster.add_argument("--brownout-kinds", type=_kinds, default=("fc",),
                         help="comma-separated kinds shed during a "
                              "brown-out (default: fc)")
    scenario = parser.add_argument_group("scenario")
    scenario.add_argument("--scenario", default=None, metavar="NAME_OR_PATH",
                          help="run a declarative scenario file (library "
                               "name or path); replaces every workload/"
                               "fleet/failure/resilience flag — only run "
                               "infrastructure flags (--out, --csv, "
                               "--checkpoint, --resume, --workers) still "
                               "apply")
    scenario.add_argument("--list-scenarios", action="store_true",
                          help="list the named scenarios on the search "
                               "path and exit")
    run = parser.add_argument_group("run")
    run.add_argument("--slo-ms",
                     type=_positive_float("run.slo_ms"), default=0.25,
                     help="latency SLO in simulated milliseconds")
    run.add_argument("--cost-model", choices=COST_MODELS, default="measured",
                     help="how the service-time table is built: 'measured' "
                          "simulates every launch shape; 'surrogate' "
                          "simulates anchors and cross-validates a "
                          "piecewise-linear fit (repro.serve.surrogate)")
    run.add_argument("--surrogate-tolerance",
                     type=_positive_float("run.surrogate_tolerance"),
                     default=DEFAULT_TOLERANCE,
                     help="relative cycle tolerance of the surrogate's "
                          "held-out validation (fallback to exact "
                          "measurement beyond it)")
    run.add_argument("--full", action="store_true",
                     help="paper-scale kernel geometry (default: quick)")
    run.add_argument("--workers", type=_positive_int, default=None,
                     help="pool size for cost-table measurement")
    run.add_argument("--checkpoint", default=None,
                     help="journal cost-table measurements to this file")
    run.add_argument("--resume", action="store_true",
                     help="reuse results already journaled in --checkpoint")
    run.add_argument("--out", default=None, help="write the JSON report here")
    run.add_argument("--csv", default=None,
                     help="write per-request records here")
    return parser


def _fmt_ms(cycles, clock_ghz: float) -> str:
    if cycles is None:
        return "-"
    return f"{cycles / (clock_ghz * 1e6):.3f}"


def _failure_config(args) -> FailureConfig | None:
    if not (args.fail_chips or args.fail_slow_chips
            or args.transient_chips or args.fail_domains):
        return None
    counts = (args.fail_chips, args.fail_slow_chips, args.transient_chips)
    if max(counts) > args.chips:
        raise ConfigError(
            f"failure chip count {max(counts)} exceeds --chips {args.chips}")
    return FailureConfig(
        seed=args.fail_seed,
        fail_stop_chips=tuple(range(args.fail_chips)),
        fail_stop_mtbf_cycles=_ms(args.mtbf_ms),
        repair_mean_cycles=_ms(args.repair_ms),
        fail_slow_chips=tuple(range(args.fail_slow_chips)),
        transient_chips=tuple(range(args.transient_chips)),
        domains=args.fail_domains,
        domain_mtbf_cycles=_ms(args.domain_mtbf_ms),
        domain_repair_mean_cycles=_ms(args.domain_repair_ms),
        domain_mode=args.domain_mode,
    )


def _resilience_config(args) -> ResilienceConfig:
    return ResilienceConfig(
        health_check_interval_cycles=_ms(args.health_interval_ms),
        detection_latency_cycles=_ms(args.detect_latency_ms),
        health_false_positive_rate=args.health_fp_rate,
        max_retries=args.max_retries,
        retry_deadline_cycles=_ms(args.retry_deadline_ms),
        hedge_delay_cycles=(_ms(args.hedge_delay_ms)
                            if args.hedge_delay_ms is not None else None),
    )


def _cluster_config(args) -> ClusterConfig | None:
    if args.cluster_shards is None and args.brownout_headroom is None:
        return None
    return ClusterConfig(
        shards=args.cluster_shards or 1,
        router=args.cluster_router,
        gossip_interval_cycles=_ms(args.cluster_gossip_ms),
        failover_retries=args.cluster_failover_retries,
        brownout_headroom=args.brownout_headroom,
        brownout_kinds=args.brownout_kinds,
    )


def _autoscale_config(args) -> AutoscaleConfig | None:
    if not args.autoscale:
        return None
    return AutoscaleConfig(
        min_chips=args.autoscale_min,
        max_chips=args.autoscale_max,
        evaluate_interval_cycles=_ms(args.autoscale_interval_ms),
        warmup_cycles=_ms(args.autoscale_warmup_ms),
        cooldown_cycles=_ms(args.autoscale_cooldown_ms),
    )


def _run(args) -> int:
    if args.list_scenarios:
        scenarios = list_scenarios()
        if not scenarios:
            print("no scenarios found on the search path")
        for entry in scenarios:
            print(f"{entry['name']:<20} {entry['description']}")
        return 0
    if args.list_policies:
        policies = list_policies()
        if not policies:
            print("no policies found on the search path")
        for entry in policies:
            print(f"{entry['name']:<20} {entry['description']}")
        print()
        print("condition observables (name / type / slots):")
        for name, (kind, slots) in sorted(OBSERVABLES.items()):
            print(f"  {name:<26} {kind:<6} {', '.join(slots)}")
        return 0
    if args.resume and not args.checkpoint:
        raise ConfigError("--resume requires --checkpoint PATH")
    check_output_paths({"--out": args.out, "--csv": args.csv,
                        "--checkpoint": args.checkpoint})
    if args.scenario:
        scenario = load_scenario(args.scenario)
        mixes, quick = scenario.mixes, scenario.quick
        config, workload = scenario.serve, scenario.workload
        cost_model = scenario.cost_model
        surrogate_tolerance = scenario.surrogate_tolerance
        if args.policy_file:
            config = replace(config,
                             policy_set=load_policy(args.policy_file))
        if args.autoscale:
            config = replace(config, autoscale=_autoscale_config(args))
        if args.cluster_shards is not None \
                or args.brownout_headroom is not None:
            config = replace(config, cluster=_cluster_config(args))
        print(f"scenario {scenario.name}: "
              f"{scenario.description or '(no description)'}")
    else:
        cost_model = args.cost_model
        surrogate_tolerance = args.surrogate_tolerance
        mixes = tuple(args.mix) if args.mix else ("bp", "bp+vgg")
        quick = not args.full
        failures = _failure_config(args)
        config = ServeConfig(
            chips=args.chips,
            policy=args.policy,
            max_batch=args.max_batch,
            max_wait_cycles=args.max_wait,
            queue_capacity=args.queue_capacity,
            shed_policy=args.shed_policy,
            degraded_chips=args.degraded,
            slo_cycles=_ms(args.slo_ms),
            failures=failures,
            resilience=(_resilience_config(args)
                        if failures is not None else None),
            policy_set=(load_policy(args.policy_file)
                        if args.policy_file else None),
            autoscale=_autoscale_config(args),
            cluster=_cluster_config(args),
        )
        workload = WorkloadConfig(
            mix=mixes[0],
            arrival=args.arrival,
            rate=args.rate,
            requests=args.requests,
            seed=args.seed,
            num_tiles=args.num_tiles,
            burst_factor=args.burst_factor,
            burst_len=args.burst_len,
        )
    checkpoint = None
    if args.checkpoint:
        checkpoint = TaskCheckpoint(
            args.checkpoint,
            meta=checkpoint_meta(config, mixes, quick, cost_model),
            resume=args.resume)
    try:
        payload, runs = run_report(workload, config, mixes=mixes,
                                   quick=quick,
                                   max_workers=args.workers,
                                   checkpoint=checkpoint,
                                   cost_model=cost_model,
                                   surrogate_tolerance=surrogate_tolerance)
    finally:
        if checkpoint is not None:
            checkpoint.close()

    header = (f"{'mix':<8} {'served':>6} {'shed%':>6} {'exp':>4} "
              f"{'avail%':>6} {'good req/s':>10} {'p50 ms':>8} "
              f"{'p99 ms':>8} {'p999 ms':>8} {'slo%':>6} {'batch':>5}")
    print(header)
    print("-" * len(header))
    for run in runs:
        m = run.metrics
        print(f"{run.workload.mix:<8} {m.served:>6} "
              f"{m.shed_rate * 100:>5.1f}% {m.expired:>4} "
              f"{m.availability * 100:>5.1f}% {m.goodput_rps:>10.0f} "
              f"{_fmt_ms(m.latency_p50, m.clock_ghz):>8} "
              f"{_fmt_ms(m.latency_p99, m.clock_ghz):>8} "
              f"{_fmt_ms(m.latency_p999, m.clock_ghz):>8} "
              f"{m.slo_violation_rate * 100:>5.1f}% "
              f"{m.mean_batch_size:>5.2f}")
        if m.retries or m.hedges:
            print(f"{'':>8} retries={m.retries} hedges={m.hedges} "
                  f"retry_waste={m.retry_wasted_cycles:.0f}cy "
                  f"hedge_waste={m.hedge_wasted_cycles:.0f}cy")
    if args.out:
        write_json(payload, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        write_csv(runs, args.csv)
        print(f"wrote {args.csv}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
