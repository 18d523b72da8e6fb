"""``python -m repro.serve`` — the serving-layer command line.

Simulates an inference service in front of a fleet of VIP chips and
reports throughput, goodput, availability, p50/p95/p99/p99.9 latency,
SLO-violation rate, and shed rate per workload mix::

    python -m repro.serve --chips 4 --arrival poisson --rate 50000 --seed 0

Every simulation flag writes one key of a scenario document
(:mod:`repro.serve.scenario`), e.g. ``--rate`` writes ``workload.rate``;
``--help`` shows each flag's key as its metavar.  The flags given go on
top of the ``--scenario`` file key by key, or into an empty document,
which compiles once through
:func:`~repro.serve.scenario.scenario_from_document`: a flag has no
default, bound or unit of its own.

Resilience: ``--fail-chips N`` subjects the first N chips to a seeded
fail-stop lifecycle (``--fail-slow-chips`` / ``--transient-chips``
likewise for stragglers and transient degradation); the scheduler
defends with health checks, bounded retries, optional hedging
(``--hedge-delay-ms``), circuit breakers, and load-shedding tiers.

Serving behavior is pluggable: ``--policy-file`` loads a decision-tree
policy set (``repro.serve.policy``) overriding the schedule/shed/retry/
hedge decisions, and ``--autoscale`` turns on the deterministic
simulated autoscaler (``repro.serve.autoscale``).

Cluster scale: ``--cluster-shards N`` runs N independent fleet shards
behind the deterministic cluster router (``repro.serve.cluster``) with
bounded-staleness gossip beliefs, cross-shard failover, and optional
brown-out shedding (``--brownout-headroom``); ``--fail-domains
"0,1;2,3"`` groups chips into correlated failure domains (zone/rack
outages that fail every member in one event).

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
import sys

from repro.cli import check_output_paths
from repro.errors import ConfigError
from repro.serve.policy import OBSERVABLES, list_policies
from repro.serve.report import (
    open_checkpoint,
    run_report,
    write_csv,
    write_json,
)
from repro.serve.scenario import (
    REMOVED_KEYS,
    SCENARIO_LIBRARY,
    SCENARIO_SCHEMA,
    list_scenarios,
    scenario_from_document,
)
from repro.serve.workload import MIXES


def _words(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _ints(text: str) -> list:
    return [int(word) for word in _words(text)]


def _int_lists(text: str) -> list:
    """``"0,1;2,3"`` -> ``[[0, 1], [2, 3]]`` (semicolons split groups)."""
    return [_ints(group) for group in text.split(";") if group.strip()]


#: The document flags: (flag, "section.key", syntax, help).  A row only
#: parses syntax; the schema owns every default, bound, choice and unit.
DOCUMENT_FLAGS = (
    ("--chips", "fleet.chips", int, None),
    ("--policy", "fleet.policy", str, None),
    ("--degraded", "fleet.degraded_chips", _ints,
     "comma-separated chip ids running the fault-injected "
     "(ECC-correcting) service times from repro.faults"),
    ("--max-batch", "batching.max_batch", int, None),
    ("--max-wait", "batching.max_wait_cycles", float,
     "batch close deadline in cycles"),
    ("--queue-capacity", "batching.queue_capacity", int, None),
    ("--shed-policy", "batching.shed_policy", str, None),
    ("--arrival", "workload.arrival", str, None),
    ("--rate", "workload.rate", float,
     "offered load in requests per simulated second"),
    ("--requests", "workload.requests", int, "requests per mix"),
    ("--seed", "workload.seed", int, None),
    ("--num-tiles", "workload.num_tiles", int, None),
    ("--burst-factor", "workload.burst_factor", float, None),
    ("--burst-len", "workload.burst_len", float, None),
    ("--fail-chips", "failures.fail_stop_chips", int,
     "subject the first N chips to seeded fail-stop events"),
    ("--fail-slow-chips", "failures.fail_slow_chips", int,
     "subject the first N chips to fail-slow (straggler) windows"),
    ("--transient-chips", "failures.transient_chips", int,
     "subject the first N chips to transient degraded-service windows"),
    ("--fail-seed", "failures.seed", int,
     "base seed of the failure lifecycle streams"),
    ("--mtbf-ms", "failures.mtbf_ms", float,
     "mean simulated ms between fail-stop events"),
    ("--repair-ms", "failures.repair_ms", float,
     "mean simulated ms to repair a fail-stop"),
    ("--fail-domains", "failures.domains", _int_lists,
     "correlated failure domains as semicolon-separated chip-id groups, "
     "e.g. '0,1;2,3' (one seeded outage fails every member)"),
    ("--domain-mtbf-ms", "failures.domain_mtbf_ms", float,
     "mean simulated ms between domain outages"),
    ("--domain-repair-ms", "failures.domain_repair_ms", float,
     "mean simulated ms to repair a domain outage"),
    ("--domain-mode", "failures.domain_mode", str,
     "what a domain outage does to member chips"),
    ("--health-interval-ms", "resilience.health_interval_ms", float,
     "health-check tick period (simulated ms)"),
    ("--detect-latency-ms", "resilience.detect_latency_ms", float,
     "extra detection latency after the tick"),
    ("--health-fp-rate", "resilience.health_fp_rate", float,
     "health-check false-positive probability"),
    ("--max-retries", "resilience.max_retries", int,
     "re-dispatch budget per killed batch"),
    ("--retry-deadline-ms", "resilience.retry_deadline_ms", float,
     "drop requests older than this instead of retrying"),
    ("--hedge-delay-ms", "resilience.hedge_delay_ms", float,
     "hedge a launch overrunning its healthy estimate by this much "
     "(default: off)"),
    ("--autoscale-min", "autoscale.min_chips", int, "active-fleet floor"),
    ("--autoscale-max", "autoscale.max_chips", int, "active-fleet ceiling"),
    ("--autoscale-interval-ms", "autoscale.evaluate_interval_ms", float,
     "decision tick period (simulated ms)"),
    ("--autoscale-warmup-ms", "autoscale.warmup_ms", float,
     "provisioned chips serve nothing for this long"),
    ("--autoscale-cooldown-ms", "autoscale.cooldown_ms", float,
     "hold-off between scale decisions"),
    ("--cluster-shards", "cluster.shards", int,
     "shard the fleet into N independent fleets behind the cluster "
     "router (--chips becomes the per-shard size)"),
    ("--cluster-router", "cluster.router", str,
     "routing policy over believed-alive shards"),
    ("--cluster-gossip-ms", "cluster.gossip_interval_ms", float,
     "belief-refresh tick period (simulated ms); router beliefs are up "
     "to one tick stale"),
    ("--cluster-failover-retries", "cluster.failover_retries", int,
     "cross-shard re-dispatch budget per request (0 disables failover)"),
    ("--brownout-headroom", "cluster.brownout_headroom", float,
     "shed low-priority kinds cluster-wide when believed capacity "
     "fraction drops below this (default: off)"),
    ("--brownout-kinds", "cluster.brownout_kinds", _words,
     "comma-separated kinds shed during a brown-out (default: fc)"),
    ("--slo-ms", "run.slo_ms", float,
     "latency SLO in simulated milliseconds"),
)

#: The flag each removed key had: ``--`` and the key, dashed.
REMOVED_FLAGS = {"--" + key.split(".")[1].replace("_", "-"): key
                 for key in REMOVED_KEYS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Batched inference serving over a multi-chip VIP fleet.",
    )
    groups = {title: parser.add_argument_group(title) for title in (
        "fleet", "batching", "workload", "failures", "resilience",
        "policy", "autoscale", "cluster", "scenario", "run")}
    # A dotted ``dest`` is the document key the flag writes (_overlay).
    for flag, path, syntax, text in DOCUMENT_FLAGS:
        section, key = path.split(".")
        choices = SCENARIO_SCHEMA[section][key].choices
        if choices:
            text = (f"{text}; " if text else "") \
                + f"one of: {', '.join(choices)}"
        groups[section].add_argument(flag, dest=path, metavar=path,
                                     type=syntax, help=text)
    groups["workload"].add_argument(
        "--mix", action="append", dest="workload.mix", metavar="workload.mix",
        help=f"workload mix (repeatable; one of: {', '.join(sorted(MIXES))});"
             f" default: bp and bp+vgg")
    groups["policy"].add_argument(
        "--policy-file", metavar="NAME_OR_PATH",
        help="decision-tree policy set overriding the "
             "schedule/shed/retry/hedge decisions (library name or "
             "path); sets the document's policy section to {file: ...}")
    groups["policy"].add_argument(
        "--list-policies", action="store_true",
        help="list the named policies on the search path and exit")
    groups["autoscale"].add_argument(
        "--autoscale", action="store_true",
        help="enable the simulated autoscaler (adds an empty autoscale "
             "section when the document has none)")
    groups["scenario"].add_argument(
        "--scenario", metavar="NAME_OR_PATH",
        help="run a declarative scenario file (library name or path); "
             "every simulation flag given with it overrides that key "
             "of the file")
    groups["scenario"].add_argument(
        "--list-scenarios", action="store_true",
        help="list the named scenarios on the search path and exit")
    run = groups["run"]
    run.add_argument("--full", action="store_const", const=False,
                     dest="run.quick",
                     help="paper-scale kernel geometry (run.quick: false; "
                          "default: quick)")
    run.add_argument("--workers", type=int,
                     help="pool size for cost-table measurement")
    run.add_argument("--checkpoint",
                     help="journal cost-table measurements to this file")
    run.add_argument("--resume", action="store_true",
                     help="reuse results already journaled in --checkpoint")
    run.add_argument("--out", help="write the JSON report here")
    run.add_argument("--csv", help="write per-request records here")
    return parser


def _overlay(doc: dict, args) -> dict:
    """Write every flag the user gave into the raw scenario ``doc``."""
    for path, value in vars(args).items():
        if "." not in path or value is None:
            continue
        section, key = path.split(".")
        if doc.get(section) is None:
            doc[section] = {}
        # A malformed section stays as it is, for validation to name.
        if isinstance(doc[section], dict):
            doc[section][key] = value
    if args.autoscale and doc.get("autoscale") is None:
        doc["autoscale"] = {}
    if args.policy_file is not None:
        doc["policy"] = {"file": args.policy_file}
    return doc


def _fmt_ms(cycles, clock_ghz: float) -> str:
    if cycles is None:
        return "-"
    return f"{cycles / (clock_ghz * 1e6):.3f}"


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
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
    check_output_paths({"--out": args.out, "--csv": args.csv,
                        "--checkpoint": args.checkpoint})
    doc, name, source = {}, None, None
    if args.scenario:
        doc, name, source = SCENARIO_LIBRARY.read(args.scenario)
    scenario = scenario_from_document(_overlay(doc, args), name=name,
                                      source=source)
    if args.scenario:
        print(f"scenario {scenario.name}: "
              f"{scenario.description or '(no description)'}")
    config, mixes = scenario.serve, scenario.mixes
    checkpoint = None
    if args.checkpoint:
        checkpoint = open_checkpoint(args.checkpoint, config, mixes,
                                     scenario.quick, resume=args.resume)
    try:
        payload, runs = run_report(
            scenario.workload, config, mixes=mixes, quick=scenario.quick,
            max_workers=args.workers, checkpoint=checkpoint)
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


def _parse(argv: list[str] | None):
    """Parse ``argv``; a removed flag fails as its removed key does."""
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    for word in unknown:
        key = REMOVED_FLAGS.get(word.split("=", 1)[0])
        if key is not None:
            raise ConfigError(f"scenario.{key}: {REMOVED_KEYS[key]}")
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(_parse(argv))
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
