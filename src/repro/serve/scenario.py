"""The declarative scenario DSL: named serving experiments as data.

A *scenario* is a YAML/JSON document describing one end-to-end serving
experiment — workload mix, fleet size and scheduler policy, batching and
admission knobs, failure timeline, resilience defenses, and SLO target —
that compiles to a :class:`~repro.serve.workload.WorkloadConfig` and a
:class:`~repro.serve.fleet.ServeConfig`.  It is the one description of
a run: each simulation flag of ``python -m repro.serve`` writes one key
of a scenario document (on top of the ``--scenario`` file, if any), and
the online control plane (:mod:`repro.serve.control`) takes the same
documents, so a named experiment means one thing everywhere and
produces byte-identical reports over either path.

The document is validated against a typed schema before compiling:
unknown keys, type errors, and out-of-range values raise
:class:`~repro.errors.ConfigError` carrying the dotted field path
(``scenario.workload.rate: must be > 0``), which both CLIs surface as
the structured one-line ``error: config:`` exit-2 convention.

``*_ms`` fields are simulated milliseconds (converted at the 1.25 GHz
PE clock), and ``max_wait_cycles`` is PE cycles.  Chip sets
(``fail_stop_chips`` etc.) accept either a count N (the first N chips;
``--fail-chips N`` writes a count) or an explicit id list.

Three optional sections are off unless present: an ``autoscale``
section (knobs for :class:`~repro.serve.autoscale.AutoscaleConfig` —
presence of the section enables the autoscaler), a ``cluster`` section
(knobs for :class:`~repro.serve.cluster.ClusterConfig` — presence of
the section shards the fleet behind the cluster router, with ``fleet.
chips`` becoming the per-shard size), and a ``policy`` section holding
either an inline decision-tree document (validated by
:mod:`repro.serve.policy` with ``scenario.policy.*`` error paths) or
``{file: <name-or-path>}`` referencing the named-policy library.
Correlated failure domains live in the ``failures`` section
(``domains: [[0, 1], [2, 3]]`` plus ``domain_*`` knobs) and work with
or without a cluster.

Files are parsed by :mod:`repro.serve.documents` (a built-in YAML
subset, or JSON), which policy files share.  Named scenarios are looked
up in ``$REPRO_SCENARIO_DIR``, then ``examples/scenarios/`` under the
working directory, then under the repo checkout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.cluster import ROUTERS, ClusterConfig
# parse_simple_yaml is re-exported: callers import it from here.
from repro.serve.documents import DocumentLibrary, parse_simple_yaml
from repro.serve.failures import FailureConfig
from repro.serve.fleet import POLICIES, ServeConfig
from repro.serve.policy import load_policy, policy_from_document
from repro.serve.queueing import SHED_POLICIES
from repro.serve.resilience import ResilienceConfig
from repro.serve.workload import (
    ARRIVALS,
    KINDS,
    MAX_TILES,
    MIXES,
    WorkloadConfig,
)

#: The simulated PE clock every ``*_ms`` field is converted at.
CLOCK_GHZ = 1.25


def ms_to_cycles(ms: float) -> float:
    """Simulated milliseconds -> PE clock cycles at :data:`CLOCK_GHZ`."""
    return ms * CLOCK_GHZ * 1e6


# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class _Field:
    """One scenario field: type, default, and bounds."""

    kind: str  # int | float | bool | str | chips | int_list | mixes
    default: object = None
    min: float | None = None
    max: float | None = None
    min_exclusive: bool = False
    choices: tuple = ()
    nullable: bool = False


#: section -> field -> spec.  The only source of defaults, bounds and
#: units: every ``python -m repro.serve`` flag writes one of these keys,
#: so an empty document is the flag-less run.
SCENARIO_SCHEMA = {
    "workload": {
        "mix": _Field("mixes", default=("bp", "bp+vgg")),
        "arrival": _Field("str", default="poisson", choices=ARRIVALS),
        "rate": _Field("float", default=50_000.0, min=0,
                       min_exclusive=True),
        "requests": _Field("int", default=200, min=1),
        "seed": _Field("int", default=0, min=0),
        "num_tiles": _Field("int", default=8, min=1, max=MAX_TILES),
        "burst_factor": _Field("float", default=8.0, min=1.0),
        "burst_len": _Field("float", default=20.0, min=1.0),
    },
    "fleet": {
        "chips": _Field("int", default=4, min=1),
        "policy": _Field("str", default="least-loaded", choices=POLICIES),
        "degraded_chips": _Field("int_list", default=()),
    },
    "batching": {
        "max_batch": _Field("int", default=8, min=1),
        "max_wait_cycles": _Field("float", default=20_000.0, min=0,
                                  min_exclusive=True),
        "queue_capacity": _Field("int", default=64, min=1),
        "shed_policy": _Field("str", default="drop-newest",
                              choices=SHED_POLICIES),
    },
    "failures": {
        "seed": _Field("int", default=0),
        "fail_stop_chips": _Field("chips", default=()),
        "mtbf_ms": _Field("float", default=2.4, min=0, min_exclusive=True),
        "repair_ms": _Field("float", default=0.64, min=0,
                            min_exclusive=True),
        "fail_slow_chips": _Field("chips", default=()),
        "fail_slow_mtbf_ms": _Field("float", default=1.6, min=0,
                                    min_exclusive=True),
        "fail_slow_duration_ms": _Field("float", default=0.4, min=0,
                                        min_exclusive=True),
        "fail_slow_factor": _Field("float", default=4.0, min=1.0),
        "transient_chips": _Field("chips", default=()),
        "transient_mtbf_ms": _Field("float", default=1.6, min=0,
                                    min_exclusive=True),
        "transient_duration_ms": _Field("float", default=0.32, min=0,
                                        min_exclusive=True),
        # Correlated failure domains: zone/rack chip groupings that
        # fail in one event (repro.serve.failures).
        "domains": _Field("domains", default=()),
        "domain_mtbf_ms": _Field("float", default=4.0, min=0,
                                 min_exclusive=True),
        "domain_repair_ms": _Field("float", default=0.48, min=0,
                                   min_exclusive=True),
        "domain_mode": _Field("str", default="fail-stop",
                              choices=("fail-stop", "fail-slow")),
        "domain_slow_factor": _Field("float", default=4.0, min=1.0),
    },
    "resilience": {
        "health_interval_ms": _Field("float", default=0.02, min=0,
                                     min_exclusive=True),
        "detect_latency_ms": _Field("float", default=0.0, min=0),
        "health_fp_rate": _Field("float", default=0.0, min=0, max=1),
        "breaker_failure_threshold": _Field("int", default=1, min=1),
        "breaker_open_ms": _Field("float", default=0.16, min=0,
                                  min_exclusive=True),
        "max_retries": _Field("int", default=3, min=0),
        "retry_backoff_ms": _Field("float", default=0.004, min=0),
        "retry_deadline_ms": _Field("float", default=1.0, min=0,
                                    min_exclusive=True),
        "hedge_delay_ms": _Field("float", default=None, min=0,
                                 nullable=True),
    },
    "autoscale": {
        "min_chips": _Field("int", default=1, min=1),
        "max_chips": _Field("int", default=8, min=1),
        "evaluate_interval_ms": _Field("float", default=0.04, min=0,
                                       min_exclusive=True),
        "up_queue_per_chip": _Field("float", default=8.0, min=0,
                                    min_exclusive=True),
        "up_backlog_ms": _Field("float", default=0.08, min=0,
                                min_exclusive=True),
        "down_queue_max": _Field("float", default=1.0, min=0),
        "idle_ms": _Field("float", default=0.08, min=0),
        "warmup_ms": _Field("float", default=0.04, min=0),
        "cooldown_ms": _Field("float", default=0.16, min=0),
        "max_step": _Field("int", default=1, min=1),
    },
    "cluster": {
        "shards": _Field("int", default=2, min=1),
        "router": _Field("str", default="least-loaded", choices=ROUTERS),
        "gossip_interval_ms": _Field("float", default=0.04, min=0,
                                     min_exclusive=True),
        "failover_retries": _Field("int", default=1, min=0),
        "brownout_headroom": _Field("float", default=None, min=0,
                                    min_exclusive=True, max=1,
                                    nullable=True),
        "brownout_kinds": _Field("kinds", default=("fc",)),
    },
    "run": {
        "slo_ms": _Field("float", default=0.25, min=0, min_exclusive=True),
        "quick": _Field("bool", default=True),
    },
}

#: "section.key" -> why an earlier schema's key is gone: a document
#: that still sets one fails naming it, not as an unknown key.
REMOVED_KEYS = dict.fromkeys(
    ("run.cost_model", "run.surrogate_tolerance"),
    "removed: every cost table is measured now (drop the key)")

#: Top-level scalar keys outside the config sections.
_TOP_FIELDS = {
    "name": _Field("str", default=None, nullable=True),
    "description": _Field("str", default=""),
}


def _check_scalar(value, spec: _Field, path: str):
    if value is None:
        if spec.nullable:
            return None
        raise ConfigError(f"{path}: must not be null")
    if spec.kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, "
                              f"got {value!r}")
        return value
    if spec.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif spec.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        value = float(value)
        # JSON documents can carry NaN/Infinity, and NaN would slip past
        # every bound check below.
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be a finite number, "
                              f"got {value!r}")
    elif spec.kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"{path}: unknown value {value!r}; choose from "
                          f"{tuple(spec.choices)}")
    if spec.min is not None and isinstance(value, (int, float)):
        if spec.min_exclusive and value <= spec.min:
            raise ConfigError(f"{path}: must be > {spec.min:g}, "
                              f"got {value!r}")
        if not spec.min_exclusive and value < spec.min:
            raise ConfigError(f"{path}: must be >= {spec.min:g}, "
                              f"got {value!r}")
    if spec.max is not None and isinstance(value, (int, float)) \
            and value > spec.max:
        raise ConfigError(f"{path}: must be <= {spec.max!r}, got {value!r}")
    return value


def _check_field(value, spec: _Field, path: str):
    if spec.kind == "domains":
        if not isinstance(value, list) or any(
                not isinstance(d, list) for d in value):
            raise ConfigError(f"{path}: expected a list of chip-id "
                              f"lists (one per domain), got {value!r}")
        out = []
        for i, members in enumerate(value):
            if not members or any(isinstance(c, bool)
                                  or not isinstance(c, int)
                                  for c in members):
                raise ConfigError(
                    f"{path}[{i}]: expected a non-empty list of chip "
                    f"ids, got {members!r}")
            out.append(tuple(members))
        return tuple(out)
    if spec.kind == "kinds":
        if isinstance(value, str):
            value = [value]
        if not isinstance(value, list) or not value or any(
                not isinstance(v, str) for v in value):
            raise ConfigError(f"{path}: expected a kind name or a list "
                              f"of kind names, got {value!r}")
        for v in value:
            if v not in KINDS:
                raise ConfigError(f"{path}: unknown kind {v!r}; choose "
                                  f"from {tuple(KINDS)}")
        if len(set(value)) != len(value):
            raise ConfigError(f"{path}: duplicate kind names in {value!r}")
        return tuple(value)
    if spec.kind == "int_list" or spec.kind == "chips":
        if spec.kind == "chips" and isinstance(value, int) \
                and not isinstance(value, bool):
            if value < 0:
                raise ConfigError(f"{path}: chip count must be >= 0, "
                                  f"got {value}")
            return value  # a count; expanded against fleet.chips later
        if not isinstance(value, list) or any(
                isinstance(v, bool) or not isinstance(v, int)
                for v in value):
            what = ("a chip count or a list of chip ids"
                    if spec.kind == "chips" else "a list of integers")
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return tuple(value)
    if spec.kind == "mixes":
        if isinstance(value, str):
            value = [value]
        if not isinstance(value, list) or not value or any(
                not isinstance(v, str) for v in value):
            raise ConfigError(f"{path}: expected a mix name or a list of "
                              f"mix names, got {value!r}")
        for v in value:
            if v not in MIXES:
                raise ConfigError(f"{path}: unknown mix {v!r}; choose "
                                  f"from {sorted(MIXES)}")
        if len(set(value)) != len(value):
            raise ConfigError(f"{path}: duplicate mix names in {value!r}")
        return tuple(value)
    return _check_scalar(value, spec, path)


def validate_document(doc: dict) -> dict:
    """Validate a raw scenario document against the schema.

    Returns a fully-defaulted ``{section: {field: value}}`` mapping plus
    the top-level ``name``/``description`` keys.  Sections the document
    omits get pure defaults; the ``failures`` and ``resilience``
    sections additionally record whether the document mentioned them.
    """
    if not isinstance(doc, dict):
        raise ConfigError("scenario: document must be a mapping")
    known = set(SCENARIO_SCHEMA) | set(_TOP_FIELDS) | {"policy"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"scenario.{key}: unknown key; known keys: "
                              f"{', '.join(sorted(known))}")
    out: dict = {}
    for key, spec in _TOP_FIELDS.items():
        out[key] = _check_scalar(doc.get(key, spec.default), spec,
                                 f"scenario.{key}")
    for section, fields_ in SCENARIO_SCHEMA.items():
        given = doc.get(section, {})
        if given is None:
            given = {}
        if not isinstance(given, dict):
            raise ConfigError(f"scenario.{section}: expected a mapping, "
                              f"got {given!r}")
        for key in given:
            removed = REMOVED_KEYS.get(f"{section}.{key}")
            if removed is not None:
                raise ConfigError(f"scenario.{section}.{key}: {removed}")
            if key not in fields_:
                raise ConfigError(
                    f"scenario.{section}.{key}: unknown key; known keys: "
                    f"{', '.join(sorted(fields_))}")
        out[section] = {
            key: _check_field(given[key], spec,
                              f"scenario.{section}.{key}")
            if key in given else spec.default
            for key, spec in fields_.items()
        }
    # Presence of the key (even an empty section) counts as given: a
    # user who wrote ``failures:`` with no chips gets an error telling
    # them to drop the section, not a silently disabled lifecycle.
    out["_failures_given"] = doc.get("failures") is not None \
        and "failures" in doc
    out["_resilience_given"] = doc.get("resilience") is not None \
        and "resilience" in doc
    # ``autoscale:`` (even empty) enables the autoscaler with defaults,
    # the way an empty ``failures:`` would enable the lifecycle.
    out["_autoscale_given"] = doc.get("autoscale") is not None \
        and "autoscale" in doc
    # ``cluster:`` (even empty) enables the cluster layer with its
    # defaults (2 shards behind the least-loaded router).
    out["_cluster_given"] = doc.get("cluster") is not None \
        and "cluster" in doc
    # The policy section is a nested decision-tree document, not flat
    # scalars: validated/compiled by repro.serve.policy at compile time.
    policy_doc = doc.get("policy")
    if "policy" in doc and policy_doc is not None:
        if not isinstance(policy_doc, dict) or not policy_doc:
            raise ConfigError(
                "scenario.policy: expected a mapping holding decision "
                "slots or {file: <name-or-path>} "
                "(drop the section to disable)")
    out["policy"] = policy_doc if "policy" in doc else None
    return out


# ---------------------------------------------------------------------------
# Compilation


def _chip_tuple(value, chips: int, path: str) -> tuple:
    """Expand a chip count into ``(0..N-1)`` and bound-check id lists."""
    if isinstance(value, int):
        if value > chips:
            raise ConfigError(f"{path}: chip count {value} exceeds "
                              f"fleet.chips {chips}")
        return tuple(range(value))
    bad = [c for c in value if not 0 <= c < chips]
    if bad:
        raise ConfigError(f"{path}: chip ids out of range for "
                          f"{chips} chips: {bad}")
    return tuple(value)


@dataclass(frozen=True)
class Scenario:
    """One compiled scenario: the configs a serving run needs."""

    name: str
    description: str
    workload: WorkloadConfig
    serve: ServeConfig
    mixes: tuple
    quick: bool
    #: The validated document this scenario compiled from (used to
    #: persist and re-compile jobs across control-plane restarts).
    document: dict = field(default_factory=dict, compare=False)
    source: str | None = None


def scenario_from_document(doc: dict, name: str | None = None,
                           source: str | None = None) -> Scenario:
    """Validate and compile a raw scenario document."""
    v = validate_document(doc)
    fleet, batching = v["fleet"], v["batching"]
    fail, res, run = v["failures"], v["resilience"], v["run"]
    chips = fleet["chips"]

    failures = None
    if v["_failures_given"]:
        failures = FailureConfig(
            seed=fail["seed"],
            fail_stop_chips=_chip_tuple(
                fail["fail_stop_chips"], chips,
                "scenario.failures.fail_stop_chips"),
            fail_stop_mtbf_cycles=ms_to_cycles(fail["mtbf_ms"]),
            repair_mean_cycles=ms_to_cycles(fail["repair_ms"]),
            fail_slow_chips=_chip_tuple(
                fail["fail_slow_chips"], chips,
                "scenario.failures.fail_slow_chips"),
            fail_slow_mtbf_cycles=ms_to_cycles(fail["fail_slow_mtbf_ms"]),
            fail_slow_duration_cycles=ms_to_cycles(
                fail["fail_slow_duration_ms"]),
            fail_slow_factor=fail["fail_slow_factor"],
            transient_chips=_chip_tuple(
                fail["transient_chips"], chips,
                "scenario.failures.transient_chips"),
            transient_mtbf_cycles=ms_to_cycles(fail["transient_mtbf_ms"]),
            transient_duration_cycles=ms_to_cycles(
                fail["transient_duration_ms"]),
            domains=tuple(
                _chip_tuple(members, chips,
                            f"scenario.failures.domains[{i}]")
                for i, members in enumerate(fail["domains"])),
            domain_mtbf_cycles=ms_to_cycles(fail["domain_mtbf_ms"]),
            domain_repair_mean_cycles=ms_to_cycles(fail["domain_repair_ms"]),
            domain_mode=fail["domain_mode"],
            domain_slow_factor=fail["domain_slow_factor"],
        )
        if not failures.enabled:
            raise ConfigError(
                "scenario.failures: section present but no chips listed "
                "in any failure mode (drop the section to disable)")
    if v["_resilience_given"] and failures is None:
        raise ConfigError(
            "scenario.resilience: requires an enabled failures section")

    policy_set = None
    if v["policy"] is not None:
        pol = v["policy"]
        if "file" in pol:
            if set(pol) != {"file"}:
                extra = sorted(k for k in pol if k != "file")
                raise ConfigError(
                    f"scenario.policy: a file reference may not be "
                    f"combined with inline slots {extra}")
            if not isinstance(pol["file"], str):
                raise ConfigError(
                    f"scenario.policy.file: expected a policy name or "
                    f"path, got {pol['file']!r}")
            policy_set = load_policy(pol["file"])
        else:
            policy_set = policy_from_document(
                pol, name=v["name"] or name, source=source,
                path="scenario.policy")

    autoscale = None
    if v["_autoscale_given"]:
        a = v["autoscale"]
        autoscale = AutoscaleConfig(
            min_chips=a["min_chips"],
            max_chips=a["max_chips"],
            evaluate_interval_cycles=ms_to_cycles(
                a["evaluate_interval_ms"]),
            up_queue_per_chip=a["up_queue_per_chip"],
            up_backlog_cycles=ms_to_cycles(a["up_backlog_ms"]),
            down_queue_max=a["down_queue_max"],
            idle_cycles=ms_to_cycles(a["idle_ms"]),
            warmup_cycles=ms_to_cycles(a["warmup_ms"]),
            cooldown_cycles=ms_to_cycles(a["cooldown_ms"]),
            max_step=a["max_step"],
        )

    cluster = None
    if v["_cluster_given"]:
        c = v["cluster"]
        cluster = ClusterConfig(
            shards=c["shards"],
            router=c["router"],
            gossip_interval_cycles=ms_to_cycles(c["gossip_interval_ms"]),
            failover_retries=c["failover_retries"],
            brownout_headroom=c["brownout_headroom"],
            brownout_kinds=c["brownout_kinds"],
        )

    resilience = None
    if failures is not None:
        resilience = ResilienceConfig(
            health_check_interval_cycles=ms_to_cycles(
                res["health_interval_ms"]),
            detection_latency_cycles=ms_to_cycles(res["detect_latency_ms"]),
            health_false_positive_rate=res["health_fp_rate"],
            breaker_failure_threshold=res["breaker_failure_threshold"],
            breaker_open_cycles=ms_to_cycles(res["breaker_open_ms"]),
            max_retries=res["max_retries"],
            retry_backoff_cycles=ms_to_cycles(res["retry_backoff_ms"]),
            retry_deadline_cycles=ms_to_cycles(res["retry_deadline_ms"]),
            hedge_delay_cycles=(
                ms_to_cycles(res["hedge_delay_ms"])
                if res["hedge_delay_ms"] is not None else None),
        )

    serve = ServeConfig(
        chips=chips,
        policy=fleet["policy"],
        max_batch=batching["max_batch"],
        max_wait_cycles=batching["max_wait_cycles"],
        queue_capacity=batching["queue_capacity"],
        shed_policy=batching["shed_policy"],
        degraded_chips=_chip_tuple(fleet["degraded_chips"], chips,
                                   "scenario.fleet.degraded_chips"),
        slo_cycles=ms_to_cycles(run["slo_ms"]),
        failures=failures,
        resilience=resilience,
        policy_set=policy_set,
        autoscale=autoscale,
        cluster=cluster,
    )
    mixes = v["workload"]["mix"]
    workload = WorkloadConfig(
        mix=mixes[0],
        arrival=v["workload"]["arrival"],
        rate=v["workload"]["rate"],
        requests=v["workload"]["requests"],
        seed=v["workload"]["seed"],
        num_tiles=v["workload"]["num_tiles"],
        burst_factor=v["workload"]["burst_factor"],
        burst_len=v["workload"]["burst_len"],
    )
    return Scenario(
        name=v["name"] or name or "scenario",
        description=v["description"],
        workload=workload,
        serve=serve,
        mixes=mixes,
        quick=run["quick"],
        document=doc,
        source=source,
    )


# ---------------------------------------------------------------------------
# The named-scenario library


#: Named scenarios: ``$REPRO_SCENARIO_DIR``, then ``examples/scenarios``.
SCENARIO_LIBRARY = DocumentLibrary(
    kind="scenario", env_var="REPRO_SCENARIO_DIR", subdir="scenarios")


def load_scenario(ref: str) -> Scenario:
    """Load and compile a scenario by file path or library name."""
    doc, name, path = SCENARIO_LIBRARY.read(ref)
    return scenario_from_document(doc, name=name, source=path)


def list_scenarios() -> list:
    """Every named scenario on the search path: name/path/description.

    Earlier search-path directories shadow later ones, like ``$PATH``.
    """
    return SCENARIO_LIBRARY.entries()
