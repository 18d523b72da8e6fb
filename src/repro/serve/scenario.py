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

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.knobs import Knob, knob_of
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.cluster import ClusterConfig
# parse_simple_yaml is re-exported: callers import it from here.
from repro.serve.documents import DocumentLibrary, parse_simple_yaml
from repro.serve.failures import FailureConfig
from repro.serve.fleet import ServeConfig
from repro.serve.policy import load_policy, policy_from_document
from repro.serve.resilience import ResilienceConfig
from repro.serve.workload import KINDS, MIXES, WorkloadConfig

#: The simulated PE clock every ``*_ms`` field is converted at.
CLOCK_GHZ = 1.25


def ms_to_cycles(ms: float) -> float:
    """Simulated milliseconds -> PE clock cycles at :data:`CLOCK_GHZ`."""
    return ms * CLOCK_GHZ * 1e6


def _cycles_to_ms(cycles: float) -> float:
    return cycles / (CLOCK_GHZ * 1e6)


# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class _Key(Knob):
    """One scenario key.  A key that sets a config field names it
    (``config`` and ``field``); a ``*_ms`` key sets a field in cycles."""

    config: type | None = None
    field: str | None = None
    ms: bool = False


def _sets(config: type, name: str, ms: bool = False, **override) -> _Key:
    """The key that sets field ``name`` of ``config``: the field's
    default, bound and choices, in simulated ms when ``ms``."""
    spec = dict(vars(knob_of(config, name)))
    if ms:
        for attr in ("default", "min", "max"):
            if spec[attr] is not None:
                spec[attr] = _cycles_to_ms(spec[attr])
    return _Key(**{**spec, **override}, config=config, field=name, ms=ms)


#: section -> key -> spec.  Every ``python -m repro.serve`` flag writes
#: one of these keys, so an empty document is the flag-less run.  A key
#: that sets a config field takes its default, bound and choices from
#: the field's declaration; the rest are the scenario's own.
SCENARIO_SCHEMA = {
    "workload": {
        "mix": _Key("mixes", default=("bp", "bp+vgg")),
        "arrival": _sets(WorkloadConfig, "arrival"),
        "rate": _sets(WorkloadConfig, "rate"),
        "requests": _sets(WorkloadConfig, "requests"),
        "seed": _sets(WorkloadConfig, "seed"),
        "num_tiles": _sets(WorkloadConfig, "num_tiles"),
        "burst_factor": _sets(WorkloadConfig, "burst_factor"),
        "burst_len": _sets(WorkloadConfig, "burst_len"),
    },
    "fleet": {
        "chips": _sets(ServeConfig, "chips"),
        "policy": _sets(ServeConfig, "policy"),
        "degraded_chips": _Key("int_list", default=()),
    },
    "batching": {
        "max_batch": _sets(ServeConfig, "max_batch"),
        "max_wait_cycles": _sets(ServeConfig, "max_wait_cycles"),
        "queue_capacity": _sets(ServeConfig, "queue_capacity"),
        "shed_policy": _sets(ServeConfig, "shed_policy"),
    },
    "failures": {
        "seed": _sets(FailureConfig, "seed"),
        "fail_stop_chips": _Key("chips", default=()),
        "mtbf_ms": _sets(FailureConfig, "fail_stop_mtbf_cycles", ms=True),
        "repair_ms": _sets(FailureConfig, "repair_mean_cycles", ms=True),
        "fail_slow_chips": _Key("chips", default=()),
        "fail_slow_mtbf_ms": _sets(FailureConfig,
                                   "fail_slow_mtbf_cycles", ms=True),
        "fail_slow_duration_ms": _sets(FailureConfig,
                                       "fail_slow_duration_cycles", ms=True),
        "fail_slow_factor": _sets(FailureConfig, "fail_slow_factor"),
        "transient_chips": _Key("chips", default=()),
        "transient_mtbf_ms": _sets(FailureConfig,
                                   "transient_mtbf_cycles", ms=True),
        "transient_duration_ms": _sets(FailureConfig,
                                       "transient_duration_cycles", ms=True),
        # Correlated failure domains: zone/rack chip groupings that
        # fail in one event (repro.serve.failures).
        "domains": _Key("domains", default=()),
        "domain_mtbf_ms": _sets(FailureConfig, "domain_mtbf_cycles", ms=True),
        "domain_repair_ms": _sets(FailureConfig,
                                  "domain_repair_mean_cycles", ms=True),
        "domain_mode": _sets(FailureConfig, "domain_mode"),
        "domain_slow_factor": _sets(FailureConfig, "domain_slow_factor"),
    },
    "resilience": {
        "health_interval_ms": _sets(ResilienceConfig,
                                    "health_check_interval_cycles", ms=True),
        "detect_latency_ms": _sets(ResilienceConfig,
                                   "detection_latency_cycles", ms=True),
        "health_fp_rate": _sets(ResilienceConfig,
                                "health_false_positive_rate"),
        "breaker_failure_threshold": _sets(ResilienceConfig,
                                           "breaker_failure_threshold"),
        "breaker_open_ms": _sets(ResilienceConfig,
                                 "breaker_open_cycles", ms=True),
        "max_retries": _sets(ResilienceConfig, "max_retries"),
        "retry_backoff_ms": _sets(ResilienceConfig,
                                  "retry_backoff_cycles", ms=True),
        "retry_deadline_ms": _sets(ResilienceConfig,
                                   "retry_deadline_cycles", ms=True),
        "hedge_delay_ms": _sets(ResilienceConfig,
                                "hedge_delay_cycles", ms=True),
    },
    "autoscale": {
        "min_chips": _sets(AutoscaleConfig, "min_chips"),
        "max_chips": _sets(AutoscaleConfig, "max_chips"),
        "evaluate_interval_ms": _sets(AutoscaleConfig,
                                      "evaluate_interval_cycles", ms=True),
        "up_queue_per_chip": _sets(AutoscaleConfig, "up_queue_per_chip"),
        "up_backlog_ms": _sets(AutoscaleConfig, "up_backlog_cycles", ms=True),
        "down_queue_max": _sets(AutoscaleConfig, "down_queue_max"),
        "idle_ms": _sets(AutoscaleConfig, "idle_cycles", ms=True),
        "warmup_ms": _sets(AutoscaleConfig, "warmup_cycles", ms=True),
        "cooldown_ms": _sets(AutoscaleConfig, "cooldown_cycles", ms=True),
        "max_step": _sets(AutoscaleConfig, "max_step"),
    },
    "cluster": {
        # A cluster section shards the fleet, into two unless it says.
        "shards": _sets(ClusterConfig, "shards", default=2),
        "router": _sets(ClusterConfig, "router"),
        "gossip_interval_ms": _sets(ClusterConfig,
                                    "gossip_interval_cycles", ms=True),
        "failover_retries": _sets(ClusterConfig, "failover_retries"),
        "brownout_headroom": _sets(ClusterConfig, "brownout_headroom"),
        "brownout_kinds": _Key("kinds", default=("fc",)),
    },
    "run": {
        "slo_ms": _sets(ServeConfig, "slo_cycles", ms=True),
        "quick": _Key("bool", default=True),
    },
}

#: "section.key" -> why an earlier schema's key is gone: a document
#: that still sets one fails naming it, not as an unknown key.
REMOVED_KEYS = dict.fromkeys(
    ("run.cost_model", "run.surrogate_tolerance"),
    "removed: every cost table is measured now (drop the key)")

#: Top-level scalar keys outside the config sections.
_TOP_FIELDS = {
    "name": _Key("str", nullable=True),
    "description": _Key("str", default=""),
}


def _check_field(value, spec: _Key, path: str):
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
    return spec.check(value, path, document=True)


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
        out[key] = spec.check(doc.get(key, spec.default),
                              f"scenario.{key}", document=True)
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


def _config_fields(v: dict, config: type) -> dict:
    """The fields of ``config`` the validated document ``v`` sets, each
    ``*_ms`` key's in cycles."""
    return {spec.field: (ms_to_cycles(value)
                         if spec.ms and value is not None else value)
            for section, keys in SCENARIO_SCHEMA.items()
            for key, spec in keys.items() if spec.config is config
            for value in (v[section][key],)}


def scenario_from_document(doc: dict, name: str | None = None,
                           source: str | None = None) -> Scenario:
    """Validate and compile a raw scenario document."""
    v = validate_document(doc)
    fail, chips = v["failures"], v["fleet"]["chips"]

    failures = None
    if v["_failures_given"]:
        failures = FailureConfig(
            **_config_fields(v, FailureConfig),
            **{key: _chip_tuple(fail[key], chips, f"scenario.failures.{key}")
               for key in ("fail_stop_chips", "fail_slow_chips",
                           "transient_chips")},
            domains=tuple(
                _chip_tuple(members, chips,
                            f"scenario.failures.domains[{i}]")
                for i, members in enumerate(fail["domains"])),
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

    autoscale = (AutoscaleConfig(**_config_fields(v, AutoscaleConfig))
                 if v["_autoscale_given"] else None)
    cluster = None
    if v["_cluster_given"]:
        cluster = ClusterConfig(**_config_fields(v, ClusterConfig),
                                brownout_kinds=v["cluster"]["brownout_kinds"])
    resilience = (ResilienceConfig(**_config_fields(v, ResilienceConfig))
                  if failures is not None else None)

    serve = ServeConfig(
        **_config_fields(v, ServeConfig),
        degraded_chips=_chip_tuple(v["fleet"]["degraded_chips"], chips,
                                   "scenario.fleet.degraded_chips"),
        failures=failures,
        resilience=resilience,
        policy_set=policy_set,
        autoscale=autoscale,
        cluster=cluster,
    )
    mixes = v["workload"]["mix"]
    workload = WorkloadConfig(**_config_fields(v, WorkloadConfig),
                              mix=mixes[0])
    return Scenario(
        name=v["name"] or name or "scenario",
        description=v["description"],
        workload=workload,
        serve=serve,
        mixes=mixes,
        quick=v["run"]["quick"],
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
