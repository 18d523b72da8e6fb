"""The pluggable policy engine: serving behavior as data, not code.

Scheduling, admission shedding, retry, and hedging decisions used to be
hard-coded branches in the fleet event loop.  This module turns each of
them into a *decision tree* — a small declarative document whose
internal nodes are typed conditions over fleet/queue/batch observables
and whose leaves name a primitive action — compiled **once** at config
time into a plain Python callable.  New degradation behaviors are then
policy files, not code changes.

A policy document (YAML/JSON, parsed by :mod:`repro.serve.documents`
like a scenario) has up to four decision slots::

    name: shed-fc-under-pressure
    description: drop batch-insensitive FC first when the queue fills
    schedule:                       # which chip takes a closed batch
      if: {field: queue.depth, op: ">=", value: 24}
      then: {pick: least-loaded}
      else: {pick: locality}
    shed:                           # who pays at admission overflow
      if: {field: request.kind, op: "==", value: fc}
      then: {shed: drop-newest}
      else: {shed: drop-oldest}
    retry:                          # re-dispatch a killed launch?
      if: {field: attempt, op: "<=", value: 3}
      then: {do: retry}
      else: {do: expire}
    hedge: {do: hedge}              # arm the tail-latency hedge timer?

Every slot is optional; missing slots fall back to the built-in tree the
``ServeConfig`` string knobs (``policy``, ``shed_policy``,
``max_retries``, ``hedge_delay_cycles``) compile to.  The **built-in
policies are themselves trees** (:func:`builtin_tree`), compiled through
the same path as user documents, and a single-leaf tree compiles to the
primitive callable itself — so the default configuration runs the exact
pre-engine code with zero per-decision overhead and byte-identical
output.

Validation mirrors :mod:`repro.serve.scenario`: every error is a
:class:`~repro.errors.ConfigError` carrying the dotted field path
(``policy.schedule.if.field: unknown observable 'qeue.depth'``), which
the CLIs surface as the structured one-line ``error: config:`` exit-2
convention.

Determinism: a compiled decision is a pure function of its observable
context, the trees never draw randomness, and the primitive actions are
the same deterministic tie-breaking implementations the fleet always
ran — so policy-driven runs remain bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.serve.documents import DocumentLibrary
from repro.serve.workload import KINDS

#: Leaf primitives of the ``schedule`` slot (the classic fleet policies).
SCHEDULE_PRIMITIVES = ("round-robin", "least-loaded", "locality")
#: Leaf primitives of the ``shed`` slot (admission-overflow victims).
SHED_PRIMITIVES = ("drop-newest", "drop-oldest")
#: Leaf primitives of the ``retry`` slot.
RETRY_ACTIONS = ("retry", "expire")
#: Leaf primitives of the ``hedge`` slot.
HEDGE_ACTIONS = ("hedge", "no-hedge")

#: Decision slots: leaf key -> allowed leaf values.
SLOTS = {
    "schedule": ("pick", SCHEDULE_PRIMITIVES),
    "shed": ("shed", SHED_PRIMITIVES),
    "retry": ("do", RETRY_ACTIONS),
    "hedge": ("do", HEDGE_ACTIONS),
}

#: Condition operators (typed: strings compare only with ==/!=/in).
_ORDERED_OPS = ("<", "<=", ">", ">=")
_EQUALITY_OPS = ("==", "!=")
_SET_OPS = ("in", "not-in")
OPS = _ORDERED_OPS + _EQUALITY_OPS + _SET_OPS

#: Observables a condition may reference, with the type each yields and
#: the slots it is available in.  ``now``/``attempt`` are cycles and the
#: 1-based re-dispatch attempt; ``batch.age`` is ``now - batch.close``.
#: ``fleet.slo_headroom`` is the SLO-budget fraction the oldest waiting
#: request still has (1.0 with an empty queue, negative past the SLO).
#: The cluster-scope pair mirrors it under sharding
#: (:mod:`repro.serve.cluster`): ``shard.slo_headroom`` is this shard's
#: headroom and ``cluster.alive_shard_fraction`` the router's believed
#: fraction of shards with any dispatchable capacity — both degrade to
#: their standalone values (own headroom, 1.0) outside a cluster, so
#: one policy file works at either scope.
OBSERVABLES = {
    "now": ("float", ("schedule", "shed", "retry", "hedge")),
    "attempt": ("int", ("schedule", "retry", "hedge")),
    "batch.kind": ("str", ("schedule", "retry", "hedge")),
    "batch.size": ("int", ("schedule", "retry", "hedge")),
    "batch.tile": ("int", ("schedule", "retry", "hedge")),
    "batch.age": ("float", ("schedule", "retry", "hedge")),
    "request.kind": ("str", ("shed",)),
    "request.tile": ("int", ("shed",)),
    "queue.depth": ("int", ("schedule", "shed", "retry", "hedge")),
    "queue.capacity": ("int", ("schedule", "shed", "retry", "hedge")),
    "fleet.chips": ("int", ("schedule", "shed", "retry", "hedge")),
    "fleet.alive_fraction": ("float", ("schedule", "shed", "retry",
                                       "hedge")),
    "fleet.slo_headroom": ("float", ("schedule", "shed", "retry",
                                     "hedge")),
    "shard.slo_headroom": ("float", ("schedule", "shed", "retry",
                                     "hedge")),
    "cluster.alive_shard_fraction": ("float", ("schedule", "shed",
                                               "retry", "hedge")),
}

#: Per-kind admission depth: ``queue.kind_depth.<kind>`` counts the
#: open-batch residents of that request kind, so a tree can react to
#: *which* traffic is piling up (e.g. shed batch-insensitive FC first,
#: or stop hedging when the gibbs queue backs up) rather than only to
#: the total ``queue.depth``.
OBSERVABLES.update({
    f"queue.kind_depth.{kind}": ("int", ("schedule", "shed", "retry",
                                         "hedge"))
    for kind in KINDS
})

#: Documents deeper than this are rejected (runaway nesting, not policy).
MAX_TREE_DEPTH = 16


# ---------------------------------------------------------------------------
# Validation


def _leaf_slot_of(node: dict) -> str | None:
    """Which slot's leaf key ``node`` carries, if any."""
    for slot, (leaf_key, _) in SLOTS.items():
        if leaf_key in node:
            return slot
    return None


def _validate_condition(cond, slot: str, path: str) -> None:
    if not isinstance(cond, dict):
        raise ConfigError(f"{path}: expected a condition mapping "
                          f"{{field, op, value}}, got {cond!r}")
    for key in cond:
        if key not in ("field", "op", "value"):
            raise ConfigError(f"{path}.{key}: unknown condition key; "
                              f"expected field, op, value")
    for key in ("field", "op", "value"):
        if key not in cond:
            raise ConfigError(f"{path}: condition missing {key!r}")
    fld, op, value = cond["field"], cond["op"], cond["value"]
    if fld not in OBSERVABLES:
        raise ConfigError(
            f"{path}.field: unknown observable {fld!r}; choose from "
            f"{', '.join(sorted(OBSERVABLES))}")
    kind, slots = OBSERVABLES[fld]
    if slot not in slots:
        raise ConfigError(
            f"{path}.field: observable {fld!r} is not available in the "
            f"{slot!r} slot (available in: {', '.join(slots)})")
    if op not in OPS:
        raise ConfigError(f"{path}.op: unknown operator {op!r}; choose "
                          f"from {', '.join(OPS)}")
    if op in _SET_OPS:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}.value: operator {op!r} needs a "
                              f"non-empty list, got {value!r}")
        items = value
    else:
        items = [value]
    for item in items:
        if kind == "str":
            if not isinstance(item, str):
                raise ConfigError(
                    f"{path}.value: observable {fld!r} is a string; "
                    f"got {item!r}")
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(
                f"{path}.value: observable {fld!r} is numeric; "
                f"got {item!r}")
    if kind == "str" and op in _ORDERED_OPS:
        raise ConfigError(
            f"{path}.op: ordered operator {op!r} is invalid for the "
            f"string observable {fld!r} (use ==, !=, in, not-in)")


def validate_tree(node, slot: str, path: str, depth: int = 0) -> None:
    """Validate one decision tree for ``slot``; errors carry ``path``."""
    if depth > MAX_TREE_DEPTH:
        raise ConfigError(f"{path}: tree deeper than {MAX_TREE_DEPTH} "
                          f"levels")
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping (leaf or if/then/"
                          f"else node), got {node!r}")
    leaf_key, choices = SLOTS[slot]
    if "if" in node:
        for key in node:
            if key not in ("if", "then", "else"):
                raise ConfigError(f"{path}.{key}: unknown key in a "
                                  f"decision node; expected if, then, else")
        for key in ("then", "else"):
            if key not in node:
                raise ConfigError(f"{path}: decision node missing {key!r}")
        _validate_condition(node["if"], slot, f"{path}.if")
        validate_tree(node["then"], slot, f"{path}.then", depth + 1)
        validate_tree(node["else"], slot, f"{path}.else", depth + 1)
        return
    if leaf_key not in node:
        found = _leaf_slot_of(node)
        if found is None:
            raise ConfigError(
                f"{path}: expected a leaf {{{leaf_key}: ...}} or a "
                f"decision node {{if, then, else}}, got keys "
                f"{sorted(node) if node else '(none)'}")
        wrong_key = SLOTS[found][0]
        raise ConfigError(
            f"{path}.{wrong_key}: leaf key {wrong_key!r} belongs to the "
            f"{found!r} slot; the {slot!r} slot uses {leaf_key!r}")
    if len(node) != 1:
        extra = sorted(k for k in node if k != leaf_key)
        raise ConfigError(f"{path}: leaf carries extra keys {extra}")
    value = node[leaf_key]
    if value not in choices:
        raise ConfigError(f"{path}.{leaf_key}: unknown action {value!r}; "
                          f"choose from {', '.join(choices)}")


# ---------------------------------------------------------------------------
# The policy set (validated document)


@dataclass(frozen=True)
class PolicySet:
    """One validated policy document: a tree (or None) per slot.

    ``None`` slots fall back to the built-in tree derived from the
    ``ServeConfig``/``ResilienceConfig`` string knobs at compile time,
    so a partial document overrides only what it mentions.
    """

    name: str = "policy"
    description: str = ""
    schedule: dict | None = None
    shed: dict | None = None
    retry: dict | None = None
    hedge: dict | None = None
    #: The raw document this set validated from (persisted in reports).
    document: dict = field(default_factory=dict, compare=False)
    source: str | None = None

    def slots_given(self) -> tuple:
        return tuple(slot for slot in SLOTS
                     if getattr(self, slot) is not None)


def policy_from_document(doc: dict, name: str | None = None,
                         source: str | None = None,
                         path: str = "policy") -> PolicySet:
    """Validate a raw policy document into a :class:`PolicySet`.

    ``path`` prefixes every error (the scenario DSL embeds policies
    under ``scenario.policy``).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: document must be a mapping, "
                          f"got {doc!r}")
    known = set(SLOTS) | {"name", "description"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key; known keys: "
                              f"{', '.join(sorted(known))}")
    for key in ("name", "description"):
        if key in doc and not isinstance(doc[key], str):
            raise ConfigError(f"{path}.{key}: expected a string, "
                              f"got {doc[key]!r}")
    trees = {}
    for slot in SLOTS:
        if slot in doc:
            validate_tree(doc[slot], slot, f"{path}.{slot}")
            trees[slot] = doc[slot]
    if not trees:
        raise ConfigError(
            f"{path}: document defines no decision slot; give at least "
            f"one of {', '.join(SLOTS)}")
    return PolicySet(name=doc.get("name") or name or "policy",
                     description=doc.get("description", ""),
                     document=doc, source=source, **trees)


# ---------------------------------------------------------------------------
# Built-in trees


def builtin_tree(slot: str, **kw) -> dict:
    """The built-in decision tree of one slot.

    The legacy string policies compile through these — ``schedule`` and
    ``shed`` are single leaves carrying the policy name, ``retry`` is
    the bounded-attempts branch, and ``hedge`` is armed or not — so the
    engine's default path reproduces the pre-engine branches exactly.
    """
    if slot == "schedule":
        name = kw["policy"]
        if name not in SCHEDULE_PRIMITIVES:
            raise ConfigError(f"unknown policy {name!r}; "
                              f"choose from {SCHEDULE_PRIMITIVES}")
        return {"pick": name}
    if slot == "shed":
        name = kw["shed_policy"]
        if name not in SHED_PRIMITIVES:
            raise ConfigError(f"unknown shed policy {name!r}")
        return {"shed": name}
    if slot == "retry":
        return {"if": {"field": "attempt", "op": "<=",
                       "value": kw["max_retries"]},
                "then": {"do": "retry"},
                "else": {"do": "expire"}}
    if slot == "hedge":
        return {"do": "hedge" if kw.get("hedge_enabled", True)
                else "no-hedge"}
    raise ConfigError(f"unknown policy slot {slot!r}")


# ---------------------------------------------------------------------------
# Compilation


_OP_FNS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
    "not-in": lambda a, b: a not in b,
}


@dataclass(frozen=True)
class CompiledDecision:
    """One compiled decision slot.

    ``fn(ctx) -> action name`` walks the tree; ``leaf`` short-circuits
    it — a single-leaf tree (every built-in ``schedule``/``shed``/
    ``hedge``) needs no context at all, so callers skip building one and
    bind the primitive directly (the "callable resolved once at config
    time" contract).
    """

    slot: str
    fn: object  # callable(ctx: dict) -> str
    #: The constant action of a single-leaf tree, else None.
    leaf: str | None
    #: Observables the tree actually reads (context can be minimal).
    fields: frozenset


def _compile_node(node: dict, leaf_key: str, fields: set):
    if "if" in node:
        cond = node["if"]
        fld = cond["field"]
        fields.add(fld)
        op = _OP_FNS[cond["op"]]
        value = (tuple(cond["value"]) if isinstance(cond["value"], list)
                 else cond["value"])
        then_fn = _compile_node(node["then"], leaf_key, fields)
        else_fn = _compile_node(node["else"], leaf_key, fields)

        def decide(ctx, _f=fld, _op=op, _v=value, _t=then_fn, _e=else_fn):
            return _t(ctx) if _op(ctx[_f], _v) else _e(ctx)
        return decide
    action = node[leaf_key]
    return lambda ctx, _a=action: _a


def compile_tree(tree: dict, slot: str,
                 path: str = "policy") -> CompiledDecision:
    """Validate and compile one slot's tree into a callable."""
    if slot not in SLOTS:
        raise ConfigError(f"unknown policy slot {slot!r}")
    validate_tree(tree, slot, f"{path}.{slot}")
    leaf_key, _ = SLOTS[slot]
    fields: set = set()
    fn = _compile_node(tree, leaf_key, fields)
    leaf = tree[leaf_key] if "if" not in tree else None
    return CompiledDecision(slot=slot, fn=fn, leaf=leaf,
                            fields=frozenset(fields))


class PolicyEngine:
    """Every decision slot of one serving run, compiled once.

    Built from the ``ServeConfig`` knobs plus an optional
    :class:`PolicySet` whose slots override the built-ins.  The fleet
    binds each compiled decision at construction time; slots that
    compile to a single leaf cost nothing per decision.
    """

    def __init__(self, policy: str, shed_policy: str, max_retries: int,
                 hedge_enabled: bool, policy_set: PolicySet | None = None):
        trees = {
            "schedule": builtin_tree("schedule", policy=policy),
            "shed": builtin_tree("shed", shed_policy=shed_policy),
            "retry": builtin_tree("retry", max_retries=max_retries),
            "hedge": builtin_tree("hedge", hedge_enabled=hedge_enabled),
        }
        self.policy_set = policy_set
        if policy_set is not None:
            for slot in SLOTS:
                tree = getattr(policy_set, slot)
                if tree is not None:
                    trees[slot] = tree
        self.trees = trees
        self.schedule = compile_tree(trees["schedule"], "schedule")
        self.shed = compile_tree(trees["shed"], "shed")
        self.retry = compile_tree(trees["retry"], "retry")
        self.hedge = compile_tree(trees["hedge"], "hedge")


# ---------------------------------------------------------------------------
# The named-policy library


#: Named policies: ``$REPRO_POLICY_DIR``, then ``examples/policies``.
POLICY_LIBRARY = DocumentLibrary(
    kind="policy", env_var="REPRO_POLICY_DIR", subdir="policies")


def list_policies() -> list:
    """Every named policy on the search path: name/path/description."""
    return POLICY_LIBRARY.entries()


def load_policy(ref: str) -> PolicySet:
    """Load a policy set by file path or library name."""
    doc, name, path = POLICY_LIBRARY.read(ref)
    return policy_from_document(doc, name=name, source=path)
