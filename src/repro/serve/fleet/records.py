"""Fleet data definitions: config, per-chip state, and run records.

Shared by the event-loop core (:mod:`repro.serve.fleet.core`) and the
dispatch/policy half (:mod:`repro.serve.fleet.dispatch`); importing this
module pulls in no simulation machinery.  A run keeps its launches in
a :class:`~repro.serve.rows.RecordTable`, one packed fixed-width row
each, and its request records in an
:class:`~repro.serve.rows.EntryTable`, one entry each beside the
request's trace row, which points at the row of the launch that served
it.  The trace checks (:func:`as_trace`, :func:`arrival_order`,
:func:`check_kinds`, :func:`sorted_rids`) live here, so the fleet and
the cluster router share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError
from repro.knobs import check_knobs, chip_ids, choice, count, number
from repro.serve import rows
from repro.serve.failures import FailureConfig
from repro.serve.policy import SCHEDULE_PRIMITIVES, PolicySet
from repro.serve.queueing import SHED_POLICIES
from repro.serve.resilience import ResilienceConfig
from repro.serve.rows import (
    INT64_MAX,
    INT64_MIN,
    EntryTable,
    RecordTable,
)
from repro.serve.workload import KINDS, Request

#: The built-in scheduling policies (leaves of the ``schedule`` slot).
POLICIES = SCHEDULE_PRIMITIVES

#: Request outcomes (the conservation invariant's exhaustive set).
OUTCOMES = ("served", "shed", "expired")

#: The texts of a record's and a launch's outcome field: one list, so
#: that a served record reads its launch row's outcome as it is.
_OUTCOME_TEXTS = OUTCOMES + ("killed", "hedge-loser")


@dataclass(frozen=True)
class ServeConfig:
    """The serving-layer knobs (all times in PE clock cycles)."""

    chips: int = count(4, min=1)
    policy: str = choice("least-loaded", POLICIES)
    max_batch: int = count(8, min=1)
    max_wait_cycles: float = number(20_000.0, above=0)
    queue_capacity: int = count(64, min=1)
    shed_policy: str = choice("drop-newest", SHED_POLICIES)
    #: Per-launch fixed cost: program staging + launch handshake.
    dispatch_overhead_cycles: float = number(2_000.0, min=0)
    #: External-link staging bandwidth for model/tile reloads
    #: (8 B/cycle = 10 GB/s at 1.25 GHz, one vault's share of the
    #: chip-level 320 GB/s).
    reload_bytes_per_cycle: float = number(8.0, above=0)
    #: Chips running the degraded (fault-injected, ECC-correcting)
    #: service-time column of the cost table.
    degraded_chips: tuple = ()
    #: Latency SLO; a served request violates it when latency exceeds
    #: this.  Default 0.25 ms at 1.25 GHz.
    slo_cycles: float = number(312_500.0, above=0)
    #: A zero clock divides every rollup by zero seconds; a negative
    #: one reports no throughput.
    clock_ghz: float = number(1.25, above=0)
    #: The chip failure lifecycle (None or disabled = no chip ever
    #: fails; see repro.serve.failures).
    failures: FailureConfig | None = None
    #: Scheduler-side resilience knobs when failures are enabled (None
    #: = DEFAULT_RESILIENCE).  With failures off they are ignored: the
    #: fleet runs the defaults with no retry deadline.
    resilience: ResilienceConfig | None = None
    #: Decision-tree overrides for the schedule/shed/retry/hedge slots
    #: (see repro.serve.policy).  None runs the built-in trees, which
    #: reproduce the string knobs above exactly.
    policy_set: PolicySet | None = None
    #: Simulated autoscaling (see repro.serve.autoscale).  None keeps
    #: the fleet static.
    autoscale: "AutoscaleConfig | None" = None
    #: Cluster-of-fleets sharding (see repro.serve.cluster).  None runs
    #: one standalone fleet.  With a cluster, ``chips`` is the per-shard
    #: fleet size.
    cluster: "ClusterConfig | None" = None

    def __post_init__(self):
        check_knobs(self, "config")
        degraded = chip_ids(self.degraded_chips, "config.degraded_chips")
        object.__setattr__(self, "degraded_chips", degraded)
        bad = [c for c in degraded if not 0 <= c < self.chips]
        if bad:
            raise ConfigError(f"config.degraded_chips: out of range for "
                              f"{self.chips} chips: {bad}")
        if self.failures is not None:
            self.failures.validate_chips(self.chips)
        if self.policy_set is not None \
                and not isinstance(self.policy_set, PolicySet):
            raise ConfigError("config.policy_set: must be a PolicySet "
                              "(see repro.serve.policy.load_policy)")
        if self.autoscale is not None:
            self.autoscale.validate_fleet(self.chips)
        if self.cluster is not None and not hasattr(self.cluster, "shards"):
            raise ConfigError("config.cluster: must be a ClusterConfig "
                              "(see repro.serve.cluster)")

    @property
    def failures_enabled(self) -> bool:
        return self.failures is not None and self.failures.enabled


@dataclass
class ChipState:
    """One chip's scheduling state and accumulated accounting."""

    chip_id: int
    degraded: bool = False
    free_at: float = 0.0
    resident_kind: str | None = None
    resident_tile: int | None = None
    busy_cycles: float = 0.0
    reload_cycles: float = 0.0
    batches: int = 0
    requests: int = 0
    #: Launches killed under this chip by a fail-stop (incl. hedges).
    kills: int = 0
    #: Autoscaler lifecycle (defaults describe a boot-time chip; the
    #: static fleet never changes them).
    added_at: float = 0.0
    #: A provisioned chip serves no work before this (warm-up cost).
    warm_at: float = 0.0
    #: Draining chips take no new launches and retire once idle.
    draining: bool = False
    retired_at: float | None = None


class RequestRecord(NamedTuple):
    """Final accounting for one request (served, shed, or expired).

    Records are immutable named tuples: a
    :class:`~repro.serve.rows.RecordTable` packs each into one row and
    rebuilds it on read.  Derive a changed copy with ``_replace`` and a
    field dict with ``_asdict``.
    """

    rid: int
    kind: str
    #: Locality key, or None for a request without one.
    tile: int | None
    arrival: float
    shed: bool
    batch_id: int = -1
    chip: int = -1
    batch_size: int = 0
    dispatch: float = 0.0  # batch close time
    start: float = 0.0     # launch start on the chip
    finish: float = 0.0
    #: Exactly-once accounting: "served", "shed", or "expired".
    outcome: str = "served"
    #: Re-dispatch attempts the serving (or expiring) launch had behind it.
    retries: int = 0
    #: True when a hedge launch raced the primary for this request.
    hedged: bool = False

    @property
    def batch_wait(self) -> float:
        return self.dispatch - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.start - self.dispatch

    @property
    def service(self) -> float:
        return self.finish - self.start

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


class BatchRecord(NamedTuple):
    """One kernel launch (or launch attempt); a named tuple like
    :class:`RequestRecord`."""

    batch_id: int
    kind: str
    size: int
    chip: int
    close: float
    start: float
    finish: float
    reload: float
    #: Which re-dispatch attempt this launch was (0 = first).
    attempt: int = 0
    #: "served", "killed" (fail-stop), or "hedge-loser" (cancelled).
    outcome: str = "served"
    #: Cycles the chip burned on a killed / cancelled launch.
    waste: float = 0.0
    #: True for hedge launches (winner or loser).
    hedge: bool = False


#: 5 B per request beside its trace row, 63 B per launch.  A request
#: record is an entry of an :class:`~repro.serve.rows.EntryTable`: an
#: int32 reference and a flag (its ``hedged`` field), beside the
#: request's row, which gives its rid, kind, tile and arrival; a table
#: that appends its records (a cluster shard's) appends that 25 B row
#: with the entry.
#: The reference names the launch-table row of the launch that served
#: it, or a 46 B rest row of its table's own (a shed, an expiry, or a
#: record written field by field).  A served record reads shed as False
#: and the rest from the launch row, ``batch_size``, ``dispatch`` and
#: ``retries`` from its ``size``, ``close`` and ``attempt``.  Chip ids,
#: batch sizes and attempt counts are int32; rids, tiles and batch ids
#: int64; a kind is its index in KINDS and an outcome in _OUTCOME_TEXTS.
rows.register(RequestRecord, "qBqd?qiidddBi?", rows.record_writers,
              texts={"outcome": _OUTCOME_TEXTS}, requests=Request,
              through={"shed": None, "batch_id": "batch_id",
                       "chip": "chip", "batch_size": "size",
                       "dispatch": "close", "start": "start",
                       "finish": "finish", "outcome": "outcome",
                       "retries": "attempt"})
rows.register(BatchRecord, "qBiiddddiBd?", rows.launch_writer,
              texts={"kind": KINDS, "outcome": _OUTCOME_TEXTS})


def served_finish(tables, default: float) -> float:
    """The latest finish of a served launch in the launch tables
    ``tables`` (``default`` when none served), as ``max`` over the rows
    would give it: the first of equal maxima."""
    last = None
    for batches in tables:
        finish = batches.column("finish", batches.matches("outcome",
                                                          "served"))
        if len(finish):
            top = float(finish[np.argmax(finish)])
            if last is None or top > last:
                last = top
    return default if last is None else last


@dataclass
class FleetResult:
    """Everything the serving simulation observed."""

    #: RequestRecord rows, rid order, each an entry beside its request's
    #: trace row (an :class:`~repro.serve.rows.EntryTable`); a served
    #: one references its launch's row of ``batches``.  A cluster
    #: shard's are appended, in the order they resolved.
    records: EntryTable
    batches: RecordTable  # BatchRecord rows, resolution order
    chips: list    # final ChipState per chip
    makespan: float  # first arrival -> last finish (or last arrival)
    #: Autoscaler rollup (events, chip-cycles, SLO-during-scale); None
    #: for a static fleet.
    autoscale: dict | None = None


def as_trace(requests) -> RecordTable:
    """``requests`` as a table of :class:`Request` rows in ascending rid
    order: such a table whose rids ascend as it is, any other (a table
    of requests out of rid order, or any iterable of requests) packed
    into a new one and sorted by rid.

    A request row stores its rid and its tile as int64s, None as the
    int64 minimum and its kind as its index in :data:`KINDS`, so a rid
    outside int64, a tile that is not None nor an int above that
    minimum within int64, or a kind outside :data:`KINDS`, is a
    :class:`ConfigError` naming every such rid, and nothing is packed (a
    table's own writer refuses such a row as it is written).  Records
    are accounted per rid, so two requests sharing one would leave one
    unaccounted and the other counted twice: a duplicate is a
    :class:`ConfigError` naming every repeated rid.
    """
    if isinstance(requests, RecordTable):
        if requests.row is not Request:
            raise ConfigError(f"expected a table of Request rows, got "
                              f"{requests.row.__name__} rows")
        trace = requests
    else:
        trace = RecordTable(Request)
        add, wide, tiles, kinds = trace.add, [], [], []
        for req in requests:
            if not INT64_MIN <= req.rid <= INT64_MAX:
                wide.append(req.rid)
            elif not rows.holds_tile(req.tile):
                tiles.append(req.rid)
            elif req.kind not in KINDS:
                kinds.append(req.rid)
            else:
                add(*req)
        error = rows.unheld_requests(wide, tiles, kinds, KINDS)
        if error is not None:
            raise error
    if _ascending(trace.column("rid")):
        return trace
    if trace is requests:
        trace = RecordTable(Request, requests)
    trace.sort_by("rid")
    rids = trace.column("rid")
    repeated = rids[1:][rids[1:] == rids[:-1]]
    if len(repeated):
        raise ConfigError(f"duplicate request ids: "
                          f"{sorted(set(repeated.tolist()))}")
    return trace


def _ascending(column: np.ndarray) -> bool:
    """Whether every value of ``column`` is greater than the one
    before."""
    return bool((column[1:] > column[:-1]).all())


def arrival_order(trace: RecordTable) -> tuple[np.ndarray | range, tuple]:
    """The row positions of ``trace`` in (arrival, rid) order, and the
    first and last arrival in that order (``(0.0, 0.0)`` when empty).

    A trace whose rows already are in that order with ascending rids, as
    every :func:`~repro.serve.workload.generate_requests` trace is,
    needs no permutation: its order is ``range(len(trace))``, which
    holds no memory and which :meth:`RecordTable.take` reads a slice at
    a time.  Any other trace's order is its ``lexsort`` permutation.

    An arrival must be a finite number of cycles: a NaN one would be
    served at a NaN time and an infinite one never reached, so either
    is a :class:`ConfigError` naming every such rid.
    """
    columns = trace.columns()
    arrival, rid = columns["arrival"], columns["rid"]
    bad = ~np.isfinite(arrival)
    if bad.any():
        raise ConfigError(f"request ids with a non-finite arrival: "
                          f"{sorted(rid[bad].tolist())}")
    # Ascending rids put tied arrivals in rid order too.
    if _ascending(rid) and (arrival[1:] >= arrival[:-1]).all():
        order = range(len(arrival))
    else:
        order = np.lexsort((rid, arrival))
    if not len(order):
        return order, (0.0, 0.0)
    return order, (arrival[order[0]].item(), arrival[order[-1]].item())


def check_kinds(trace: RecordTable, priced) -> None:
    """Raise a :class:`ConfigError` naming every request kind of
    ``trace`` that ``priced`` (a cost table's ``model_bytes``) has no
    column for, before anything is simulated: such a request could
    never launch."""
    counts = np.bincount(trace.column("kind"), minlength=len(KINDS))
    missing = sorted(kind for kind, n in zip(KINDS, counts.tolist())
                     if n and kind not in priced)
    if missing:
        raise ConfigError(f"request kinds the cost table has no column "
                          f"for: {missing} (it prices {sorted(priced)})")


def sorted_rids(trace: RecordTable) -> np.ndarray:
    """The rids of ``trace``, a table :func:`as_trace` gave, in
    ascending order: a view of its rid column, which pins the table (it
    cannot grow while the view is alive)."""
    return trace.column("rid")

