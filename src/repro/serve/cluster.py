"""Cluster-of-fleets serving: shards, gossip beliefs, failover, brown-out.

A cluster is N independent :class:`~repro.serve.fleet.FleetSimulator`
shards — each a full fleet with its own chips, admission queue, health
monitor, failure timeline, and (optionally) autoscaler — behind one
deterministic router.  Sharding bounds the per-shard event-loop cost, so
diurnal million-user traces stay tractable: the router does O(shards)
work per arrival and each shard only ever sees its own slice.

The router has **no oracle**.  Its view of shard health is a *belief*
learned from bounded-staleness gossip: on a fixed tick grid
(``gossip_interval_cycles``) it samples every shard's believed-alive
chip fraction (breaker states), dispatchable chips, and queue depth —
read-only, exactly the observables a real control plane would scrape,
and only those the router reads — and routes with beliefs that are up
to one gossip interval stale.  Between ticks the world can change (a
zone can die) and the router keeps routing on yesterday's map, exactly
like production.

Three cluster behaviors build on the beliefs:

*Routing* — ``round-robin`` / ``least-loaded`` / ``hash`` over the
shards believed alive (falling back to all shards when belief says
nobody is — routing somewhere always beats dropping at the door).

*Cross-shard failover* — work a shard is about to expire (retry budget
exhausted or deadline passed, i.e. both in-flight and queued requests)
is handed back to the router instead, and re-dispatched to a surviving
shard at the next gossip tick, under a cluster-level
``failover_retries`` budget.  The re-dispatched request keeps its rid;
the merged record reads its *original* arrival from the trace, so
end-to-end latency honestly includes the failed attempts and the
failover delay.

*Brown-out* — when believed cluster capacity (alive fraction × chips,
summed over shards) drops below ``brownout_headroom``, arrivals of the
low-priority ``brownout_kinds`` are shed cluster-wide at the router
door until belief recovers.  Degrade the cheap traffic, keep the
latency-critical kinds alive — the classic brown-out trade.

Determinism: the router processes arrivals in (arrival, rid) order,
refreshes beliefs only on the gossip grid, and orders failover
re-dispatches by (expiry, rid).  Every decision is a pure function of
the arrival trace, the configs, and the seeded failure schedules.
Correlated failure domains (zone/rack groupings that fail in one event)
live in :class:`repro.serve.failures.FailureConfig`; per-shard failure
streams derive from ``stream_seed(seed, "serve-shard", i)`` so shards
fail independently — except shard 0, which keeps the base seed so a
1-shard cluster reproduces the standalone fleet exactly.

Byte-identity: with ``shards == 1`` and no brown-out threshold, the
router degenerates to a pass-through — the gossip loop is bypassed, no
failover hook is installed, and the shard executes the exact operation
sequence of a standalone :meth:`FleetSimulator.run` — so records,
batches, and cycle counts are byte-identical to the single-fleet path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from repro.errors import ConfigError
from repro.faults.injector import stream_seed
from repro.knobs import check_knobs, choice, count, number
from repro.serve.failures import ChipFailureTimeline
from repro.serve.fleet import FleetSimulator, RequestRecord
from repro.serve.fleet.records import (
    BatchRecord,
    EntryTable,
    RecordTable,
    arrival_order,
    as_trace,
    check_kinds,
    served_finish,
    sorted_rids,
)
from repro.serve.metrics import (
    latency_column,
    percentile_sorted,
    served_chunks,
)
from repro.serve.workload import KINDS, Request
from repro.trace.collector import NULL_TRACE, TraceSink

ROUTERS = ("round-robin", "least-loaded", "hash")


@dataclass(frozen=True)
class ClusterConfig:
    """The cluster-layer knobs (all times in PE clock cycles).

    Error messages use the dotted ``cluster.<field>`` paths the scenario
    DSL and CLI surface verbatim.
    """

    #: Number of fleet shards; each serves ``ServeConfig.chips`` chips.
    shards: int = count(1, min=1)
    #: Cluster routing policy over believed-alive shards.
    router: str = choice("least-loaded", ROUTERS)
    #: Belief-refresh tick grid: shard health is sampled (read-only)
    #: every this many cycles; beliefs are up to one interval stale.
    gossip_interval_cycles: float = number(50_000.0, above=0)
    #: Cluster-level re-dispatch budget per request for cross-shard
    #: failover (0 disables failover; shards expire their own work).
    failover_retries: int = count(1, min=0)
    #: Brown-out threshold on believed capacity fraction (None = off).
    brownout_headroom: float | None = number(None, above=0, max=1,
                                             nullable=True)
    #: Low-priority request kinds shed cluster-wide during a brown-out.
    brownout_kinds: tuple = ("fc",)

    def __post_init__(self):
        check_knobs(self, "cluster")
        for k in self.brownout_kinds:
            if k not in KINDS:
                raise ConfigError(f"cluster.brownout_kinds: unknown "
                                  f"kind {k!r}; choose from {KINDS}")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass
class ShardBelief:
    """The router's (possibly stale) picture of one shard."""

    shard: int
    #: Believed-alive chip fraction (breaker states, read-only).
    alive_fraction: float = 1.0
    #: Chips currently accepting launches (autoscaler-aware).
    dispatchable: int = 0
    queue_depth: int = 0

    @property
    def capacity(self) -> float:
        """Believed serving capacity in chip-equivalents."""
        return self.alive_fraction * self.dispatchable


@dataclass
class _Handback:
    """Work a shard returned to the router for cross-shard failover."""

    expiry: float
    rid: int
    request: Request
    from_shard: int


@dataclass
class ClusterResult:
    """Everything the cluster run observed (FleetResult-compatible
    where it matters: ``records``, ``batches``, ``makespan``)."""

    #: Merged terminal records, rid order, one entry beside each trace
    #: row (original arrivals read from the trace); a served one
    #: references its launch's row of ``batches``.
    records: EntryTable
    #: All shards' launch records, merged once (shard order; ids
    #: shard-local).
    batches: RecordTable
    #: Per-shard FleetResult (shard-local chip ids).
    shard_results: list
    makespan: float
    #: Total cross-shard re-dispatches.
    failovers: int
    #: Requests that still expired after at least one failover.
    failover_expired: int
    #: Arrivals shed at the router door during brown-outs.
    brownout_shed: int
    #: Brown-out episodes entered.
    brownout_spans: int
    gossip_ticks: int
    #: Minimum believed alive-shard fraction seen at any gossip tick.
    min_alive_shard_fraction: float

    @property
    def autoscale(self):
        """None — per-shard autoscale rollups live in shard_results."""
        return None

    def rollup(self) -> dict:
        """The report's ``cluster`` section for one mix."""
        return {
            "shards": len(self.shard_results),
            "failovers": self.failovers,
            "failover_expired": self.failover_expired,
            "brownout_shed": self.brownout_shed,
            "brownout_spans": self.brownout_spans,
            "gossip_ticks": self.gossip_ticks,
            "min_alive_shard_fraction": self.min_alive_shard_fraction,
            "shard_requests": [len(res.records)
                               for res in self.shard_results],
        }


def _arrival_span(records: EntryTable) -> tuple:
    """The first and last arrival among a shard's ``records``: what the
    shard saw, the re-dispatch time for a request failed over to it."""
    arrivals = records.column("arrival")
    if not len(arrivals):
        return 0.0, 0.0
    return arrivals.min().item(), arrivals.max().item()


def _shard_failures(config, shard: int):
    """Shard ``shard``'s failure config: independent seed per shard,
    except shard 0 which keeps the base seed (1-shard byte-identity)."""
    if config.failures is None or shard == 0:
        return config.failures
    return replace(config.failures,
                   seed=stream_seed(config.failures.seed,
                                    "serve-shard", shard))


class ClusterSimulator:
    """Deterministic cluster router over ``config.cluster.shards``
    independent fleet shards.

    ``timelines`` injects explicit (e.g. scripted) per-shard failure
    timelines; by default each shard draws its own from its derived
    failure config.
    """

    def __init__(self, config, costs,
                 trace: TraceSink = NULL_TRACE,
                 timelines: list[ChipFailureTimeline] | None = None):
        if config.cluster is None:
            raise ConfigError("ClusterSimulator needs config.cluster")
        self.config = config
        self.cluster = config.cluster
        self.costs = costs
        self.trace = trace if trace.enabled else None
        n = self.cluster.shards
        if timelines is not None and len(timelines) != n:
            raise ConfigError(f"expected {n} timelines, "
                              f"got {len(timelines)}")
        self.shards = []
        for i in range(n):
            shard_cfg = replace(config, cluster=None,
                                failures=_shard_failures(config, i))
            timeline = timelines[i] if timelines is not None else None
            self.shards.append(
                FleetSimulator(shard_cfg, costs, trace=trace,
                               timeline=timeline))
        #: One belief per shard, updated in place by each gossip tick
        #: that observes a change.
        self._beliefs = [
            ShardBelief(shard=i, dispatchable=len(s.chips))
            for i, s in enumerate(self.shards)
        ]
        #: Cluster-level terminal records (brown-out sheds).
        self._records = EntryTable(RequestRecord)
        #: The trace run() serves, in rid order, and its rids held
        #: contiguous (searched on every failover and snapshot), set by
        #: run(); a rid's original arrival is its trace row's.
        self._trace: RecordTable | None = None
        self._rids = np.empty(0, dtype=np.int64)
        self._failover_count: dict[int, int] = {}
        self._handbacks: list[_Handback] = []
        self._rr = 0
        self._brownout = False
        self.failovers = 0
        self.brownout_shed = 0
        self.brownout_spans = 0
        self.gossip_ticks = 0
        self.min_alive_shard_fraction = 1.0
        #: The last tick's shard observations (None before the first).
        self._observed: list | None = None
        self._alive_fraction = 1.0
        self._capacity_fraction = 1.0
        #: The pass-through degeneration: one shard and no brown-out
        #: threshold needs no beliefs, no hook, no gossip — the shard
        #: runs the exact standalone operation sequence.
        self._active = (n > 1
                        or self.cluster.brownout_headroom is not None)
        if self._active:
            # One context for every shard, updated in place; before the
            # first tick it reads as a standalone fleet's would.
            self._cluster_ctx = {"cluster.alive_shard_fraction": 1.0}
            for shard in self.shards:
                shard._cluster_ctx = self._cluster_ctx

    # -- beliefs (bounded-staleness gossip) ----------------------------

    @staticmethod
    def _observe(shard: FleetSimulator) -> tuple:
        """Read-only health observation of one shard, exactly what the
        router reads: (believed-alive fraction, dispatchable chips,
        queue depth), from the monitor's open count, the chip list and
        the batcher's running count."""
        return (shard._alive_fraction_belief(), len(shard._dispatchable()),
                shard._batcher._waiting)

    def _believe(self, observed: list) -> None:
        """Update the beliefs in place, and what derives from them."""
        beliefs = self._beliefs
        capacities = []
        alive = total = 0
        for belief, (fraction, dispatchable, depth) in zip(beliefs, observed):
            belief.alive_fraction = fraction
            belief.dispatchable = dispatchable
            belief.queue_depth = depth
            capacity = belief.capacity
            capacities.append(capacity)
            alive += capacity > 0
            total += dispatchable
        alive_fraction = alive / len(beliefs)
        self.min_alive_shard_fraction = min(self.min_alive_shard_fraction,
                                            alive_fraction)
        self._cluster_ctx["cluster.alive_shard_fraction"] = alive_fraction
        self._alive_fraction = alive_fraction
        # ``sum`` over the capacities in shard order, as it always was:
        # Python 3.12's ``sum`` compensates, so a running total could
        # round differently.
        self._capacity_fraction = sum(capacities) / total if total else 0.0

    def _refresh(self, g: float) -> None:
        """One gossip tick: advance shards to ``g``, observe them,
        update beliefs and brown-out state, re-dispatch due handbacks.
        Beliefs are updated only when an observation changed since the
        last tick; otherwise the update would reproduce them exactly."""
        cluster = self.cluster
        for shard in self.shards:
            shard.advance_to(g)
        observed = [self._observe(s) for s in self.shards]
        self.gossip_ticks += 1
        if observed != self._observed:
            self._observed = observed
            self._believe(observed)
        alive_fraction = self._alive_fraction
        capacity_fraction = self._capacity_fraction
        if self.trace is not None:
            self.trace.serve("cluster.gossip", "tick", g, 0.0, -1,
                             {"alive_shard_fraction": alive_fraction,
                              "capacity_fraction": capacity_fraction})
        if cluster.brownout_headroom is not None:
            active = capacity_fraction < cluster.brownout_headroom
            if active != self._brownout:
                if active:
                    self.brownout_spans += 1
                if self.trace is not None:
                    self.trace.serve("cluster.brownout", "transition",
                                     g, 0.0, -1,
                                     {"active": active,
                                      "capacity": capacity_fraction})
            self._brownout = active
        if not self._handbacks:
            return
        due = sorted((h for h in self._handbacks if h.expiry <= g),
                     key=lambda h: (h.expiry, h.rid))
        if due:
            self._handbacks = [h for h in self._handbacks if h.expiry > g]
            for h in due:
                self._redispatch(h, g)

    def _gossip_until(self, t: float, next_tick: float) -> float:
        while next_tick <= t:
            self._refresh(next_tick)
            next_tick += self.cluster.gossip_interval_cycles
        return next_tick

    # -- routing -------------------------------------------------------

    def _pool(self, excluded: int | None = None) -> list[ShardBelief]:
        """Believed-alive shards (all shards when belief says none —
        routing somewhere beats dropping), minus ``excluded`` when an
        alternative exists."""
        beliefs = self._beliefs
        alive = [b for b in beliefs if b.capacity > 0]
        pool = alive or list(beliefs)
        if excluded is not None:
            rest = [b for b in pool if b.shard != excluded]
            pool = rest or pool
        return pool

    def _least_loaded(self, pool: list[ShardBelief]) -> int:
        # The pool is in shard order and only a lower load displaces the
        # pick, so ties go to the lower shard.
        best, low = None, math.inf
        for belief in pool:
            load = belief.queue_depth / max(belief.capacity, 1e-9)
            if best is None or load < low:
                best, low = belief, load
        return best.shard

    def _route(self, req: Request) -> int:
        if len(self.shards) == 1:
            return 0
        router = self.cluster.router
        pool = self._pool()
        if router == "hash":
            return pool[req.rid % len(pool)].shard
        if router == "round-robin":
            shard = pool[self._rr % len(pool)].shard
            self._rr += 1
            return shard
        return self._least_loaded(pool)

    # -- failover ------------------------------------------------------

    def _make_handback(self, shard_idx: int):
        """The shard's on_expire hook: take expiring work with failover
        budget left; leave the rest to expire in-shard."""
        def hook(requests, attempt, now):
            keep = []
            for req in requests:
                used = self._failover_count.get(req.rid, 0)
                if used < self.cluster.failover_retries:
                    self._handbacks.append(
                        _Handback(expiry=now, rid=req.rid, request=req,
                                  from_shard=shard_idx))
                else:
                    keep.append(req)
            return keep
        return hook

    def _redispatch(self, h: _Handback, now: float) -> None:
        """Re-dispatch handed-back work to a surviving shard at ``now``
        (the gossip tick where the router learned of the expiry)."""
        rid = h.request.rid
        self._failover_count[rid] = self._failover_count.get(rid, 0) + 1
        target = self._least_loaded(self._pool(excluded=h.from_shard))
        self.failovers += 1
        if self.trace is not None:
            self.trace.serve("cluster.failover", h.request.kind, now,
                             0.0, -1,
                             {"rid": rid, "from": h.from_shard,
                              "to": target,
                              "failover": self._failover_count[rid]})
        self.shards[target].step(h.request._replace(arrival=now))

    # -- brown-out -----------------------------------------------------

    def _shed_brownout(self, req: Request) -> None:
        self.brownout_shed += 1
        self._records.add(req.rid, req.kind, req.tile, req.arrival, True, -1,
                          -1, 0, req.arrival, 0.0, 0.0, "shed", 0, False)
        if self.trace is not None:
            self.trace.serve("cluster.shed", req.kind, req.arrival,
                             0.0, -1, {"rid": req.rid, "tile": req.tile})

    # -- observation ---------------------------------------------------

    def snapshot(self, now: float, arrived: int, total: int) -> dict:
        """A live cluster progress snapshot (pure observation of the
        shards' record columns)."""
        served = shed = expired = 0
        masks = []
        for shard in self.shards:
            records = shard._records
            mask = records.matches("outcome", "served")
            n_served = int(mask.sum())
            n_shed = int(records.matches("outcome", "shed").sum())
            served += n_served
            shed += n_shed
            expired += len(records) - n_served - n_shed
            masks.append(mask)
        shed += int(self._records.matches("outcome", "shed").sum())
        latencies = latency_column(chain.from_iterable(
            self._latencies(shard._records, mask)
            for shard, mask in zip(self.shards, masks)), served)
        del masks
        latencies.sort()  # in place: see latency_column
        elapsed_s = now / (self.config.clock_ghz * 1e9)
        alive = sum(1 for b in self._beliefs if b.capacity > 0)
        return {
            "sim_time_cycles": now,
            "requests_arrived": arrived,
            "requests_total": total,
            "served": served,
            "shed": shed,
            "expired": expired,
            "retries": sum(s.retry_count for s in self.shards),
            "hedges": sum(s.hedge_count for s in self.shards),
            "throughput_rps": (served / elapsed_s) if elapsed_s > 0 else 0.0,
            "latency_p50": (percentile_sorted(latencies, 50.0)
                            if served else None),
            "latency_p99": (percentile_sorted(latencies, 99.0)
                            if served else None),
            "cluster": {
                "shards": len(self.shards),
                "alive_shard_fraction": alive / len(self.shards),
                "brownout_active": self._brownout,
                "failovers": self.failovers,
                "brownout_shed": self.brownout_shed,
            },
        }

    def _latencies(self, records: EntryTable, served: np.ndarray):
        """``finish`` less the original arrival of the records of a
        shard's ``records`` that ``served`` marks, one array per chunk.
        A failed-over record carries its re-dispatch time as the
        arrival; latency runs from the original, its trace row's (read
        on each call, so that no view of the trace outlives it: a table
        cannot grow while one is alive)."""
        for rows in served_chunks(served):
            origin = self._trace.column("arrival", np.searchsorted(
                self._rids, records.column("rid", rows)))
            yield records.column("finish", rows) - origin

    # -- the router loop -----------------------------------------------

    def run(self, requests, on_progress=None,
            progress_every: int | None = None) -> ClusterResult:
        """Route ``requests`` (a trace, or any iterable of
        :class:`~repro.serve.workload.Request`\\ s, packed into one
        first) in (arrival, rid) order; as
        :meth:`FleetSimulator.run <repro.serve.fleet.FleetSimulator.run>`,
        the order, rid checks and original arrivals read the trace's
        columns and rows are decoded a chunk at a time."""
        cluster = self.cluster
        # A rid, kind or tile a row cannot hold, a repeated rid, a non-finite
        # arrival or an unpriced kind fails before simulating.
        self._trace = trace = as_trace(requests)
        # The rids are searched on every failover and snapshot, which
        # would copy a strided column each time: they are held
        # contiguous.
        self._rids = rids = np.ascontiguousarray(sorted_rids(trace))
        order, (first, last_arrival) = arrival_order(trace)
        check_kinds(trace, self.costs.model_bytes)
        for shard in self.shards:
            shard.begin()
        if len(self.shards) > 1 and cluster.failover_retries > 0:
            for i, shard in enumerate(self.shards):
                shard.on_expire = self._make_handback(i)
        total = len(order)
        if on_progress is not None and progress_every is None:
            progress_every = max(1, total // 20)
        next_tick = cluster.gossip_interval_cycles
        for arrived, req in enumerate(trace.take(order), 1):
            if self._active:
                next_tick = self._gossip_until(req.arrival, next_tick)
                if self._brownout and req.kind in cluster.brownout_kinds:
                    self._shed_brownout(req)
                    continue
            self.shards[self._route(req)].step(req)
            if on_progress is not None and arrived % progress_every == 0:
                on_progress(self.snapshot(req.arrival, arrived, total))
        for shard in self.shards:
            shard.finish()
        # Late failover: work handed back during the final drain is
        # re-dispatched on the continuing gossip grid until the cluster
        # runs dry (the per-rid budget bounds this loop).
        while self._handbacks:
            first_expiry = min(h.expiry for h in self._handbacks)
            while next_tick <= first_expiry:
                next_tick += cluster.gossip_interval_cycles
            self._refresh(next_tick)
            next_tick += cluster.gossip_interval_cycles
            for shard in self.shards:
                shard.finish()
        # The hooks hold the router, and the router its shards: dropped,
        # a finished simulator is freed without the cyclic collector.
        for shard in self.shards:
            shard.on_expire = None
        shard_results = [shard.collect(None, _arrival_span(shard._records))
                         for shard in self.shards]
        # Every request ends in exactly one record, in a shard or at the
        # router door, placed at its trace row: a rid in two places
        # raises, as does one in none.  A shard's served records
        # reference its launches' rows in the merged launch table, which
        # start where the shard's rows begin.
        batches = RecordTable(BatchRecord)
        records = EntryTable(RequestRecord, launches=batches, trace=trace)
        records.place(self._records, rids=rids)
        for res in shard_results:
            records.place(res.records, launches_at=len(batches), rids=rids)
            batches.extend(res.batches)
        records.check_complete()
        failed = np.searchsorted(rids, sorted(self._failover_count))
        failover_expired = int(records.matches("outcome", "expired",
                                               failed).sum())
        last = served_finish((res.batches for res in shard_results),
                             default=last_arrival)
        if on_progress is not None:
            on_progress(self.snapshot(last, total, total))
        return ClusterResult(
            records=records, batches=batches, shard_results=shard_results,
            makespan=max(last - first, 0.0),
            failovers=self.failovers,
            failover_expired=failover_expired,
            brownout_shed=self.brownout_shed,
            brownout_spans=self.brownout_spans,
            gossip_ticks=self.gossip_ticks,
            min_alive_shard_fraction=self.min_alive_shard_fraction,
        )
