"""The fleet event loop: admission → batching → scheduling over N
simulated chips, with an optional chip-failure lifecycle and autoscaler.

:class:`FleetSimulator` drives the whole serving pipeline as a
deterministic discrete-event loop in simulated time (PE clock cycles):
requests arrive open-loop, pass admission control
(:class:`~repro.serve.queueing.AdmissionQueue`), pack into launches
(:class:`~repro.serve.batcher.DynamicBatcher`), and dispatch onto the
chip the scheduling decision prefers.  Service times come from the
measured :class:`~repro.serve.costmodel.ServiceCostTable`; the only
modeled additions are the per-launch dispatch overhead (program staging
into the 1,024-entry instruction buffer plus launch handshake) and the
model-reload penalty when a chip switches resident kind or BP tile
(staged bytes over the chip's external link bandwidth).

Scheduling policies (the built-in leaves of the ``schedule`` decision
slot — see :mod:`repro.serve.policy` for the decision-tree engine):

``round-robin``
    Rotate through chips regardless of load — the baseline.
``least-loaded``
    The chip that frees up earliest.  Naturally routes around degraded
    (slower) chips, whose queues drain late.
``locality``
    The chip that would *finish* the batch earliest, counting the reload
    penalty it would pay — so same-model batches stick to warm chips
    until queueing outweighs the reload saving.

Every tie breaks on (free time, chip id), so a schedule is a pure
function of the arrival trace, the config, the cost table, and the
compiled policy.

Cycle accounting per request: ``batch_wait`` (arrival → batch close),
``queue_wait`` (batch close → launch start, i.e. waiting for a chip —
including any failed attempts and retry backoff), ``service`` (launch
start → finish of the *successful* launch, shared by the whole batch),
and ``latency`` — their sum.  The accounting invariant ``latency ==
batch_wait + queue_wait + service`` therefore holds through re-dispatch
and hedging by construction.  Shed requests record only the shed time.

Failure handling (``config.failures`` enabled) — see
:mod:`repro.serve.failures` for the physical lifecycle and
:mod:`repro.serve.resilience` for the scheduler-side defense:

* The scheduler has **no oracle**: it keeps routing to a failed chip
  until a health check detects the failure; launches killed by a
  fail-stop are re-dispatched (bounded retries, deadline-aware backoff)
  after the detection time, never at the physical failure instant.
* Every admitted request is **exactly-once accounted** with an
  ``outcome``: ``served``, ``shed`` (admission control), or ``expired``
  (deadline passed while retrying, or the retry budget ran out) —
  checked as each record is written at its request's row, or as a run's
  appended records are placed at theirs when it is collected (a lost
  request, or one recorded twice, raises
  :class:`~repro.errors.SimulationError` naming it, even under ``python
  -O``), so nothing is silently lost or double-counted.
  Request ids must be distinct int64s, tiles None or int64s above the
  int64 minimum, arrivals finite, and kinds priced by the cost table;
  any other request is a :class:`~repro.errors.ConfigError` naming it
  (its rid, or its kind) before anything is simulated.
* Hedged launches and killed attempts append their own
  :class:`~repro.serve.fleet.records.BatchRecord` rows (``outcome``
  ``hedge-loser`` / ``killed``) with the cycles they burned, so wasted
  work is first-class.

Failures off (``config.failures`` ``None`` or disabled, and no injected
timeline) is the degenerate case of the same path, not a second one:
the fleet holds an empty failure timeline, a health monitor with the
default (never lying) checks, and no retry deadline, since with nothing
to retry no request may expire while it waits for its batch.  Every
launch then runs where and when it would on a fleet that never fails.

Autoscaling (``config.autoscale`` set — see
:mod:`repro.serve.autoscale`): the chip list grows and shrinks at
evaluation ticks; draining/retired chips take no new launches, and
provisioned chips serve nothing until warm.  With ``config.autoscale``
``None`` the simulator never consults the autoscaler.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from repro.errors import ConfigError
from repro.serve.autoscale import Autoscaler
from repro.serve.batcher import DynamicBatcher
from repro.serve.costmodel import ServiceCostTable
from repro.serve.failures import ChipFailureTimeline, FailureConfig
from repro.serve.fleet.dispatch import DispatchMixin
from repro.serve.fleet.records import (
    OUTCOMES,
    POLICIES,
    BatchRecord,
    ChipState,
    EntryTable,
    FleetResult,
    RecordTable,
    RequestRecord,
    ServeConfig,
    arrival_order,
    as_trace,
    check_kinds,
    served_finish,
)
from repro.serve.metrics import (
    latency_column,
    percentile_sorted,
    served_latencies,
)
from repro.serve.policy import PolicyEngine
from repro.serve.queueing import ADMITTED, AdmissionQueue
from repro.serve.resilience import DEFAULT_RESILIENCE, HealthMonitor
from repro.serve.workload import Request
from repro.trace.collector import NULL_TRACE, TraceSink

__all__ = [
    "OUTCOMES", "POLICIES", "BatchRecord", "ChipState", "EntryTable",
    "FleetResult", "FleetSimulator", "RecordTable", "RequestRecord",
    "ServeConfig",
]


class FleetSimulator(DispatchMixin):
    """Deterministic serving simulation over ``config.chips`` chips.

    ``timeline`` injects an explicit (e.g. scripted) failure timeline;
    by default one is drawn from ``config.failures`` when enabled, and
    an empty one stands in when failures are off.

    Every service time comes from ``costs.launch_cycles``, so the table
    covers batches up to ``config.max_batch`` by construction: FC
    batches above the table's resident cap (``costs.fc_cap``) price as
    back-to-back waves.
    """

    def __init__(self, config: ServeConfig, costs: ServiceCostTable,
                 trace: TraceSink = NULL_TRACE,
                 timeline: ChipFailureTimeline | None = None):
        if config.max_batch > costs.max_batch:
            raise ConfigError(
                f"config.max_batch {config.max_batch} exceeds the cost "
                f"table's measured range {costs.max_batch}")
        self.config = config
        self.costs = costs
        self.trace = trace if trace.enabled else None
        self.chips = [
            ChipState(chip_id=i, degraded=(i in config.degraded_chips))
            for i in range(config.chips)
        ]
        if timeline is None and not config.failures_enabled:
            # Failures off: an empty timeline kills nothing, default
            # checks never lie, and nothing expires waiting to retry.
            timeline = ChipFailureTimeline(FailureConfig(), config.chips)
            resilience, deadline = DEFAULT_RESILIENCE, math.inf
            paced = False
        else:
            timeline = timeline or ChipFailureTimeline(config.failures,
                                                       config.chips)
            resilience = config.resilience or DEFAULT_RESILIENCE
            deadline = resilience.retry_deadline_cycles
            # A breaker-ok event also advances the autoscaler, whose
            # state a cluster router's gossip reads between events.
            paced = config.autoscale is not None
        self.timeline = timeline
        self.resilience = resilience
        #: A request this many cycles old at (re-)dispatch expires.
        self.retry_deadline = deadline
        seed = config.failures.seed if config.failures is not None else 0
        self.monitor = HealthMonitor(resilience, timeline, config.chips,
                                     seed=seed, trace=trace)
        #: Chips a window of each kind can reach, and of any kind;
        #: queries for any other chip would answer "healthy".
        self._fail_stop_chips = timeline.exposed("fail-stop")
        self._fail_slow_chips = timeline.exposed("fail-slow")
        self._transient_chips = timeline.exposed("transient")
        self._windowed_chips = (self._fail_stop_chips | self._fail_slow_chips
                                | self._transient_chips)
        #: A breaker moves only on a failed check or a killed launch, so
        #: with no fail-stop to see and checks that cannot lie none ever
        #: leaves ``closed``: a completed launch need not report to it
        #: unless the report paces the autoscaler.
        self._breakers_fixed = (not self._fail_stop_chips and not paced
                                and resilience.health_false_positive_rate
                                <= 0.0)
        #: Admission capacity while no breaker is open (believed-alive
        #: fraction 1); shed tiers tighten it only while one is.
        self._capacity_all_alive = max(1, int(
            config.queue_capacity * resilience.tier_multiplier(1.0)))
        # Every decision slot compiles once here; a built-in (leaf)
        # schedule binds its primitive directly — the "callable resolved
        # at config time" default path.
        self.engine = PolicyEngine(
            policy=config.policy, shed_policy=config.shed_policy,
            max_retries=resilience.max_retries,
            hedge_enabled=resilience.hedge_delay_cycles is not None,
            policy_set=config.policy_set)
        if self.engine.schedule.leaf is not None:
            self._schedule_fn = self._schedule_primitive(
                self.engine.schedule.leaf)
        else:
            self._schedule_fn = None
        self.autoscaler = (Autoscaler(config.autoscale, self)
                           if config.autoscale is not None else None)
        self._queue: AdmissionQueue | None = None
        self._batcher: DynamicBatcher | None = None
        self._rr = 0
        self._seq = 0
        #: (time, seq, kind, payload) min-heap.  A "dispatch" carries a
        #: closed batch, a "redispatch" a _Pending retry of one.
        self._events: list = []
        #: (kind, size, degraded) -> launch cycles, priced once each.
        self._cycles: dict = {}
        self._batches = RecordTable(BatchRecord)
        #: Rows of ``_batches``: the next launch's batch id.
        self._launches = 0
        #: One terminal record per request, a served one referencing its
        #: launch's row of ``_batches``: appended in resolution order (a
        #: cluster shard's), unless run() writes them at their requests'
        #: rows of its trace.
        self._records = EntryTable(RequestRecord, launches=self._batches)
        self.retry_count = 0
        self.hedge_count = 0

    # -- event plumbing ------------------------------------------------

    def _push(self, time: float, kind: str, payload) -> None:
        seq = self._seq
        heappush(self._events, (time, seq, kind, payload))
        self._seq = seq + 1

    def _drain(self, until: float) -> None:
        """Execute every queued event at or before ``until`` (``inf``
        runs the queue dry), advancing health and scale state first."""
        monitor, autoscaler, events = (self.monitor, self.autoscaler,
                                       self._events)
        dispatch = self._execute_dispatch
        while events and events[0][0] <= until:
            time, _, kind, payload = heappop(events)
            if time >= monitor.due_at:
                monitor.advance(time)
            if autoscaler is not None:
                autoscaler.advance(time)
            if kind == "dispatch":
                dispatch(payload, time)
            elif kind == "redispatch":
                dispatch(payload.batch, time, payload.attempt,
                         payload.excluded)
            elif kind == "hedge":
                self._execute_hedge(payload, time)
            elif kind == "breaker-fail":
                monitor.breakers[payload].record_failure(time)
            else:  # breaker-ok
                monitor.breakers[payload].record_success(time)

    # -- fleet membership ----------------------------------------------

    def _dispatchable(self) -> list:
        """Chips that may take new launches.  The static fleet returns
        the chip list itself — the exact legacy candidate set."""
        if self.autoscaler is None:
            return self.chips
        return [c for c in self.chips
                if c.retired_at is None and not c.draining]

    def provision_chip(self, now: float, warm_at: float) -> ChipState:
        """Add one chip (autoscaler scale-up): idle once warm, healthy
        cost column, breaker starts closed, no scripted failures."""
        chip = ChipState(chip_id=len(self.chips), added_at=now,
                         warm_at=warm_at, free_at=warm_at)
        self.chips.append(chip)
        self.monitor.add_chip()
        return chip

    # -- observation ---------------------------------------------------

    def snapshot(self, now: float, arrived: int, total: int) -> dict:
        """A live progress snapshot: pure observation of simulator state.

        Reads record columns, counters, and breaker states without
        touching them — callers (the control plane's progress stream) can
        take snapshots at any cadence without perturbing the simulation,
        so observed runs stay byte-identical to unobserved ones.
        """
        records = self._records
        mask = records.matches("outcome", "served")
        served = int(mask.sum())
        latencies = latency_column(served_latencies(records, mask), served)
        del mask
        latencies.sort()  # in place: see latency_column
        shed = int(records.matches("outcome", "shed").sum())
        expired = records.written() - served - shed
        elapsed_s = now / (self.config.clock_ghz * 1e9)
        snap = {
            "sim_time_cycles": now,
            "requests_arrived": arrived,
            "requests_total": total,
            "served": served,
            "shed": shed,
            "expired": expired,
            "retries": self.retry_count,
            "hedges": self.hedge_count,
            "throughput_rps": (served / elapsed_s) if elapsed_s > 0 else 0.0,
            "latency_p50": (percentile_sorted(latencies, 50.0)
                            if served else None),
            "latency_p99": (percentile_sorted(latencies, 99.0)
                            if served else None),
        }
        # Read breaker states directly; allow() would advance an
        # expired open breaker to half-open as a side effect.
        snap["breakers"] = {
            str(b.chip_id): b.state for b in self.monitor.breakers
        }
        if self.autoscaler is not None:
            events = self.autoscaler.events
            snap["autoscale"] = {
                "active_chips": len(self.autoscaler.active_chips()),
                "total_chips": len(self.chips),
                "draining": sum(1 for c in self.chips
                                if c.draining and c.retired_at is None),
                "scale_events": len(events),
                "last_action": events[-1].action if events else None,
            }
        return snap

    # -- the event loop ------------------------------------------------
    #
    # run() is begin() + step() per arrival + finish() + collect(): the
    # incremental pieces exist so the cluster router
    # (:mod:`repro.serve.cluster`) can drive one shard per arrival while
    # interleaving gossip ticks.

    def begin(self) -> None:
        """Set up admission state; arrivals may then be fed via step()."""
        batcher = DynamicBatcher(self.config.max_batch,
                                 self.config.max_wait_cycles)
        # A leaf shed slot (every built-in) runs the legacy string
        # policy; a shed *tree* decides per overflow via its context.
        if self.engine.shed.leaf is not None:
            queue = AdmissionQueue(batcher, self.config.queue_capacity,
                                   self.engine.shed.leaf)
        else:
            queue = AdmissionQueue(
                batcher, self.config.queue_capacity,
                decider=lambda req: self.engine.shed.fn(
                    self._shed_ctx(req)))
        self._queue = queue
        self._batcher = batcher

    def step(self, req: Request) -> None:
        """Admit one request at its arrival instant: release due
        batches, run queued events, advance health/scale state, offer."""
        # A request is a named tuple, whose field reads cost more than a
        # local's: read the arrival once.
        now = req.arrival
        batcher = self._batcher
        if now >= batcher._next_deadline:
            for batch in batcher.due(now):
                self._push(batch.close, "dispatch", batch)
        events = self._events
        if events and events[0][0] <= now:
            self._drain(now)
        monitor, queue = self.monitor, self._queue
        if now >= monitor.due_at:
            monitor.advance(now)
        if monitor.open_count:
            multiplier = self.resilience.tier_multiplier(
                monitor.alive_fraction(now))
            queue.capacity = max(
                1, int(self.config.queue_capacity * multiplier))
        else:
            queue.capacity = self._capacity_all_alive
        if self.autoscaler is not None:
            self.autoscaler.advance(now)
        admission = queue.offer(req)
        if admission is ADMITTED:
            return
        if admission.shed is not None:
            self._shed(admission.shed, now)
        filled = admission.filled
        if filled is not None:
            self._push(filled.close, "dispatch", filled)
            self._drain(now)

    def advance_to(self, t: float) -> None:
        """Release due batches and run queued events through ``t``
        without admitting anything — the cluster's gossip grid drives
        shards between their own arrivals so batch release latency stays
        bounded by the gossip interval, not by the shard's arrival gaps.
        With no batch deadline and no event at or before ``t`` there is
        nothing to do, and a gossip tick returns at once."""
        batcher = self._batcher
        if t >= batcher._next_deadline:
            for batch in batcher.due(t):
                self._push(batch.close, "dispatch", batch)
        events = self._events
        if events and events[0][0] <= t:
            self._drain(t)

    def finish(self) -> None:
        """Close remaining batches and run the event queue dry."""
        for batch in self._batcher.flush():
            self._push(batch.close, "dispatch", batch)
        self._drain(math.inf)

    def collect(self, trace: RecordTable | None,
                span: tuple) -> FleetResult:
        """Assemble the result after finish() for the requests of
        ``trace`` (a table :func:`~repro.serve.fleet.records.as_trace`
        gave) whose ``(first, last)`` arrival is ``span``.

        Records written at their requests' rows of ``trace``, as run()
        writes them, are returned without a copy once every row has one.
        Appended ones (a simulator stepped by hand) are placed at their
        requests' rows of a new table over ``trace``, which becomes the
        fleet's.  Either way a rid of
        ``trace`` with no record or with two, or a record of no rid in
        it, raises :class:`~repro.errors.SimulationError` naming the rid.
        A cluster shard passes no trace and keeps its appended records:
        the router checks them as it merges every shard's.
        """
        records = self._records
        first, last_arrival = span
        if trace is not None:
            if records.requests is not trace:
                placed = EntryTable(RequestRecord, launches=self._batches,
                                    trace=trace)
                placed.place(records)
                self._records = records = placed
            records.check_complete()
        last = served_finish((self._batches,), default=last_arrival)
        autoscale = None
        if self.autoscaler is not None:
            autoscale = self.autoscaler.result(records, last)
        return FleetResult(records=records, batches=self._batches,
                           chips=self.chips,
                           makespan=max(last - first, 0.0),
                           autoscale=autoscale)

    def run(self, requests, on_progress=None,
            progress_every: int | None = None) -> FleetResult:
        """Serve ``requests`` (a trace from
        :func:`~repro.serve.workload.generate_requests`, or any iterable
        of :class:`~repro.serve.workload.Request`\\ s, which is packed
        into one first) in (arrival, rid) order.

        The order, the rid checks and the arrival span read the trace's
        columns; rows are decoded one chunk at a time as they are
        stepped, so the trace never exists as a list of objects.  A
        trace out of rid order is packed into one sorted by rid first.
        A trace in (arrival, rid) order, as a generated one is, is
        stepped in place, with no permutation.  Each record is written
        at its request's row of an :class:`~repro.serve.rows.EntryTable`
        over the trace, which reads the request's own fields from the
        trace row.
        """
        # A rid, kind or tile a row cannot hold, a repeated rid, a non-finite
        # arrival or an unpriced kind fails before simulating.
        trace = as_trace(requests)
        order, span = arrival_order(trace)
        check_kinds(trace, self.costs.model_bytes)
        self._records = EntryTable(RequestRecord, launches=self._batches,
                                   trace=trace)
        self.begin()
        total = len(order)
        if on_progress is not None and progress_every is None:
            progress_every = max(1, total // 20)
        step = self.step
        for arrived, req in enumerate(trace.take(order), 1):
            step(req)
            if on_progress is not None and arrived % progress_every == 0:
                on_progress(self.snapshot(req.arrival, arrived, total))
        self.finish()
        if on_progress is not None:
            end = served_finish((self._batches,), default=span[1])
            on_progress(self.snapshot(end, total, total))
        return self.collect(trace, span)
