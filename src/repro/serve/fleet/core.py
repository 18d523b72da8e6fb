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
  checked at the end of every run (a lost request, or one recorded
  twice, raises :class:`~repro.errors.SimulationError` naming it, even
  under ``python -O``), so nothing is silently lost or double-counted.
  Request ids must be distinct int64s; a repeated rid, or one outside
  int64, is a :class:`~repro.errors.ConfigError` before anything is
  simulated.
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

import heapq
import math

from repro.errors import ConfigError
from repro.serve.autoscale import Autoscaler
from repro.serve.batcher import DynamicBatcher
from repro.serve.costmodel import ServiceCostTable
from repro.serve.failures import ChipFailureTimeline, FailureConfig
from repro.serve.fleet.dispatch import DispatchMixin, _Pending
from repro.serve.fleet.records import (
    OUTCOMES,
    POLICIES,
    BatchRecord,
    ChipState,
    FleetResult,
    RecordTable,
    RequestRecord,
    ServeConfig,
    served_finish,
    sort_exactly_once,
    sorted_rids,
)
from repro.serve.metrics import percentile_sorted
from repro.serve.policy import PolicyEngine
from repro.serve.queueing import AdmissionQueue
from repro.serve.resilience import DEFAULT_RESILIENCE, HealthMonitor
from repro.serve.workload import Request
from repro.trace.collector import NULL_TRACE, TraceSink

__all__ = [
    "OUTCOMES", "POLICIES", "BatchRecord", "ChipState", "FleetResult",
    "FleetSimulator", "RecordTable", "RequestRecord", "ServeConfig",
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
        self._events: list = []  # (time, seq, kind, payload) min-heap
        self._batches = RecordTable(BatchRecord)
        #: One terminal record per request, in resolution order;
        #: collect() sorts it by rid in place.
        self._records = RecordTable(RequestRecord)
        self.retry_count = 0
        self.hedge_count = 0

    # -- event plumbing ------------------------------------------------

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    def _drain(self, until: float | None) -> None:
        """Execute every queued event at or before ``until`` (all of
        them when ``until`` is None), advancing health and scale state
        first."""
        monitor, autoscaler, events = (self.monitor, self.autoscaler,
                                       self._events)
        while events and (until is None or events[0][0] <= until):
            time, _, kind, payload = heapq.heappop(events)
            if time >= monitor.due_at:
                monitor.advance(time)
            if autoscaler is not None:
                autoscaler.advance(time)
            if kind == "dispatch":
                self._execute_dispatch(payload, time)
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
        columns = records.columns()
        latencies = columns["finish"][mask] - columns["arrival"][mask]
        latencies.sort(kind="stable")
        served = len(latencies)
        shed = int(records.matches("outcome", "shed").sum())
        expired = len(records) - served - shed
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
        batcher, queue, events = self._batcher, self._queue, self._events
        if req.arrival >= batcher._next_deadline:
            for batch in batcher.due(req.arrival):
                self._push(batch.close, "dispatch", _Pending(batch))
        if events and events[0][0] <= req.arrival:
            self._drain(until=req.arrival)
        monitor = self.monitor
        if req.arrival >= monitor.due_at:
            monitor.advance(req.arrival)
        if monitor.open_count:
            multiplier = self.resilience.tier_multiplier(
                monitor.alive_fraction(req.arrival))
            queue.capacity = max(
                1, int(self.config.queue_capacity * multiplier))
        else:
            queue.capacity = self._capacity_all_alive
        if self.autoscaler is not None:
            self.autoscaler.advance(req.arrival)
        admission = queue.offer(req)
        if admission.shed is not None:
            self._shed(admission.shed, req.arrival)
        if admission.filled is not None:
            self._push(admission.filled.close, "dispatch",
                       _Pending(admission.filled))
            self._drain(until=req.arrival)

    def advance_to(self, t: float) -> None:
        """Release due batches and run queued events through ``t``
        without admitting anything — the cluster's gossip grid drives
        shards between their own arrivals so batch release latency stays
        bounded by the gossip interval, not by the shard's arrival gaps.
        With no batch deadline and no event at or before ``t`` there is
        nothing to do, and a gossip tick returns at once."""
        if t >= self._batcher._next_deadline:
            for batch in self._batcher.due(t):
                self._push(batch.close, "dispatch", _Pending(batch))
        if self._events and self._events[0][0] <= t:
            self._drain(until=t)

    def finish(self) -> None:
        """Close remaining batches and run the event queue dry."""
        for batch in self._batcher.flush():
            self._push(batch.close, "dispatch", _Pending(batch))
        self._drain(until=None)

    def collect(self, requests: list[Request], *, rids=None,
                span: tuple[float, float] | None = None) -> FleetResult:
        """Assemble the result for ``requests`` after finish().

        The record table is sorted by rid in place and returned without
        a copy; a request with no record or with two, or a record of no
        request in ``requests``, raises
        :class:`~repro.errors.SimulationError` naming the rid.  A caller
        that already holds the requests' :func:`sorted_rids` and their
        ``(first, last)`` arrival passes them as ``rids`` and ``span``;
        otherwise both are computed from ``requests``.
        """
        records = self._records
        if rids is None:
            rids = sorted_rids(requests)
        if span is None:
            span = (min((r.arrival for r in requests), default=0.0),
                    max((r.arrival for r in requests), default=0.0))
        first, last_arrival = span
        sort_exactly_once(records, rids)
        last = served_finish((self._batches,), default=last_arrival)
        autoscale = None
        if self.autoscaler is not None:
            autoscale = self.autoscaler.result(records, last)
        return FleetResult(records=records, batches=self._batches,
                           chips=self.chips,
                           makespan=max(last - first, 0.0),
                           autoscale=autoscale)

    def run(self, requests: list[Request],
            on_progress=None, progress_every: int | None = None
            ) -> FleetResult:
        requests = sorted(requests, key=lambda r: (r.arrival, r.rid))
        # A repeated rid, or one outside int64, fails before simulating.
        rids = sorted_rids(requests)
        span = ((requests[0].arrival, requests[-1].arrival) if requests
                else (0.0, 0.0))
        self.begin()
        total = len(requests)
        if on_progress is not None and progress_every is None:
            progress_every = max(1, total // 20)
        arrived = 0
        for req in requests:
            self.step(req)
            arrived += 1
            if on_progress is not None and arrived % progress_every == 0:
                on_progress(self.snapshot(req.arrival, arrived, total))
        self.finish()
        if on_progress is not None:
            end = served_finish((self._batches,), default=span[1])
            on_progress(self.snapshot(end, total, total))
        return self.collect(requests, rids=rids, span=span)
