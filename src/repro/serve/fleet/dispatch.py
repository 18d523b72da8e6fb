"""The dispatch/policy half of the fleet simulator.

Everything that decides *where work goes and what happens to a launch* —
scheduling-policy primitives and their decision-tree contexts, chip
picking, launch math, and kill/retry/hedge resolution.  One dispatch
path serves every fleet: with failures off its failure checks find
nothing to act on.  The event loop that drives these methods lives in
:mod:`repro.serve.fleet.core`;
:class:`DispatchMixin` is mixed into
:class:`~repro.serve.fleet.core.FleetSimulator`.

Scheduling decisions flow through one callable resolved at construction
time: a built-in (leaf) policy binds its primitive method directly, a
decision tree (see :mod:`repro.serve.policy`) is compiled once and
evaluated against a small observable context per decision.  The default
configuration therefore runs the pre-engine string policies with zero
added indirection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.batcher import Batch
from repro.serve.workload import KINDS, Request


@dataclass
class _Pending:
    """A batch awaiting re-dispatch: the attempt it is on and the chips
    it must avoid.  A first dispatch carries the bare batch."""

    batch: Batch
    attempt: int
    excluded: frozenset


@dataclass
class _InFlight:
    """A launched batch whose hedge timer is armed (resolution deferred)."""

    batch: Batch
    attempt: int
    chip: object  # ChipState
    start: float
    finish: float
    reload: float


class DispatchMixin:
    """Scheduling, launch, and failure-resolution methods of the fleet."""

    #: Cluster failover hook: called with (requests, attempt, now) when
    #: work is about to expire; returns the subset that still expires
    #: locally (the cluster takes the rest for cross-shard re-dispatch).
    #: None — the default — expires it all locally.
    on_expire = None
    #: Cluster-scope observables injected by the cluster router at each
    #: gossip refresh (None when running standalone).
    _cluster_ctx = None

    # -- scheduling primitives -----------------------------------------

    def _pick_round_robin(self, batch: Batch, candidates: list):
        chip = candidates[self._rr % len(candidates)]
        self._rr += 1
        return chip

    def _pick_least_loaded(self, batch: Batch, candidates: list):
        # Candidates are in chip-id order and only an earlier free time
        # displaces the pick, so ties go to the lower chip id.
        best = candidates[0]
        free_at = best.free_at
        for chip in candidates:
            if chip.free_at < free_at:
                best, free_at = chip, chip.free_at
        return best

    def _pick_locality(self, batch: Batch, candidates: list):
        # Earliest *finish*, reload penalty included.  The estimate uses
        # the chip's *known* (static-degraded) column — the scheduler
        # has no oracle for transient/slow windows.
        def finish_key(c):
            start = max(batch.close, c.free_at)
            service = (self._reload_cycles(c, batch)
                       + self.config.dispatch_overhead_cycles
                       + self._launch_cycles(batch.kind, batch.size,
                                             c.degraded))
            return (start + service, c.free_at, c.chip_id)
        return min(candidates, key=finish_key)

    def _schedule_primitive(self, name: str):
        return {"round-robin": self._pick_round_robin,
                "least-loaded": self._pick_least_loaded,
                "locality": self._pick_locality}[name]

    # -- decision-tree contexts ----------------------------------------

    def _alive_fraction_belief(self) -> float:
        """Believed-alive fleet fraction from the monitor's exact open
        count, read-only (``allow`` would advance expired open
        breakers)."""
        monitor = self.monitor
        chips = len(monitor.breakers)
        return (chips - monitor.open_count) / chips if chips else 1.0

    def _slo_headroom(self, now: float) -> float:
        """Fraction of the SLO budget the oldest waiting request still
        has (1.0 with nothing waiting; negative once the oldest resident
        has already blown the SLO).  A leading pressure signal: it drops
        *before* served-latency percentiles do."""
        queue = self._queue
        oldest = queue.batcher.oldest() if queue is not None else None
        if oldest is None:
            return 1.0
        return 1.0 - (now - oldest.arrival) / self.config.slo_cycles

    def _ctx_common(self, now: float) -> dict:
        """Observables shared by every decision slot."""
        queue = self._queue
        headroom = self._slo_headroom(now)
        cluster = self._cluster_ctx
        return {
            "queue.depth": queue.waiting if queue is not None else 0,
            "queue.capacity": (queue.capacity if queue is not None
                               else self.config.queue_capacity),
            **{f"queue.kind_depth.{k}":
               (queue.kind_depth(k) if queue is not None else 0)
               for k in KINDS},
            "fleet.chips": len(self._dispatchable()),
            "fleet.alive_fraction": self._alive_fraction_belief(),
            "fleet.slo_headroom": headroom,
            # Cluster scope: identical to the fleet values when the
            # fleet runs standalone (a cluster of one, in effect).
            "shard.slo_headroom": headroom,
            "cluster.alive_shard_fraction": (
                cluster["cluster.alive_shard_fraction"]
                if cluster is not None else 1.0),
        }

    def _decision_ctx(self, batch: Batch, now: float, attempt: int) -> dict:
        """Observables for a schedule/retry/hedge tree evaluation."""
        return {
            "now": now,
            "attempt": attempt,
            "batch.kind": batch.kind,
            "batch.size": batch.size,
            "batch.tile": batch.tile if batch.tile is not None else -1,
            "batch.age": now - batch.close,
            **self._ctx_common(now),
        }

    def _shed_ctx(self, request: Request) -> dict:
        """Observables for an admission-overflow shed-tree evaluation."""
        return {
            "now": request.arrival,
            "request.kind": request.kind,
            "request.tile": request.tile if request.tile is not None else -1,
            **self._ctx_common(request.arrival),
        }

    # -- scheduling ----------------------------------------------------

    def _reload_cycles(self, chip, batch: Batch) -> float:
        if chip.resident_kind != batch.kind:
            bytes_ = self.costs.model_bytes[batch.kind]
        elif (batch.kind in ("bp", "gibbs")
                and chip.resident_tile != batch.tile):
            # Both MRF kinds are tile-stateful: message state (bp) or
            # sampler state (gibbs) lives with the resident tile.
            bytes_ = self.costs.tile_bytes[batch.kind]
        else:
            return 0.0
        return bytes_ / self.config.reload_bytes_per_cycle

    def _pick_chip(self, batch: Batch, now: float,
                   excluded: frozenset = frozenset(), attempt: int = 0):
        """Route ``batch`` to a dispatchable chip that its breaker admits
        and ``excluded`` does not name; None when there is none.

        ``self._schedule_fn`` was resolved once at construction: bound
        primitive for a leaf policy, None for a decision tree (which is
        evaluated here against the observable context).
        """
        monitor = self.monitor
        if monitor.unsettled or excluded:
            candidates = [c for c in self._dispatchable()
                          if c.chip_id not in excluded
                          and monitor.allow(c.chip_id, now)]
            if not candidates:
                return None
        else:
            # Every breaker is closed with no failure streak, so allow()
            # would admit every chip and change nothing.
            candidates = self._dispatchable()
        fn = self._schedule_fn
        if fn is None:
            fn = self._schedule_primitive(self.engine.schedule.fn(
                self._decision_ctx(batch, now, attempt)))
        return fn(batch, candidates)

    # -- launch math ---------------------------------------------------

    def _launch_cycles(self, kind: str, size: int, degraded: bool) -> float:
        """``costs.launch_cycles``, memoized per (kind, size, degraded):
        the cost table is frozen, so each shape is priced once."""
        key = (kind, size, degraded)
        cycles = self._cycles.get(key)
        if cycles is None:
            cycles = self._cycles[key] = self.costs.launch_cycles(
                kind, size, degraded)
        return cycles

    def _healthy_estimate(self, chip, batch: Batch, reload: float) -> float:
        """The scheduler's service expectation (its hedging baseline)."""
        return (reload + self.config.dispatch_overhead_cycles
                + self._launch_cycles(batch.kind, batch.size, chip.degraded))

    def _launch(self, chip, batch: Batch, t: float) -> tuple:
        """Compute one launch on ``chip`` starting no earlier than ``t``:
        returns (start, finish, reload, kill).  A transient window serves
        it from the degraded column, a fail-slow one stretches it, and
        ``kill`` is the fail-stop window that kills it (or None)."""
        start = max(batch.close, chip.free_at, t)
        reload = self._reload_cycles(chip, batch)
        # Chips no window of a kind can reach answer "healthy" without a
        # query (a factor of 1.0 leaves service as is).
        chip_id = chip.chip_id
        windowed = chip_id in self._windowed_chips
        degraded = chip.degraded or (
            windowed and chip_id in self._transient_chips
            and self.timeline.transient_at(chip_id, start))
        service = (reload + self.config.dispatch_overhead_cycles
                   + self._launch_cycles(batch.kind, batch.size, degraded))
        if not windowed:
            return start, start + service, reload, None
        if chip_id in self._fail_slow_chips:
            service *= self.timeline.slow_factor_at(chip_id, start)
        finish = start + service
        kill = (self.timeline.fail_stop_in(chip_id, start, finish)
                if chip_id in self._fail_stop_chips else None)
        return start, finish, reload, kill

    # -- resolution ----------------------------------------------------

    def _finalize(self, batch: Batch, attempt: int, chip,
                  start: float, finish: float, reload: float,
                  hedge: bool = False, hedged: bool = False) -> None:
        """Commit a successful launch: records, accounting, traces."""
        bid = self._launches
        self._launches = bid + 1
        service = finish - start
        chip_id, size, close = chip.chip_id, batch.size, batch.close
        chip.busy_cycles += service
        chip.reload_cycles += reload
        chip.batches += 1
        chip.requests += size
        self._batches.add(bid, batch.kind, size, chip_id, close, start,
                          finish, reload, attempt, "served", 0.0, hedge)
        # Launch ids number the launch table's rows, so each request's
        # record references row ``bid`` for its launch fields.
        self._records.add_each(batch.requests, bid, hedged)
        if not self._breakers_fixed:
            self._push(finish, "breaker-ok", chip_id)
        if self.trace is not None:
            self.trace.serve("serve.batch", f"{batch.kind}x{batch.size}",
                             start, service, chip.chip_id,
                             {"kind": batch.kind, "size": batch.size,
                              "batch_id": bid, "reload": reload})
            for req in batch.requests:
                self.trace.serve("serve.request", req.kind, req.arrival,
                                 finish - req.arrival, chip.chip_id,
                                 {"rid": req.rid, "tile": req.tile,
                                  "batch_id": bid})

    def _record_waste(self, batch: Batch, attempt: int, chip,
                      start: float, cancel: float, reload: float,
                      outcome: str, hedge: bool,
                      finish: float | None = None) -> float:
        """Account a killed or cancelled launch; returns the waste.

        ``finish`` is the launch's originally committed finish: the chip
        is released back to the cancel point only when this launch was
        still its tail.  Launches queued behind it kept their committed
        schedule, so rolling ``free_at`` past them would let the chip
        appear idle while work is outstanding (and run launches
        concurrently with itself).
        """
        waste = max(cancel - start, 0.0)
        if finish is None or chip.free_at == finish:
            chip.free_at = max(min(chip.free_at, cancel), start)
        chip.busy_cycles += waste
        if outcome == "hedge-loser":
            chip.reload_cycles += reload
        else:
            chip.kills += 1
        self._batches.add(self._launches, batch.kind, batch.size,
                          chip.chip_id, batch.close, start, cancel, reload,
                          attempt, outcome, waste, hedge)
        self._launches += 1
        return waste

    def _expire(self, requests, close: float, attempt: int,
                now: float) -> None:
        """Record ``requests`` (some of one batch) as expired."""
        if self.on_expire is not None:
            requests = self.on_expire(requests, attempt, now)
            if not requests:
                return
        self._records.add_rest(requests, False, -1, -1, 0, close, 0.0, 0.0,
                               "expired", attempt, False)
        if self.trace is not None:
            for req in requests:
                self.trace.serve("serve.expired", req.kind, now, 0.0, -1,
                                 {"rid": req.rid, "tile": req.tile,
                                  "attempt": attempt})

    # -- dispatch ------------------------------------------------------

    def _execute_dispatch(self, batch: Batch, t: float, attempt: int = 0,
                          excluded: frozenset = frozenset()) -> None:
        """Launch ``batch`` at ``t``: a first dispatch, or re-dispatch
        ``attempt`` avoiding the chips ``excluded``."""
        # Deadline-aware: drop requests too old to be worth retrying.
        # The first request is the batch's oldest, so when it may still
        # launch, every request may.
        if batch.requests[0].arrival + self.retry_deadline <= t:
            deadline = self.retry_deadline
            alive = [r for r in batch.requests if r.arrival + deadline > t]
            gone = [r for r in batch.requests if r not in alive]
            self._expire(gone, batch.close, attempt, t)
            if not alive:
                return
            batch = Batch(batch.kind, alive, batch.close)
        if attempt and self.trace is not None:
            self.trace.serve("serve.retry", batch.kind, t, 0.0, -1,
                             {"kind": batch.kind, "size": batch.size,
                              "attempt": attempt})
        chip = self._pick_chip(batch, t, excluded, attempt)
        if chip is None:
            if excluded:
                # Every non-excluded chip is breaker-blocked; retrying
                # the observed-failing chip beats waiting out the fleet.
                chip = self._pick_chip(batch, t, attempt=attempt)
            if chip is None:
                # Whole fleet believed down: wait one health interval
                # and re-check (requests age out via the deadline).
                self._push(
                    t + self.resilience.health_check_interval_cycles,
                    "redispatch", _Pending(batch, attempt, frozenset()))
                return
        start, finish, reload, kill = self._launch(chip, batch, t)
        chip.free_at = finish
        chip.resident_kind = batch.kind
        chip.resident_tile = batch.tile
        if kill is not None:
            self._kill(batch, attempt, excluded, chip, start, finish, reload,
                       kill)
            return
        delay = self.resilience.hedge_delay_cycles
        if delay is not None and self._hedge_wanted(batch, t, attempt):
            hedge_at = (start + self._healthy_estimate(chip, batch, reload)
                        + delay)
            if hedge_at < finish:
                self._push(hedge_at, "hedge",
                           _InFlight(batch=batch, attempt=attempt,
                                     chip=chip, start=start, finish=finish,
                                     reload=reload))
                return
        self._finalize(batch, attempt, chip, start, finish, reload)

    def _hedge_wanted(self, batch: Batch, now: float, attempt: int) -> bool:
        """The hedge slot's decision (built-in: always hedge when the
        delay knob is set — the exact legacy behavior)."""
        decision = self.engine.hedge
        if decision.leaf is not None:
            return decision.leaf == "hedge"
        ctx = self._decision_ctx(batch, now, attempt)
        return decision.fn(ctx) == "hedge"

    def _retry_wanted(self, batch: Batch, now: float, attempt: int) -> bool:
        """The retry slot's decision for re-dispatch ``attempt``
        (built-in: ``attempt <= max_retries`` — the legacy budget)."""
        decision = self.engine.retry
        if decision.leaf is not None:
            return decision.leaf == "retry"
        ctx = self._decision_ctx(batch, now, attempt)
        return decision.fn(ctx) == "retry"

    def _kill(self, batch: Batch, attempt: int, excluded: frozenset, chip,
              start: float, finish: float, reload: float, kill) -> None:
        """A fail-stop caught launch ``attempt`` of ``batch``: account,
        detect, retry."""
        res = self.resilience
        kill_t = max(start, kill.start)
        waste = self._record_waste(batch, attempt, chip, start,
                                   kill_t, reload, "killed", hedge=False,
                                   finish=finish)
        detect = self.monitor.detect_time(kill_t)
        self._push(detect, "breaker-fail", chip.chip_id)
        if self.trace is not None:
            self.trace.serve("serve.failure", batch.kind, kill_t, 0.0,
                             chip.chip_id,
                             {"kind": batch.kind, "size": batch.size,
                              "attempt": attempt, "waste": waste,
                              "detect": detect})
        if not self._retry_wanted(batch, kill_t, attempt + 1):
            self._expire(batch.requests, batch.close, attempt, kill_t)
            return
        self.retry_count += 1
        retry_t = detect + res.backoff_cycles(attempt + 1)
        self._push(retry_t, "redispatch",
                   _Pending(batch, attempt + 1, excluded | {chip.chip_id}))

    def _execute_hedge(self, flight: _InFlight, t: float) -> None:
        """The hedge timer fired: race a duplicate launch if one helps."""
        batch, primary = flight.batch, flight.chip
        hchip = self._pick_chip(batch, t, frozenset({primary.chip_id}),
                                flight.attempt)
        if hchip is None:
            self._finalize(batch, flight.attempt, primary, flight.start,
                           flight.finish, flight.reload)
            return
        h_start, h_finish, h_reload, h_kill = self._launch(hchip, batch, t)
        if h_start >= flight.finish:
            # The hedge could not even start before the primary finishes.
            self._finalize(batch, flight.attempt, primary, flight.start,
                           flight.finish, flight.reload)
            return
        self.hedge_count += 1
        hchip.free_at = h_finish
        hchip.resident_kind = batch.kind
        hchip.resident_tile = batch.tile
        if self.trace is not None:
            self.trace.serve("serve.hedge", batch.kind, h_start, 0.0,
                             hchip.chip_id,
                             {"kind": batch.kind, "size": batch.size,
                              "primary": primary.chip_id})
        if h_kill is not None:
            # The hedge died; the primary (which we know completes)
            # carries the batch.  The dead hedge chip is detected as any
            # other fail-stop.
            kill_t = max(h_start, h_kill.start)
            self._record_waste(batch, flight.attempt, hchip, h_start,
                               kill_t, h_reload, "killed", hedge=True,
                               finish=h_finish)
            self._push(self.monitor.detect_time(kill_t), "breaker-fail",
                       hchip.chip_id)
            self._finalize(batch, flight.attempt, primary, flight.start,
                           flight.finish, flight.reload, hedged=True)
            return
        if h_finish < flight.finish:
            # Hedge wins; cancel the primary at the winner's finish.
            self._record_waste(batch, flight.attempt, primary, flight.start,
                               h_finish, flight.reload, "hedge-loser",
                               hedge=False, finish=flight.finish)
            self._finalize(batch, flight.attempt, hchip, h_start, h_finish,
                           h_reload, hedge=True, hedged=True)
        else:
            # Primary wins; cancel the hedge when the primary finishes.
            cancel = min(h_finish, flight.finish)
            self._record_waste(batch, flight.attempt, hchip, h_start,
                               cancel, h_reload, "hedge-loser", hedge=True,
                               finish=h_finish)
            self._finalize(batch, flight.attempt, primary, flight.start,
                           flight.finish, flight.reload, hedged=True)

    def _shed(self, request: Request, now: float) -> None:
        self._records.add(request.rid, request.kind, request.tile,
                          request.arrival, True, -1, -1, 0, now, 0.0, 0.0,
                          "shed", 0, False)
        if self.trace is not None:
            self.trace.serve("serve.shed", request.kind, now, 0.0, -1,
                             {"rid": request.rid, "tile": request.tile})
