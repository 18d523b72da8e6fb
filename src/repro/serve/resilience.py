"""The serving-side machinery that survives chip failures.

:mod:`repro.serve.failures` says what physically happens to the fleet;
this module is what the *scheduler* knows and does about it:

* **Health checks** — the monitor probes every chip on a fixed tick
  (``health_check_interval_cycles``), so a fail-stop is detected at the
  first tick after the failure plus ``detection_latency_cycles``, never
  instantly.  Checks can also lie: with ``health_false_positive_rate``
  a healthy chip is occasionally reported dead (drawn per ``(chip,
  tick)`` from a seeded stream, so the lie is reproducible).
* **Circuit breakers** — one per chip, fed by health checks and by
  failed launches.  ``closed`` chips take traffic; ``failure_threshold``
  consecutive bad observations *open* the breaker for
  ``breaker_open_cycles``; an open breaker then goes ``half-open`` and
  the next launch (or healthy tick) is the probe that closes it again —
  the repair/reintegration half of the lifecycle.
* **Retry policy** — killed launches are re-dispatched after the
  failure is *detected*, with exponential backoff per attempt, bounded
  by ``max_retries``; requests whose age exceeds
  ``retry_deadline_cycles`` at re-dispatch time are dropped as
  *expired* (deadline-aware backoff) rather than retried forever.
* **Hedging** — optional p99 defense: when a launch overruns its
  healthy-service estimate by ``hedge_delay_cycles``, a duplicate is
  launched on another chip; the first completion wins and the loser's
  burned cycles are accounted as hedge waste.
* **Load-shedding tiers** — when the believed-alive fraction of the
  fleet drops, the admission queue tightens through discrete capacity
  tiers so demand degrades gracefully instead of queueing unboundedly.

Everything here is a pure function of (config, failure timeline, event
order), so resilient runs are as bit-reproducible as healthy ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigError
from repro.knobs import check_knobs, count, number
from repro.faults.injector import stream_seed
from repro.trace.collector import NULL_TRACE, TraceSink

#: Circuit-breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


@dataclass(frozen=True)
class ResilienceConfig:
    """The scheduler-side knobs (all times in PE clock cycles)."""

    #: Health-check tick period; failure detection latency is the time
    #: to the next tick plus ``detection_latency_cycles``.
    health_check_interval_cycles: float = number(25_000.0, above=0)
    #: Extra latency between a health-check tick observing a failure and
    #: the scheduler acting on it.
    detection_latency_cycles: float = number(0.0, min=0)
    #: Probability a health check reports a *healthy* chip as failed
    #: (seeded per (chip, tick); opens the breaker like a real failure).
    health_false_positive_rate: float = number(0.0, min=0, max=1)
    #: Consecutive bad observations that open a chip's breaker.
    breaker_failure_threshold: int = count(1, min=1)
    #: How long an open breaker blocks traffic before going half-open.
    breaker_open_cycles: float = number(200_000.0, above=0)
    #: Re-dispatch budget per batch after fail-stop kills.
    max_retries: int = count(3, min=0)
    #: Backoff before re-dispatch attempt ``n``:
    #: ``retry_backoff_cycles * 2**(n-1)`` after detection.
    retry_backoff_cycles: float = number(5_000.0, min=0)
    #: A request older than this at re-dispatch time is dropped as
    #: deadline-expired instead of retried (1 ms at 1.25 GHz).
    retry_deadline_cycles: float = number(1_250_000.0, above=0)
    #: Hedging: launch a duplicate when a batch overruns its healthy
    #: service estimate by this much.  ``None`` disables hedging.
    hedge_delay_cycles: float | None = number(None, min=0, nullable=True)
    #: Load-shedding tiers: (alive_fraction_threshold, capacity_multiplier),
    #: highest threshold first; the first row whose threshold the
    #: believed-alive fraction meets sets the admission-queue capacity.
    shed_tiers: tuple = ((0.75, 1.0), (0.5, 0.5), (0.25, 0.25), (0.0, 0.125))

    def __post_init__(self):
        check_knobs(self, "resilience")
        # Cross-field coherence: a retry budget nobody can spend, or a
        # hedge timer that can never fire before the deadline, is a
        # configuration mistake, not a degenerate-but-valid setting.
        if self.retry_deadline_cycles <= self.retry_backoff_cycles:
            raise ConfigError(
                f"resilience.retry_deadline_cycles: must exceed "
                f"retry_backoff_cycles ({self.retry_backoff_cycles:g}); "
                f"got {self.retry_deadline_cycles:g} — every first retry "
                f"would already be past its deadline")
        if (self.hedge_delay_cycles is not None
                and self.hedge_delay_cycles >= self.retry_deadline_cycles):
            raise ConfigError(
                f"resilience.hedge_delay_cycles: must be below "
                f"retry_deadline_cycles ({self.retry_deadline_cycles:g}); "
                f"got {self.hedge_delay_cycles:g} — the hedge timer could "
                f"never fire before the request expires")
        last = math.inf
        for threshold, multiplier in self.shed_tiers:
            if not (0.0 <= threshold <= 1.0 and threshold < last):
                raise ConfigError(
                    f"resilience.shed_tiers: thresholds must be strictly "
                    f"descending and in [0, 1], got {threshold!r}")
            if not 0.0 < multiplier <= 1.0:
                raise ConfigError(
                    "resilience.shed_tiers: multipliers must be in (0, 1]")
            last = threshold

    def backoff_cycles(self, attempt: int) -> float:
        """Backoff before re-dispatch attempt ``attempt`` (1-based)."""
        return self.retry_backoff_cycles * 2.0 ** (attempt - 1)

    def tier_multiplier(self, alive_fraction: float) -> float:
        for threshold, multiplier in self.shed_tiers:
            if alive_fraction >= threshold:
                return multiplier
        return self.shed_tiers[-1][1] if self.shed_tiers else 1.0

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "shed_tiers":
                value = [list(tier) for tier in value]
            out[f.name] = value
        return out


#: Shared default: what a FailureConfig-enabled fleet runs unless told
#: otherwise.
DEFAULT_RESILIENCE = ResilienceConfig()


class CircuitBreaker:
    """Per-chip open/half-open/closed breaker.

    ``closed`` admits traffic and counts consecutive failures; at
    ``threshold`` it opens until ``now + open_cycles``.  An expired open
    breaker reports ``half-open`` from :meth:`allow`, admitting exactly
    the probe traffic that decides it: a success closes it, a failure
    re-opens it.  Transitions are traced as ``serve.breaker`` events.

    A breaker owned by a :class:`HealthMonitor` keeps the monitor's
    tallies exact on every change: ``open_count`` (breakers open) and
    ``unsettled`` (breakers not closed, plus breakers with a failure
    streak).
    """

    def __init__(self, chip_id: int, threshold: int, open_cycles: float,
                 trace: TraceSink = NULL_TRACE, monitor=None):
        self.chip_id = chip_id
        self.threshold = threshold
        self.open_cycles = open_cycles
        self.trace = trace if trace.enabled else None
        self.monitor = monitor
        self.state = CLOSED
        self.failures = 0
        self.open_until = 0.0
        self.opened_count = 0

    def _transition(self, state: str, now: float) -> None:
        if state == self.state:
            return
        if self.trace is not None:
            self.trace.serve("serve.breaker", state, now, 0.0, self.chip_id,
                             {"from": self.state, "to": state})
        monitor = self.monitor
        if monitor is not None:
            monitor.open_count += (state == OPEN) - (self.state == OPEN)
            monitor.unsettle((state != CLOSED) - (self.state != CLOSED))
        self.state = state

    def _set_failures(self, failures: int) -> None:
        if self.monitor is not None:
            self.monitor.unsettle((failures > 0) - (self.failures > 0))
        self.failures = failures

    def allow(self, now: float) -> bool:
        """May traffic be routed to this chip at ``now``?"""
        if self.state == OPEN and now >= self.open_until:
            self._transition(HALF_OPEN, now)
        return self.state != OPEN

    def record_failure(self, now: float) -> None:
        """One bad observation (failed health check or killed launch)."""
        if self.state == OPEN and now >= self.open_until:
            self._transition(HALF_OPEN, now)
        failures = self.failures + 1
        if self.state == HALF_OPEN or failures >= self.threshold:
            failures = 0
            self.open_until = now + self.open_cycles
            self.opened_count += 1
            self._transition(OPEN, now)
        self._set_failures(failures)

    def record_success(self, now: float) -> None:
        """One good observation (healthy check or completed launch)."""
        if self.state == OPEN and now >= self.open_until:
            self._transition(HALF_OPEN, now)
        if self.failures:
            self._set_failures(0)
        if self.state == HALF_OPEN:
            self._transition(CLOSED, now)


class HealthMonitor:
    """Periodic health checks feeding the per-chip breakers.

    :meth:`advance` lazily processes every tick up to the queried time,
    so belief state is always current when a scheduling decision is
    made, and tick processing order is a pure function of event order.

    Most ticks change nothing: every chip is up, every breaker closed
    with no failure streak, so each check's ``record_success`` is a
    no-op.  While that holds, and checks cannot lie
    (``health_false_positive_rate`` 0), :meth:`advance` covers the
    whole run of such ticks in one step, up to the first tick at or
    after the earliest fail-stop window start any chip can see next.
    Each chip's next start is cached from the last tick that found it
    up, so a quiet run costs O(1) and a monitor over an empty timeline
    queries it O(chips) times in all.  Any other tick runs the per-chip
    loop.

    :attr:`due_at` tells a caller when advancing can next move a
    breaker: the fleet advances its monitor only from then on, so with
    failures off it never does, and its ``checks`` count trails the
    clock by the quiet run it has not counted yet.  A caller that moves
    a breaker itself (a killed launch's detection) must have advanced
    the monitor to that time first; a detection never comes before
    :attr:`due_at`, since the fail-stop behind it starts at or after
    the horizon.
    """

    def __init__(self, config: ResilienceConfig, timeline, chips: int,
                 seed: int = 0, trace: TraceSink = NULL_TRACE):
        self.config = config
        self.timeline = timeline
        self.chips = chips
        self.seed = seed
        self._trace = trace
        #: Breakers open now; kept exact by the breakers themselves.
        self.open_count = 0
        #: Breakers not closed, plus breakers with a failure streak.
        self.unsettled = 0
        self.breakers = [self._breaker(c) for c in range(chips)]
        self._next_tick = 1  # tick 0 is at t=0: nothing has run yet
        #: When the next health-check tick is due: :meth:`advance` does
        #: nothing before it.
        self.next_tick_at = config.health_check_interval_cycles
        #: When a tick can next move a breaker: ``next_tick_at``, or the
        #: horizon while every breaker is settled and checks cannot lie
        #: (the ticks before it are quiet).
        self.due_at = self.next_tick_at
        self._quiet_checks = config.health_false_positive_rate <= 0.0
        self.checks = 0
        self.false_positives = 0
        #: chip -> its next fail-stop start, taken at the last tick that
        #: found it up (the chip is up until then); -inf until known.
        self._up_until = [-math.inf] * chips
        #: min(_up_until): no chip can be down at a tick before it.
        self._horizon = -math.inf

    def _breaker(self, chip: int) -> CircuitBreaker:
        return CircuitBreaker(chip, self.config.breaker_failure_threshold,
                              self.config.breaker_open_cycles, self._trace,
                              monitor=self)

    def add_chip(self) -> int:
        """Extend monitoring to a newly provisioned chip (autoscaler
        scale-up): its breaker starts closed and it joins every health
        tick from the next one on."""
        chip = self.chips
        self.chips += 1
        self.breakers.append(self._breaker(chip))
        self._up_until.append(-math.inf)
        self._horizon = -math.inf
        self.due_at = self.next_tick_at
        return chip

    def unsettle(self, delta: int) -> None:
        """Add ``delta`` to ``unsettled`` (breakers report here); while
        a breaker is unsettled every tick is due."""
        self.unsettled += delta
        if self.unsettled:
            self.due_at = self.next_tick_at

    def _false_positive(self, chip: int, tick: int) -> bool:
        rate = self.config.health_false_positive_rate
        if rate <= 0.0:
            return False
        rng = np.random.default_rng(
            stream_seed(self.seed, "serve-health", chip, tick))
        return bool(rng.random() < rate)

    def advance(self, t: float) -> None:
        """Process every health-check tick at or before ``t``."""
        quiet_checks = self._quiet_checks
        while self.next_tick_at <= t:
            if (quiet_checks and not self.unsettled
                    and self.next_tick_at < self._horizon):
                self._skip(t)
            else:
                self._tick()
        self.due_at = (max(self.next_tick_at, self._horizon)
                       if quiet_checks and not self.unsettled
                       else self.next_tick_at)

    def _skip(self, t: float) -> None:
        """Count the run of quiet ticks at or before ``t`` and before
        ``_horizon`` as checked.  The edges use the tick loop's own
        ``tick * interval`` comparisons, so float rounding cannot move
        a tick across either bound."""
        interval = self.config.health_check_interval_cycles
        horizon = self._horizon
        last = int(min(t, horizon) // interval)
        while (last + 1) * interval <= t and (last + 1) * interval < horizon:
            last += 1
        while last * interval > t or last * interval >= horizon:
            last -= 1
        self.checks += (last + 1 - self._next_tick) * self.chips
        self._next_tick = last + 1
        self.next_tick_at = self._next_tick * interval

    def _tick(self) -> None:
        """Check every chip once at the next tick."""
        interval = self.config.health_check_interval_cycles
        latency = self.config.detection_latency_cycles
        tick = self._next_tick
        self._next_tick += 1
        self.next_tick_at = self._next_tick * interval
        at = tick * interval
        up_until = self._up_until
        for chip in range(self.chips):
            self.checks += 1
            if self.timeline.down_at(chip, at) is not None:
                self.breakers[chip].record_failure(at + latency)
                continue
            if up_until[chip] <= at:
                up_until[chip] = self.timeline.next_fail_stop_start(chip, at)
            if self._false_positive(chip, tick):
                self.false_positives += 1
                self.breakers[chip].record_failure(at + latency)
            else:
                self.breakers[chip].record_success(at + latency)
        self._horizon = min(up_until, default=math.inf)

    def detect_time(self, fail_t: float) -> float:
        """When the scheduler learns about a failure at ``fail_t``: the
        next health-check tick, plus the detection latency."""
        interval = self.config.health_check_interval_cycles
        tick = math.floor(fail_t / interval) + 1
        return tick * interval + self.config.detection_latency_cycles

    def allow(self, chip: int, now: float) -> bool:
        return self.breakers[chip].allow(now)

    def alive_fraction(self, now: float) -> float:
        if not self.open_count:
            # Nothing is open, so allow() would change no breaker.
            return 1.0
        alive = sum(1 for b in self.breakers if b.allow(now))
        return alive / len(self.breakers)
