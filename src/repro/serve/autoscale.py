"""Deterministic simulated autoscaling for the serving fleet.

The autoscaler grows and shrinks the chip fleet *inside the simulation*,
reacting to the same observables a production autoscaler would watch —
admission-queue pressure and the health monitor's believed-alive count —
while modeling the costs real autoscalers pay:

* **Warm-up**: a provisioned chip serves nothing until
  ``warmup_cycles`` after the scale decision (program staging, model
  residency, link bring-up).
* **Drain-before-remove**: scale-down marks a chip *draining* (no new
  launches) and retires it at a later evaluation tick once idle — work
  in flight is never abandoned by a scale decision.
* **Cooldown hysteresis**: after any scale decision the autoscaler
  holds for ``cooldown_cycles`` before the next one, so a flash crowd
  produces a measured ramp instead of thrash.
* **Bounds**: the active fleet stays within ``[min_chips, max_chips]``.

Determinism: decisions are evaluated lazily on a fixed tick grid
(``evaluate_interval_cycles``), the same pattern as
:class:`~repro.serve.resilience.HealthMonitor` — every tick at or before
the current event time is processed, in order, when the simulator next
observes the clock.  A decision is a pure function of (tick time, queue
depth, chip states, breaker beliefs), no randomness anywhere, so
autoscaled runs are bit-reproducible and two identical configs scale at
identical instants.

Failure reactivity comes in two ways: an open breaker removes a chip
from the believed-alive count, which raises queue pressure per believed
chip (faster scale-up), and a believed-alive count below ``min_chips``
triggers a replacement add outright.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigError
from repro.knobs import check_knobs, count, number

#: Scale-event actions, in lifecycle order.
SCALE_ACTIONS = ("add", "drain", "remove")


@dataclass(frozen=True)
class AutoscaleConfig:
    """Autoscaler knobs (all times in PE clock cycles).

    Validation messages carry the dotted ``autoscale.<field>`` path
    (see :mod:`repro.knobs`).
    """

    #: The active fleet never shrinks below / grows above these.
    min_chips: int = count(1, min=1)
    max_chips: int = count(8, min=1)
    #: Decision tick period (see the determinism note above).
    evaluate_interval_cycles: float = number(50_000.0, above=0)
    #: Scale up when queued requests per believed-alive active chip
    #: reach this.
    up_queue_per_chip: float = number(8.0, above=0)
    #: ... or when the mean committed-work backlog per believed-alive
    #: chip reaches this many cycles.  Chips take batches the moment
    #: they are dispatched, so sustained overload shows up as
    #: ``free_at`` running ahead of the clock, not as queued requests.
    up_backlog_cycles: float = number(100_000.0, above=0)
    #: Scale down only while total queue depth is at or below this.
    down_queue_max: float = number(1.0, min=0)
    #: A chip must have been idle this long before it may drain.
    idle_cycles: float = number(100_000.0, min=0)
    #: Provisioned chips serve nothing for this long after the decision.
    warmup_cycles: float = number(50_000.0, min=0)
    #: Hold-off between consecutive scale decisions (hysteresis).
    cooldown_cycles: float = number(200_000.0, min=0)
    #: Chips added per scale-up decision.
    max_step: int = count(1, min=1)

    def __post_init__(self):
        check_knobs(self, "autoscale")
        if self.max_chips < self.min_chips:
            raise ConfigError(
                f"autoscale.max_chips: must be >= min_chips "
                f"({self.min_chips}), got {self.max_chips}")

    def validate_fleet(self, chips: int) -> None:
        """Cross-check against the boot-time fleet size."""
        if chips < self.min_chips:
            raise ConfigError(
                f"autoscale.min_chips: boot fleet has {chips} chips, "
                f"below min_chips {self.min_chips}")
        if chips > self.max_chips:
            raise ConfigError(
                f"autoscale.max_chips: boot fleet has {chips} chips, "
                f"above max_chips {self.max_chips}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision (or drain completion)."""

    time: float
    #: "add" (provision), "drain" (stop feeding), "remove" (retire).
    action: str
    chip: int
    #: "load" (queue pressure), "failure" (believed-alive below the
    #: floor), "idle" (scale-down), "drained" (removal after drain).
    reason: str
    #: Active (non-draining, non-retired) chips after this event.
    active_after: int

    def as_dict(self) -> dict:
        return {"time": self.time, "action": self.action,
                "chip": self.chip, "reason": self.reason,
                "active_after": self.active_after}


class Autoscaler:
    """Tick-evaluated scale decisions over a live fleet simulation.

    Owned by :class:`~repro.serve.fleet.core.FleetSimulator`, which
    calls :meth:`advance` wherever it advances the health monitor.  The
    autoscaler mutates fleet state only through the simulator's
    ``provision_chip`` hook and the per-chip ``draining``/``retired_at``
    lifecycle fields; everything else is observation.
    """

    def __init__(self, config: AutoscaleConfig, fleet):
        self.config = config
        self.fleet = fleet
        self.events: list[ScaleEvent] = []
        self._next_tick = 1
        self._last_decision: float | None = None

    # -- observation ---------------------------------------------------

    def active_chips(self) -> list:
        return [c for c in self.fleet.chips
                if c.retired_at is None and not c.draining]

    def _believed_alive(self, chips: list) -> int:
        # Read breaker state directly: allow() would advance an expired
        # open breaker as a side effect.
        breakers = self.fleet.monitor.breakers
        return sum(1 for c in chips if breakers[c.chip_id].state != "open")

    def _queue_depth(self) -> int:
        queue = self.fleet._queue
        return queue.waiting if queue is not None else 0

    def _backlog_per_chip(self, at: float, chips: list) -> float:
        """Mean committed-work backlog (cycles) per active chip.

        A warming chip's backlog is measured past its warm-up point, so
        freshly added capacity never reads as load itself.
        """
        if not chips:
            return 0.0
        backlog = sum(max(0.0, c.free_at - max(at, c.warm_at))
                      for c in chips)
        return backlog / len(chips)

    # -- the decision loop ---------------------------------------------

    def advance(self, t: float) -> None:
        """Process every evaluation tick at or before ``t``, in order.
        Health ticks through ``t`` come first, as in the fleet's event
        order, so a chip added here joins the monitor at ``t``."""
        interval = self.config.evaluate_interval_cycles
        if self._next_tick * interval <= t:
            self.fleet.monitor.advance(t)
        while self._next_tick * interval <= t:
            at = self._next_tick * interval
            self._next_tick += 1
            self._evaluate(at)

    def _evaluate(self, at: float) -> None:
        self._finish_drains(at)
        cfg = self.config
        if self._last_decision is not None \
                and at - self._last_decision < cfg.cooldown_cycles:
            return
        active = self.active_chips()
        believed = self._believed_alive(active)
        depth = self._queue_depth()
        if len(active) < cfg.max_chips:
            if believed < cfg.min_chips:
                self._scale_up(at, "failure")
                return
            backlog = self._backlog_per_chip(at, active)
            if depth >= cfg.up_queue_per_chip * max(believed, 1) \
                    or backlog >= cfg.up_backlog_cycles:
                self._scale_up(at, "load")
                return
        if depth <= cfg.down_queue_max and len(active) > cfg.min_chips:
            self._scale_down(at, active)

    def _finish_drains(self, at: float) -> None:
        """Retire draining chips that have gone idle (drain completes
        one tick or more after the drain decision, never instantly)."""
        for chip in self.fleet.chips:
            if chip.draining and chip.retired_at is None \
                    and chip.free_at <= at:
                chip.retired_at = at
                self.events.append(ScaleEvent(
                    time=at, action="remove", chip=chip.chip_id,
                    reason="drained",
                    active_after=len(self.active_chips())))

    def _scale_up(self, at: float, reason: str) -> None:
        cfg = self.config
        room = cfg.max_chips - len(self.active_chips())
        for _ in range(min(cfg.max_step, room)):
            chip = self.fleet.provision_chip(at, at + cfg.warmup_cycles)
            self.events.append(ScaleEvent(
                time=at, action="add", chip=chip.chip_id, reason=reason,
                active_after=len(self.active_chips())))
        self._last_decision = at

    def _scale_down(self, at: float, active: list) -> None:
        cfg = self.config
        # LIFO: drain the youngest (highest-id) idle chip, so the boot
        # fleet is the last to go and chip ids stay compact.
        for chip in sorted(active, key=lambda c: -c.chip_id):
            if chip.free_at <= at and at - chip.free_at >= cfg.idle_cycles \
                    and at >= chip.warm_at:
                chip.draining = True
                self.events.append(ScaleEvent(
                    time=at, action="drain", chip=chip.chip_id,
                    reason="idle",
                    active_after=len(self.active_chips())))
                self._last_decision = at
                return

    # -- rollup --------------------------------------------------------

    def result(self, records, end: float) -> dict:
        """The run's autoscale rollup for reports and metrics, from the
        columns of the fleet's record table ``records``."""
        cfg = self.config
        chips = self.fleet.chips
        chip_cycles = sum(
            max(0.0, (c.retired_at if c.retired_at is not None else end)
                - c.added_at)
            for c in chips)
        scale_times = [e.time for e in self.events
                       if e.action in ("add", "drain")]
        served = records.matches("outcome", "served")
        finish = records.column("finish", served)
        in_window = np.zeros(len(finish), dtype=bool)
        for t in scale_times:
            in_window |= (t <= finish) & (finish <= t + cfg.cooldown_cycles)
        latency = (finish[in_window]
                   - records.column("arrival", served)[in_window])
        during = len(latency)
        violations = int((latency > self.fleet.config.slo_cycles).sum())
        return {
            "config": cfg.as_dict(),
            "events": [e.as_dict() for e in self.events],
            "chips_added": sum(1 for e in self.events
                               if e.action == "add"),
            "chips_removed": sum(1 for e in self.events
                                 if e.action == "remove"),
            "final_active": len(self.active_chips()),
            "peak_chips": max([self.fleet.config.chips]
                              + [e.active_after for e in self.events
                                 if e.action == "add"]),
            "total_chips": len(chips),
            "chip_cycles_active": chip_cycles,
            "slo_during_scale": {
                "served": during,
                "violations": violations,
                "violation_rate": (violations / during
                                   if during else 0.0),
            },
        }
