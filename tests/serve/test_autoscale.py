"""The simulated autoscaler: lifecycle, hysteresis, and inertness.

Structural tests drive the real fleet simulator through overload and
quiet phases and assert the lifecycle contract (warm-up before first
launch, drain-before-remove, cooldown spacing, bounds), plus the two
byte-identity guarantees: an autoscaler that never fires changes
nothing, and identical configs scale at identical instants.
"""

import math
import pytest

from repro.errors import ConfigError
from repro.serve.autoscale import SCALE_ACTIONS, AutoscaleConfig
from repro.serve.costmodel import ServiceCostTable
from repro.serve.failures import FailureWindow, scripted_timeline
from repro.serve.fleet import FleetSimulator, ServeConfig
from repro.serve.resilience import HealthMonitor, ResilienceConfig
from repro.serve.scenario import scenario_from_document
from repro.serve.workload import Request


def _table(max_batch=4):
    cycles = {("bp", 1, False): 1000.0, ("bp", 1, True): 1500.0,
              ("conv", 1, False): 500.0, ("conv", 1, True): 700.0}
    fc = {1: 100.0, 2: 150.0, 3: 190.0, 4: 220.0}
    for b, c in fc.items():
        cycles[("fc", b, False)] = c
        cycles[("fc", b, True)] = 2.0 * c
    return ServiceCostTable(
        cycles=cycles,
        model_bytes={"bp": 800, "conv": 400, "fc": 1600},
        tile_bytes={"bp": 80, "conv": 0, "fc": 0},
        quick=True,
        max_batch=max_batch,
    )


def _req(rid, arrival, kind="bp", tile=0):
    return Request(rid=rid, kind=kind, tile=tile, arrival=arrival)


def _autoscale(**kw):
    defaults = dict(min_chips=1, max_chips=3,
                    evaluate_interval_cycles=1000.0,
                    up_queue_per_chip=8.0, up_backlog_cycles=5000.0,
                    down_queue_max=1.0, idle_cycles=2000.0,
                    warmup_cycles=500.0, cooldown_cycles=2000.0)
    defaults.update(kw)
    return AutoscaleConfig(**defaults)


def _config(**kw):
    defaults = dict(chips=1, policy="least-loaded", max_batch=2,
                    max_wait_cycles=50.0, queue_capacity=64,
                    dispatch_overhead_cycles=10.0,
                    reload_bytes_per_cycle=8.0, slo_cycles=10_000.0,
                    autoscale=_autoscale())
    defaults.update(kw)
    return ServeConfig(**defaults)


def _burst_then_trickle():
    """30 back-to-back requests overload the 1-chip boot fleet, then a
    sparse tail keeps the clock ticking so drains can complete."""
    reqs = [_req(i, float(i) * 10.0) for i in range(30)]
    reqs += [_req(30 + i, 60_000.0 + i * 10_000.0) for i in range(10)]
    return reqs


class TestConfigValidation:
    def test_dotted_paths(self):
        with pytest.raises(ConfigError, match=r"autoscale\.min_chips"):
            AutoscaleConfig(min_chips=0)
        with pytest.raises(ConfigError, match=r"autoscale\.max_chips"):
            AutoscaleConfig(min_chips=4, max_chips=2)
        with pytest.raises(ConfigError,
                           match=r"autoscale\.evaluate_interval_cycles"):
            AutoscaleConfig(evaluate_interval_cycles=0.0)
        with pytest.raises(ConfigError,
                           match=r"autoscale\.up_backlog_cycles"):
            AutoscaleConfig(up_backlog_cycles=-1.0)
        with pytest.raises(ConfigError, match=r"autoscale\.max_step"):
            AutoscaleConfig(max_step=0)

    @pytest.mark.parametrize("value", (math.nan, math.inf))
    @pytest.mark.parametrize("field", (
        "evaluate_interval_cycles", "up_queue_per_chip", "up_backlog_cycles",
        "down_queue_max", "idle_cycles", "warmup_cycles", "cooldown_cycles"))
    def test_non_finite_knobs_are_rejected_naming_the_field(self, field,
                                                            value):
        with pytest.raises(ConfigError, match=(
                rf"^autoscale\.{field}: must be a finite number, "
                rf"got {value!r}$")):
            AutoscaleConfig(**{field: value})

    def test_validate_fleet_bounds(self):
        cfg = AutoscaleConfig(min_chips=2, max_chips=4)
        cfg.validate_fleet(3)
        with pytest.raises(ConfigError, match="below min_chips"):
            cfg.validate_fleet(1)
        with pytest.raises(ConfigError, match="above max_chips"):
            cfg.validate_fleet(5)

    def test_serve_config_cross_checks_boot_fleet(self):
        with pytest.raises(ConfigError, match="below min_chips"):
            _config(chips=1, autoscale=_autoscale(min_chips=2))


class TestScaleUp:
    def _run(self, **kw):
        sim = FleetSimulator(_config(**kw), _table(max_batch=2))
        result = sim.run(_burst_then_trickle())
        return sim, result

    def test_backlog_pressure_adds_chips(self):
        _, result = self._run()
        adds = [e for e in result.autoscale["events"]
                if e["action"] == "add"]
        assert adds, "sustained backlog must trigger scale-up"
        assert all(e["reason"] == "load" for e in adds)

    def test_bounds_respected(self):
        _, result = self._run()
        for e in result.autoscale["events"]:
            assert e["action"] in SCALE_ACTIONS
            assert e["active_after"] <= 3
            if e["action"] in ("drain", "remove"):
                assert e["active_after"] >= 1
        assert result.autoscale["peak_chips"] <= 3

    def test_warmup_gates_first_launch(self):
        sim, result = self._run()
        added = {c.chip_id: c for c in sim.chips if c.chip_id >= 1}
        assert added, "expected provisioned chips"
        for chip in added.values():
            assert chip.warm_at == chip.added_at + 500.0
            starts = [b.start for b in result.batches
                      if b.chip == chip.chip_id]
            assert all(s >= chip.warm_at for s in starts)

    def test_cooldown_spaces_decisions(self):
        _, result = self._run()
        decisions = [e["time"] for e in result.autoscale["events"]
                     if e["action"] in ("add", "drain")]
        for a, b in zip(decisions, decisions[1:]):
            assert b - a >= 2000.0

    def test_decisions_land_on_tick_grid(self):
        _, result = self._run()
        for e in result.autoscale["events"]:
            assert e["time"] % 1000.0 == 0.0


class TestDrainAndRemove:
    def _run(self):
        sim = FleetSimulator(_config(), _table(max_batch=2))
        return sim, sim.run(_burst_then_trickle())

    def test_idle_chips_drain_then_retire(self):
        sim, result = self._run()
        events = result.autoscale["events"]
        drains = [e for e in events if e["action"] == "drain"]
        removes = [e for e in events if e["action"] == "remove"]
        assert drains and removes
        assert all(e["reason"] == "idle" for e in drains)
        assert all(e["reason"] == "drained" for e in removes)
        for rm in removes:
            drain = next(e for e in drains if e["chip"] == rm["chip"])
            assert rm["time"] > drain["time"], \
                "removal must complete at a later tick than the drain"
            chip = sim.chips[rm["chip"]]
            assert chip.retired_at == rm["time"]

    def test_no_launch_finishes_after_retirement(self):
        sim, result = self._run()
        retired = {c.chip_id: c.retired_at for c in sim.chips
                   if c.retired_at is not None}
        assert retired
        for b in result.batches:
            if b.outcome == "served" and b.chip in retired:
                assert b.finish <= retired[b.chip]

    def test_boot_fleet_outlives_the_elastic_chips(self):
        sim, result = self._run()
        # LIFO drain: chip 0 (boot) never retires at min_chips=1.
        assert sim.chips[0].retired_at is None
        assert result.autoscale["final_active"] >= 1


class TestFailureReactivity:
    def test_dead_boot_chip_is_replaced(self):
        """Chip 0 fail-stops; its breaker opens, believed-alive drops
        below min_chips, and the autoscaler adds a replacement with
        reason "failure"."""
        timeline = scripted_timeline(1, {
            0: [FailureWindow("fail-stop", 600.0, 1e9)],
        })
        resilience = ResilienceConfig(
            health_check_interval_cycles=100.0,
            retry_backoff_cycles=10.0,
            breaker_failure_threshold=1,
            breaker_open_cycles=1e9)
        config = _config(resilience=resilience,
                         autoscale=_autoscale(max_chips=2))
        sim = FleetSimulator(config, _table(max_batch=2),
                             timeline=timeline)
        reqs = [_req(i, float(i) * 500.0) for i in range(12)]
        result = sim.run(reqs)
        failure_adds = [e for e in result.autoscale["events"]
                        if e["action"] == "add"
                        and e["reason"] == "failure"]
        assert failure_adds
        assert failure_adds[0]["chip"] == 1
        served_chips = {b.chip for b in result.batches
                        if b.outcome == "served"}
        assert 1 in served_chips, "replacement chip must take traffic"


class TestDeterminismAndInertness:
    def test_identical_configs_scale_identically(self):
        runs = []
        for _ in range(2):
            sim = FleetSimulator(_config(), _table(max_batch=2))
            result = sim.run(_burst_then_trickle())
            runs.append(result.autoscale["events"])
        assert runs[0] == runs[1]

    def test_pinned_autoscaler_is_byte_inert(self):
        """min_chips == max_chips == boot size: the autoscaler can never
        act, and every record matches the autoscale=None run exactly."""
        def records(autoscale):
            config = _config(chips=2, autoscale=autoscale)
            sim = FleetSimulator(config, _table(max_batch=2))
            result = sim.run(_burst_then_trickle())
            return [(r.rid, r.chip, r.dispatch, r.start, r.finish,
                     r.outcome) for r in result.records]
        pinned = _autoscale(min_chips=2, max_chips=2)
        assert records(pinned) == records(None)

    def test_a_chip_added_late_joins_the_health_checks_on_time(
            self, monkeypatch):
        """The fleet advances its health monitor only when a tick can
        move a breaker; an autoscaler tick brings it current before
        adding a chip, so the count of checks matches a monitor
        advanced at every event, chip by chip."""
        class Eager(HealthMonitor):
            def advance(self, t):
                super().advance(t)
                self.due_at = self.next_tick_at

        # Two bursts: the second comes after quiet health ticks.
        reqs = [_req(i, float(i) * 10.0) for i in range(30)]
        reqs += [_req(30 + i, 60_000.0 + i * 10_000.0) for i in range(10)]
        reqs += [_req(40 + i, 300_000.0 + i * 100.0) for i in range(60)]

        def checks(monitor):
            monkeypatch.setattr("repro.serve.fleet.core.HealthMonitor",
                                monitor)
            sim = FleetSimulator(_config(), _table(max_batch=2))
            result = sim.run(reqs)
            late = [e for e in result.autoscale["events"]
                    if e["action"] == "add" and e["time"] > 300_000.0]
            assert late, "the second burst must add a chip"
            sim.monitor.advance(1e6)
            return sim.monitor.checks

        assert checks(HealthMonitor) == checks(Eager)

    def test_rollup_shape(self):
        sim = FleetSimulator(_config(), _table(max_batch=2))
        result = sim.run(_burst_then_trickle())
        roll = result.autoscale
        for key in ("config", "events", "chips_added", "chips_removed",
                    "final_active", "peak_chips", "total_chips",
                    "chip_cycles_active", "slo_during_scale"):
            assert key in roll
        assert roll["chips_added"] == sum(
            1 for e in roll["events"] if e["action"] == "add")
        assert roll["chip_cycles_active"] > 0.0
        assert set(roll["slo_during_scale"]) == \
            {"served", "violations", "violation_rate"}


class TestScenarioWiring:
    def test_autoscale_section_converts_ms(self):
        scenario = scenario_from_document({
            "fleet": {"chips": 2},
            "autoscale": {"min_chips": 2, "max_chips": 6,
                          "evaluate_interval_ms": 0.04,
                          "warmup_ms": 0.08}})
        autoscale = scenario.serve.autoscale
        assert autoscale is not None
        assert autoscale.min_chips == 2
        assert autoscale.max_chips == 6
        assert autoscale.evaluate_interval_cycles == 50_000.0
        assert autoscale.warmup_cycles == 100_000.0

    def test_empty_section_enables_defaults(self):
        scenario = scenario_from_document({"autoscale": {}})
        assert scenario.serve.autoscale is not None
        assert scenario.serve.autoscale.min_chips == 1

    def test_absent_section_disables(self):
        scenario = scenario_from_document({})
        assert scenario.serve.autoscale is None

    def test_bad_knob_carries_scenario_path(self):
        with pytest.raises(ConfigError,
                           match=r"autoscale\.max_chips"):
            scenario_from_document(
                {"autoscale": {"min_chips": 4, "max_chips": 2}})
