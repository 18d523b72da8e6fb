"""Breaker and health-monitor edge cases, pinned to exact traces.

The reintegration half of the breaker lifecycle is the risky part:
half-open is entered lazily (on the next observation after the open
window expires), a half-open probe failure must re-open *immediately*
(no threshold counting), and a health check's false positive must open
and then cleanly close the breaker once real checks disagree.  Every
transition time here is hand-derived.
"""

import pytest

from repro.errors import ConfigError
from repro.serve.failures import scripted_timeline
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthMonitor,
    ResilienceConfig,
)


class TestCircuitBreakerHalfOpen:
    """threshold=2, open_cycles=1000.

    Trace: failures at t=0 and t=10 open the breaker until 1010; the
    t=1010 probe admits traffic (half-open); a single failure at 1020
    re-opens immediately — half-open probes don't get the threshold's
    two strikes — until 2020; the t=2020 probe plus a success at 2030
    finally closes it.
    """

    def _breaker(self):
        return CircuitBreaker(chip_id=0, threshold=2, open_cycles=1000.0)

    def test_half_open_refailure_reopens_immediately(self):
        b = self._breaker()
        b.record_failure(0.0)
        assert b.state == CLOSED and b.failures == 1
        b.record_failure(10.0)
        assert b.state == OPEN
        assert b.open_until == 1010.0
        assert b.opened_count == 1

        assert not b.allow(500.0), "open window must block traffic"
        assert b.allow(1010.0), "expired window admits the probe"
        assert b.state == HALF_OPEN

        # ONE failure re-opens from half-open; threshold=2 not consulted.
        b.record_failure(1020.0)
        assert b.state == OPEN
        assert b.open_until == 2020.0
        assert b.opened_count == 2

        assert b.allow(2020.0)
        assert b.state == HALF_OPEN
        b.record_success(2030.0)
        assert b.state == CLOSED
        assert b.allow(2031.0)

    def test_success_resets_consecutive_count(self):
        b = self._breaker()
        b.record_failure(0.0)
        b.record_success(5.0)
        b.record_failure(10.0)
        assert b.state == CLOSED, \
            "non-consecutive failures must not open a threshold-2 breaker"
        assert b.failures == 1

    def test_lazy_half_open_via_record_failure(self):
        """An expired open breaker observed first by a *failure* goes
        half-open and immediately re-opens from the new instant."""
        b = self._breaker()
        b.record_failure(0.0)
        b.record_failure(1.0)
        assert b.open_until == 1001.0
        b.record_failure(5000.0)  # long after expiry; no allow() first
        assert b.state == OPEN
        assert b.open_until == 6000.0
        assert b.opened_count == 2


class TestHealthMonitorFalsePositive:
    """interval=100, threshold=1, open=150, fp_rate=0.3, seed=121.

    With seed 121 the (chip 0, tick) false-positive stream reads
    [True, False, False, ...] from tick 1 on, so: tick 1 (t=100) lies
    -> breaker opens until 250; tick 2 (t=200) is honest but the window
    hasn't expired, so the success only resets the count; tick 3
    (t=300) probes the half-open breaker and closes it.  One open
    total, service restored by t=300 with zero real failures.
    """

    def _monitor(self):
        config = ResilienceConfig(
            health_check_interval_cycles=100.0,
            breaker_failure_threshold=1,
            breaker_open_cycles=150.0,
            health_false_positive_rate=0.3)
        timeline = scripted_timeline(1, {})  # never actually down
        return HealthMonitor(config, timeline, chips=1, seed=121)

    def test_false_positive_opens_then_recovers(self):
        m = self._monitor()
        b = m.breakers[0]

        m.advance(100.0)  # tick 1: the lie
        assert m.false_positives == 1
        assert b.state == OPEN
        assert b.open_until == 250.0
        assert not m.allow(0, 150.0)

        m.advance(200.0)  # tick 2: honest, but window not expired
        assert m.false_positives == 1
        assert b.state == OPEN
        assert not m.allow(0, 240.0)

        m.advance(300.0)  # tick 3: probe + success -> closed
        assert b.state == CLOSED
        assert m.allow(0, 300.0)
        assert b.opened_count == 1
        assert m.checks == 3

    def test_alive_fraction_tracks_the_lie(self):
        m = self._monitor()
        m.advance(100.0)
        assert m.alive_fraction(150.0) == 0.0
        m.advance(300.0)
        assert m.alive_fraction(300.0) == 1.0

    def test_stream_is_reproducible(self):
        ticks = []
        for _ in range(2):
            m = self._monitor()
            m.advance(600.0)
            ticks.append((m.checks, m.false_positives,
                          m.breakers[0].opened_count))
        assert ticks[0] == ticks[1] == (6, 1, 1)


class TestResilienceConfigValidation:
    def test_deadline_must_exceed_backoff(self):
        with pytest.raises(ConfigError,
                           match=r"resilience\.retry_deadline_cycles: "
                                 r"must exceed retry_backoff_cycles"):
            ResilienceConfig(retry_backoff_cycles=5_000.0,
                             retry_deadline_cycles=5_000.0)

    def test_hedge_must_fire_before_deadline(self):
        with pytest.raises(ConfigError,
                           match=r"resilience\.hedge_delay_cycles: "
                                 r"must be below retry_deadline_cycles"):
            ResilienceConfig(retry_deadline_cycles=100_000.0,
                             hedge_delay_cycles=100_000.0)

    def test_dotted_paths_on_scalar_knobs(self):
        with pytest.raises(ConfigError,
                           match=r"resilience\.breaker_failure_threshold"):
            ResilienceConfig(breaker_failure_threshold=0)
        with pytest.raises(
                ConfigError,
                match=r"resilience\.health_false_positive_rate"):
            ResilienceConfig(health_false_positive_rate=1.5)
        with pytest.raises(ConfigError, match=r"resilience\.shed_tiers"):
            ResilienceConfig(shed_tiers=((0.5, 1.0), (0.75, 0.5)))

    @pytest.mark.parametrize("tiers, bad", [
        (((1.05, 0.5), (0.5, 0.25)), 1.05),
        (((0.5, 1.0), (0.5, 0.5)), 0.5),
        (((0.5, 1.0), (-0.1, 0.5)), -0.1),
    ])
    def test_shed_tier_thresholds_in_unit_interval_strictly_descending(
            self, tiers, bad):
        # A threshold above 1 used to pass, so a fleet with every chip
        # up (alive fraction 1.0) skipped it and admitted a quarter of
        # its queue.
        with pytest.raises(ConfigError,
                           match=rf"resilience\.shed_tiers: .*got {bad}"):
            ResilienceConfig(shed_tiers=tiers)

    def test_shed_tier_threshold_of_exactly_one_is_legal(self):
        config = ResilienceConfig(shed_tiers=((1.0, 1.0), (0.5, 0.25)))
        assert config.tier_multiplier(1.0) == 1.0
        assert config.tier_multiplier(0.99) == 0.25

    def test_backoff_is_exponential(self):
        config = ResilienceConfig(retry_backoff_cycles=100.0)
        assert [config.backoff_cycles(n) for n in (1, 2, 3, 4)] == \
            [100.0, 200.0, 400.0, 800.0]
