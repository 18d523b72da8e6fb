"""Units for the failure lifecycle, circuit breaker, and health monitor."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.faults.injector import stream_seed
from repro.serve.failures import (
    FAILURE_KINDS,
    ChipFailureTimeline,
    FailureConfig,
    FailureWindow,
    scripted_timeline,
)
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthMonitor,
    ResilienceConfig,
)
from repro.trace.collector import TraceCollector


class TestFailureConfig:
    def test_disabled_by_default(self):
        assert not FailureConfig().enabled

    def test_enabled_when_any_chip_listed(self):
        assert FailureConfig(fail_stop_chips=(0,)).enabled
        assert FailureConfig(fail_slow_chips=(1,)).enabled
        assert FailureConfig(transient_chips=(2,)).enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            FailureConfig(fail_stop_mtbf_cycles=0.0)
        with pytest.raises(ConfigError):
            FailureConfig(fail_slow_factor=0.5)
        with pytest.raises(ConfigError):
            FailureConfig(fail_stop_chips=(-1,))
        with pytest.raises(ConfigError):
            FailureConfig(transient_chips=(4,)).validate_chips(4)

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("field", (
        "fail_stop_mtbf_cycles", "repair_mean_cycles",
        "fail_slow_mtbf_cycles", "fail_slow_duration_cycles",
        "fail_slow_factor", "transient_mtbf_cycles",
        "transient_duration_cycles", "domain_mtbf_cycles",
        "domain_repair_mean_cycles", "domain_slow_factor"))
    def test_non_finite_fields_are_named(self, field, value):
        # NaN passes every bound check, so failures would never fire.
        with pytest.raises(ConfigError,
                           match=rf"failures\.{field}: must be a finite"):
            FailureConfig(fail_stop_chips=(0,), **{field: value})

    def test_as_dict_round_trips_tuples(self):
        d = FailureConfig(fail_stop_chips=(0, 2)).as_dict()
        assert d["fail_stop_chips"] == [0, 2]
        assert d["seed"] == 0


class TestTimeline:
    def test_query_order_never_changes_the_schedule(self):
        config = FailureConfig(seed=5, fail_stop_chips=(0, 1),
                               fail_stop_mtbf_cycles=10_000.0,
                               repair_mean_cycles=3_000.0)
        a = ChipFailureTimeline(config, 2)
        b = ChipFailureTimeline(config, 2)
        # a walks forward; b jumps straight to the horizon, then back.
        probes = [0.0, 5_000.0, 20_000.0, 80_000.0]
        seen_a = [a.down_at(0, t) for t in probes]
        seen_b = [b.down_at(0, t) for t in reversed(probes)][::-1]
        assert seen_a == seen_b
        assert a.down_at(1, 50_000.0) == b.down_at(1, 50_000.0)

    def test_streams_are_independent_per_chip_and_mode(self):
        config = FailureConfig(seed=5, fail_stop_chips=(0, 1),
                               fail_slow_chips=(0,),
                               fail_stop_mtbf_cycles=10_000.0,
                               repair_mean_cycles=3_000.0)
        solo = FailureConfig(seed=5, fail_stop_chips=(0, 1),
                             fail_stop_mtbf_cycles=10_000.0,
                             repair_mean_cycles=3_000.0)
        both = ChipFailureTimeline(config, 2)
        only = ChipFailureTimeline(solo, 2)
        # Adding fail-slow windows must not shift the fail-stop streams.
        for t in (0.0, 40_000.0, 90_000.0):
            assert both.down_at(0, t) == only.down_at(0, t)
            assert both.down_at(1, t) == only.down_at(1, t)

    def test_unlisted_chip_never_fails(self):
        config = FailureConfig(fail_stop_chips=(0,),
                               fail_stop_mtbf_cycles=1_000.0)
        timeline = ChipFailureTimeline(config, 2)
        for t in (0.0, 1e5, 1e6):
            assert timeline.down_at(1, t) is None
            assert timeline.slow_factor_at(1, t) == 1.0
            assert not timeline.transient_at(1, t)

    def test_scripted_windows_are_ground_truth(self):
        timeline = scripted_timeline(2, {
            0: [FailureWindow("fail-stop", 100.0, 300.0)],
            1: [FailureWindow("fail-slow", 50.0, 200.0, factor=4.0),
                FailureWindow("transient", 400.0, 500.0)],
        })
        assert timeline.down_at(0, 100.0) is not None
        assert timeline.down_at(0, 299.0) is not None
        assert timeline.down_at(0, 300.0) is None  # [start, end)
        assert timeline.slow_factor_at(1, 60.0) == 4.0
        assert timeline.slow_factor_at(1, 250.0) == 1.0
        assert timeline.transient_at(1, 450.0)
        assert not timeline.transient_at(0, 450.0)

    def test_fail_stop_in_catches_kills_and_dead_launches(self):
        timeline = scripted_timeline(1, {
            0: [FailureWindow("fail-stop", 100.0, 300.0)],
        })
        # launch running over the failure instant is killed
        assert timeline.fail_stop_in(0, 50.0, 200.0).start == 100.0
        # launch into a dead chip is killed immediately
        assert timeline.fail_stop_in(0, 150.0, 250.0).start == 100.0
        # launch entirely before or after the window survives
        assert timeline.fail_stop_in(0, 0.0, 100.0) is None
        assert timeline.fail_stop_in(0, 300.0, 900.0) is None

    def test_scripted_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            scripted_timeline(1, {0: [FailureWindow("melt", 0.0, 1.0)]})


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(health_check_interval_cycles=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(health_false_positive_rate=1.5)
        with pytest.raises(ConfigError):
            ResilienceConfig(breaker_failure_threshold=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(hedge_delay_cycles=-1.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(shed_tiers=((0.5, 1.0), (0.75, 0.5)))
        with pytest.raises(ConfigError):
            ResilienceConfig(shed_tiers=((0.5, 0.0),))

    @pytest.mark.parametrize("value", (math.nan, math.inf))
    @pytest.mark.parametrize("field", (
        "health_check_interval_cycles", "detection_latency_cycles",
        "health_false_positive_rate", "breaker_open_cycles",
        "retry_backoff_cycles", "retry_deadline_cycles",
        "hedge_delay_cycles"))
    def test_non_finite_fields_are_named(self, field, value):
        with pytest.raises(ConfigError,
                           match=rf"resilience\.{field}: must be a finite"):
            ResilienceConfig(**{field: value})

    def test_backoff_is_exponential(self):
        config = ResilienceConfig(retry_backoff_cycles=100.0)
        assert config.backoff_cycles(1) == 100.0
        assert config.backoff_cycles(2) == 200.0
        assert config.backoff_cycles(3) == 400.0

    def test_tier_multiplier_picks_first_met_threshold(self):
        config = ResilienceConfig(
            shed_tiers=((0.75, 1.0), (0.5, 0.5), (0.0, 0.125)))
        assert config.tier_multiplier(1.0) == 1.0
        assert config.tier_multiplier(0.75) == 1.0
        assert config.tier_multiplier(0.6) == 0.5
        assert config.tier_multiplier(0.1) == 0.125


class TestCircuitBreaker:
    def test_scripted_transition_cycle(self):
        b = CircuitBreaker(0, threshold=2, open_cycles=100.0)
        assert b.state == CLOSED
        b.record_failure(10.0)
        assert b.state == CLOSED  # below threshold
        b.record_failure(20.0)
        assert b.state == OPEN    # threshold hit
        assert not b.allow(50.0)  # still open
        assert b.allow(120.0)     # past open window -> half-open probe
        assert b.state == HALF_OPEN
        b.record_success(130.0)
        assert b.state == CLOSED
        assert b.opened_count == 1

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker(0, threshold=2, open_cycles=100.0)
        b.record_failure(0.0)
        b.record_failure(1.0)
        assert b.allow(150.0) and b.state == HALF_OPEN
        b.record_failure(160.0)  # the probe failed
        assert b.state == OPEN
        assert not b.allow(200.0)
        assert b.opened_count == 2

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(0, threshold=2, open_cycles=100.0)
        b.record_failure(0.0)
        b.record_success(1.0)
        b.record_failure(2.0)
        assert b.state == CLOSED  # streak broken; never reached threshold


class TestHealthMonitor:
    def _monitor(self, windows, chips=2, **kw):
        defaults = dict(health_check_interval_cycles=100.0,
                        breaker_open_cycles=150.0)
        defaults.update(kw)
        config = ResilienceConfig(**defaults)
        timeline = scripted_timeline(chips, windows)
        return HealthMonitor(config, timeline, chips)

    def test_detection_waits_for_the_next_tick(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 90.0, 250.0)]})
        assert m.allow(0, 95.0)  # failure not yet observed
        m.advance(100.0)         # tick 1 sees the downtime
        assert not m.allow(0, 101.0)
        assert m.allow(1, 101.0)  # healthy chip unaffected
        assert m.detect_time(90.0) == 100.0
        assert m.detect_time(100.0) == 200.0  # strictly the *next* tick

    def test_detection_latency_shifts_belief(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 90.0, 1e6)]},
                          detection_latency_cycles=30.0)
        assert m.detect_time(90.0) == 130.0

    def test_repair_reintegrates_through_half_open(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 90.0, 150.0)]})
        m.advance(100.0)                 # open at 100, open_cycles=150
        assert not m.allow(0, 120.0)
        m.advance(200.0)                 # tick 2: chip repaired -> success
        # the healthy tick at 200 lands before open_until (250): streak
        # reset but still open; the tick at 300 closes it half-open.
        m.advance(300.0)
        assert m.allow(0, 301.0)
        assert m.breakers[0].state == CLOSED

    def test_false_positives_are_seeded_and_counted(self):
        m1 = self._monitor({}, health_false_positive_rate=0.5)
        m2 = self._monitor({}, health_false_positive_rate=0.5)
        m1.advance(2_000.0)
        m2.advance(2_000.0)
        assert m1.false_positives == m2.false_positives
        assert m1.false_positives > 0
        states1 = [b.state for b in m1.breakers]
        states2 = [b.state for b in m2.breakers]
        assert states1 == states2

    def test_alive_fraction(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 50.0, 1e6)]})
        assert m.alive_fraction(0.0) == 1.0
        m.advance(100.0)
        assert m.alive_fraction(101.0) == 0.5


class TestCorrelatedDomains:
    """Zone/rack failure domains: one seeded event per domain takes
    every member chip out at once."""

    def test_domains_enable_the_config(self):
        assert FailureConfig(domains=((0, 1),)).enabled
        assert not FailureConfig().enabled

    def test_domain_validation(self):
        with pytest.raises(ConfigError, match=r"domains\[0\]"):
            FailureConfig(domains=((),))
        with pytest.raises(ConfigError, match=r"domains\[0\]"):
            FailureConfig(domains=((-1,),))
        with pytest.raises(ConfigError, match="domain_slow_factor"):
            FailureConfig(domains=((0,),), domain_slow_factor=0.5)
        with pytest.raises(ConfigError, match="domain_mode"):
            FailureConfig(domains=((0,),), domain_mode="explode")
        with pytest.raises(ConfigError,
                           match=r"failures\.domains\[0\]: out of range"):
            FailureConfig(domains=((0, 5),)).validate_chips(2)

    def test_scripted_domain_window_covers_every_member(self):
        t = scripted_timeline(
            4, {}, domains=((0, 1),),
            domain_windows={0: [FailureWindow("fail-stop", 100.0, 200.0)]})
        for chip in (0, 1):
            assert t.domain_outage_at(chip, 150.0) is not None
            assert t.down_at(chip, 150.0) is not None  # merges into kill
            assert t.down_at(chip, 250.0) is None
        for chip in (2, 3):  # non-members never see the outage
            assert t.domain_outage_at(chip, 150.0) is None
            assert t.down_at(chip, 150.0) is None
        assert t.domains_of(0) == (0,)
        assert t.domains_of(2) == ()

    def test_fail_stop_in_catches_domain_kills(self):
        t = scripted_timeline(
            2, {}, domains=((0, 1),),
            domain_windows={0: [FailureWindow("fail-stop", 100.0, 200.0)]})
        # A launch spanning the outage start dies; one after repair runs.
        w = t.fail_stop_in(1, 50.0, 150.0)
        assert w is not None and w.start == 100.0
        assert t.fail_stop_in(1, 200.0, 300.0) is None

    def test_fail_slow_domains_stretch_not_kill(self):
        t = scripted_timeline(
            2, {}, domains=((0, 1),), domain_mode="fail-slow",
            domain_windows={0: [FailureWindow("fail-slow", 100.0, 200.0,
                                              factor=3.0)]})
        for chip in (0, 1):
            assert t.slow_factor_at(chip, 150.0) == 3.0
            assert t.slow_factor_at(chip, 50.0) == 1.0
            assert t.down_at(chip, 150.0) is None  # nothing dies

    def test_scripted_rejects_mode_mismatched_domain_window(self):
        with pytest.raises(ConfigError, match="!= mode"):
            scripted_timeline(
                2, {}, domains=((0, 1),),
                domain_windows={0: [FailureWindow("fail-slow", 0.0, 1.0)]})

    def test_members_share_one_seeded_event_stream(self):
        config = FailureConfig(seed=7, domains=((0, 1), (2,)),
                               domain_mtbf_cycles=10_000.0,
                               domain_repair_mean_cycles=5_000.0)
        t = ChipFailureTimeline(config, 3)
        horizon = 200_000.0
        w01 = t.domain_windows_until(0, horizon)
        assert w01  # the clock fired within the horizon
        # Both members observe exactly the shared windows.
        for w in w01:
            mid = (w.start + w.end) / 2
            assert t.domain_outage_at(0, mid) is w or \
                t.domain_outage_at(0, mid).start == w.start
            assert t.domain_outage_at(1, mid).start == w.start
        # Distinct domains draw from independent streams.
        w2 = t.domain_windows_until(1, horizon)
        assert [w.start for w in w01] != [w.start for w in w2]

    def test_adding_domains_never_shifts_chip_streams(self):
        base = FailureConfig(seed=3, fail_stop_chips=(0,),
                             fail_stop_mtbf_cycles=20_000.0,
                             repair_mean_cycles=5_000.0)
        with_domains = FailureConfig(
            seed=3, fail_stop_chips=(0,),
            fail_stop_mtbf_cycles=20_000.0, repair_mean_cycles=5_000.0,
            domains=((0, 1),), domain_mtbf_cycles=50_000.0)
        t1 = ChipFailureTimeline(base, 2)
        t2 = ChipFailureTimeline(with_domains, 2)
        horizon = 300_000.0
        own1 = t1._ensure(0, "fail-stop", horizon).windows
        own2 = t2._ensure(0, "fail-stop", horizon).windows
        assert [(w.start, w.end) for w in own1] \
            == [(w.start, w.end) for w in own2]


class _LinearTimeline:
    """The timeline before it was indexed, kept as the reference oracle:
    the same lazy per-stream draws, and every query a linear scan from
    t = 0 over the windows in start order."""

    def __init__(self, config: FailureConfig, chips: int):
        self.config = config
        self._windows = {}
        self._covered = {}
        self._rngs = {}
        self._domain_windows = {}
        self._domain_covered = {}
        self._domain_rngs = {}
        self._chip_domains = {}
        for i, members in enumerate(config.domains):
            for c in members:
                self._chip_domains[c] = self._chip_domains.get(c, ()) + (i,)

    @classmethod
    def scripted(cls, chips, windows, domains=(), domain_windows=None,
                 domain_mode="fail-stop"):
        timeline = cls(FailureConfig(domains=domains,
                                     domain_mode=domain_mode), chips)
        for chip in range(chips):
            ordered = sorted(windows.get(chip, ()), key=lambda w: w.start)
            for kind in FAILURE_KINDS:
                timeline._windows[(chip, kind)] = [
                    w for w in ordered if w.kind == kind]
                timeline._covered[(chip, kind)] = math.inf
        for idx in range(len(domains)):
            timeline._domain_windows[idx] = sorted(
                (domain_windows or {}).get(idx, ()), key=lambda w: w.start)
            timeline._domain_covered[idx] = math.inf
        return timeline

    def _params(self, kind):
        cfg = self.config
        if kind == "fail-stop":
            return (cfg.fail_stop_chips, cfg.fail_stop_mtbf_cycles,
                    cfg.repair_mean_cycles, 1.0)
        if kind == "fail-slow":
            return (cfg.fail_slow_chips, cfg.fail_slow_mtbf_cycles,
                    cfg.fail_slow_duration_cycles, cfg.fail_slow_factor)
        return (cfg.transient_chips, cfg.transient_mtbf_cycles,
                cfg.transient_duration_cycles, 1.0)

    def _ensure(self, chip, kind, t):
        key = (chip, kind)
        windows = self._windows.setdefault(key, [])
        chips, mtbf, mean_dur, factor = self._params(kind)
        if chip not in chips:
            return windows
        covered = self._covered.get(key, 0.0)
        if covered > t:
            return windows
        rng = self._rngs.get(key)
        if rng is None:
            rng = np.random.default_rng(
                stream_seed(self.config.seed, "serve-fail", kind, chip))
            self._rngs[key] = rng
        while covered <= t:
            gap = float(rng.exponential(mtbf))
            duration = float(rng.exponential(mean_dur))
            start = (windows[-1].end if windows else 0.0) + gap
            windows.append(FailureWindow(kind=kind, start=start,
                                         end=start + duration,
                                         factor=factor))
            covered = start
            self._covered[key] = covered
        return windows

    def _ensure_domain(self, idx, t):
        windows = self._domain_windows.setdefault(idx, [])
        covered = self._domain_covered.get(idx, 0.0)
        if covered > t:
            return windows
        rng = self._domain_rngs.get(idx)
        if rng is None:
            rng = np.random.default_rng(
                stream_seed(self.config.seed, "serve-fail", "domain", idx))
            self._domain_rngs[idx] = rng
        cfg = self.config
        factor = (cfg.domain_slow_factor
                  if cfg.domain_mode == "fail-slow" else 1.0)
        while covered <= t:
            gap = float(rng.exponential(cfg.domain_mtbf_cycles))
            duration = float(rng.exponential(cfg.domain_repair_mean_cycles))
            start = (windows[-1].end if windows else 0.0) + gap
            windows.append(FailureWindow(kind=cfg.domain_mode, start=start,
                                         end=start + duration,
                                         factor=factor))
            covered = start
            self._domain_covered[idx] = covered
        return windows

    def _window_at(self, chip, kind, t):
        for w in self._ensure(chip, kind, t):
            if w.start <= t < w.end:
                return w
            if w.start > t:
                break
        if self.config.domain_mode == kind:
            for idx in self._chip_domains.get(chip, ()):
                for w in self._ensure_domain(idx, t):
                    if w.start <= t < w.end:
                        return w
                    if w.start > t:
                        break
        return None

    def down_at(self, chip, t):
        return self._window_at(chip, "fail-stop", t)

    def fail_stop_in(self, chip, t0, t1):
        down = self.down_at(chip, t0)
        if down is not None:
            return down
        candidates = []
        for w in self._ensure(chip, "fail-stop", t1):
            if t0 < w.start < t1:
                candidates.append(w)
                break
            if w.start >= t1:
                break
        if self.config.domain_mode == "fail-stop":
            for idx in self._chip_domains.get(chip, ()):
                for w in self._ensure_domain(idx, t1):
                    if t0 < w.start < t1:
                        candidates.append(w)
                        break
                    if w.start >= t1:
                        break
        if not candidates:
            return None
        return min(candidates, key=lambda w: w.start)

    def slow_factor_at(self, chip, t):
        # The worst covering window, own or domain (the own-window part
        # once took only the first covering window by start).
        streams = [self._ensure(chip, "fail-slow", t)]
        if self.config.domain_mode == "fail-slow":
            streams += [self._ensure_domain(idx, t)
                        for idx in self._chip_domains.get(chip, ())]
        factors = []
        for windows in streams:
            for w in windows:
                if w.start > t:
                    break
                if t < w.end:
                    factors.append(w.factor)
        return max(factors, default=1.0)

    def domain_outage_at(self, chip, t):
        for idx in self._chip_domains.get(chip, ()):
            for w in self._ensure_domain(idx, t):
                if w.start <= t < w.end:
                    return w
                if w.start > t:
                    break
        return None

    def domain_windows_until(self, idx, t):
        return [w for w in self._ensure_domain(idx, t) if w.start <= t]

    def transient_at(self, chip, t):
        return self._window_at(chip, "transient", t) is not None


def _boundary_times(windows) -> list[float]:
    """Every window's start and end, and their float neighbours."""
    out = set()
    for w in windows:
        for t in (w.start, w.end):
            out.update((t, math.nextafter(t, -math.inf),
                        math.nextafter(t, math.inf)))
    return sorted(t for t in out if math.isfinite(t))


def _assert_agree(index, oracle, chips, domains, times) -> None:
    """Both timelines answer every query identically, in ``times`` order
    (the order also drives lazy generation on drawn timelines)."""
    spans = (0.0, 1.0, 997.0, 25_000.0)
    for i, t in enumerate(times):
        for chip in range(chips):
            where = (chip, t)
            assert index.down_at(chip, t) == oracle.down_at(chip, t), where
            assert index.slow_factor_at(chip, t) \
                == oracle.slow_factor_at(chip, t), where
            assert index.transient_at(chip, t) \
                == oracle.transient_at(chip, t), where
            assert index.domain_outage_at(chip, t) \
                == oracle.domain_outage_at(chip, t), where
            ends = [t + d for d in spans]
            ends += [math.nextafter(t, math.inf), times[(i + 1) % len(times)]]
            # Both would draw forever up to t1 = inf on a drawn stream.
            for t1 in filter(math.isfinite, ends):
                assert index.fail_stop_in(chip, t, t1) \
                    == oracle.fail_stop_in(chip, t, t1), (chip, t, t1)
        for idx in range(len(domains)):
            assert index.domain_windows_until(idx, t) \
                == oracle.domain_windows_until(idx, t), (idx, t)


def _query_orders(times, seed):
    shuffled = list(times)
    random.Random(seed).shuffle(shuffled)
    return sorted(times), shuffled


class TestIndexMatchesLinearScan:
    """The bisect index answers exactly what the pre-index linear scans
    answered, on drawn and on scripted timelines."""

    DOMAINS = ((0, 1), (1, 2, 3))

    def _config(self, seed, domain_mode):
        return FailureConfig(
            seed=seed, fail_stop_chips=(0, 1), fail_slow_chips=(1, 2),
            transient_chips=(0, 3), fail_stop_mtbf_cycles=40_000.0,
            repair_mean_cycles=15_000.0, fail_slow_mtbf_cycles=30_000.0,
            fail_slow_duration_cycles=20_000.0,
            transient_mtbf_cycles=30_000.0,
            transient_duration_cycles=10_000.0, domains=self.DOMAINS,
            domain_mtbf_cycles=50_000.0, domain_repair_mean_cycles=25_000.0,
            domain_mode=domain_mode, domain_slow_factor=3.0)

    @pytest.mark.parametrize("domain_mode", ("fail-stop", "fail-slow"))
    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_drawn_timelines(self, seed, domain_mode):
        config = self._config(seed, domain_mode)
        horizon = 1_500_000.0
        probe = _LinearTimeline(config, 4)
        windows = [w for chip in range(4) for kind in FAILURE_KINDS
                   for w in probe._ensure(chip, kind, horizon)]
        windows += [w for idx in range(len(self.DOMAINS))
                    for w in probe._ensure_domain(idx, horizon)]
        rng = random.Random(seed)
        times = _boundary_times(windows)
        times += [rng.uniform(0.0, horizon) for _ in range(50)]
        for order in _query_orders(times, seed):
            _assert_agree(ChipFailureTimeline(config, 4),
                          _LinearTimeline(config, 4), 4, self.DOMAINS, order)

    def test_drawn_windows_match_the_reference_draws(self):
        config = self._config(3, "fail-stop")
        index = ChipFailureTimeline(config, 4)
        oracle = _LinearTimeline(config, 4)
        for chip in range(4):
            for kind in FAILURE_KINDS:
                assert index._ensure(chip, kind, 1e6).windows \
                    == oracle._ensure(chip, kind, 1e6)
        for idx in range(len(self.DOMAINS)):
            assert index._ensure_domain(idx, 1e6).windows \
                == oracle._ensure_domain(idx, 1e6)

    @pytest.mark.parametrize("domain_mode", ("fail-stop", "fail-slow"))
    def test_scripted_overlapping_empty_and_back_to_back(self, domain_mode):
        inf = math.inf
        windows = {
            0: [FailureWindow("fail-stop", 100.0, 300.0),
                FailureWindow("fail-stop", 150.0, 200.0),   # nested
                FailureWindow("fail-stop", 250.0, 400.0),   # overlapping
                FailureWindow("fail-stop", 400.0, 400.0),   # empty
                FailureWindow("fail-stop", 400.0, 500.0),   # back to back
                FailureWindow("fail-stop", 600.0, 700.0),
                FailureWindow("fail-stop", 600.0, 610.0),   # same start
                FailureWindow("fail-stop", 900.0, inf),     # never returns
                FailureWindow("fail-slow", 50.0, 200.0, factor=2.0),
                FailureWindow("fail-slow", 100.0, 150.0, factor=8.0),
                FailureWindow("fail-slow", 150.0, 150.0, factor=16.0),
                FailureWindow("fail-slow", 200.0, 300.0, factor=3.0)],
            1: [FailureWindow("transient", 0.0, 0.0),
                FailureWindow("transient", 0.0, 10.0),
                FailureWindow("transient", 10.0, 20.0),
                FailureWindow("transient", 20.0, 20.0),
                FailureWindow("fail-stop", 10.0, 20.0),
                FailureWindow("fail-stop", 50.0, 55.0),     # same start,
                FailureWindow("fail-stop", 50.0, 80.0)],    # given order
            2: [FailureWindow("fail-stop", 800.0, 800.0),   # empty, alone
                FailureWindow("fail-stop", 820.0, 830.0),
                FailureWindow("fail-stop", 1200.0, 1300.0)],
        }
        domains = ((0, 1), (1, 2))
        domain_windows = {
            0: [FailureWindow(domain_mode, 120.0, 260.0, factor=5.0),
                FailureWindow(domain_mode, 140.0, 180.0, factor=7.0),
                FailureWindow(domain_mode, 260.0, 300.0, factor=2.0),
                FailureWindow(domain_mode, 350.0, 350.0, factor=9.0)],
            1: [FailureWindow(domain_mode, 5.0, 15.0, factor=6.0),
                FailureWindow(domain_mode, 15.0, 40.0, factor=1.5),
                # Starts with chip 2's own window: the own one wins.
                FailureWindow(domain_mode, 1200.0, 1250.0, factor=2.5),
                FailureWindow(domain_mode, 2000.0, inf, factor=1.5)],
        }
        everything = [w for ws in windows.values() for w in ws]
        everything += [w for ws in domain_windows.values() for w in ws]
        times = _boundary_times(everything) + [-1.0, 0.0, 1e9]
        times += [random.Random(5).uniform(0.0, 2_500.0) for _ in range(50)]
        index = scripted_timeline(3, windows, domains, domain_windows,
                                  domain_mode)
        oracle = _LinearTimeline.scripted(3, windows, domains,
                                          domain_windows, domain_mode)
        for order in _query_orders(times, 5):
            _assert_agree(index, oracle, 3, domains, order)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(),
           domain_mode=st.sampled_from(("fail-stop", "fail-slow")))
    def test_scripted_property(self, data, domain_mode):
        bound = st.integers(0, 60).map(float)
        episode = st.tuples(bound, st.integers(0, 20).map(float),
                            st.sampled_from((1.0, 2.0, 4.0)))

        def draw_windows(kinds):
            return [FailureWindow(data.draw(st.sampled_from(kinds)),
                                  start, start + length, factor=factor)
                    for start, length, factor in data.draw(
                        st.lists(episode, max_size=8))]

        windows = {chip: draw_windows(FAILURE_KINDS) for chip in range(3)}
        domains = ((0, 1), (1, 2))
        domain_windows = {idx: draw_windows((domain_mode,))
                          for idx in range(len(domains))}
        times = data.draw(st.lists(
            st.one_of(bound, st.floats(-5.0, 90.0)), min_size=1,
            max_size=30))
        index = scripted_timeline(3, windows, domains, domain_windows,
                                  domain_mode)
        oracle = _LinearTimeline.scripted(3, windows, domains,
                                          domain_windows, domain_mode)
        _assert_agree(index, oracle, 3, domains, times)

    @pytest.mark.parametrize("bad", (
        FailureWindow("fail-stop", math.nan, 10.0),
        FailureWindow("fail-stop", 0.0, math.nan),
        FailureWindow("fail-stop", 20.0, 10.0),
    ))
    def test_scripted_rejects_nan_bounds_and_reversed_windows(self, bad):
        with pytest.raises(ConfigError, match="start <= end and no NaN"):
            scripted_timeline(1, {0: [bad]})
        with pytest.raises(ConfigError, match="start <= end and no NaN"):
            scripted_timeline(1, {}, domains=((0,),),
                              domain_windows={0: [bad]})

    def test_overlapping_own_slow_windows_apply_the_worst(self):
        """The chip's own straggler windows combine like domain ones:
        the worst covering factor applies, not the first by start."""
        windows = [FailureWindow("fail-slow", 0.0, 100.0, factor=2.0),
                   FailureWindow("fail-slow", 10.0, 50.0, factor=8.0)]
        own = scripted_timeline(1, {0: windows})
        zone = scripted_timeline(1, {}, domains=((0,),),
                                 domain_windows={0: windows},
                                 domain_mode="fail-slow")
        for t, factor in ((5.0, 2.0), (20.0, 8.0), (50.0, 2.0),
                          (100.0, 1.0)):
            assert own.slow_factor_at(0, t) == factor, t
            assert zone.slow_factor_at(0, t) == factor, t

    def test_exposed_chips_are_those_a_window_can_reach(self):
        scripted = scripted_timeline(
            3, {0: [FailureWindow("transient", 5.0, 9.0)],
                1: [FailureWindow("fail-slow", 0.0, 0.0, factor=2.0)]},
            domains=((1, 2), (0,)),
            domain_windows={0: [FailureWindow("fail-slow", 10.0, 20.0,
                                              factor=3.0)]},
            domain_mode="fail-slow")
        assert scripted.exposed("transient") == {0}
        assert scripted.exposed("fail-slow") == {1, 2}  # domain 1: empty
        assert scripted.exposed("fail-stop") == frozenset()
        drawn = ChipFailureTimeline(FailureConfig(
            transient_chips=(1,), domains=((0, 2),),
            domain_mode="fail-slow"), 3)
        assert drawn.exposed("transient") == {1}
        assert drawn.exposed("fail-slow") == {0, 2}
        assert drawn.exposed("fail-stop") == frozenset()
        assert all(s.windows == [] for s in drawn._streams.values())

    def test_next_fail_stop_start_is_the_earliest_own_or_domain(self):
        t = scripted_timeline(
            2, {0: [FailureWindow("fail-stop", 100.0, 200.0),
                    FailureWindow("fail-stop", 300.0, math.inf)]},
            domains=((0, 1),),
            domain_windows={0: [FailureWindow("fail-stop", 250.0, 260.0)]})
        assert t.next_fail_stop_start(0, 0.0) == 100.0
        assert t.next_fail_stop_start(0, 100.0) == 250.0
        assert t.next_fail_stop_start(0, 250.0) == 300.0
        assert t.next_fail_stop_start(0, 300.0) == math.inf
        assert t.next_fail_stop_start(1, 0.0) == 250.0
        assert scripted_timeline(1, {}).next_fail_stop_start(0, 0.0) \
            == math.inf

    def test_scripted_allows_a_chip_that_never_returns(self):
        t = scripted_timeline(1, {0: [
            FailureWindow("fail-stop", 10.0, math.inf)]})
        assert t.down_at(0, 1e12).start == 10.0
        assert t.down_at(0, 5.0) is None


class _TickByTickMonitor(HealthMonitor):
    """The monitor before skip-ahead, kept as the reference oracle:
    every due tick checks every chip, and the alive fraction asks every
    breaker."""

    def alive_fraction(self, now):
        alive = sum(1 for b in self.breakers if b.allow(now))
        return alive / len(self.breakers) if self.breakers else 1.0

    def advance(self, t):
        interval = self.config.health_check_interval_cycles
        latency = self.config.detection_latency_cycles
        while self._next_tick * interval <= t:
            tick = self._next_tick
            self._next_tick += 1
            at = tick * interval
            for chip in range(self.chips):
                self.checks += 1
                if self.timeline.down_at(chip, at) is not None:
                    self.breakers[chip].record_failure(at + latency)
                elif self._false_positive(chip, tick):
                    self.false_positives += 1
                    self.breakers[chip].record_failure(at + latency)
                else:
                    self.breakers[chip].record_success(at + latency)


class _CountingTimeline:
    """A timeline wrapper that counts every query made through it."""

    def __init__(self, timeline):
        self._timeline = timeline
        self.queries = 0

    def __getattr__(self, name):
        query = getattr(self._timeline, name)

        def counted(*args):
            self.queries += 1
            return query(*args)

        return counted


def _monitor_state(m) -> tuple:
    return (m._next_tick, m.checks, m.false_positives, m.chips,
            [(b.state, b.failures, b.open_until, b.opened_count)
             for b in m.breakers])


def _assert_tallies(m) -> None:
    assert m.open_count == sum(b.state == OPEN for b in m.breakers)
    assert m.unsettled == sum((b.state != CLOSED) + (b.failures > 0)
                              for b in m.breakers)


class TestSkipAheadMatchesTickByTick:
    """A monitor that skips quiet runs of ticks ends every call in the
    state the tick-by-tick monitor reaches, and emits the same breaker
    transitions."""

    #: Tick intervals: exact, and ones whose multiples round.
    INTERVALS = (100.0, 0.1, 25_000.0 / 3)
    #: Window starts far enough out that only a long jump reaches them.
    FAR = 10_000

    def _windows(self, data, kind, interval):
        """Episodes on the tick grid: exact multiples, their float
        neighbours and off-grid starts; empty, infinite, overlapping
        and back-to-back ones."""
        out, end = [], 0.0
        for _ in range(data.draw(st.integers(0, 4))):
            if out and data.draw(st.booleans()):
                start = end  # back to back with the previous one
            else:
                tick = data.draw(st.one_of(
                    st.integers(0, 30), st.integers(self.FAR,
                                                    self.FAR + 30)))
                start = tick * interval
                nudge = data.draw(st.sampled_from(
                    ("on", "below", "above", "third")))
                if nudge == "below":
                    start = math.nextafter(start, -math.inf)
                elif nudge == "above":
                    start = math.nextafter(start, math.inf)
                elif nudge == "third":
                    start += interval / 3
            length = data.draw(st.sampled_from(
                (0.0, interval / 2, interval, 3 * interval, 12 * interval,
                 math.inf)))
            end = start + length
            out.append(FailureWindow(kind, start, end))
        return out

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(data=st.data())
    def test_property(self, data):
        interval = data.draw(st.sampled_from(self.INTERVALS))
        chips = data.draw(st.integers(1, 3))
        lies = data.draw(st.sampled_from((0.0, 0.0, 0.3)))
        domain_mode = data.draw(st.sampled_from(("fail-stop", "fail-slow")))
        config = ResilienceConfig(
            health_check_interval_cycles=interval,
            detection_latency_cycles=data.draw(
                st.sampled_from((0.0, interval / 2))),
            health_false_positive_rate=lies,
            breaker_failure_threshold=data.draw(st.integers(1, 3)),
            breaker_open_cycles=data.draw(st.sampled_from(
                (interval / 2, 3 * interval, 40 * interval))))
        windows = {c: self._windows(data, "fail-stop", interval)
                   for c in range(chips)}
        domains = ((0,), tuple(range(chips)))
        domain_windows = {i: self._windows(data, domain_mode, interval)
                          for i in range(len(domains))}
        monitors, traces = [], []
        for cls in (HealthMonitor, _TickByTickMonitor):
            trace = TraceCollector()
            timeline = scripted_timeline(chips, windows, domains,
                                         domain_windows, domain_mode)
            monitors.append(cls(config, timeline, chips, seed=3,
                                trace=trace))
            traces.append(trace)
        fast, oracle = monitors

        t = 0.0
        jumped = False
        ops = data.draw(st.lists(st.sampled_from(
            ("tick", "below", "above", "small", "jump", "fail", "ok",
             "allow", "alive", "add")), max_size=20))
        for op in ops:
            chip = data.draw(st.integers(0, 99)) % fast.chips
            if op == "jump" and (lies or jumped):
                # One long jump per example keeps the oracle's tick-by-
                # tick walk affordable (lying checks draw an rng each).
                op = "small"
            if op in ("tick", "below", "above"):
                at = (math.floor(t / interval)
                      + data.draw(st.integers(0, 4))) * interval
                if op != "tick":
                    at = math.nextafter(
                        at, -math.inf if op == "below" else math.inf)
                t = max(t, at)
            elif op == "small":
                t += data.draw(st.floats(0.0, 3.0)) * interval
            elif op == "jump":
                jumped = True
                t += self.FAR * interval * data.draw(st.sampled_from(
                    (1.0, 1.002)))
            results = []
            for m in monitors:
                if op in ("tick", "below", "above", "small", "jump"):
                    m.advance(t)
                elif op == "fail":
                    m.breakers[chip].record_failure(t)
                elif op == "ok":
                    m.breakers[chip].record_success(t)
                elif op == "allow":
                    results.append(m.allow(chip, t))
                elif op == "alive":
                    results.append(m.alive_fraction(t))
                else:
                    results.append(m.add_chip())
            assert len(set(results)) <= 1, (op, results)
            assert _monitor_state(fast) == _monitor_state(oracle), (op, t)
            assert fast.next_tick_at == fast._next_tick * interval
            _assert_tallies(fast)
        fast.advance(t + 50 * interval)
        oracle.advance(t + 50 * interval)
        assert _monitor_state(fast) == _monitor_state(oracle)
        assert traces[0].events == traces[1].events

    def test_quiet_run_skips_up_to_a_window_start_on_a_tick(self):
        """A fail-stop starting exactly on tick 7 is seen at tick 7."""
        windows = {0: [FailureWindow("fail-stop", 700.0, 750.0)]}
        config = ResilienceConfig(health_check_interval_cycles=100.0,
                                  breaker_open_cycles=50.0)
        fast = HealthMonitor(config, scripted_timeline(2, windows), 2)
        oracle = _TickByTickMonitor(config, scripted_timeline(2, windows), 2)
        for m in (fast, oracle):
            m.advance(699.0)
            assert m.breakers[0].state == CLOSED
            m.advance(700.0)
            assert m.breakers[0].state == OPEN
            m.advance(10_000.0)
        assert _monitor_state(fast) == _monitor_state(oracle)

    def test_empty_timeline_costs_o_chips_queries(self):
        """A monitor over a timeline with no windows queries it
        O(chips) times however far it advances, so "failures off" can
        run as an empty timeline plus a monitor that never fires."""
        chips, interval = 4, 100.0
        timeline = _CountingTimeline(scripted_timeline(chips, {}))
        m = HealthMonitor(
            ResilienceConfig(health_check_interval_cycles=interval),
            timeline, chips)
        m.advance(1e6 * interval)
        assert m.checks == 10**6 * chips
        assert timeline.queries == 2 * chips
        for k in range(1, 1_001):  # one call per 1,000 ticks
            m.advance((1e6 + 1_000 * k) * interval)
        assert m.checks == 2 * 10**6 * chips
        assert timeline.queries == 2 * chips
        m.add_chip()  # only the new chip's next fail-stop is unknown
        m.advance(3e6 * interval)
        assert m.checks == 2 * 10**6 * chips + 10**6 * (chips + 1)
        assert timeline.queries == 2 * chips + (chips + 1) + 1
        assert all(b.state == CLOSED for b in m.breakers)
