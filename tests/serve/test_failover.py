"""Failure scenarios on scripted timelines: exact hand-derived traces.

Every test here scripts the physical failure schedule with
:func:`scripted_timeline` so the full event interleaving — kill times,
detection ticks, retry backoff, hedge races — is pinned to exact cycle
counts, plus a seeded conservation matrix across failure modes,
policies, and seeds.
"""

import pytest

from repro.serve.costmodel import ServiceCostTable, build_cost_table
from repro.serve.failures import (
    FailureConfig,
    FailureWindow,
    scripted_timeline,
)
from repro.serve.fleet import OUTCOMES, FleetSimulator, ServeConfig
from repro.serve.metrics import compute_metrics
from repro.serve.resilience import DEFAULT_RESILIENCE, ResilienceConfig
from repro.serve.workload import Request, WorkloadConfig, generate_requests


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


def _resilience(**kw):
    defaults = dict(health_check_interval_cycles=100.0,
                    retry_backoff_cycles=10.0,
                    breaker_open_cycles=1e9)
    defaults.update(kw)
    return ResilienceConfig(**defaults)


def _config(**kw):
    defaults = dict(chips=2, policy="least-loaded", max_batch=4,
                    max_wait_cycles=50.0, queue_capacity=16,
                    dispatch_overhead_cycles=10.0,
                    reload_bytes_per_cycle=8.0, slo_cycles=10_000.0,
                    resilience=_resilience())
    defaults.update(kw)
    return ServeConfig(**defaults)


def _req(rid, arrival, kind="bp", tile=0):
    return Request(rid=rid, kind=kind, tile=tile, arrival=arrival)


class TestFailStopRedispatch:
    """A chip fail-stops mid-batch: every request re-dispatched exactly
    once onto the surviving chip, none lost.

    Trace (bp batch of 2, reload 100, overhead 10, per-pass 1000):
    batch closes at 50, starts on chip 0, would finish at 2160; chip 0
    dies at 600 -> killed (waste 550); tick-100 health check detects at
    700; backoff 10 -> re-dispatch at 710 on chip 1 -> finish 2820.
    """

    def _run(self):
        timeline = scripted_timeline(2, {
            0: [FailureWindow("fail-stop", 600.0, 1e9)],
        })
        sim = FleetSimulator(_config(), _table(), timeline=timeline)
        result = sim.run([_req(0, 0.0), _req(1, 1.0)])
        return sim, result

    def test_requests_redispatched_exactly_once_none_lost(self):
        sim, result = self._run()
        assert sim.retry_count == 1
        assert len(result.records) == 2
        for r in result.records:
            assert r.outcome == "served"
            assert r.retries == 1
            assert r.chip == 1

    def test_exact_kill_and_retry_trace(self):
        sim, result = self._run()
        killed, served = result.batches
        assert killed.outcome == "killed"
        assert killed.chip == 0 and killed.attempt == 0
        assert killed.start == 50.0
        assert killed.finish == 600.0  # the kill instant
        assert killed.waste == 550.0
        assert served.outcome == "served"
        assert served.chip == 1 and served.attempt == 1
        # detect at tick 700, backoff 10 -> dispatched (and started) 710.
        assert served.start == 710.0
        assert served.finish == 710.0 + 100.0 + 10.0 + 2 * 1000.0

    def test_accounting_invariant_survives_redispatch(self):
        _, result = self._run()
        r = result.records[0]
        assert r.dispatch == 50.0
        assert r.batch_wait == 50.0
        assert r.queue_wait == 660.0   # failed attempt + detection + backoff
        assert r.service == 2110.0
        assert r.latency == pytest.approx(
            r.batch_wait + r.queue_wait + r.service)

    def test_chip_accounting_and_metrics(self):
        _, result = self._run()
        assert result.chips[0].kills == 1
        assert result.chips[0].busy_cycles == 550.0  # only the waste
        assert result.chips[1].kills == 0
        m = compute_metrics(result.records, result.batches,
                            result.makespan, slo_cycles=10_000.0)
        assert m.served == 2 and m.expired == 0 and m.shed == 0
        assert m.retries == 1
        assert m.retry_wasted_cycles == 550.0
        assert m.hedges == 0 and m.hedge_wasted_cycles == 0.0


class TestHedging:
    """A straggler triggers hedging; first completion wins and the
    loser's burned cycles are accounted as hedge waste."""

    def _run(self, factor):
        timeline = scripted_timeline(2, {
            0: [FailureWindow("fail-slow", 0.0, 10_000.0, factor=factor)],
        })
        config = _config(resilience=_resilience(
            health_check_interval_cycles=1_000.0, hedge_delay_cycles=100.0))
        sim = FleetSimulator(config, _table(), timeline=timeline)
        return sim, sim.run([_req(0, 0.0)])

    def test_hedge_wins_against_bad_straggler(self):
        # Primary on chip 0 stretched 4x: 50 + 4*1110 = 4490.  Healthy
        # estimate 1110 + delay 100 arms the hedge at 1260; chip 1
        # finishes 1260 + 1110 = 2370 and wins.
        sim, result = self._run(factor=4.0)
        assert sim.hedge_count == 1
        (r,) = result.records
        assert r.outcome == "served" and r.hedged
        assert r.chip == 1
        assert r.start == 1260.0 and r.finish == 2370.0
        assert r.latency == pytest.approx(
            r.batch_wait + r.queue_wait + r.service)
        loser, winner = result.batches
        assert loser.outcome == "hedge-loser" and loser.chip == 0
        assert loser.waste == 2370.0 - 50.0  # cancelled at winner finish
        assert winner.outcome == "served" and winner.hedge
        m = compute_metrics(result.records, result.batches,
                            result.makespan, slo_cycles=10_000.0)
        assert m.hedges == 1
        assert m.hedge_wasted_cycles == 2320.0
        assert m.retries == 0 and m.retry_wasted_cycles == 0.0

    def test_primary_wins_against_mild_straggler(self):
        # 1.5x stretch: primary finishes 50 + 1665 = 1715, before the
        # hedge (2370).  The hedge is cancelled at the primary's finish.
        sim, result = self._run(factor=1.5)
        assert sim.hedge_count == 1
        (r,) = result.records
        assert r.outcome == "served" and r.hedged
        assert r.chip == 0
        assert r.finish == 1715.0
        loser, winner = result.batches
        assert loser.outcome == "hedge-loser" and loser.chip == 1
        assert loser.hedge
        assert loser.waste == 1715.0 - 1260.0
        assert winner.chip == 0 and not winner.hedge
        m = compute_metrics(result.records, result.batches,
                            result.makespan, slo_cycles=10_000.0)
        assert m.hedge_wasted_cycles == 455.0

    def test_no_hedge_when_primary_on_time(self):
        sim, result = self._run(factor=1.0)
        assert sim.hedge_count == 0
        (r,) = result.records
        assert not r.hedged and r.finish == 50.0 + 1110.0
        assert len(result.batches) == 1


class TestTransientDegradation:
    def test_window_serves_from_degraded_column(self):
        # Inside the transient window the launch pays the degraded (ECC
        # correcting) kernel time: 100 + 10 + 1500 instead of + 1000.
        timeline = scripted_timeline(1, {
            0: [FailureWindow("transient", 0.0, 10_000.0)],
        })
        sim = FleetSimulator(_config(chips=1), _table(), timeline=timeline)
        result = sim.run([_req(0, 0.0)])
        (batch,) = result.batches
        assert batch.finish - batch.start == pytest.approx(1610.0)

    def test_outside_window_back_to_healthy_column(self):
        timeline = scripted_timeline(1, {
            0: [FailureWindow("transient", 0.0, 40.0)],
        })
        sim = FleetSimulator(_config(chips=1), _table(), timeline=timeline)
        result = sim.run([_req(0, 0.0)])  # starts at 50, window over
        (batch,) = result.batches
        assert batch.finish - batch.start == pytest.approx(1110.0)


class TestRetryExhaustionAndExpiry:
    def test_deadline_expires_requests_with_whole_fleet_down(self):
        # Single chip, down forever.  The launch at 50 is killed
        # instantly (waste 0), detected at tick 100, re-dispatch at 110
        # finds the breaker open, and the deferred dispatches at
        # 210/310/410 keep finding it open until the 500-cycle deadline
        # expires the request at 510.
        timeline = scripted_timeline(1, {
            0: [FailureWindow("fail-stop", 0.0, 1e9)],
        })
        config = _config(chips=1, resilience=_resilience(
            retry_deadline_cycles=500.0))
        sim = FleetSimulator(config, _table(), timeline=timeline)
        result = sim.run([_req(0, 0.0)])
        (r,) = result.records
        assert r.outcome == "expired"
        assert not r.shed
        assert r.retries == 1
        (killed,) = result.batches
        assert killed.outcome == "killed" and killed.waste == 0.0
        assert sim.retry_count == 1
        m = compute_metrics(result.records, result.batches,
                            result.makespan, slo_cycles=10_000.0)
        assert m.expired == 1 and m.served == 0
        assert m.availability == 0.0

    def test_retry_budget_exhaustion_expires_batch(self):
        # Two chips, both down forever, breakers never open (huge
        # threshold): every re-dispatch lands on a dead chip and is
        # killed again until max_retries runs out.
        timeline = scripted_timeline(2, {
            0: [FailureWindow("fail-stop", 0.0, 1e9)],
            1: [FailureWindow("fail-stop", 0.0, 1e9)],
        })
        config = _config(resilience=_resilience(
            breaker_failure_threshold=10_000, max_retries=2,
            retry_deadline_cycles=1e9))
        sim = FleetSimulator(config, _table(), timeline=timeline)
        result = sim.run([_req(0, 0.0)])
        (r,) = result.records
        assert r.outcome == "expired"
        assert r.retries == 2  # attempts 0, 1, 2 all killed
        assert len(result.batches) == 3
        assert all(b.outcome == "killed" for b in result.batches)
        assert sim.retry_count == 2


class TestBreakerRouting:
    def test_detected_down_chip_receives_no_traffic(self):
        # Chip 0 dies at 0; the tick at 100 opens its breaker.  Requests
        # arriving later batch, dispatch after detection, and every
        # launch lands on chip 1 — chip 0 is never touched.
        timeline = scripted_timeline(2, {
            0: [FailureWindow("fail-stop", 0.0, 1e9)],
        })
        sim = FleetSimulator(_config(), _table(), timeline=timeline)
        reqs = [_req(i, 150.0 + 10.0 * i) for i in range(4)]
        result = sim.run(reqs)
        assert all(r.outcome == "served" for r in result.records)
        assert all(b.chip == 1 for b in result.batches)
        assert result.chips[0].kills == 0
        assert result.chips[0].busy_cycles == 0.0


class TestDisabledPathIdentity:
    """Failures off is the degenerate resilient path: a disabled
    FailureConfig, or resilience knobs without failures, change no
    outcome, and nothing expires."""

    REQS = [(i, 7.0 * (3 ** 0.5) * i, ("bp", "fc", "conv")[i % 3], i % 2)
            for i in range(24)]

    def _run(self, **kw):
        config = _config(max_batch=3, queue_capacity=4,
                         max_wait_cycles=30.0, **kw)
        reqs = [_req(rid, t, kind, tile) for rid, t, kind, tile in self.REQS]
        return FleetSimulator(config, _table()).run(reqs)

    def test_disabled_config_is_identical_to_none(self):
        base = self._run(failures=None)
        off = self._run(failures=FailureConfig())  # no chips listed
        assert off.records == base.records
        assert off.batches == base.batches
        assert off.makespan == base.makespan
        assert ([(c.free_at, c.busy_cycles, c.reload_cycles)
                 for c in off.chips]
                == [(c.free_at, c.busy_cycles, c.reload_cycles)
                    for c in base.chips])

    def test_resilience_config_alone_changes_nothing(self):
        base = self._run(failures=None, resilience=None)
        tuned = self._run(failures=None, resilience=_resilience(
            hedge_delay_cycles=1.0, max_retries=0))
        assert tuned.records == base.records
        assert tuned.batches == base.batches

    def test_no_retry_deadline_with_failures_off(self):
        """A batch may wait past any retry deadline for its max-wait
        close and still launch, as on a fleet that never fails.  The
        same empty timeline injected (so failures count as on) keeps the
        default deadline, which expires 109 of the 200 requests."""
        config = ServeConfig(max_wait_cycles=2_000_000.0)
        assert (config.max_wait_cycles
                > DEFAULT_RESILIENCE.retry_deadline_cycles)
        costs = build_cost_table(8, quick=True, kinds=("bp",),
                                 max_workers=1)
        requests = generate_requests(WorkloadConfig(
            mix="bp", rate=2_000.0, requests=200))
        off = FleetSimulator(config, costs).run(requests)
        assert [r.outcome for r in off.records] == ["served"] * 200
        injected = FleetSimulator(
            config, costs,
            timeline=scripted_timeline(config.chips, {})).run(requests)
        assert sum(r.outcome == "expired"
                   for r in injected.records) == 109


MODES = {
    "fail-stop": dict(fail_stop_chips=(0, 1),
                      fail_stop_mtbf_cycles=3_000.0,
                      repair_mean_cycles=1_500.0),
    "fail-slow": dict(fail_slow_chips=(0, 1),
                      fail_slow_mtbf_cycles=3_000.0,
                      fail_slow_duration_cycles=1_500.0,
                      fail_slow_factor=4.0),
    "transient": dict(transient_chips=(0, 1),
                      transient_mtbf_cycles=3_000.0,
                      transient_duration_cycles=1_500.0),
}


class TestConservationMatrix:
    """Every admitted request is exactly-once accounted as served, shed,
    or expired — across seeds x failure modes x policies, with retries
    and hedging both live."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "locality"])
    def test_exactly_once_accounting(self, seed, mode, policy):
        config = _config(
            chips=3, policy=policy,
            failures=FailureConfig(seed=seed, **MODES[mode]),
            resilience=_resilience(
                health_check_interval_cycles=500.0,
                retry_backoff_cycles=100.0,
                breaker_open_cycles=2_000.0,
                hedge_delay_cycles=200.0,
                retry_deadline_cycles=50_000.0))
        reqs = [_req(i, 25.0 * i, kind=("bp", "fc", "conv")[i % 3],
                     tile=i % 2) for i in range(40)]
        result = FleetSimulator(config, _table()).run(reqs)

        assert [r.rid for r in result.records] == list(range(40))
        counts = {o: 0 for o in OUTCOMES}
        for r in result.records:
            assert r.outcome in OUTCOMES
            assert r.shed == (r.outcome == "shed")
            counts[r.outcome] += 1
            if r.outcome == "served":
                assert r.service > 0.0
                assert r.queue_wait >= 0.0
                assert 0 <= r.chip < 3
                assert r.latency == pytest.approx(
                    r.batch_wait + r.queue_wait + r.service)
        assert sum(counts.values()) == 40  # conservation: nothing lost
        for b in result.batches:
            if b.outcome == "served":
                assert b.waste == 0.0
            else:
                assert b.outcome in ("killed", "hedge-loser")
                assert b.waste >= 0.0
        m = compute_metrics(result.records, result.batches,
                            result.makespan, slo_cycles=10_000.0)
        assert m.total == 40
        assert m.served + m.shed + m.expired == 40
        assert m.goodput_rps <= m.throughput_rps
        assert 0.0 <= m.availability <= 1.0
