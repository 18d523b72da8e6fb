"""The chaos harness's invariant checkers, against hand-built violations.

Each checker is a pure function over a finished run; the fast way to
trust them is to feed fabricated records that violate exactly one
invariant and watch the precise failure fire.  A real matrix cell and
the CLI round out the smoke coverage.
"""

import json

import pytest

from repro.serve.autoscale import AutoscaleConfig
from repro.serve.chaos import (
    MODES,
    POLICY_DOCS,
    InvariantViolation,
    check_autoscale_lifecycle,
    check_conservation,
    check_post_failstop,
    check_queue_bound,
    check_replay_identity,
    main,
    run_cell,
)
from repro.serve.costmodel import build_cost_table
from repro.serve.failures import FailureWindow, scripted_timeline
from repro.serve.fleet import (
    BatchRecord,
    ChipState,
    FleetResult,
    FleetSimulator,
    RequestRecord,
    ServeConfig,
)
from repro.serve.workload import Request


def _rec(rid, arrival=0.0, dispatch=10.0, start=20.0, finish=30.0,
         outcome="served", shed=None):
    return RequestRecord(rid=rid, kind="bp", tile=0, arrival=arrival,
                         shed=(outcome == "shed" if shed is None
                               else shed),
                         dispatch=dispatch, start=start, finish=finish,
                         outcome=outcome)


def _batch(batch_id, chip=0, close=0.0, start=10.0, finish=20.0,
           outcome="served"):
    return BatchRecord(batch_id=batch_id, kind="bp", size=1, chip=chip,
                       close=close, start=start, finish=finish,
                       reload=0.0, outcome=outcome)


def _reqs(n):
    return [Request(rid=i, kind="bp", tile=0, arrival=float(i))
            for i in range(n)]


class TestConservation:
    def test_clean_run_passes(self):
        records = [_rec(0, arrival=0.0), _rec(1, arrival=1.0),
                   _rec(2, arrival=2.0, outcome="shed")]
        check_conservation(records, _reqs(3))

    def test_missing_rid(self):
        with pytest.raises(InvariantViolation, match="rid mismatch"):
            check_conservation([_rec(0)], _reqs(2))

    def test_unknown_outcome(self):
        with pytest.raises(InvariantViolation, match="unknown outcome"):
            check_conservation([_rec(0, outcome="lost", shed=False)],
                               _reqs(1))

    def test_shed_flag_must_agree(self):
        with pytest.raises(InvariantViolation, match="shed flag"):
            check_conservation([_rec(0, outcome="served", shed=True)],
                               _reqs(1))

    def test_non_causal_timestamps(self):
        bad = _rec(0, arrival=5.0, dispatch=3.0)
        with pytest.raises(InvariantViolation, match="non-causal"):
            check_conservation([bad], _reqs(1))


class TestPostFailstop:
    def test_overlapping_served_batch_fails(self):
        timeline = scripted_timeline(1, {
            0: [FailureWindow("fail-stop", 100.0, 130.0)],
        })
        batch = _batch(0, start=50.0, finish=150.0)
        with pytest.raises(InvariantViolation,
                           match="despite fail-stop at 100"):
            check_post_failstop([batch], timeline)

    def test_non_overlapping_and_killed_pass(self):
        timeline = scripted_timeline(1, {
            0: [FailureWindow("fail-stop", 100.0, 130.0)],
        })
        check_post_failstop([
            _batch(0, start=30.0, finish=90.0),
            _batch(1, start=140.0, finish=200.0),
            # a killed launch MAY overlap; that's what killed means
            _batch(2, start=50.0, finish=150.0, outcome="killed"),
        ], timeline)

    def test_empty_timeline_is_vacuous(self):
        # A fleet with failures off holds an empty timeline.
        check_post_failstop([_batch(0)], scripted_timeline(1, {}))


class TestQueueBound:
    def test_capacity_respected(self):
        records = [_rec(0, arrival=0.0, dispatch=10.0),
                   _rec(1, arrival=1.0, dispatch=10.0)]
        check_queue_bound(records, capacity=2)

    def test_overflow_detected(self):
        records = [_rec(i, arrival=0.0, dispatch=100.0)
                   for i in range(3)]
        with pytest.raises(InvariantViolation,
                           match="exceeds capacity 2"):
            check_queue_bound(records, capacity=2)

    def test_exit_before_arrival_detected(self):
        with pytest.raises(InvariantViolation, match="before arrival"):
            check_queue_bound([_rec(0, arrival=5.0, dispatch=3.0)],
                              capacity=4)

    def test_tie_exit_frees_the_slot_first(self):
        # rid 0 leaves at t=10 exactly as rid 1 arrives: capacity 1 holds.
        records = [_rec(0, arrival=0.0, dispatch=10.0),
                   _rec(1, arrival=10.0, dispatch=20.0)]
        check_queue_bound(records, capacity=1)


class TestAutoscaleLifecycle:
    def _config(self, max_chips=3):
        return ServeConfig(chips=1, autoscale=AutoscaleConfig(
            min_chips=1, max_chips=max_chips))

    def _result(self, events, chips=None, batches=()):
        return FleetResult(
            records=[], batches=list(batches),
            chips=chips if chips is not None else [ChipState(chip_id=0)],
            makespan=0.0,
            autoscale={"events": events})

    def test_static_result_is_vacuous(self):
        result = FleetResult(records=[], batches=[], chips=[],
                             makespan=0.0, autoscale=None)
        check_autoscale_lifecycle(result, self._config())

    def test_clean_lifecycle_passes(self):
        events = [
            {"time": 100.0, "action": "add", "chip": 1, "reason": "load",
             "active_after": 2},
            {"time": 500.0, "action": "drain", "chip": 1,
             "reason": "idle", "active_after": 1},
            {"time": 600.0, "action": "remove", "chip": 1,
             "reason": "drained", "active_after": 1},
        ]
        check_autoscale_lifecycle(self._result(events), self._config())

    def test_bounds_violation(self):
        events = [{"time": 100.0, "action": "add", "chip": 1,
                   "reason": "load", "active_after": 4}]
        with pytest.raises(InvariantViolation, match="exceeds max_chips"):
            check_autoscale_lifecycle(self._result(events),
                                      self._config(max_chips=3))

    def test_remove_without_drain(self):
        events = [{"time": 100.0, "action": "remove", "chip": 1,
                   "reason": "drained", "active_after": 1}]
        with pytest.raises(InvariantViolation,
                           match="without a preceding drain"):
            check_autoscale_lifecycle(self._result(events),
                                      self._config())

    def test_finish_after_retirement(self):
        chips = [ChipState(chip_id=0),
                 ChipState(chip_id=1, retired_at=500.0)]
        batches = [_batch(0, chip=1, start=400.0, finish=700.0)]
        events = [
            {"time": 450.0, "action": "drain", "chip": 1,
             "reason": "idle", "active_after": 1},
            {"time": 500.0, "action": "remove", "chip": 1,
             "reason": "drained", "active_after": 1},
        ]
        with pytest.raises(InvariantViolation,
                           match="after its retirement"):
            check_autoscale_lifecycle(
                self._result(events, chips=chips, batches=batches),
                self._config())


@pytest.fixture(scope="module")
def costs():
    return build_cost_table(4, quick=True, degraded=True, kinds=("bp",))


class TestReplayIdentity:
    def test_tampered_run_detected(self, costs):
        config = ServeConfig(chips=2, max_batch=4, queue_capacity=16)
        requests = [Request(rid=i, kind="bp", tile=0,
                            arrival=float(i) * 1000.0) for i in range(8)]
        result = FleetSimulator(config, costs).run(list(requests))
        check_replay_identity(result, config, costs, requests)
        tampered = FleetResult(
            records=[r if r.rid != 3 else
                     RequestRecord(rid=3, kind=r.kind, tile=r.tile,
                                   arrival=r.arrival, shed=r.shed,
                                   dispatch=r.dispatch, start=r.start,
                                   finish=r.finish + 1.0,
                                   outcome=r.outcome)
                     for r in result.records],
            batches=result.batches, chips=result.chips,
            makespan=result.makespan, autoscale=result.autoscale)
        with pytest.raises(InvariantViolation, match="record 3 diverged"):
            check_replay_identity(tampered, config, costs, requests)


class TestMatrix:
    def test_one_cell_end_to_end(self, costs):
        cell = run_cell(seed=0, mode="fail-stop", policy="builtin",
                        autoscale=False, costs=costs,
                        requests_per_cell=20)
        assert cell["requests"] == 20
        assert sum(cell["outcomes"].values()) == 20
        assert set(cell["invariants"]) == {
            "conservation", "post-failstop", "queue-bound",
            "autoscale-lifecycle", "replay-identity"}

    def test_autoscaled_cell_reports_scale_events(self, costs):
        cell = run_cell(seed=0, mode="compound",
                        policy="conservative-retry", autoscale=True,
                        costs=costs, requests_per_cell=20)
        assert "scale_events" in cell

    def test_policy_docs_cover_the_advertised_modes(self):
        assert set(MODES) == {"fail-stop", "fail-slow", "compound"}
        assert set(POLICY_DOCS) == {"builtin", "pressure-shed",
                                    "conservative-retry"}


class TestCLI:
    def test_smoke_writes_report(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(["--seeds", "1", "--modes", "fail-stop",
                     "--policies", "builtin", "--autoscale", "off",
                     "--requests", "20", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "all invariants held" in captured.out
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.serve.chaos/v1"
        assert report["failures"] == []
        assert report["checkpoint_resume"] == "ok"
        assert len(report["cells"]) == 1

    def test_bad_seed_count_is_config_error(self, capsys):
        assert main(["--seeds", "0"]) == 2
        assert "error: config:" in capsys.readouterr().err


class TestClusterInvariants:
    """The --cluster matrix extension and its dedicated checkers."""

    def test_post_domain_outage_detects_zombie_completion(self):
        from repro.serve.chaos import check_post_domain_outage
        timeline = scripted_timeline(
            2, {}, domains=((0, 1),),
            domain_windows={0: [FailureWindow("fail-stop", 100.0, 200.0)]})
        zombie = BatchRecord(batch_id=0, kind="bp", size=1, chip=0,
                             close=90.0, start=120.0, finish=180.0,
                             reload=0.0, outcome="served")
        with pytest.raises(InvariantViolation,
                           match="post-domain-outage"):
            check_post_domain_outage([zombie], timeline)
        clean = BatchRecord(batch_id=1, kind="bp", size=1, chip=0,
                            close=200.0, start=210.0, finish=260.0,
                            reload=0.0, outcome="served")
        check_post_domain_outage([clean], timeline)  # no raise

    def test_failover_bound_detects_budget_blowout(self):
        from repro.serve.chaos import _cluster_cell_config, \
            check_failover_bound
        from repro.serve.cluster import ClusterResult
        config = _cluster_cell_config("builtin", 0)
        requests = [Request(rid=i, kind="bp", tile=0, arrival=float(i))
                    for i in range(4)]
        blown = ClusterResult(
            records=[], batches=[], shard_results=[], makespan=0.0,
            failovers=99, failover_expired=0, brownout_shed=0,
            brownout_spans=0, gossip_ticks=0,
            min_alive_shard_fraction=1.0)
        with pytest.raises(InvariantViolation, match="failover-bound"):
            check_failover_bound(blown, config, requests)

    def test_cluster_cell_end_to_end(self, costs):
        # Seed 1's domain outage kills a whole shard mid-run; the tight
        # in-shard retry budget pushes work onto the failover path.
        from repro.serve.chaos import run_cluster_cell
        cell = run_cluster_cell(seed=1, policy="builtin", costs=costs,
                                requests_per_cell=80)
        assert cell["mode"] == "domain-outage"
        assert sum(cell["outcomes"].values()) == 80
        assert cell["cluster"]["failovers"] > 0
        assert cell["cluster"]["min_alive_shard_fraction"] < 1.0
        assert set(cell["invariants"]) == {
            "conservation", "post-failstop", "post-domain-outage",
            "failover-bound", "replay-identity"}


class TestExitCodes:
    def test_invariant_failure_exits_three(self, monkeypatch, capsys):
        """The bench-gate convention: 3 = regression/violation, distinct
        from 2 = invalid configuration."""
        import repro.serve.chaos as chaos
        payload = {"schema": chaos.SCHEMA,
                   "matrix": {"seeds": [0], "modes": ["fail-stop"],
                              "policies": ["builtin"],
                              "autoscale": ["off"],
                              "requests_per_cell": 20,
                              "cluster_policies": []},
                   "cells": [],
                   "checkpoint_resume": "ok",
                   "failures": [{"cell": "seed=0 mode=fail-stop "
                                         "policy=builtin autoscale=off",
                                 "violation": "conservation: fabricated"}]}
        monkeypatch.setattr(chaos, "run_matrix",
                            lambda *a, **kw: payload)
        assert main([]) == 3
        assert "INVARIANT VIOLATED" in capsys.readouterr().err
