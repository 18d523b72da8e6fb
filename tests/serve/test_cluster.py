"""Cluster-of-fleets tests: router determinism, scripted cross-shard
failover, brown-out shedding, and the byte-identity guarantees.

The simulator-level tests script every failure with
:func:`scripted_timeline` (injected per shard via the ``timelines``
kwarg) so routing and failover interleavings are pinned exactly; the
report-level tests pin the schema-versioning contract — v6 appears only
when ``config.cluster`` is set, and a 1-shard cluster's per-mix payload
is the standalone payload with the fleet section re-shaped.
"""

import gc
import math
import random
import signal
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.faults.injector import stream_seed
from repro.serve.chaos import _cluster_cell_config
from repro.serve import cluster
from repro.serve.cluster import (
    ClusterConfig,
    ClusterSimulator,
    ShardBelief,
    _shard_failures,
)
from repro.serve.costmodel import ServiceCostTable, build_cost_table
from repro.serve.failures import (
    FailureConfig,
    FailureWindow,
    scripted_timeline,
)
from repro.serve.fleet import (
    BatchRecord,
    FleetSimulator,
    RecordTable,
    RequestRecord,
    ServeConfig,
)
from repro.serve.fleet.records import sorted_rids
from repro.serve.metrics import compute_metrics
from repro.serve.report import run_report
from repro.serve.resilience import OPEN, ResilienceConfig
from repro.serve.workload import Request, WorkloadConfig, generate_requests
from repro.trace.collector import TraceCollector
from tests.serve import test_memory


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


def _healthy(shards, chips=2):
    return [scripted_timeline(chips, {}) for _ in range(shards)]


class TestClusterConfig:
    @pytest.mark.parametrize("kw, msg", [
        (dict(shards=0), "cluster.shards must be positive"),
        (dict(router="warp"), "unknown router"),
        (dict(gossip_interval_cycles=0.0),
         "cluster.gossip_interval_cycles must be positive"),
        (dict(failover_retries=-1),
         "cluster.failover_retries must be nonnegative"),
        (dict(brownout_headroom=1.5), r"must be in \(0, 1\]"),
        (dict(brownout_headroom=0.0), r"must be in \(0, 1\]"),
        (dict(brownout_kinds=("warp",)), "unknown kind"),
        # A NaN interval would hang run()'s late-failover drain.
        (dict(gossip_interval_cycles=float("nan")),
         "cluster.gossip_interval_cycles: must be a finite number"),
        (dict(gossip_interval_cycles=float("inf")),
         "cluster.gossip_interval_cycles: must be a finite number"),
        (dict(brownout_headroom=float("nan")),
         "cluster.brownout_headroom: must be a finite number"),
    ])
    def test_validation(self, kw, msg):
        with pytest.raises(ConfigError, match=msg):
            ClusterConfig(**kw)

    @pytest.mark.parametrize("field, value, message", [
        # 2.5 shards used to raise a raw TypeError from range() once
        # ClusterSimulator built them.
        ("shards", 2.5, "shards: must be a positive integer, got 2.5"),
        # 0.5 retries used to construct.
        ("failover_retries", 0.5,
         "failover_retries: must be a nonnegative integer, got 0.5"),
    ])
    def test_counts_must_be_integers(self, field, value, message):
        with pytest.raises(ConfigError) as info:
            ClusterConfig(**{field: value})
        assert str(info.value) == f"cluster.{message}"
        kept = ClusterConfig(**{field: np.int64(2)})
        assert getattr(kept, field) == 2
        assert type(getattr(kept, field)) is int

    def test_as_dict_is_json_friendly(self):
        d = ClusterConfig(shards=2, brownout_headroom=0.5,
                          brownout_kinds=("fc", "conv")).as_dict()
        assert d["shards"] == 2
        assert d["brownout_kinds"] == ["fc", "conv"]
        assert isinstance(d["brownout_kinds"], list)

    def test_simulator_requires_a_cluster_section(self):
        with pytest.raises(ConfigError, match="needs config.cluster"):
            ClusterSimulator(_config(), _table())

    def test_timelines_must_match_shard_count(self):
        config = _config(cluster=ClusterConfig(shards=2))
        with pytest.raises(ConfigError, match="expected 2 timelines"):
            ClusterSimulator(config, _table(),
                             timelines=_healthy(1))


class TestShardSeeds:
    def test_shard_zero_keeps_the_base_failure_seed(self):
        config = _config(
            failures=FailureConfig(seed=5, fail_stop_chips=(0,),
                                   fail_stop_mtbf_cycles=1e6),
            cluster=ClusterConfig(shards=3))
        assert _shard_failures(config, 0) is config.failures
        for i in (1, 2):
            derived = _shard_failures(config, i)
            assert derived.seed == stream_seed(5, "serve-shard", i)
            assert derived.fail_stop_chips == (0,)

    def test_no_failures_stays_none_for_every_shard(self):
        config = _config(cluster=ClusterConfig(shards=2))
        assert _shard_failures(config, 0) is None
        assert _shard_failures(config, 1) is None


class TestPassThrough:
    """shards == 1 and no brown-out threshold: the router degenerates
    to a byte-identical pass-through around one FleetSimulator."""

    def _requests(self):
        return [_req(i, 10.0 * i, kind=("bp" if i % 2 else "fc"))
                for i in range(8)]

    def test_single_shard_is_byte_identical_to_the_fleet(self):
        config = _config(cluster=ClusterConfig(shards=1))
        sim = ClusterSimulator(config, _table())
        assert sim._active is False
        got = sim.run(self._requests())
        ref = FleetSimulator(_config(), _table()).run(self._requests())
        assert got.records == ref.records
        assert got.batches == ref.batches
        assert got.makespan == ref.makespan
        assert got.gossip_ticks == 0
        assert got.failovers == 0 and got.brownout_shed == 0
        assert got.min_alive_shard_fraction == 1.0

    def test_pass_through_holds_under_seeded_failures(self):
        failures = FailureConfig(seed=3, fail_stop_chips=(0,),
                                 fail_stop_mtbf_cycles=5_000.0,
                                 repair_mean_cycles=1_000.0)
        config = _config(failures=failures,
                         cluster=ClusterConfig(shards=1))
        got = ClusterSimulator(config, _table()).run(self._requests())
        ref = FleetSimulator(_config(failures=failures),
                             _table()).run(self._requests())
        assert got.records == ref.records
        assert got.batches == ref.batches

    def test_brownout_threshold_activates_the_router(self):
        config = _config(
            cluster=ClusterConfig(shards=1, brownout_headroom=0.5))
        assert ClusterSimulator(config, _table())._active is True


class TestRouting:
    def _run(self, router, n=4):
        config = _config(
            cluster=ClusterConfig(shards=2, router=router,
                                  gossip_interval_cycles=1_000.0))
        sim = ClusterSimulator(config, _table())
        return sim.run([_req(i, 10.0 * i) for i in range(n)])

    def test_round_robin_alternates_shards(self):
        result = self._run("round-robin")
        assert result.rollup()["shard_requests"] == [2, 2]
        assert sorted(r.rid for r in result.shard_results[0].records) \
            == [0, 2]

    def test_hash_routes_by_rid_modulo_pool(self):
        result = self._run("hash")
        assert sorted(r.rid for r in result.shard_results[0].records) \
            == [0, 2]
        assert sorted(r.rid for r in result.shard_results[1].records) \
            == [1, 3]

    def test_least_loaded_ties_break_to_the_lowest_shard(self):
        # Beliefs only refresh on the gossip grid; all four arrivals
        # land before the first tick, so every belief shows an empty
        # queue and the tie sends everything to shard 0.
        result = self._run("least-loaded")
        assert result.rollup()["shard_requests"] == [4, 0]


class TestFailover:
    """Scripted zone kill on shard 0: expiring work is handed back to
    the router and re-dispatched onto the surviving shard."""

    def _run(self, failover_retries=1):
        config = _config(
            resilience=_resilience(max_retries=0),
            cluster=ClusterConfig(shards=2, router="round-robin",
                                  gossip_interval_cycles=500.0,
                                  failover_retries=failover_retries))
        timelines = [
            scripted_timeline(2, {
                0: [FailureWindow("fail-stop", 600.0, 1e9)],
                1: [FailureWindow("fail-stop", 600.0, 1e9)],
            }),
            scripted_timeline(2, {}),
        ]
        sim = ClusterSimulator(config, _table(), timelines=timelines)
        return sim.run([_req(i, float(i)) for i in range(4)])

    def test_expiring_work_fails_over_and_serves(self):
        result = self._run()
        assert result.failovers == 2          # rids 0 and 2
        assert result.failover_expired == 0
        by_rid = {r.rid: r for r in result.records}
        assert set(by_rid) == {0, 1, 2, 3}
        assert all(r.outcome == "served" for r in result.records)
        assert result.rollup()["min_alive_shard_fraction"] == 0.5

    def test_failover_records_restore_original_arrivals(self):
        result = self._run()
        by_rid = {r.rid: r for r in result.records}
        for rid in range(4):
            assert by_rid[rid].arrival == float(rid)
        # The failed-over requests still pay for the dead-shard attempt
        # and the gossip-tick failover delay end to end.
        assert by_rid[0].latency > by_rid[1].latency
        # Restoring the arrival changes that one field of the record the
        # surviving shard wrote.
        survivor = {r.rid: r for r in result.shard_results[1].records}
        for rid in (0, 2):
            assert survivor[rid].arrival > float(rid)
            assert type(by_rid[rid]) is RequestRecord
            assert by_rid[rid] == survivor[rid]._replace(
                arrival=float(rid))

    def test_zero_budget_lets_work_expire_in_shard(self):
        result = self._run(failover_retries=0)
        assert result.failovers == 0
        outcomes = {r.rid: r.outcome for r in result.records}
        assert outcomes[0] == "expired" and outcomes[2] == "expired"
        assert outcomes[1] == "served" and outcomes[3] == "served"

    def test_replay_is_deterministic(self):
        a, b = self._run(), self._run()
        assert a.records == b.records
        assert a.rollup() == b.rollup()


class TestTrace:
    """The router serves a packed trace: a list of requests is packed
    into one first, the order and rid checks read its columns, and the
    original arrivals of failed-over requests come from it."""

    @staticmethod
    def _sim():
        # Shard 0's zone dies for good a seventh of the way in.
        config = _config(
            resilience=_resilience(max_retries=0),
            cluster=ClusterConfig(shards=2, router="least-loaded",
                                  gossip_interval_cycles=5_000.0))
        timelines = [
            scripted_timeline(2, {
                0: [FailureWindow("fail-stop", 2e6, 1e12)],
                1: [FailureWindow("fail-stop", 2e6, 1e12)],
            }),
            scripted_timeline(2, {}),
        ]
        return ClusterSimulator(config, _table(), timelines=timelines)

    @staticmethod
    def _tied_trace(grid=10_000.0):
        """A generated 5,000-request trace with arrivals floored to a
        grid, so many requests share an arrival."""
        trace = generate_requests(WorkloadConfig(
            mix="bp+vgg", rate=400_000.0, requests=5_000, seed=3))
        return RecordTable(Request, (
            r._replace(arrival=r.arrival // grid * grid) for r in trace))

    def test_a_trace_and_a_shuffled_list_serve_alike(self):
        trace = self._tied_trace()
        assert len({r.arrival for r in trace}) < len(trace) // 2
        shuffled = list(trace)
        random.Random(1).shuffle(shuffled)
        want = self._sim().run(trace)
        assert want.failovers > 0
        got = self._sim().run(shuffled)
        assert got.records == want.records
        assert got.batches == want.batches
        for a, b in zip(got.shard_results, want.shard_results):
            assert a.records == b.records
            assert a.chips == b.chips
            assert a.makespan == b.makespan
        assert got.rollup() == want.rollup()
        assert got.makespan == want.makespan
        arrivals = {r.rid: r.arrival for r in trace}
        assert all(r.arrival == arrivals[r.rid] for r in got.records)

    def test_equal_arrivals_route_in_rid_order(self):
        result = _round_robin_pair().run(
            [_req(rid, 0.0) for rid in (3, 1, 2, 0)])
        assert [r.rid for r in result.shard_results[0].records] == [0, 2]
        assert [r.rid for r in result.shard_results[1].records] == [1, 3]

    def test_duplicate_rids_in_a_trace_are_rejected_before_simulating(self):
        sim = _round_robin_pair()
        reqs = RecordTable(Request, [_req(0, 0.0), _req(0, 5.0),
                                     _req(1, 7.0)])
        with pytest.raises(ConfigError,
                           match=r"^duplicate request ids: \[0\]$"):
            sim.run(reqs)
        assert all(s._batcher is None for s in sim.shards)

    @pytest.mark.parametrize("requests", [[], RecordTable(Request)],
                             ids=["list", "trace"])
    def test_an_empty_trace_serves_nothing(self, requests):
        snapshots = []
        result = self._sim().run(requests, on_progress=snapshots.append)
        assert result.records == [] and result.batches == []
        assert result.makespan == 0.0 and result.gossip_ticks == 0
        assert [(s["requests_total"], s["served"]) for s in snapshots] \
            == [(0, 0)]

    def test_each_rid_is_owned_by_one_shard_in_a_column(self):
        trace = self._tied_trace()
        sim = self._sim()
        result = sim.run(trace)
        assert result.failovers > 0
        owner = sim._owner
        assert owner.dtype == np.int32 and len(owner) == len(trace)
        rids = sorted_rids(trace)
        # A shard appends its records in the order they resolved.
        for i, res in enumerate(result.shard_results):
            assert sorted(r.rid for r in res.records) == \
                rids[owner == i].tolist()
        # A failed-over request belongs to the shard it was re-dispatched
        # to, which saw the re-dispatch time as its arrival.
        assert sim._redispatched.keys() == sim._failover_count.keys()
        seen = {r.rid: r.arrival for res in result.shard_results
                for r in res.records}
        assert all(seen[rid] == at for rid, at in sim._redispatched.items())

    def test_the_router_keeps_a_few_bytes_per_request(self):
        """What the router allocates and keeps after a run: the trace's
        rids held contiguous (8 B a request) and the owner column (4 B);
        original arrivals are read from the trace.  A dict
        entry per routed request (about 32 B, beside the int and float
        it keeps alive) pushes it past the bound."""
        trace = self._tied_trace()
        sim = self._sim()
        tracemalloc.start(2)
        try:
            result = sim.run(trace)
            assert result.failovers > 0
            del result
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(
            True, cluster.__file__, all_frames=True)])
        per_request = sum(s.size for s in held.statistics("filename")) \
            / len(trace)
        assert per_request <= 16, per_request

    def test_the_launch_table_is_merged_once(self):
        result = TestFailover()._run()
        assert result.batches is result.batches
        merged = RecordTable(BatchRecord)
        for res in result.shard_results:
            merged.extend(res.batches)
        assert result.batches == merged
        assert len(merged) > len(result.shard_results[0].batches) > 0


@pytest.mark.parametrize("shards", [1, 2])
def test_a_finished_simulator_is_freed_without_the_cycle_collector(shards):
    """With two or more shards each shard's failover hook holds the
    router, which holds its shards; run() drops the hooks, so a finished
    simulator goes with its last reference, as a 1-shard one does, even
    with the cyclic collector off.  The run is serve-cluster-outage's
    failure, resilience and cluster settings on 2,000 bursty requests."""
    config = ServeConfig(
        chips=2, max_batch=4, queue_capacity=16,
        failures=FailureConfig(seed=0, domains=((0, 1),),
                               domain_mtbf_cycles=3_000_000.0,
                               domain_repair_mean_cycles=400_000.0),
        resilience=ResilienceConfig(max_retries=1,
                                    retry_deadline_cycles=600_000.0),
        cluster=ClusterConfig(shards=shards, router="least-loaded",
                              gossip_interval_cycles=20_000.0,
                              failover_retries=1))
    trace = generate_requests(WorkloadConfig(
        mix="bp+vgg", arrival="bursty", rate=20_000.0, requests=2_000,
        seed=0))
    gc.disable()
    try:
        sim = ClusterSimulator(config, test_memory._table())
        result = sim.run(trace)
        if shards > 1:
            assert all(s.on_expire is None for s in sim.shards)
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        gc.enable()
    assert len(result.records) == len(trace)


def _round_robin_pair():
    """Two shards, round-robin: rids 0 and 2 land on shard 0, 1 and 3 on
    shard 1 (no gossip tick falls before the last arrival)."""
    config = _config(
        cluster=ClusterConfig(shards=2, router="round-robin",
                              gossip_interval_cycles=1_000.0))
    return ClusterSimulator(config, _table())


def test_lost_request_raises_naming_it():
    sim = _round_robin_pair()
    shard = sim.shards[1]
    collect = shard.collect

    def lossy_collect(rids, span):
        result = collect(rids, span)
        result.records = [r for r in result.records if r.rid != 3]
        return result

    shard.collect = lossy_collect
    with pytest.raises(SimulationError,
                       match=r"lost without accounting: \[3\]"):
        sim.run([_req(i, 10.0 * i) for i in range(4)])


def test_request_recorded_twice_raises_naming_it():
    # Shard 1 also reports shard 0's record of rid 2: the merged record
    # lists used to keep one of the two and raise nothing.
    sim = _round_robin_pair()
    first, second = sim.shards
    collect = second.collect

    def doubling_collect(rids, span):
        result = collect(rids, span)
        result.records.extend(r for r in first._records if r.rid == 2)
        return result

    second.collect = doubling_collect
    with pytest.raises(SimulationError,
                       match=r"recorded more than once: \[2\]"):
        sim.run([_req(i, 10.0 * i) for i in range(4)])


def test_duplicate_request_ids_are_rejected_before_simulating():
    sim = _round_robin_pair()
    reqs = [_req(0, 0.0, tile=0), _req(0, 5.0, tile=1), _req(1, 7.0)]
    with pytest.raises(ConfigError, match=r"duplicate request ids: \[0\]"):
        sim.run(reqs)
    assert all(s._batcher is None for s in sim.shards)


def test_request_ids_outside_int64_are_rejected_before_simulating():
    sim = _round_robin_pair()
    reqs = [_req(0, 0.0), _req(2**63, 5.0), _req(1, 7.0)]
    with pytest.raises(ConfigError, match=r"request ids outside int64: "
                                          r"\[9223372036854775808\]"):
        sim.run(reqs)
    assert all(s._batcher is None for s in sim.shards)


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the body once ``seconds`` have passed, so a
    run that would never return fails instead."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("requests, message", [
    # An infinite arrival used to leave the gossip loop ticking toward
    # it forever.
    ([_req(0, 0.0), _req(1, math.inf), _req(2, 7.0)],
     r"^request ids with a non-finite arrival: \[1\]$"),
    ([_req(0, math.nan), _req(1, 5.0)],
     r"^request ids with a non-finite arrival: \[0\]$"),
    ([_req(0, 0.0, tile=-2**63), _req(1, 5.0, tile="t")],
     r"tile a row cannot hold .*: \[0, 1\]$"),
    ([_req(0, 0.0), _req(1, 5.0, kind="gibbs")],
     r"^request kinds the cost table has no column for: \['gibbs'\]"),
])
def test_requests_a_cluster_cannot_serve_are_rejected_before_routing(
        requests, message):
    sim = _round_robin_pair()
    with _deadline(30), pytest.raises(ConfigError, match=message):
        sim.run(requests)
    assert all(s._batcher is None for s in sim.shards)
    assert sim.gossip_ticks == 0


def _brownout_config():
    return _config(
        resilience=_resilience(max_retries=0),
        cluster=ClusterConfig(shards=1,
                              gossip_interval_cycles=200.0,
                              failover_retries=0,
                              brownout_headroom=0.5,
                              brownout_kinds=("fc",)))


def _brownout_timelines():
    return [scripted_timeline(2, {
        0: [FailureWindow("fail-stop", 600.0, 1e9)],
        1: [FailureWindow("fail-stop", 600.0, 1e9)],
    })]


def _brownout_requests():
    return [_req(0, 0.0), _req(1, 1.0),
            _req(2, 3_000.0, kind="fc"),
            _req(3, 3_100.0, kind="fc"),
            _req(4, 3_200.0)]  # bp is never a brown-out kind


class TestBrownout:
    def _run(self):
        sim = ClusterSimulator(_brownout_config(), _table(),
                               timelines=_brownout_timelines())
        return sim.run(_brownout_requests())

    def test_low_priority_kinds_shed_at_the_router_door(self):
        result = self._run()
        assert result.brownout_spans == 1
        assert result.brownout_shed == 2
        by_rid = {r.rid: r for r in result.records}
        for rid in (2, 3):
            assert by_rid[rid].outcome == "shed"
            assert by_rid[rid].shed is True
            assert by_rid[rid].arrival == pytest.approx(
                3_000.0 + 100.0 * (rid - 2))
        assert by_rid[4].outcome != "shed"  # protected kind admitted
        assert result.min_alive_shard_fraction == 0.0

    def test_everything_is_accounted_exactly_once(self):
        result = self._run()
        assert sorted(r.rid for r in result.records) == [0, 1, 2, 3, 4]


class TestReportSchema:
    """The cluster sections at the artifact level: null without
    ``cluster:``, and a 1-shard cluster re-shapes — but does not change
    — the standalone per-mix payload."""

    def _payload(self, cluster):
        workload = WorkloadConfig(mix="bp", arrival="poisson",
                                  rate=150_000.0, requests=20, seed=0)
        config = _config(cluster=cluster)
        payload, _ = run_report(workload, config, mixes=("bp",),
                                quick=True, max_workers=1)
        return payload

    def test_no_cluster_has_null_cluster_sections(self):
        payload = self._payload(None)
        assert payload["schema"] == "repro.serve/v7"
        assert payload["config"]["cluster"] is None
        mix = payload["mixes"]["bp"]
        assert mix["cluster"] is None and mix["shards"] is None
        assert len(mix["chips"]) == 2

    def test_single_shard_cluster_has_identical_content(self):
        ref = self._payload(None)
        payload = self._payload(ClusterConfig(shards=1))
        assert payload["schema"] == "repro.serve/v7"
        assert payload["config"]["cluster"]["shards"] == 1
        mix = dict(payload["mixes"]["bp"])
        ref_mix = dict(ref["mixes"]["bp"])
        # The fleet section is re-shaped (chips moves under shards[0]),
        # everything else is byte-identical to the standalone report.
        assert mix.pop("chips") is None and ref_mix.pop("shards") is None
        assert mix.pop("shards") == [{"autoscale": None,
                                      "chips": ref_mix.pop("chips")}]
        assert ref_mix.pop("cluster") is None
        cluster = mix.pop("cluster")
        assert cluster["failovers"] == 0
        assert cluster["brownout_shed"] == 0
        assert cluster["shard_requests"] == [20]
        assert mix == ref_mix


# -- change-driven gossip against per-tick sampling ----------------------


@pytest.fixture(scope="module")
def tiny_outage():
    """The tiny ``serve-cluster-outage`` benchmark config: two 2-chip
    shards, each one correlated zone, 2,000 bursty bp+gibbs requests."""
    costs = build_cost_table(4, quick=True, kinds=("bp", "gibbs"),
                             max_workers=1)
    requests = generate_requests(WorkloadConfig(
        mix="bp+gibbs", arrival="bursty", rate=20_000.0, requests=2_000,
        seed=0))
    config = ServeConfig(
        chips=2, max_batch=4, queue_capacity=16,
        failures=FailureConfig(seed=0, domains=((0, 1),),
                               domain_mtbf_cycles=3_000_000.0,
                               domain_repair_mean_cycles=400_000.0),
        resilience=ResilienceConfig(max_retries=1,
                                    retry_deadline_cycles=600_000.0),
        cluster=ClusterConfig(shards=2, router="least-loaded",
                              gossip_interval_cycles=20_000.0,
                              failover_retries=1))
    return config, costs, requests


def _sample(shard, i):
    """One shard sampled in full: breaker states recounted, the queue
    read through the admission queue."""
    breakers = shard.monitor.breakers
    alive = sum(1 for b in breakers if b.state != OPEN)
    queue = shard._queue
    return ShardBelief(
        shard=i,
        alive_fraction=alive / len(breakers) if breakers else 1.0,
        dispatchable=len(shard._dispatchable()),
        queue_depth=queue.waiting if queue is not None else 0)


class _PerTickCluster(ClusterSimulator):
    """Gossip before change-driven beliefs, kept as the reference
    oracle: every tick releases and drains every shard, samples it in
    full and rebuilds every belief."""

    def _refresh(self, g):
        cluster = self.cluster
        for shard in self.shards:
            for batch in shard._batcher.due(g):
                shard._push(batch.close, "dispatch", batch)
            shard._drain(until=g)
        self._beliefs = [_sample(s, i) for i, s in enumerate(self.shards)]
        self.gossip_ticks += 1
        alive = sum(1 for b in self._beliefs if b.capacity > 0)
        alive_fraction = alive / len(self._beliefs)
        self.min_alive_shard_fraction = min(self.min_alive_shard_fraction,
                                            alive_fraction)
        for shard in self.shards:
            shard._cluster_ctx = {
                "cluster.alive_shard_fraction": alive_fraction,
            }
        capacity = sum(b.capacity for b in self._beliefs)
        total = sum(b.dispatchable for b in self._beliefs)
        capacity_fraction = capacity / total if total else 0.0
        if self.trace is not None:
            self.trace.serve("cluster.gossip", "tick", g, 0.0, -1,
                             {"alive_shard_fraction": alive_fraction,
                              "capacity_fraction": capacity_fraction})
        if cluster.brownout_headroom is not None:
            active = capacity_fraction < cluster.brownout_headroom
            if active != self._brownout:
                if active:
                    self.brownout_spans += 1
                if self.trace is not None:
                    self.trace.serve("cluster.brownout", "transition",
                                     g, 0.0, -1,
                                     {"active": active,
                                      "capacity": capacity_fraction})
            self._brownout = active
        if not self._handbacks:
            return
        due = sorted((h for h in self._handbacks if h.expiry <= g),
                     key=lambda h: (h.expiry, h.rid))
        if due:
            self._handbacks = [h for h in self._handbacks if h.expiry > g]
            for h in due:
                self._redispatch(h, g)


class _CheckedCluster(ClusterSimulator):
    """The change-driven router, checking every tick's cheap observation
    against a full sample and counting belief rebuilds."""

    rebuilds = 0

    def _observe(self, shard):
        full = _sample(shard, self.shards.index(shard))
        cheap = ClusterSimulator._observe(shard)
        assert cheap == (full.alive_fraction, full.dispatchable,
                         full.queue_depth)
        return cheap

    def _believe(self, observed):
        self.rebuilds += 1
        super()._believe(observed)


def _assert_same_runs(config, costs, requests, timelines=lambda: None):
    """Both routers, each traced, give identical records, batches,
    rollups and trace events; returns the change-driven run."""
    runs = []
    for cls in (_PerTickCluster, _CheckedCluster):
        trace = TraceCollector()
        sim = cls(config, costs, trace=trace, timelines=timelines())
        runs.append((sim, sim.run(list(requests)), trace.events))
    (_, want, want_events), (sim, got, got_events) = runs
    assert got.records == want.records
    assert got.batches == want.batches
    assert got.rollup() == want.rollup()
    assert got_events == want_events
    assert any(e.kind == "cluster.gossip" for e in got_events)
    return sim, got


class TestChangeDrivenGossip:
    @pytest.fixture(scope="class")
    def chaos_costs(self):
        return build_cost_table(4, quick=True, degraded=True, kinds=("bp",))

    @pytest.mark.parametrize("policy", ("builtin", "pressure-shed"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_chaos_cluster_cells(self, seed, policy, chaos_costs):
        requests = generate_requests(WorkloadConfig(
            mix="bp", arrival="bursty", rate=250_000.0, requests=80,
            seed=seed))
        _assert_same_runs(_cluster_cell_config(policy, seed), chaos_costs,
                          requests)

    def test_brownout_config(self):
        sim, result = _assert_same_runs(
            _brownout_config(), _table(), _brownout_requests(),
            _brownout_timelines)
        assert result.brownout_spans == 1

    def test_tiny_cluster_outage(self, tiny_outage):
        sim, result = _assert_same_runs(*tiny_outage)
        assert result.failovers >= 1
        # Most ticks observe nothing new and rebuild nothing.
        assert sim.rebuilds < result.gossip_ticks / 2


def test_final_snapshot_matches_the_report_through_failover(tiny_outage):
    """Failed-over requests count their lost attempts and the failover
    delay in the progress stream too, as in the merged records."""
    config, costs, requests = tiny_outage
    snapshots = []
    result = ClusterSimulator(config, costs).run(
        list(requests), on_progress=snapshots.append)
    assert result.failovers >= 1
    m = compute_metrics(result.records, result.batches, result.makespan,
                        config.slo_cycles, config.clock_ghz)
    final = snapshots[-1]
    assert final["served"] == m.served
    assert final["latency_p50"] == m.latency_p50
    assert final["latency_p99"] == m.latency_p99
