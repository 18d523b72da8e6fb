"""A trace in (arrival, rid) order is stepped in place, and serves as the
same rows in any other order do.

``arrival_order`` gives a trace whose rows already are in (arrival, rid)
order with ascending rids the identity, which the fleet and the cluster
router step without a permutation or a copy of the trace's rids and
arrivals; every other trace takes the ``lexsort`` path, after
``as_trace`` has packed one out of rid order into a table sorted by rid.
Here generated traces (and the same traces with arrivals floored onto a
grid, so that many tie) are run both ways, through a fleet and through a
2-shard cluster whose first shard fails, and must give equal records,
launches, metrics and progress snapshots.

A fleet run writes each record at its request's row of an
``EntryTable`` over the trace, which reads the request's own fields from
the trace: row ``rid - rid0`` when the trace's rids are consecutive, and
the row a bisection of its rids finds when they have gaps.  An appended
table keeps its records with their request rows, as a cluster shard
does until the merge places them at their rows.  Both fill modes must
read alike through every reader and give the same records, and a table
over a trace must refuse a second record, or one of a request it has no
row for, as it is written.
"""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.serve.cluster import ClusterConfig, ClusterSimulator
from repro.serve.failures import (
    FailureConfig,
    FailureWindow,
    scripted_timeline,
)
from repro.serve.fleet import (
    BatchRecord,
    EntryTable,
    FleetSimulator,
    RecordTable,
    RequestRecord,
    ServeConfig,
)
from repro.serve.fleet.records import arrival_order, as_trace
from repro.serve.metrics import compute_metrics
from repro.serve.resilience import ResilienceConfig
from repro.serve.workload import Request, WorkloadConfig, generate_requests
from tests.serve import test_memory
from tests.serve.test_cluster import _config, _resilience, _table


def _fleet(trace):
    config = _config()
    sim = FleetSimulator(config, _table())
    snapshots = []
    result = sim.run(trace, on_progress=snapshots.append, progress_every=7)
    return result, snapshots, config


def _cluster(trace):
    # Shard 0's chips fail for good early on, so requests fail over and
    # latency runs from their original arrivals.
    config = _config(
        resilience=_resilience(max_retries=0),
        cluster=ClusterConfig(shards=2, router="least-loaded",
                              gossip_interval_cycles=5_000.0))
    timelines = [
        scripted_timeline(2, {0: [FailureWindow("fail-stop", 5e4, 1e12)],
                              1: [FailureWindow("fail-stop", 5e4, 1e12)]}),
        scripted_timeline(2, {}),
    ]
    sim = ClusterSimulator(config, _table(), timelines=timelines)
    snapshots = []
    result = sim.run(trace, on_progress=snapshots.append, progress_every=7)
    return result, snapshots, config


def _served(run, trace):
    result, snapshots, config = run(trace)
    metrics = compute_metrics(result.records, result.batches,
                              result.makespan, config.slo_cycles,
                              config.clock_ghz)
    return list(result.records), list(result.batches), metrics, snapshots


def _descending_ties(trace):
    """The rows of ``trace`` by arrival, tied arrivals by descending
    rid: out of (arrival, rid) order."""
    return RecordTable(Request, sorted(trace, key=lambda r: (r.arrival,
                                                             -r.rid)))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), requests=st.integers(1, 300),
       mix=st.sampled_from(["bp", "bp+vgg", "vgg"]),
       rate=st.sampled_from([50_000.0, 400_000.0]),
       grid=st.sampled_from([None, 2_000.0, 20_000.0]))
def test_in_place_and_sorted_paths_serve_alike(seed, requests, mix, rate,
                                               grid):
    trace = generate_requests(WorkloadConfig(mix=mix, rate=rate,
                                             requests=requests, seed=seed))
    if grid is not None:
        trace = RecordTable(Request, (r._replace(arrival=r.arrival // grid
                                                 * grid) for r in trace))
    rows = list(trace)
    random.Random(seed).shuffle(rows)
    others = [RecordTable(Request, rows), _descending_ties(trace)]
    assert isinstance(arrival_order(trace)[0], range)
    for run in (_fleet, _cluster):
        want = _served(run, trace)
        for other in others:
            if other == trace:  # one row, or no tie to reverse
                continue
            assert not isinstance(arrival_order(other)[0], range)
            assert _served(run, other) == want


def _failing():
    """Failures on: fail-stops kill launches, which retry once and then
    expire, as do requests past a short deadline; a fail-slow chip makes
    hedges race; a small queue sheds the oldest request."""
    return ServeConfig(
        chips=3, max_batch=4, max_wait_cycles=200.0, queue_capacity=6,
        shed_policy="drop-oldest", dispatch_overhead_cycles=10.0,
        slo_cycles=5_000.0,
        failures=FailureConfig(
            seed=1, fail_stop_chips=(0, 1), fail_stop_mtbf_cycles=5_000.0,
            repair_mean_cycles=10_000.0, fail_slow_chips=(2,),
            fail_slow_mtbf_cycles=15_000.0,
            fail_slow_duration_cycles=8_000.0),
        resilience=ResilienceConfig(
            health_check_interval_cycles=500.0, retry_backoff_cycles=400.0,
            max_retries=1, retry_deadline_cycles=1_500.0,
            hedge_delay_cycles=200.0, breaker_open_cycles=2_000.0))


def _run(config, costs, requests):
    sim = FleetSimulator(config, costs)
    snapshots = []
    result = sim.run(requests, on_progress=snapshots.append,
                     progress_every=7)
    return sim, result, snapshots


def _assert_read_alike(placed, heads, seed):
    """Every reader of the request-record tables ``placed`` and
    ``heads`` (either fill mode) gives the same rows and fields."""
    assert placed == heads and heads == placed
    assert placed == list(heads) and list(placed) == heads
    n = len(heads)
    for i in {0, n // 2, n - 1, -1}:
        assert repr(placed[i]) == repr(heads[i])
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < 0.5
    order = rng.permutation(n)
    assert list(placed.take(order)) == list(heads.take(order))
    texts = {"served", "shed", "expired", "bp", "conv", "fc", "never"}
    for name in RequestRecord._fields:
        for index in (slice(None), mask, order, slice(None, None, -2),
                      slice(3, -2)):
            if name in ("kind", "outcome"):
                for text in texts:
                    assert placed.matches(name, text, index).tolist() == \
                        heads.matches(name, text, index).tolist(), name
                continue
            got, want = placed.column(name, index), heads.column(name,
                                                                index)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
    for cut in (slice(None), slice(2, -3), slice(None, None, -3),
                slice(n // 2, n // 2)):
        assert placed[cut] == heads[cut] and heads[cut] == placed[cut]
        assert repr(list(placed[cut])) == repr(list(heads[cut]))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(placed, protocol)) == \
            pickle.loads(pickle.dumps(heads, protocol))
    assert copy.deepcopy(placed) == copy.deepcopy(heads)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), requests=st.integers(2, 400),
       failing=st.booleans())
@example(seed=1, requests=400, failing=True)
@example(seed=0, requests=400, failing=False)
def test_positioned_records_read_as_sorted_heads(seed, requests, failing):
    if failing:
        config, costs = _failing(), _table()
    else:
        config, costs = ServeConfig(), test_memory._table()
    trace = generate_requests(WorkloadConfig(
        mix="bp+vgg", rate=400_000.0 if failing else 80_000.0,
        requests=requests, seed=seed))
    shuffled = list(trace)
    random.Random(seed).shuffle(shuffled)
    if shuffled == list(trace):
        shuffled.reverse()
    _, placed, placed_snapshots = _run(config, costs, trace)
    _, heads, heads_snapshots = _run(config, costs, shuffled)
    # Both are written at their rows: of the generated trace, and of the
    # rid-sorted table the shuffled rows are packed into.
    assert placed.records.requests is trace
    assert heads.records.requests == trace
    _assert_read_alike(placed.records, heads.records, seed)
    assert list(placed.batches) == list(heads.batches)
    assert placed_snapshots == heads_snapshots
    # A slice is an appended table, its own request rows beside its
    # entries: the other fill mode.
    appended = placed.records[:]
    assert appended.requests is not trace
    _assert_read_alike(placed.records, appended, seed)


def test_the_failing_fleet_writes_every_kind_of_record():
    trace = generate_requests(WorkloadConfig(mix="bp+vgg", rate=400_000.0,
                                             requests=400, seed=1))
    sim, result, _ = _run(_failing(), _table(), trace)
    records = result.records
    assert records.matches("outcome", "shed").any()
    assert records.matches("outcome", "expired").any()
    assert records.column("hedged").any()
    assert sim.retry_count > 0


def test_a_trace_picks_the_layout():
    # Every run's records sit over its trace, rid gaps or not.
    for rows in ([(4, 0.0), (5, 0.0), (6, 2.0)], [(-2**63, 0.0)],
                 # Rids out of arrival order are sorted into rows.
                 [(5, 0.0), (4, 1.0)],
                 # A rid gap, and no rows at all.
                 [(4, 0.0), (6, 1.0)], [],
                 [(-2**63, 0.0), (9, 0.5), (2**63 - 1, 1.0)]):
        trace = as_trace([Request(rid, "bp", None, arrival)
                          for rid, arrival in rows])
        records = FleetSimulator(ServeConfig(), test_memory._table()).run(
            trace).records
        assert records.requests is trace, rows
        assert [r.rid for r in records] == sorted(rid for rid, _ in rows)
        assert records.matches("outcome", "served").all()


def _failing_fleet(trace):
    _, result, snapshots = _run(_failing(), _table(), trace)
    return result, snapshots, _failing()


@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), requests=st.integers(1, 300),
       mix=st.sampled_from(["bp", "bp+vgg"]))
@example(seed=1, requests=300, mix="bp+vgg")
def test_gapped_rids_serve_as_consecutive_ones(seed, requests, mix):
    # Doubled rids leave a gap between every two, so a fleet's table
    # over the trace finds each record's row by bisecting the rids, and
    # the cluster's merge by searching them; rids in the input's order
    # are sorted first.  Neither router reads a rid's value, so
    # every decision, and every record but its rid, is the same.
    trace = generate_requests(WorkloadConfig(mix=mix, rate=400_000.0,
                                             requests=requests, seed=seed))
    doubled = RecordTable(Request, (r._replace(rid=2 * r.rid)
                                    for r in trace))
    shuffled = list(doubled)
    random.Random(seed).shuffle(shuffled)
    for run in (_failing_fleet, _cluster):
        records, *rest = _served(run, trace)
        for other in (doubled, shuffled):
            got, *got_rest = _served(run, other)
            assert [r._replace(rid=r.rid // 2) for r in got] == records
            assert got_rest == rest


def test_the_trace_can_grow_after_the_run():
    trace = generate_requests(WorkloadConfig(mix="bp+vgg", requests=50))
    result = FleetSimulator(ServeConfig(), test_memory._table()).run(trace)
    before = list(result.records)
    trace.append(Request(50, "fc", None, trace[-1].arrival + 1.0))
    assert len(result.records) == 50 and result.records == before
    with pytest.raises(ValueError, match="read-only"):
        result.records.column("arrival")[0] = 0.0


class TestExactlyOnceAtTheRow:
    """A positioned table checks exactly-once where a record is written."""

    def _table(self):
        trace = RecordTable(Request, [Request(10 + i, "bp", i, float(i))
                                      for i in range(4)])
        launches = RecordTable(BatchRecord, [
            BatchRecord(0, "bp", 1, 0, 0.0, 1.0, 2.0, 0.0)])
        return trace, EntryTable(RequestRecord, launches=launches,
                                 trace=trace)

    def test_a_second_record_raises_naming_the_rid(self):
        trace, table = self._table()
        table.add_each([trace[1]], 0, False)
        twice = r"^requests recorded more than once: \[11\]$"
        with pytest.raises(SimulationError, match=twice):
            table.add_each([trace[1]], 0, True)
        with pytest.raises(SimulationError, match=twice):
            table.add_rest([trace[1]], False, -1, -1, 0, 3.0, 0.0, 0.0,
                           "expired", 0, False)
        with pytest.raises(SimulationError, match=twice):
            table.add(*trace[1], True, -1, -1, 0, 3.0, 0.0, 0.0, "shed", 0,
                      False)
        assert table.written() == 1
        assert table[1] == RequestRecord(11, "bp", 1, 1.0, False, 0, 0, 1,
                                         0.0, 1.0, 2.0)

    @pytest.mark.parametrize("rid", [9, 14, 6, 10 + 2**40, -2**63])
    def test_a_rid_without_a_row_raises(self, rid):
        # Row -1 (rid 9) would wrap to the last row without the check.
        trace, table = self._table()
        with pytest.raises(SimulationError,
                           match=rf"^records of unknown requests: \[{rid}\]$"):
            table.add_each([Request(rid, "bp", 0, 0.0)], 0, False)
        assert table.written() == 0

    def test_a_record_never_written_is_named(self):
        trace, table = self._table()
        table.add_each([trace[0], trace[2]], 0, False)
        with pytest.raises(SimulationError,
                           match=r"^requests lost without accounting: "
                                 r"\[11, 13\]$"):
            table.check_complete()
        # Until then a row without a record matches nothing, and no
        # head can stand for it.
        assert table.matches("outcome", "served").tolist() == [
            True, False, True, False]
        assert table.written() == 2
        with pytest.raises(SimulationError, match=r"\[11, 13\]$"):
            table[:]
        table.add_rest([trace[1], trace[3]], True, -1, -1, 0, 5.0, 0.0, 0.0,
                       "shed", 0, False)
        table.check_complete()
        assert [r.outcome for r in table] == ["served", "shed", "served",
                                              "shed"]

    def test_a_gapped_trace_finds_each_row(self):
        trace = RecordTable(Request, [Request(rid, "bp", i, float(i))
                                      for i, rid in enumerate((-5, 10, 12,
                                                               40))])
        launches = RecordTable(BatchRecord, [
            BatchRecord(0, "bp", 1, 0, 0.0, 1.0, 2.0, 0.0)])
        table = EntryTable(RequestRecord, launches=launches, trace=trace)
        table.add_each([trace[2], trace[0]], 0, False)
        for rid in (11, 41, -6, 13, 9, -2**63, 2**63 - 1):
            with pytest.raises(SimulationError,
                               match=rf"^records of unknown requests: "
                                     rf"\[{rid}\]$"):
                table.add_each([Request(rid, "bp", 0, 0.0)], 0, False)
        with pytest.raises(SimulationError,
                           match=r"^requests recorded more than once: "
                                 r"\[12\]$"):
            table.add_rest([trace[2]], True, -1, -1, 0, 5.0, 0.0, 0.0,
                           "shed", 0, False)
        assert table.written() == 2
        table.add_rest([trace[3], trace[1]], True, -1, -1, 0, 5.0, 0.0,
                       0.0, "shed", 0, False)
        table.check_complete()
        assert [(r.rid, r.outcome) for r in table] == [
            (-5, "served"), (10, "shed"), (12, "served"), (40, "shed")]

    def test_the_fleet_raises_at_the_second_write(self):
        written = []

        class Twice(FleetSimulator):
            def _shed(self, request, now):
                super()._shed(request, now)
                written.append(request.rid)
                super()._shed(request, now)

        trace = generate_requests(WorkloadConfig(mix="bp+vgg",
                                                 rate=400_000.0,
                                                 requests=300, seed=3))
        with pytest.raises(SimulationError) as info:
            Twice(_failing(), _table()).run(trace)
        assert str(info.value) == (f"requests recorded more than once: "
                                   f"[{written[0]}]")

    def test_collect_names_the_requests_never_recorded(self):
        class Forgetful(FleetSimulator):
            def _shed(self, request, now):
                pass

        trace = generate_requests(WorkloadConfig(mix="bp+vgg",
                                                 rate=400_000.0,
                                                 requests=300, seed=3))
        shed = FleetSimulator(_failing(), _table()).run(trace).records
        lost = sorted(r.rid for r in shed if r.outcome == "shed")
        assert lost
        with pytest.raises(SimulationError) as info:
            Forgetful(_failing(), _table()).run(trace)
        assert str(info.value) == f"requests lost without accounting: {lost}"
