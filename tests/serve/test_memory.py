"""Memory per request on the serving path.

A trace holds one packed :class:`Request` row per arrival and a run one
record per request, which references its launch's row, so their bytes
set how long a trace fits in memory.
These tests pin the named-tuple ``Request``, a traced bytes-per-request
budget of a generated trace, of a fleet run plus its rollup and of a
2-shard cluster run plus its rollup, and the peaks of the rollup, which
gathers one latency column a chunk at a time, and of the sort that packs
a trace out of rid order, which moves one column at a time.
"""

import copy
import pickle
import random
import tracemalloc

import pytest

from repro.serve.cluster import ClusterConfig, ClusterSimulator
from repro.serve.costmodel import ServiceCostTable
from repro.serve.fleet import FleetSimulator, RecordTable, ServeConfig
from repro.serve.metrics import compute_metrics
from repro.serve.workload import Request, WorkloadConfig, generate_requests

#: Traced peak of generate_requests per request on the 20k-request trace
#: below: one packed 25 B row each in a ``bytearray``, which grows by
#: about 1/8 at a time (about 28 B/request).  A ``Request`` object per
#: arrival (126 B with its list slot, id and float) pushes it past the
#: bound.
TRACE_BYTES_PER_REQUEST = 32

#: Traced peak of FleetSimulator.run plus compute_metrics per request,
#: on the 20k-request trace below.  The generated trace is stepped in
#: place, with no arrival order and no copy of its rids, and the run
#: keeps a 5 B entry per request beside it (an int32 reference and a
#: hedged flag, written at its request's row, so nothing is sorted),
#: referencing one 63 B row per launch (about 43 B a request at this
#: trace's mean batch of 1.47, so about 48 B together).  Beside the rows
#: only the rollup (one latency column and a chunk) adds to the peak,
#: which reads about 67 B/request on Python 3.11, on the trace and on
#: the same trace with every rid doubled (a gap between every two),
#: whose records are written at their rows too.  A 30 B head per
#: request and the exactly-once sort it needs (about 96 B/request), a
#: named tuple per record (about 150 B each), a list of the decoded
#: trace (about 100 B a request), an arrival order and a sorted copy of
#: the rids held through the run (16 B a request), a copy of the whole
#: record table in the rollup, or appending a gapped trace's records to
#: place them afterwards (about 109 B/request), pushes it past the
#: bound.
RUN_BYTES_PER_REQUEST = 74

#: Traced peak of compute_metrics alone per request: one latency column
#: (8 B/request), the served mask, and one chunk of the served records'
#: fields and their builtin floats, which at this size adds about 7 B a
#: request (about 17 B/request on Python 3.11).  The column is sorted in
#: place (a stable sort's merge buffer, half the column, would not show
#: here: NumPy allocates it untraced).  Two whole columns of the served
#: records at once, a list of latencies, or a copy of the table, pushes
#: it past the bound.
ROLLUP_BYTES_PER_REQUEST = 18

#: Traced peak of RecordTable.sort_by per row, which sorts the 25 B
#: request rows of a trace out of rid order (see ``as_trace``): the sort
#: order and one 8-byte column of the rows in flight (about 16 B/row).
#: A copy of the table pushes it past the bound.
SORT_BYTES_PER_RECORD = 24

#: Traced peak of a 2-shard ClusterSimulator.run plus compute_metrics per
#: request, on the 20k-request trace below, with the simulator held
#: through the rollup.  Each shard appends its records, 30 B each (a
#: 25 B request row beside a 5 B entry), and the merged result is a 5 B
#: entry per request beside its trace row, each placed at its row.  The
#: launch rows, 63 B each, are held twice, in the shards' tables and the
#: merged one (about 46 B a request each at this trace's mean batch of
#: 1.38), and the router keeps the trace's rids contiguous (8 B): about
#: 135 B a request, to which the bytearrays' growth slack and the
#: rollup's latency column and masks add, for about 160 B/request on
#: Python 3.11 (192 B before the merged records became entries).  Merged
#: 30 B heads, a second copy of every record, push it past the bound.
CLUSTER_BYTES_PER_REQUEST = 176


def _table():
    """Service cycles of a quick-geometry bp/conv/fc table, hand-built so
    the test runs no kernel simulation."""
    cycles = {("bp", 1, False): 23_325.0, ("conv", 1, False): 4_382.0}
    fc = (1_020.0, 1_146.0, 1_272.0, 1_508.0, 1_782.0, 2_063.0, 2_334.0,
          2_670.0)
    for batch, c in enumerate(fc, 1):
        cycles[("fc", batch, False)] = c
    return ServiceCostTable(
        cycles=cycles,
        model_bytes={"bp": 2_912, "conv": 580, "fc": 2_048},
        tile_bytes={"bp": 2_912, "conv": 0, "fc": 0},
        quick=True, max_batch=8, fc_cap=8)


def _traced_peak(fn):
    """(fn(), bytes of the traced peak while fn ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - base


@pytest.fixture(scope="module")
def steady_trace():
    """20k bp+vgg Poisson arrivals below saturation on 4 chips."""
    return generate_requests(WorkloadConfig(
        mix="bp+vgg", arrival="poisson", rate=80_000.0, requests=20_000,
        seed=0))


class TestSlottedRequest:
    """``Request`` is a named tuple: no instance ``__dict__``, frozen
    fields, and ``_replace`` for a changed copy."""

    def test_has_no_instance_dict(self):
        req = Request(rid=3, kind="bp", tile=1, arrival=2.5)
        assert not hasattr(req, "__dict__")
        assert Request.__slots__ == ()
        assert Request._fields == ("rid", "kind", "tile", "arrival")

    def test_is_frozen(self):
        req = Request(rid=3, kind="bp", tile=1, arrival=2.5)
        with pytest.raises(AttributeError):
            req.arrival = 9.0
        with pytest.raises(AttributeError):
            req.priority = 1
        assert req == (3, "bp", 1, 2.5)

    def test_survives_pickle_deepcopy_and_replace(self):
        req = Request(rid=3, kind="conv", tile=None, arrival=2.5)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(req, protocol))
            assert clone == req and type(clone) is Request
        assert copy.deepcopy(req) == req
        moved = req._replace(arrival=7.0)
        assert moved == Request(rid=3, kind="conv", tile=None, arrival=7.0)
        assert req.arrival == 2.5

    def test_generated_trace_round_trips(self):
        trace = generate_requests(WorkloadConfig(mix="bp+vgg",
                                                 requests=50))
        assert isinstance(trace, RecordTable) and trace.row is Request
        assert pickle.loads(pickle.dumps(trace)) == trace
        assert copy.deepcopy(trace) == list(trace)


def test_trace_bytes_per_request(steady_trace):
    config = WorkloadConfig(mix="bp+vgg", arrival="poisson",
                            rate=80_000.0, requests=20_000, seed=0)
    trace, peak = _traced_peak(lambda: generate_requests(config))
    assert trace == steady_trace
    per_request = peak / len(trace)
    assert per_request <= TRACE_BYTES_PER_REQUEST, (
        f"{per_request:.1f} B/request traced, budget "
        f"{TRACE_BYTES_PER_REQUEST}")


def test_run_and_rollup_bytes_per_request(steady_trace):
    config = ServeConfig()
    costs = _table()
    gapped = RecordTable(Request, (r._replace(rid=2 * r.rid)
                                   for r in steady_trace))
    for trace in (steady_trace, gapped):
        def run():
            result = FleetSimulator(config, costs).run(trace)
            return compute_metrics(result.records, result.batches,
                                   result.makespan, config.slo_cycles,
                                   config.clock_ghz)

        metrics, peak = _traced_peak(run)
        assert metrics.served == len(trace)  # below saturation
        per_request = peak / len(trace)
        assert per_request <= RUN_BYTES_PER_REQUEST, (
            f"{per_request:.1f} B/request traced on the "
            f"{'gapped' if trace is gapped else 'generated'} trace, "
            f"budget {RUN_BYTES_PER_REQUEST}")


def test_cluster_run_and_rollup_bytes_per_request(steady_trace):
    config = ServeConfig(chips=2, cluster=ClusterConfig(shards=2))
    costs = _table()

    def run():
        sim = ClusterSimulator(config, costs)
        result = sim.run(steady_trace)
        return compute_metrics(result.records, result.batches,
                               result.makespan, config.slo_cycles,
                               config.clock_ghz)

    metrics, peak = _traced_peak(run)
    assert metrics.served == len(steady_trace)
    per_request = peak / len(steady_trace)
    assert per_request <= CLUSTER_BYTES_PER_REQUEST, (
        f"{per_request:.1f} B/request traced, budget "
        f"{CLUSTER_BYTES_PER_REQUEST}")


def test_rollup_holds_a_few_columns(steady_trace):
    config = ServeConfig()
    result = FleetSimulator(config, _table()).run(steady_trace)
    metrics, peak = _traced_peak(lambda: compute_metrics(
        result.records, result.batches, result.makespan, config.slo_cycles,
        config.clock_ghz))
    assert metrics.total == len(result.records)
    per_request = peak / len(steady_trace)
    assert per_request <= ROLLUP_BYTES_PER_REQUEST, (
        f"rollup peak {per_request:.1f} B/request, budget "
        f"{ROLLUP_BYTES_PER_REQUEST}")


def test_sort_holds_a_few_columns(steady_trace):
    rows = list(steady_trace)
    random.Random(0).shuffle(rows)
    trace = RecordTable(Request, rows)
    del rows
    _, peak = _traced_peak(lambda: trace.sort_by("rid"))
    assert trace == steady_trace
    per_row = peak / len(trace)
    assert per_row <= SORT_BYTES_PER_RECORD, (
        f"sort peak {per_row:.1f} B/row, budget {SORT_BYTES_PER_RECORD}")
