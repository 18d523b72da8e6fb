"""A trace in (arrival, rid) order is stepped in place, and serves as the
same rows in any other order do.

``arrival_order`` gives a trace whose rows already are in (arrival, rid)
order with ascending rids the identity, which the fleet and the cluster
router step without a permutation or a copy of the trace's rids and
arrivals; every other trace takes the ``lexsort`` path.  Here generated
traces (and the same traces with arrivals floored onto a grid, so that
many tie) are run both ways, through a fleet and through a 2-shard
cluster whose first shard fails, and must give equal records, launches,
metrics and progress snapshots.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.serve.cluster import ClusterConfig, ClusterSimulator
from repro.serve.failures import FailureWindow, scripted_timeline
from repro.serve.fleet import FleetSimulator, RecordTable
from repro.serve.fleet.records import arrival_order
from repro.serve.metrics import compute_metrics
from repro.serve.workload import Request, WorkloadConfig, generate_requests
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
