"""Fleet scheduling on a hand-built cost table (no simulator runs)."""

import math
import random

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.serve.costmodel import ServiceCostTable
from repro.serve.fleet import (
    BatchRecord,
    EntryTable,
    FleetSimulator,
    RecordTable,
    RequestRecord,
    ServeConfig,
)
from repro.serve.fleet.records import arrival_order, as_trace
from repro.serve.workload import Request, WorkloadConfig, generate_requests
from repro.trace.collector import TraceCollector


def _table(max_batch=4, bp_model_bytes=800):
    cycles = {("bp", 1, False): 1000.0, ("bp", 1, True): 1500.0,
              ("conv", 1, False): 500.0, ("conv", 1, True): 700.0}
    fc = {1: 100.0, 2: 150.0, 3: 190.0, 4: 220.0}
    for b, c in fc.items():
        cycles[("fc", b, False)] = c
        cycles[("fc", b, True)] = 2.0 * c
    return ServiceCostTable(
        cycles=cycles,
        model_bytes={"bp": bp_model_bytes, "conv": 400, "fc": 1600},
        tile_bytes={"bp": 80, "conv": 0, "fc": 0},
        quick=True,
        max_batch=max_batch,
    )


def _config(**kw):
    defaults = dict(chips=2, policy="least-loaded", max_batch=4,
                    max_wait_cycles=50.0, queue_capacity=16,
                    dispatch_overhead_cycles=10.0,
                    reload_bytes_per_cycle=8.0, slo_cycles=10_000.0)
    defaults.update(kw)
    return ServeConfig(**defaults)


def _req(rid, arrival, kind="bp", tile=0):
    return Request(rid=rid, kind=kind, tile=tile, arrival=arrival)


def test_single_request_accounting_exact():
    # bp model reload = 800/8 = 100 cycles; overhead 10; service 1000.
    result = FleetSimulator(_config(), _table()).run([_req(0, 0.0)])
    (r,) = result.records
    assert not r.shed
    assert r.dispatch == 50.0          # max_wait deadline
    assert r.start == 50.0             # chip idle
    assert r.finish == 50.0 + 100.0 + 10.0 + 1000.0
    assert r.batch_wait == 50.0
    assert r.queue_wait == 0.0
    assert r.service == 1110.0
    assert r.latency == r.batch_wait + r.queue_wait + r.service
    assert result.makespan == r.finish - r.arrival
    chip = result.chips[r.chip]
    assert chip.busy_cycles == 1110.0
    assert chip.reload_cycles == 100.0


def test_fc_batch_uses_batched_kernel_cycles():
    config = _config(max_batch=3, max_wait_cycles=1e6)
    reqs = [_req(i, float(i), kind="fc") for i in range(3)]
    result = FleetSimulator(config, _table()).run(reqs)
    (batch,) = result.batches
    assert batch.size == 3
    # fc/B=3 measured cycles (190), not 3 x fc/B=1 (300).
    assert batch.finish - batch.start == pytest.approx(
        1600 / 8 + 10 + 190.0)


def test_bp_batch_is_per_pass_linear():
    config = _config(max_batch=2, max_wait_cycles=1e6)
    reqs = [_req(0, 0.0), _req(1, 1.0)]
    result = FleetSimulator(config, _table()).run(reqs)
    (batch,) = result.batches
    assert batch.finish - batch.start == pytest.approx(100 + 10 + 2 * 1000.0)


def test_round_robin_alternates_chips():
    config = _config(policy="round-robin", max_batch=1)
    reqs = [_req(i, 10.0 * i) for i in range(4)]
    result = FleetSimulator(config, _table()).run(reqs)
    assert [b.chip for b in result.batches] == [0, 1, 0, 1]


def test_least_loaded_prefers_earliest_free_chip():
    config = _config(policy="least-loaded", max_batch=1)
    # Three immediate single-request batches: 0 -> chip0, 1 -> chip1,
    # 2 -> whichever frees first (chip1: conv is shorter than bp).
    reqs = [_req(0, 0.0, kind="bp"), _req(1, 1.0, kind="conv"),
            _req(2, 2.0, kind="bp")]
    result = FleetSimulator(config, _table()).run(reqs)
    assert [b.chip for b in result.batches] == [0, 1, 1]


def test_locality_sticks_to_warm_chip_when_reload_dominates():
    # Expensive bp model: reload 10_000 cycles. A second same-tile bp
    # batch goes back to the warm chip rather than re-staging on a cold
    # one (it arrives after the warm chip has drained).
    table = _table(bp_model_bytes=80_000)
    config = _config(policy="locality", max_batch=1)
    reqs = [_req(0, 0.0, tile=2), _req(1, 12_000.0, tile=2)]
    result = FleetSimulator(config, table).run(reqs)
    assert [b.chip for b in result.batches] == [0, 0]
    assert result.batches[1].reload == 0.0


def test_locality_switches_chip_when_queueing_dominates():
    # Cheap reload (100 cycles): the idle chip finishes first even cold.
    config = _config(policy="locality", max_batch=1)
    reqs = [_req(0, 0.0, tile=2), _req(1, 200.0, tile=2)]
    result = FleetSimulator(config, _table()).run(reqs)
    assert [b.chip for b in result.batches] == [0, 1]


def test_locality_pays_tile_reload_on_same_kind_tile_switch():
    table = _table(bp_model_bytes=80_000)
    config = _config(policy="locality", max_batch=1, chips=1)
    reqs = [_req(0, 0.0, tile=2), _req(1, 20_000.0, tile=5)]
    result = FleetSimulator(config, table).run(reqs)
    # Same kind, different tile: only the 80-byte tile state re-stages.
    assert result.batches[1].reload == pytest.approx(80 / 8)


def test_degraded_chip_uses_degraded_service_times():
    config = _config(chips=1, degraded_chips=(0,), max_batch=1)
    result = FleetSimulator(config, _table()).run([_req(0, 0.0)])
    (batch,) = result.batches
    assert batch.finish - batch.start == pytest.approx(100 + 10 + 1500.0)


def test_queue_capacity_sheds_and_traces():
    trace = TraceCollector()
    config = _config(chips=1, queue_capacity=1, max_batch=4,
                     max_wait_cycles=1e6)
    reqs = [_req(0, 0.0), _req(1, 1.0), _req(2, 2.0)]
    result = FleetSimulator(config, _table(), trace=trace).run(reqs)
    shed = [r for r in result.records if r.shed]
    assert [r.rid for r in shed] == [1, 2]
    kinds = [e.kind for e in trace.events]
    assert kinds.count("serve.shed") == 2
    assert kinds.count("serve.batch") == 1
    assert kinds.count("serve.request") == 1
    batch_event = trace.by_kind("serve.batch")[0]
    assert batch_event.attrs["chip"] == 0
    assert batch_event.attrs["size"] == 1


def test_records_come_back_in_rid_order_with_invariants():
    config = _config(max_batch=3, queue_capacity=4, max_wait_cycles=30.0)
    reqs = [_req(i, 7.0 * i, kind=("bp", "fc", "conv")[i % 3], tile=i % 2)
            for i in range(24)]
    result = FleetSimulator(config, _table()).run(reqs)
    assert [r.rid for r in result.records] == list(range(24))
    for r in result.records:
        if r.shed:
            continue
        assert r.batch_wait >= 0.0
        assert r.queue_wait >= 0.0
        assert r.service > 0.0
        assert 0 < r.batch_size <= 3
        assert 0 <= r.chip < 2
        assert r.latency == pytest.approx(
            r.batch_wait + r.queue_wait + r.service)
    assert result.makespan == pytest.approx(
        max(b.finish for b in result.batches) - reqs[0].arrival)


def test_max_batch_beyond_table_range_raises():
    with pytest.raises(ConfigError):
        FleetSimulator(_config(max_batch=5), _table(max_batch=4))


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("field", ("max_wait_cycles",
                                   "dispatch_overhead_cycles",
                                   "reload_bytes_per_cycle", "slo_cycles",
                                   "clock_ghz"))
def test_non_finite_knobs_are_rejected_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=(
            rf"^config\.{field}: must be a finite number, got {value!r}$")):
        _config(**{field: value})


@pytest.mark.parametrize("value", (0.0, -1.0))
def test_a_clock_that_is_not_positive_is_rejected(value):
    # A zero clock would simulate a whole run and then divide its rollup
    # by zero seconds; a negative one would report no throughput.
    with pytest.raises(ConfigError, match=(
            rf"^config\.clock_ghz: must be > 0, got {value!r}$")):
        _config(clock_ghz=value)


@pytest.mark.parametrize("field, value, message", [
    # 2.5 used to launch 3-request batches.
    ("max_batch", 2.5, "max_batch: must be a positive integer, got 2.5"),
    # 2.5 used to run.
    ("queue_capacity", 2.5,
     "queue_capacity: must be a positive integer, got 2.5"),
    # 2.5 used to raise a raw TypeError from range().
    ("chips", 2.5, "chips: must be a positive integer, got 2.5"),
    # 0 and -1.0 used to fail only at begin(), with undotted messages.
    ("queue_capacity", 0,
     "queue_capacity: must be a positive integer, got 0"),
    # The id keeps the message the case matched before the field
    # declared its bound.
    pytest.param("max_wait_cycles", -1.0,
                 "max_wait_cycles: must be > 0, got -1.0",
                 id="max_wait_cycles--1.0-max_wait_cycles: must be "
                    "nonnegative, got -1.0"),
])
def test_counts_are_refused_at_construction_naming_the_field(field, value,
                                                             message):
    with pytest.raises(ConfigError) as info:
        _config(**{field: value})
    assert str(info.value) == f"config.{message}"


def test_numpy_integer_counts_are_kept_as_ints():
    config = _config(chips=np.int64(3), max_batch=np.int32(4),
                     queue_capacity=np.uint8(5))
    counts = (config.chips, config.max_batch, config.queue_capacity)
    assert counts == (3, 4, 5)
    assert [type(c) for c in counts] == [int, int, int]


def test_degraded_chip_id_out_of_range_raises():
    with pytest.raises(ConfigError):
        _config(degraded_chips=(7,))


def _finished(reqs):
    """A simulator that has run ``reqs`` to the end, before collect()."""
    sim = FleetSimulator(_config(), _table())
    sim.begin()
    for req in reqs:
        sim.step(req)
    sim.finish()
    return sim


def _collect(sim, reqs):
    """collect() for the requests ``reqs``, as run() calls it."""
    trace = as_trace(reqs)
    return sim.collect(trace, arrival_order(trace)[1])


def _six_requests():
    return [_req(i, 10.0 * i, kind=("bp", "fc")[i % 2]) for i in range(6)]


def test_lost_request_raises_naming_it():
    reqs = _six_requests()
    sim = _finished(reqs)
    sim._records = EntryTable(RequestRecord,
                              (r for r in sim._records if r.rid != 3))
    with pytest.raises(SimulationError,
                       match=r"lost without accounting: \[3\]"):
        _collect(sim, reqs)


def test_request_recorded_twice_raises_naming_it():
    reqs = _six_requests()
    sim = _finished(reqs)
    sim._records.append(next(r for r in sim._records if r.rid == 3))
    with pytest.raises(SimulationError,
                       match=r"recorded more than once: \[3\]"):
        _collect(sim, reqs)


def test_record_of_an_unknown_request_raises_naming_it():
    reqs = _six_requests()
    sim = _finished(reqs)
    with pytest.raises(SimulationError,
                       match=r"records of unknown requests: \[5\]"):
        _collect(sim, reqs[:5])


def test_collect_returns_the_record_list_sorted_in_place():
    reqs = _six_requests()
    sim = _finished(reqs)
    result = _collect(sim, reqs)
    assert result.records is sim._records
    assert [r.rid for r in result.records] == list(range(6))


def test_duplicate_request_ids_are_rejected_before_simulating():
    # Two requests with rid 0 used to come back as one record counted
    # twice, the other request lost.
    reqs = [_req(0, 0.0, tile=0), _req(0, 5.0, tile=1), _req(1, 7.0),
            _req(4, 8.0), _req(4, 9.0), _req(4, 11.0)]
    trace = TraceCollector()
    sim = FleetSimulator(_config(), _table(), trace=trace)
    with pytest.raises(ConfigError, match=r"duplicate request ids: \[0, 4\]"):
        sim.run(reqs)
    assert sim._batcher is None and not sim._records
    assert not trace.events


def test_request_ids_outside_int64_are_rejected_before_simulating():
    # A request row stores its rid as an int64.
    reqs = [_req(2**63, 0.0), _req(1, 5.0), _req(-2**63 - 1, 7.0)]
    trace = TraceCollector()
    sim = FleetSimulator(_config(), _table(), trace=trace)
    with pytest.raises(ConfigError, match=r"request ids outside int64: "
                                          r"\[-9223372036854775809, "
                                          r"9223372036854775808\]"):
        sim.run(reqs)
    assert sim._batcher is None and not sim._records
    assert not trace.events


@pytest.mark.parametrize("requests, message", [
    # A NaN arrival used to be served at a NaN time, or lost.
    ([_req(0, 0.0), _req(1, math.nan), _req(2, 5.0)],
     r"^request ids with a non-finite arrival: \[1\]$"),
    ([_req(0, math.inf), _req(1, 0.0), _req(2, -math.inf)],
     r"^request ids with a non-finite arrival: \[0, 2\]$"),
    # The int64 minimum stores None; the others used to raise a raw
    # struct.error.
    ([_req(0, 0.0, tile=-2**63), _req(1, 1.0, tile=2**63),
      _req(2, 2.0, tile=1.5), _req(3, 3.0, tile=None)],
     r"tile a row cannot hold .*: \[0, 1, 2\]$"),
    # A raw KeyError at the first launch, before.
    ([_req(0, 0.0, kind="gibbs"), _req(1, 1.0), _req(2, 2.0, kind="gibbs")],
     r"^request kinds the cost table has no column for: \['gibbs'\]"),
    # A kind a row cannot hold is refused as the trace is packed.
    ([_req(0, 0.0, kind="gibbs"), _req(1, 1.0), _req(2, 2.0, kind="warp"),
      _req(3, 3.0, kind="BP")],
     r"^request ids with a kind outside \['bp', 'conv', 'fc', 'gibbs'\]: "
     r"\[2, 3\]$"),
])
def test_requests_a_run_cannot_serve_are_rejected_before_simulating(
        requests, message):
    trace = TraceCollector()
    sim = FleetSimulator(_config(), _table(), trace=trace)
    with pytest.raises(ConfigError, match=message):
        sim.run(requests)
    assert sim._batcher is None and not sim._records
    assert not trace.events


def _tied_trace(requests=5_000, seed=3, grid=10_000.0):
    """A generated bp+vgg trace (more rows than one decoded chunk) with
    arrivals floored to a ``grid``-cycle grid, so many requests share an
    arrival."""
    trace = generate_requests(WorkloadConfig(
        mix="bp+vgg", rate=400_000.0, requests=requests, seed=seed))
    return RecordTable(Request, (r._replace(arrival=r.arrival // grid * grid)
                                 for r in trace))


def _stepped(config, reqs, key):
    """``reqs`` stepped through the simulator by hand in ``key`` order."""
    sim = FleetSimulator(config, _table())
    sim.begin()
    for req in sorted(reqs, key=key):
        sim.step(req)
    sim.finish()
    return _collect(sim, reqs)


def test_a_trace_and_a_shuffled_list_serve_alike():
    trace = _tied_trace()
    assert len({r.arrival for r in trace}) < len(trace) // 2
    shuffled = list(trace)
    random.Random(0).shuffle(shuffled)
    config = _config()
    # Equal arrivals are served in rid order; the reverse order serves
    # differently, so the comparison sees the tie-break.
    want = _stepped(config, shuffled, key=lambda r: (r.arrival, r.rid))
    assert _stepped(config, shuffled,
                    key=lambda r: (r.arrival, -r.rid)).records \
        != want.records
    for requests in (trace, shuffled):
        got = FleetSimulator(config, _table()).run(requests)
        assert got.records == want.records
        assert got.batches == want.batches
        assert got.chips == want.chips
        assert got.makespan == want.makespan


def test_duplicate_rids_in_a_trace_are_rejected_before_simulating():
    reqs = RecordTable(Request, [_req(4, 0.0), _req(1, 5.0), _req(4, 7.0)])
    trace = TraceCollector()
    sim = FleetSimulator(_config(), _table(), trace=trace)
    with pytest.raises(ConfigError, match=r"^duplicate request ids: \[4\]$"):
        sim.run(reqs)
    assert sim._batcher is None and not sim._records
    assert not trace.events


@pytest.mark.parametrize("requests", [[], RecordTable(Request)],
                         ids=["list", "trace"])
def test_an_empty_trace_serves_nothing(requests):
    snapshots = []
    result = FleetSimulator(_config(), _table()).run(
        requests, on_progress=snapshots.append)
    assert result.records == [] and result.batches == []
    assert result.makespan == 0.0
    assert [(s["requests_total"], s["served"]) for s in snapshots] \
        == [(0, 0)]


def test_int64_extreme_rids_run_end_to_end():
    reqs = [_req(2**63 - 1, 0.0), _req(-2**63, 5.0, kind="fc")]
    result = FleetSimulator(_config(), _table()).run(reqs)
    assert [r.rid for r in result.records] == [-2**63, 2**63 - 1]
    assert all(r.outcome == "served" for r in result.records)


class TestRecordContract:
    """Records are immutable named tuples built positionally in field
    order; keyword construction keeps its defaults."""

    def test_fields_are_in_construction_order(self):
        assert RequestRecord._fields == (
            "rid", "kind", "tile", "arrival", "shed", "batch_id", "chip",
            "batch_size", "dispatch", "start", "finish", "outcome",
            "retries", "hedged")
        assert BatchRecord._fields == (
            "batch_id", "kind", "size", "chip", "close", "start", "finish",
            "reload", "attempt", "outcome", "waste", "hedge")

    def test_keyword_construction_keeps_defaults(self):
        r = RequestRecord(rid=7, kind="conv", tile=2, arrival=5.0,
                          shed=False)
        assert r._asdict() == {
            "rid": 7, "kind": "conv", "tile": 2, "arrival": 5.0,
            "shed": False, "batch_id": -1, "chip": -1, "batch_size": 0,
            "dispatch": 0.0, "start": 0.0, "finish": 0.0,
            "outcome": "served", "retries": 0, "hedged": False}
        b = BatchRecord(batch_id=1, kind="fc", size=3, chip=0, close=1.0,
                        start=2.0, finish=9.0, reload=0.5)
        assert b._asdict() == {
            "batch_id": 1, "kind": "fc", "size": 3, "chip": 0,
            "close": 1.0, "start": 2.0, "finish": 9.0, "reload": 0.5,
            "attempt": 0, "outcome": "served", "waste": 0.0,
            "hedge": False}

    @pytest.mark.parametrize("name", ["finish", "outcome", "latency",
                                      "unknown"])
    def test_request_record_rejects_assignment(self, name):
        r = RequestRecord(rid=0, kind="bp", tile=0, arrival=0.0, shed=False)
        with pytest.raises(AttributeError):
            setattr(r, name, 1.0)

    @pytest.mark.parametrize("name", ["finish", "outcome", "waste",
                                      "unknown"])
    def test_batch_record_rejects_assignment(self, name):
        b = BatchRecord(batch_id=0, kind="bp", size=1, chip=0, close=0.0,
                        start=0.0, finish=1.0, reload=0.0)
        with pytest.raises(AttributeError):
            setattr(b, name, 1.0)

    def test_fleet_records_match_keyword_construction(self):
        config = _config(max_batch=2, queue_capacity=2)
        reqs = [_req(i, float(i), kind=("bp", "fc")[i % 2], tile=i % 2)
                for i in range(8)]
        result = FleetSimulator(config, _table()).run(reqs)
        for r in result.records:
            assert r == RequestRecord(**r._asdict())
        for b in result.batches:
            assert b == BatchRecord(**b._asdict())
        assert {r.outcome for r in result.records} == {"served", "shed"}
