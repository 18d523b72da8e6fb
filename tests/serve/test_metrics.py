"""Unit tests for the serving metrics math (percentiles, SLO, shed)."""

import dataclasses
import json
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.serve.fleet import (
    BatchRecord,
    EntryTable,
    RecordTable,
    RequestRecord,
)
from repro.serve.metrics import (
    REPORT_PERCENTILES,
    ServeMetrics,
    chip_utilization,
    compute_metrics,
    percentile,
    percentile_sorted,
)


def _served(rid, arrival, dispatch, start, finish, kind="bp"):
    return RequestRecord(rid=rid, kind=kind, tile=0, arrival=arrival,
                         shed=False, batch_id=0, chip=0, batch_size=1,
                         dispatch=dispatch, start=start, finish=finish)


def _shed(rid, arrival, kind="bp"):
    return RequestRecord(rid=rid, kind=kind, tile=0, arrival=arrival,
                         shed=True, dispatch=arrival)


class TestPercentile:
    def test_single_value_is_every_percentile(self):
        for p in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile([42.0], p) == 42.0

    def test_linear_interpolation(self):
        data = [10.0, 20.0, 30.0, 40.0]
        assert percentile(data, 0) == 10.0
        assert percentile(data, 100) == 40.0
        assert percentile(data, 50) == 25.0  # between ranks 1 and 2
        assert percentile(data, 25) == pytest.approx(17.5)

    def test_input_order_is_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_known_hundred_point_set(self):
        data = list(range(1, 101))  # 1..100
        assert percentile(data, 50) == 50.5
        assert percentile(data, 95) == pytest.approx(95.05)
        assert percentile(data, 99) == pytest.approx(99.01)

    def test_empty_set_raises(self):
        with pytest.raises(ConfigError):
            percentile([], 50)

    def test_out_of_range_p_raises(self):
        with pytest.raises(ConfigError):
            percentile([1.0], 101)
        with pytest.raises(ConfigError):
            percentile([1.0], -1)

    def test_sorted_helper_reads_ranks_without_sorting(self):
        data = [1.0, 2.0, 4.0, 8.0]
        for p in (0.0, 33.0, 50.0, 99.9, 100.0):
            assert percentile_sorted(data, p) == percentile(data[::-1], p)
        with pytest.raises(ConfigError):
            percentile_sorted([], 50)
        with pytest.raises(ConfigError):
            percentile_sorted(data, 100.5)


class TestComputeMetrics:
    def test_hand_built_accounting(self):
        # One request: arrives 100, batch closes 300, starts 500,
        # finishes 1100 -> batch_wait 200, queue_wait 200, service 600.
        r = _served(0, 100.0, 300.0, 500.0, 1100.0)
        assert r.batch_wait == 200.0
        assert r.queue_wait == 200.0
        assert r.service == 600.0
        assert r.latency == 1000.0
        b = BatchRecord(batch_id=0, kind="bp", size=1, chip=0,
                        close=300.0, start=500.0, finish=1100.0, reload=0.0)
        m = compute_metrics([r], [b], makespan_cycles=1000.0,
                            slo_cycles=500.0, clock_ghz=1.25)
        assert m.total == m.served == 1
        assert m.shed == 0 and m.shed_rate == 0.0
        # n=1: every percentile is the single latency.
        assert m.latency_p50 == m.latency_p95 == m.latency_p99 == 1000.0
        assert m.slo_violations == 1 and m.slo_violation_rate == 1.0
        # 1000 cycles over 1000-cycle makespan at 1.25 GHz.
        assert m.throughput_rps == pytest.approx(1.25e9 / 1000.0)
        assert m.cycles_to_ms(1.25e6) == pytest.approx(1.0)

    def test_slo_counts_only_served(self):
        records = [
            _served(0, 0.0, 0.0, 0.0, 100.0),    # latency 100, ok
            _served(1, 0.0, 0.0, 0.0, 1000.0),   # latency 1000, violated
            _shed(2, 5.0),
        ]
        m = compute_metrics(records, [], makespan_cycles=1000.0,
                            slo_cycles=500.0)
        assert m.total == 3 and m.served == 2 and m.shed == 1
        assert m.shed_rate == pytest.approx(1 / 3)
        assert m.slo_violations == 1
        assert m.slo_violation_rate == 0.5

    def test_all_shed_edge_case(self):
        records = [_shed(i, float(i)) for i in range(4)]
        m = compute_metrics(records, [], makespan_cycles=100.0,
                            slo_cycles=500.0)
        assert m.served == 0 and m.shed == 4
        assert m.shed_rate == 1.0
        assert m.latency_p50 is None
        assert m.latency_p95 is None
        assert m.latency_p99 is None
        assert m.slo_violation_rate == 0.0
        assert m.throughput_rps == 0.0
        assert m.as_dict()["latency_ms"]["p99"] is None

    def test_empty_records(self):
        m = compute_metrics([], [], makespan_cycles=0.0, slo_cycles=1.0)
        assert m.total == 0 and m.shed_rate == 0.0
        assert m.throughput_rps == 0.0

    def test_bad_slo_raises(self):
        with pytest.raises(ConfigError):
            compute_metrics([], [], makespan_cycles=0.0, slo_cycles=0.0)


def _expired(rid, arrival, kind="bp"):
    return RequestRecord(rid=rid, kind=kind, tile=0, arrival=arrival,
                         shed=False, dispatch=arrival, outcome="expired",
                         retries=2)


class TestResilienceMetrics:
    def test_p999_small_n_leans_on_max(self):
        # With n << 1001 the 99.9th percentile interpolates between the
        # two largest order statistics, never beyond the max.
        data = [10.0, 20.0, 30.0, 40.0]
        p999 = percentile(data, 99.9)
        assert 30.0 < p999 <= 40.0
        assert p999 == pytest.approx(40.0, rel=1e-2)
        assert percentile([42.0], 99.9) == 42.0

    def test_availability_and_goodput_split_on_slo(self):
        records = [
            _served(0, 0.0, 0.0, 0.0, 100.0),    # in SLO
            _served(1, 0.0, 0.0, 0.0, 1000.0),   # violated
            _shed(2, 5.0),
            _expired(3, 6.0),
        ]
        m = compute_metrics(records, [], makespan_cycles=1000.0,
                            slo_cycles=500.0, clock_ghz=1.25)
        assert m.total == 4 and m.served == 2
        assert m.shed == 1 and m.expired == 1
        # 1 of 4 admitted requests completed within the SLO.
        assert m.availability == pytest.approx(0.25)
        # throughput counts both served; goodput only the in-SLO one.
        assert m.throughput_rps == pytest.approx(2 * 1.25e9 / 1000.0)
        assert m.goodput_rps == pytest.approx(1.25e9 / 1000.0)
        d = m.as_dict()
        assert d["availability"] == m.availability
        assert d["expired"] == 1
        assert d["latency_cycles"]["p999"] is not None

    def test_waste_split_by_cause(self):
        def batch(outcome, waste, hedge=False):
            return BatchRecord(batch_id=0, kind="bp", size=1, chip=0,
                               close=0.0, start=0.0, finish=waste,
                               reload=0.0, outcome=outcome, waste=waste,
                               hedge=hedge)
        batches = [
            batch("served", 0.0),
            batch("killed", 300.0),                 # fail-stop kill -> retry
            batch("hedge-loser", 200.0),            # cancelled primary
            batch("hedge-loser", 150.0, hedge=True),  # cancelled hedge
            batch("killed", 50.0, hedge=True),      # hedge died mid-race
            batch("served", 0.0, hedge=True),       # winning hedge
        ]
        m = compute_metrics([_served(0, 0.0, 0.0, 0.0, 10.0)], batches,
                            makespan_cycles=100.0, slo_cycles=500.0)
        assert m.retries == 1
        assert m.retry_wasted_cycles == 300.0
        assert m.hedges == 3  # every hedge launch, whatever its fate
        assert m.hedge_wasted_cycles == 200.0 + 150.0 + 50.0
        # mean batch size counts only launches that actually served.
        assert m.mean_batch_size == 1.0

    def test_all_expired_edge_case(self):
        records = [_expired(i, float(i)) for i in range(3)]
        m = compute_metrics(records, [], makespan_cycles=100.0,
                            slo_cycles=500.0)
        assert m.served == 0 and m.expired == 3 and m.shed == 0
        assert m.availability == 0.0
        assert m.latency_p999 is None
        assert m.goodput_rps == 0.0


def _multipass_metrics(records, batches, makespan_cycles, slo_cycles,
                       clock_ghz=1.25):
    """The rollup before it became one pass, as the oracle: one scan of
    the records per outcome, a sort of the latencies per percentile and
    one scan of the batches per fate."""
    def outcome(r):
        return "shed" if r.shed else getattr(r, "outcome", "served")

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    records, batches = list(records), list(batches)
    served = [r for r in records if outcome(r) == "served"]
    shed = sum(1 for r in records if outcome(r) == "shed")
    expired = sum(1 for r in records if outcome(r) == "expired")
    latencies = [r.latency for r in served]
    if served:
        p50, p95, p99, p999 = (percentile(latencies, p)
                               for p in REPORT_PERCENTILES)
    else:
        p50 = p95 = p99 = p999 = None
    violations = sum(1 for lat in latencies if lat > slo_cycles)
    in_slo = len(served) - violations
    seconds = makespan_cycles / (clock_ghz * 1e9)
    launched = [b for b in batches if b.outcome == "served"]
    killed = [b for b in batches if b.outcome == "killed"]
    return ServeMetrics(
        total=len(records),
        served=len(served),
        shed=shed,
        shed_rate=shed / len(records) if records else 0.0,
        expired=expired,
        makespan_cycles=makespan_cycles,
        throughput_rps=len(served) / seconds if seconds > 0 else 0.0,
        goodput_rps=in_slo / seconds if seconds > 0 else 0.0,
        availability=in_slo / len(records) if records else 0.0,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        latency_p999=p999,
        mean_batch_wait=mean(r.batch_wait for r in served),
        mean_queue_wait=mean(r.queue_wait for r in served),
        mean_service=mean(r.service for r in served),
        mean_batch_size=mean(b.size for b in launched),
        slo_cycles=slo_cycles,
        slo_violations=violations,
        slo_violation_rate=violations / len(served) if served else 0.0,
        retries=sum(1 for b in killed if not b.hedge),
        hedges=sum(1 for b in batches if b.hedge),
        retry_wasted_cycles=sum(b.waste for b in killed if not b.hedge),
        hedge_wasted_cycles=sum(
            b.waste for b in batches
            if b.outcome == "hedge-loser"
            or (b.hedge and b.outcome == "killed")),
        clock_ghz=clock_ghz,
    )


def _rowwise_metrics(records, batches, makespan_cycles: float,
                     slo_cycles: float, clock_ghz: float = 1.25):
    """The rollup before it read columns, as the oracle: one pass over
    the records as named tuples, builtin floats summed in record order."""
    served = []
    total = shed = expired = 0
    for total, r in enumerate(records, 1):
        outcome = "shed" if r.shed else r.outcome
        if outcome == "served":
            served.append(r)
        elif outcome == "shed":
            shed += 1
        elif outcome == "expired":
            expired += 1
    n = len(served)
    latencies = [r.finish - r.arrival for r in served]
    latencies.sort()
    if served:
        p50, p95, p99, p999 = (percentile_sorted(latencies, p)
                               for p in REPORT_PERCENTILES)
    else:
        p50 = p95 = p99 = p999 = None
    violations = n - bisect_right(latencies, slo_cycles)
    in_slo = n - violations
    seconds = makespan_cycles / (clock_ghz * 1e9)
    throughput = n / seconds if seconds > 0 else 0.0
    goodput = in_slo / seconds if seconds > 0 else 0.0
    launched = size_total = hedges = 0
    retry_waste, hedge_waste = [], []
    for b in batches:
        outcome = b.outcome
        if b.hedge:
            hedges += 1
        if outcome == "served":
            launched += 1
            size_total += b.size
        elif outcome == "hedge-loser" or (outcome == "killed" and b.hedge):
            hedge_waste.append(b.waste)
        elif outcome == "killed":
            retry_waste.append(b.waste)
    return ServeMetrics(
        total=total,
        served=n,
        shed=shed,
        shed_rate=shed / total if total else 0.0,
        expired=expired,
        makespan_cycles=makespan_cycles,
        throughput_rps=throughput,
        goodput_rps=goodput,
        availability=in_slo / total if total else 0.0,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        latency_p999=p999,
        mean_batch_wait=(sum(r.dispatch - r.arrival for r in served) / n
                         if n else 0.0),
        mean_queue_wait=(sum(r.start - r.dispatch for r in served) / n
                         if n else 0.0),
        mean_service=(sum(r.finish - r.start for r in served) / n
                      if n else 0.0),
        mean_batch_size=size_total / launched if launched else 0.0,
        slo_cycles=slo_cycles,
        slo_violations=violations,
        slo_violation_rate=violations / n if n else 0.0,
        retries=len(retry_waste),
        hedges=hedges,
        retry_wasted_cycles=sum(retry_waste),
        hedge_wasted_cycles=sum(hedge_waste),
        clock_ghz=clock_ghz,
    )


_CYCLES = st.floats(0.0, 1e7, allow_nan=False)
#: Tenths plus a nanocycle dither: few are binary fractions, so their
#: sums round differently in another order (and Python 3.12's
#: compensated ``sum`` differs from a running ``+=``).
_INEXACT = st.builds(lambda tenths, dither: 0.1 * tenths + 1e-9 * dither,
                     st.integers(0, 10**8), st.integers(0, 999))
_OUTCOMES = st.sampled_from(("served", "shed", "legacy-shed", "expired"))
#: (outcome, arrival, batch wait, queue wait, service); "legacy-shed"
#: is a shed flag on a record whose outcome field kept its default.
_RECORD = st.tuples(_OUTCOMES, _CYCLES, _CYCLES, _CYCLES, _CYCLES)
_INEXACT_RECORD = st.tuples(_OUTCOMES, _INEXACT, _INEXACT, _INEXACT,
                            _INEXACT)
#: (outcome, hedge, size, waste)
_FATES = st.sampled_from(("served", "killed", "hedge-loser"))
_BATCH = st.tuples(_FATES, st.booleans(), st.integers(1, 8), _CYCLES)
_INEXACT_BATCH = st.tuples(_FATES, st.booleans(), st.integers(1, 8),
                           _INEXACT)


def _record(rid, outcome, arrival, batch_wait, queue_wait, service):
    if outcome in ("shed", "legacy-shed"):
        return RequestRecord(rid=rid, kind="bp", tile=0, arrival=arrival,
                             shed=True, dispatch=arrival,
                             **({"outcome": "shed"}
                                if outcome == "shed" else {}))
    dispatch = arrival + batch_wait
    if outcome == "expired":
        return RequestRecord(rid=rid, kind="bp", tile=0, arrival=arrival,
                             shed=False, dispatch=dispatch,
                             outcome="expired", retries=1)
    start = dispatch + queue_wait
    return RequestRecord(rid=rid, kind="bp", tile=rid % 3, arrival=arrival,
                         shed=False, batch_id=rid, chip=rid % 2,
                         batch_size=1, dispatch=dispatch, start=start,
                         finish=start + service)


def _batch(bid, outcome, hedge, size, waste):
    return BatchRecord(batch_id=bid, kind="bp", size=size, chip=bid % 2,
                       close=0.0, start=0.0, finish=waste, reload=0.0,
                       attempt=int(outcome == "killed"), outcome=outcome,
                       waste=0.0 if outcome == "served" else waste,
                       hedge=hedge)


def _assert_same_rollup(records, batches, makespan, slo, clock_ghz=1.25):
    want = _multipass_metrics(records, batches, makespan, slo, clock_ghz)
    rowwise = _rowwise_metrics(records, batches, makespan, slo, clock_ghz)
    # A table, a list, or a generator that cannot be rewound, counted or
    # indexed (packed first) must give the same floats.
    for rows, launches in ((EntryTable(RequestRecord, records),
                            RecordTable(BatchRecord, batches)),
                           (records, batches),
                           ((r for r in records), (b for b in batches))):
        got = compute_metrics(rows, launches, makespan, slo, clock_ghz)
        # JSON text, not dict equality: 0 == 0.0 would hide a changed
        # type.
        for oracle in (want, rowwise):
            assert json.dumps(got.as_dict(), sort_keys=True) \
                == json.dumps(oracle.as_dict(), sort_keys=True)
            assert got == oracle
        # Builtin types, the oracle's field by field: no NumPy scalar
        # reaches a report.
        for field in dataclasses.fields(got):
            value = getattr(got, field.name)
            assert type(value) in (int, float, type(None)), field.name
            assert type(value) is type(getattr(rowwise, field.name)), \
                field.name


class TestRollupMatchesMultipass:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(records=st.lists(_RECORD, max_size=60),
           batches=st.lists(_BATCH, max_size=30),
           makespan=st.floats(0.0, 1e8, allow_nan=False),
           slo=st.floats(1.0, 2e7, allow_nan=False),
           clock_ghz=st.sampled_from([1.25, 2.0]))
    def test_generated_sets(self, records, batches, makespan, slo,
                            clock_ghz):
        _assert_same_rollup(
            [_record(i, *r) for i, r in enumerate(records)],
            [_batch(i, *b) for i, b in enumerate(batches)],
            makespan, slo, clock_ghz)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(records=st.lists(_INEXACT_RECORD, min_size=1, max_size=80),
           batches=st.lists(_INEXACT_BATCH, max_size=40),
           slo=_INEXACT.filter(lambda x: x > 0))
    def test_generated_inexact_sets(self, records, batches, slo):
        _assert_same_rollup(
            [_record(i, *r) for i, r in enumerate(records)],
            [_batch(i, *b) for i, b in enumerate(batches)],
            1e9, slo)

    def test_one_served_request(self):
        _assert_same_rollup([_record(0, "served", 3.5, 0.1, 0.2, 7.25)],
                            [_batch(0, "served", False, 1, 0.0)],
                            100.0, 5.0)

    def test_nothing_served(self):
        records = [_record(0, "shed", 1.0, 0, 0, 0),
                   _record(1, "legacy-shed", 2.0, 0, 0, 0),
                   _record(2, "expired", 3.0, 4.0, 0, 0)]
        batches = [_batch(0, "killed", False, 2, 30.0),
                   _batch(1, "killed", True, 2, 0.1),
                   _batch(2, "hedge-loser", True, 1, 0.7)]
        _assert_same_rollup(records, batches, 50.0, 10.0)
        _assert_same_rollup([], [], 0.0, 1.0)

    def test_hedge_and_kill_mix_with_inexact_floats(self):
        # Values that round differently when summed in another order.
        records = [_record(i, "served", 0.1 * i, 0.1, 0.2, 0.3 + 1e-9 * i)
                   for i in range(50)]
        batches = [_batch(i, ("served", "killed", "hedge-loser")[i % 3],
                          i % 2 == 0, 1 + i % 8, 0.1 * i + 1e-7)
                   for i in range(40)]
        _assert_same_rollup(records, batches, 1e4, 0.55)


def test_chip_utilization_rows():
    from repro.serve.fleet import ChipState

    chips = [ChipState(chip_id=0, busy_cycles=500.0, batches=2, requests=5),
             ChipState(chip_id=1, degraded=True)]
    rows = chip_utilization(chips, makespan_cycles=1000.0)
    assert rows[0]["utilization"] == 0.5
    assert rows[0]["requests"] == 5
    assert rows[1]["utilization"] == 0.0
    assert rows[1]["degraded"] is True
