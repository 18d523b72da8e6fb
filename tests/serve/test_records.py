"""Record tables: packed rows that read back as the rows appended.

A trace keeps one packed row per request, and a run one per request and
per launch.  These tests generate rows over each field's whole range
(int64 rids, tiles past 2**32 and None, signed zeros, infinities and
subnormals, every kind and outcome string) and require every way of
reading them back -- indexing, slicing, iteration, ``take``, ``==``,
pickle, deepcopy and the column view -- to give the rows appended, with
builtin field types.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.serve.fleet import (
    OUTCOMES,
    BatchRecord,
    RecordTable,
    RequestRecord,
)
from repro.serve.fleet.records import (
    arrival_order,
    as_trace,
    sort_exactly_once,
    sorted_rids,
)
from repro.serve.rows import CHUNK_ROWS
from repro.serve.workload import KINDS, Request

_INT64 = st.integers(-2**63, 2**63 - 1)
_INT32 = st.integers(-2**31, 2**31 - 1)
#: Every float but NaN (a NaN field makes a row unequal to itself),
#: with the edge values drawn often.
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 5e-324,
                     -2.2250738585072e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False))
_KINDS = st.sampled_from(KINDS)

_REQUEST_ROWS = st.builds(
    RequestRecord,
    rid=st.integers(0, 2**63 - 1), kind=_KINDS,
    tile=st.one_of(st.none(), st.integers(0, 2**32)), arrival=_FLOATS,
    shed=st.booleans(), batch_id=_INT64, chip=_INT32, batch_size=_INT32,
    dispatch=_FLOATS, start=_FLOATS, finish=_FLOATS,
    outcome=st.sampled_from(OUTCOMES), retries=_INT32,
    hedged=st.booleans())
_TRACE_ROWS = st.builds(
    Request,
    rid=st.one_of(st.sampled_from([-2**63, 2**63 - 1]), _INT64),
    kind=_KINDS, tile=st.one_of(st.none(), st.integers(0, 2**32)),
    arrival=_FLOATS)
_BATCH_ROWS = st.builds(
    BatchRecord,
    batch_id=_INT64, kind=_KINDS, size=_INT32, chip=_INT32, close=_FLOATS,
    start=_FLOATS, finish=_FLOATS, reload=_FLOATS, attempt=_INT32,
    outcome=st.sampled_from(("served", "killed", "hedge-loser")),
    waste=_FLOATS, hedge=st.booleans())


def _same(got, want):
    """Equal rows of the same type whose fields have the same builtin
    types and reprs (so -0.0 is not 0.0 and a bool is not an int)."""
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)
    assert [type(v) for v in got] == [type(v) for v in want]


def _assert_round_trip(row, rows):
    table = RecordTable(row)
    for i, record in enumerate(rows):
        if i % 2:
            table.add(*record)
        else:
            table.append(record)
    assert len(table) == len(rows)
    for i, record in enumerate(rows):
        _same(table[i], record)
        _same(table[i - len(rows)], record)
    for got, want in zip(table, rows):
        _same(got, want)
    assert table == rows and rows == table
    assert table == tuple(rows)
    assert table == RecordTable(row, rows)
    assert table != RecordTable(row, rows[:-1])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for got, want in zip(pickle.loads(pickle.dumps(table, protocol)),
                             rows):
            _same(got, want)
    clone = copy.deepcopy(table)
    assert clone == table and clone is not table
    for got, want in zip(clone, rows):
        _same(got, want)
    columns = table.columns()
    for i, name in enumerate(row._fields):
        if name in ("kind", "outcome"):
            for text in {getattr(r, name) for r in rows}:
                assert table.matches(name, text).tolist() == \
                    [getattr(r, name) == text for r in rows]
            continue
        got = columns[name].tolist()
        want = [getattr(r, name) for r in rows]
        if name == "tile":
            got = [v for v, w in zip(got, want) if w is not None]
            want = [w for w in want if w is not None]
        assert repr(got) == repr(want), name
    return table


class TestRoundTrip:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(rows=st.lists(_REQUEST_ROWS, min_size=1, max_size=30))
    def test_request_rows(self, rows):
        _assert_round_trip(RequestRecord, rows)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(rows=st.lists(_BATCH_ROWS, min_size=1, max_size=30))
    def test_batch_rows(self, rows):
        _assert_round_trip(BatchRecord, rows)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(rows=st.lists(_TRACE_ROWS, min_size=1, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    def test_trace_rows(self, rows, seed):
        table = _assert_round_trip(Request, rows)
        assert table.columns().dtype.itemsize == 25
        order = np.random.default_rng(seed).permutation(len(rows))
        for got, i in zip(table.take(order), order.tolist()):
            _same(got, rows[i])
        for got, want in zip(table[::-2], rows[::-2]):
            _same(got, want)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(launches=st.lists(st.tuples(
        _KINDS, st.lists(_TRACE_ROWS, min_size=1, max_size=5),
        _REQUEST_ROWS), min_size=1, max_size=10))
    def test_a_launch_packs_the_bytes_a_row_at_a_time_write_does(
            self, launches):
        """``add_each`` packs a launch's shared fields once, yet writes
        the row bytes and string codes that ``add`` per request does."""
        each, one = RecordTable(RequestRecord), RecordTable(RequestRecord)
        for kind, requests, record in launches:
            requests = [r._replace(kind=kind) for r in requests]
            rest = record[4:]
            each.add_each(requests, *rest)
            for req in requests:
                one.add(*req, *rest)
        assert each.columns().tobytes() == one.columns().tobytes()
        assert each.strings == one.strings
        assert each == one
        assert RecordTable(BatchRecord).add_each is None

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(first=st.lists(_REQUEST_ROWS, max_size=20),
           second=st.lists(_REQUEST_ROWS, max_size=20))
    def test_extend_translates_string_codes(self, first, second):
        # Each table numbers its strings in the order it first saw
        # them, so a merged table must translate the other's codes.
        table = RecordTable(RequestRecord, first)
        table.extend(RecordTable(RequestRecord, second))
        assert table == first + second


class TestTable:
    def test_reads_an_empty_table(self):
        table = RecordTable(RequestRecord)
        assert len(table) == 0 and not table
        assert list(table) == [] and table == []
        assert len(table.columns()) == 0
        assert not table.matches("outcome", "served").any()
        with pytest.raises(IndexError):
            table[0]

    def test_matches_a_string_the_table_never_stored(self):
        table = RecordTable(RequestRecord, [RequestRecord(
            rid=1, kind="bp", tile=0, arrival=0.0, shed=False)])
        assert table.matches("kind", "fc").tolist() == [False]
        assert table.strings == ("bp", "served")

    def test_a_257th_distinct_string_is_rejected(self):
        table = RecordTable(BatchRecord)
        for i in range(128):
            table.add(i, f"k{i}", 1, 0, 0.0, 0.0, 0.0, 0.0, 0, f"o{i}",
                      0.0, False)
        with pytest.raises(ConfigError, match=r"at most 256 distinct "
                                              r"strings; 'k128'"):
            table.add(128, "k128", 1, 0, 0.0, 0.0, 0.0, 0.0, 0, "o0", 0.0,
                      False)

    def test_extend_rejects_the_other_layout(self):
        with pytest.raises(ConfigError, match="BatchRecord rows"):
            RecordTable(RequestRecord).extend(RecordTable(BatchRecord))

    def test_a_view_pins_the_rows(self):
        # A live column view and an append cannot both hold: the append
        # fails instead of moving the rows under the view.
        table = RecordTable(RequestRecord, [RequestRecord(
            rid=1, kind="bp", tile=0, arrival=0.0, shed=False)])
        view = table.columns()
        with pytest.raises(BufferError):
            table.append(table[0])
        del view
        table.append(table[0])
        assert len(table) == 2

    def test_iteration_sees_rows_appended_meanwhile(self):
        table = RecordTable(RequestRecord, [RequestRecord(
            rid=1, kind="bp", tile=0, arrival=0.0, shed=False)])
        seen = []
        for record in table:
            seen.append(record.rid)
            if record.rid < 3:
                table.append(record._replace(rid=record.rid + 1))
        assert seen == [1, 2, 3]

    def test_take_and_iteration_cross_chunks(self):
        rows = [Request(rid=i, kind=KINDS[i % len(KINDS)],
                        tile=None if i % 3 else i, arrival=i / 7)
                for i in range(2 * CHUNK_ROWS + 5)]
        table = RecordTable(Request, rows)
        assert list(table) == rows
        order = np.arange(len(rows))[::-1]
        assert list(table.take(order)) == rows[::-1]
        assert list(table.take(order[:0])) == []

    def test_sort_by_is_stable_and_exact(self):
        rows = [RequestRecord(rid=rid, kind=kind, tile=None, arrival=-0.0,
                              shed=False, finish=float(i))
                for i, (rid, kind) in enumerate(
                    [(5, "fc"), (2, "bp"), (5, "conv"), (-1, "gibbs")])]
        table = RecordTable(RequestRecord, rows)
        table.sort_by("rid")
        assert table == sorted(rows, key=lambda r: r.rid)
        assert repr(list(table)) == repr(sorted(rows, key=lambda r: r.rid))


class TestArrivalOrder:
    def test_orders_by_arrival_then_rid(self):
        rows = [Request(rid=rid, kind="bp", tile=0, arrival=arrival)
                for rid, arrival in [(5, 1.0), (2, 0.0), (9, -0.0),
                                     (3, 1.0), (-4, 2.5), (7, 0.0)]]
        order, span = arrival_order(RecordTable(Request, rows))
        assert [rows[i].rid for i in order.tolist()] == [
            r.rid for r in sorted(rows, key=lambda r: (r.arrival, r.rid))]
        assert [rows[i].rid for i in order.tolist()] == [2, 7, 9, 3, 5, -4]
        assert span == (0.0, 2.5) and type(span[0]) is float

    def test_an_empty_trace_spans_nothing(self):
        order, span = arrival_order(RecordTable(Request))
        assert len(order) == 0 and span == (0.0, 0.0)

    def test_as_trace_keeps_a_trace_and_packs_a_list(self):
        rows = [Request(rid=1, kind="fc", tile=None, arrival=3.0)]
        trace = RecordTable(Request, rows)
        assert as_trace(trace) is trace
        assert as_trace(iter(rows)) == rows
        with pytest.raises(ConfigError, match="RequestRecord rows"):
            as_trace(RecordTable(RequestRecord))


class TestRidRange:
    def test_int64_extremes_are_kept(self):
        rids = sorted_rids(as_trace([Request(rid=r, kind="bp", tile=0,
                                             arrival=0.0)
                                     for r in (2**63 - 1, -2**63, 0)]))
        assert rids.tolist() == [-2**63, 0, 2**63 - 1]

    def test_a_rid_outside_int64_is_named(self):
        with pytest.raises(ConfigError,
                           match=r"request ids outside int64: "
                                 r"\[-9223372036854775809, "
                                 r"9223372036854775808\]"):
            as_trace([Request(rid=r, kind="bp", tile=0, arrival=0.0)
                      for r in (2**63, 3, -2**63 - 1)])

    def test_exactly_once_check_names_rids_as_ints(self):
        table = RecordTable(RequestRecord, [
            RequestRecord(rid=r, kind="bp", tile=0, arrival=0.0,
                          shed=False) for r in (4, 1, 1)])
        with pytest.raises(SimulationError) as info:
            sort_exactly_once(table, np.array([1, 2, 4]))
        assert str(info.value) == (
            "requests lost without accounting: [2]; "
            "requests recorded more than once: [1]")
