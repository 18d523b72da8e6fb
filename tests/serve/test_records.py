"""Record tables: packed rows that read back as the rows appended.

A trace keeps one packed row per request, and a run one per launch and
one entry per request beside its request's row, which references the
row of the launch that served it.  These tests generate rows over each
field's whole range (int64 rids, tiles past 2**32 and None, signed
zeros, infinities and subnormals, every kind and outcome string) and
require every way of reading them back -- indexing, slicing, iteration,
``take``, ``==``, pickle, deepcopy and the field readers -- to give the
rows appended, with builtin field types.  Request-record tables, written
either way (appended, or at their requests' rows of a trace) and placed
into one table over a gapped trace as a cluster merges its shards', are
also held against the 72 B row every field of a record used to be
packed into, kept here as the oracle.  A string field stores its text's
index in the texts its row type declares, so a table copies another's
rows as they are, and a kind outside those texts is refused as a trace
is packed.
"""

import copy
import math
import pickle
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.serve import rows as packed
from repro.serve.fleet import (
    OUTCOMES,
    BatchRecord,
    EntryTable,
    RecordTable,
    RequestRecord,
)
from repro.serve.fleet.records import (
    arrival_order,
    as_trace,
    check_kinds,
    sorted_rids,
)
from repro.serve.rows import CHUNK_ROWS, NO_TILE
from repro.serve.workload import (
    KINDS,
    Request,
    WorkloadConfig,
    generate_requests,
)

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


# -- the 72 B oracle ---------------------------------------------------------
#
# Every field of a request record used to be packed into one 72 B row.
# That writer survives here, on a row type of the record's fields, as
# the oracle a request-record table is held against.

_OldRecord = namedtuple("_OldRecord", RequestRecord._fields)


_TEXTS = {"kind": KINDS,
          "outcome": OUTCOMES + ("killed", "hedge-loser")}


def _old_record_writer(layout, rows):
    pack, codes = layout.struct.pack, layout.codes

    def add(rid, kind, tile, arrival, shed, batch_id, chip, batch_size,
            dispatch, start, finish, outcome, retries, hedged):
        nonlocal rows
        rows += pack(rid, codes["kind"][kind],
                     NO_TILE if tile is None else tile, arrival, shed,
                     batch_id, chip, batch_size, dispatch, start, finish,
                     codes["outcome"][outcome], retries, hedged)
    return add


packed.register(_OldRecord, "qBqd?qiidddBi?", _old_record_writer,
                texts=_TEXTS, optional="tile")

_REQUESTS = st.lists(_TRACE_ROWS, min_size=1, max_size=4)
#: A launch: served ones write their requests' records, killed and
#: hedge-loser ones only the launch row.
_LAUNCH = st.tuples(st.just("launch"), _BATCH_ROWS, _REQUESTS,
                    st.booleans())
_SERVED = st.tuples(st.just("launch"),
                    _BATCH_ROWS.map(lambda b: b._replace(outcome="served")),
                    _REQUESTS, st.booleans())
#: One write to a request-record table: a launch, an expiry, requests
#: sharing arbitrary rest fields, or one record field by field.
_STEPS = st.one_of(
    _SERVED, _LAUNCH,
    st.tuples(st.just("expire"), _REQUESTS, _FLOATS, _INT32),
    st.tuples(st.just("rest"), _REQUESTS, _REQUEST_ROWS),
    st.tuples(st.sampled_from(["add", "append"]), _REQUEST_ROWS))
#: The writes of one table: any mix, or served launches alone, as a
#: fleet that sheds and expires nothing writes.
_PART = st.one_of(st.lists(_STEPS, max_size=12),
                  st.lists(_SERVED, max_size=6))


def _written(steps):
    """The requests whose records ``steps`` write, in write order."""
    out = []
    for op, *args in steps:
        if op == "launch":
            launch, requests, _ = args
            if launch.outcome == "served":
                out.extend(requests)
        elif op in ("expire", "rest"):
            out.extend(args[0])
        else:
            out.append(Request(*args[0][:4]))
    return out


def _renumbered(steps, rids):
    """``steps`` with the requests whose records they write given the
    rids ``rids`` in turn."""
    rids = iter(rids)
    out = []
    for op, *args in steps:
        if op == "launch":
            launch, requests, hedged = args
            if launch.outcome == "served":
                requests = [r._replace(rid=next(rids)) for r in requests]
            out.append((op, launch, requests, hedged))
        elif op in ("expire", "rest"):
            out.append((op, [r._replace(rid=next(rids)) for r in args[0]],
                        *args[1:]))
        else:
            out.append((op, args[0]._replace(rid=next(rids))))
    return out


def _write(steps, trace=None):
    """A launch table, a request-record table referencing it (appended,
    or over ``trace``, which has a row for each request ``steps``
    write), and the 72 B oracle of that table (in rid order over a
    trace), written by ``steps``."""
    launches = RecordTable(BatchRecord)
    table = EntryTable(RequestRecord, launches=launches, trace=trace)
    rows = []
    for op, *args in steps:
        if op == "launch":
            launch, requests, hedged = args
            row = len(launches)
            launches.append(launch)
            if launch.outcome == "served":
                table.add_each(requests, row, hedged)
                for req in requests:
                    rows.append(_OldRecord(
                        *req, False, launch.batch_id, launch.chip,
                        launch.size, launch.close, launch.start,
                        launch.finish, "served", launch.attempt, hedged))
            continue
        if op == "expire":
            requests, close, attempt = args
            rest = (False, -1, -1, 0, close, 0.0, 0.0, "expired", attempt,
                    False)
        elif op == "rest":
            requests, record = args
            rest = record[4:]
        else:
            (record,) = args
            table.add(*record) if op == "add" else table.append(record)
            rows.append(_OldRecord(*record))
            continue
        table.add_rest(requests, *rest)
        rows.extend(_OldRecord(*req, *rest) for req in requests)
    if trace is not None:
        rows.sort(key=lambda r: r.rid)
    return launches, table, RecordTable(_OldRecord, rows)


def _assert_like_oracle(table, oracle, seed):
    """Every record and every field read of the request-record table
    ``table`` equals those of ``oracle``, a table of 72 B rows."""
    want = [RequestRecord(*row) for row in oracle]
    assert len(table) == len(want)
    assert table == want and want == table
    for got, row in zip(table, want):
        _same(got, row)
    for i in {0, len(want) // 2, -1} if want else ():
        _same(table[i], want[i])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(want))
    for got, i in zip(table.take(order), order.tolist()):
        _same(got, want[i])
    mask = rng.random(len(want)) < 0.5
    texts = {*KINDS, *_TEXTS["outcome"], "never"}
    columns = oracle.columns()
    for name in RequestRecord._fields:
        for index in (slice(None), mask, order, slice(None, None, -2)):
            if name in ("kind", "outcome"):
                for text in texts:
                    assert table.matches(name, text, index).tolist() == \
                        oracle.matches(name, text, index).tolist(), name
                continue
            got, row = table.column(name, index), columns[name][index]
            assert got.dtype == row.dtype, name
            assert got.tobytes() == row.tobytes(), name


def _same(got, want):
    """Equal rows of the same type whose fields have the same builtin
    types and reprs (so -0.0 is not 0.0 and a bool is not an int)."""
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)
    assert [type(v) for v in got] == [type(v) for v in want]


def _table(row, rows=()):
    """A table of ``row`` rows: request records are kept in an
    :class:`EntryTable`."""
    return (EntryTable if row is RequestRecord else RecordTable)(row, rows)


def _assert_round_trip(row, rows):
    table = _table(row)
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
    assert table == _table(row, rows)
    assert table != _table(row, rows[:-1])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for got, want in zip(pickle.loads(pickle.dumps(table, protocol)),
                             rows):
            _same(got, want)
    clone = copy.deepcopy(table)
    assert clone == table and clone is not table
    for got, want in zip(clone, rows):
        _same(got, want)
    for i, name in enumerate(row._fields):
        if name in ("kind", "outcome"):
            for text in {getattr(r, name) for r in rows}:
                assert table.matches(name, text).tolist() == \
                    [getattr(r, name) == text for r in rows]
            continue
        got = table.column(name).tolist()
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

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(first=st.lists(_REQUEST_ROWS, max_size=20),
           second=st.lists(_REQUEST_ROWS, max_size=20))
    def test_extend_appends_another_table(self, first, second):
        table = EntryTable(RequestRecord, first)
        table.extend(EntryTable(RequestRecord, second))
        assert table == first + second


class TestJoinedRecords:
    """A request-record table holds each record as a 5 B entry beside its
    request's row (appended with it, or a trace's), a served one
    referencing its launch's row, and reads as the 72 B rows every field
    used to be packed into."""

    # No shrink or explain phase: shrinking a failure of these step
    # lists ran past five minutes at about 690 MB, so a failure reports
    # the first failing example found instead.
    @settings(derandomize=True, max_examples=100, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.target))
    @given(parts=st.lists(st.tuples(_PART, st.booleans()), min_size=1,
                          max_size=3),
           router=st.lists(_REQUEST_ROWS, max_size=3),
           cut=st.tuples(st.integers(-20, 20), st.integers(-20, 20),
                         st.sampled_from([None, 1, 2, -1, -3])),
           seed=st.integers(0, 2**32 - 1),
           rid0=st.integers(-2**63, 2**63 - 2**10),
           gapped=_PART)
    def test_reads_as_the_72_byte_oracle(self, parts, router, cut, seed,
                                         rid0, gapped):
        # Every record gets a rid of its own: a part's records the
        # consecutive rids of its slot in a shuffled order, one rid
        # apart from the next part's, so the merged trace has gaps.  A
        # part over a trace (``over``) writes each record at its
        # request's row, out of row order; the others append.  The
        # ``gapped`` part's records are written over a trace of every
        # other rid of its slot, whose rows are found by bisection.
        rng = np.random.default_rng(seed)
        written, requests, start = [], [], rid0
        for steps, over, spacing in [(*part, 1) for part in parts] + [
                (gapped, True, 2)]:
            n = len(_written(steps))
            steps = _renumbered(
                steps, (start + spacing * rng.permutation(n)).tolist())
            mine = sorted(_written(steps))
            requests += mine
            trace = RecordTable(Request, mine) if over else None
            written.append((trace, *_write(steps, trace)))
            start += spacing * n + 1
        router = [r._replace(rid=start + i) for i, r in enumerate(router)]
        for trace, launches, table, oracle in written:
            _assert_like_oracle(table, oracle, seed)
            _assert_like_oracle(table[slice(*cut)], oracle[slice(*cut)],
                                seed)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                _assert_like_oracle(
                    pickle.loads(pickle.dumps(table, protocol)), oracle,
                    seed)
            _assert_like_oracle(copy.deepcopy(table), oracle, seed)
            assert not table.column("arrival").flags.writeable
        # The cluster's merge: the router's records, then each part's,
        # its launch references offset to where its launch rows begin in
        # the merged launch table, each placed at its request's row of
        # the whole (gapped) trace.
        merged_launches = RecordTable(BatchRecord)
        merged = EntryTable(
            RequestRecord, launches=merged_launches,
            trace=RecordTable(Request, sorted(requests + [
                Request(*r[:4]) for r in router])))
        merged.place(router)
        want = list(map(_OldRecord._make, router))
        for _, launches, table, oracle in written:
            merged.place(table, launches_at=len(merged_launches))
            merged_launches.extend(launches)
            want += oracle
        merged.check_complete()
        want = RecordTable(_OldRecord, sorted(want, key=lambda r: r.rid))
        _assert_like_oracle(merged, want, seed)
        _assert_like_oracle(merged[slice(*cut)], want[slice(*cut)], seed)
        copied, launches = pickle.loads(pickle.dumps((merged,
                                                      merged_launches)))
        assert copied._launches is launches
        _assert_like_oracle(copied, want, seed)
        # A table built from another, or extended with one, writes its
        # records field by field; a trace may grow after its records
        # are written.
        trace, launches, table, oracle = written[-1]
        twice, doubled = (EntryTable(RequestRecord, table),
                          RecordTable(_OldRecord, oracle))
        twice.extend(table)
        doubled.extend(oracle)
        _assert_like_oracle(twice, doubled, seed)
        if trace is not None:
            trace.append(Request(start, "fc", None, 0.0))
            _assert_like_oracle(table, oracle, seed)

    def test_a_served_record_reads_its_launch_row(self):
        launches = RecordTable(BatchRecord, [
            BatchRecord(7, "fc", 2, 1, 10.0, 12.0, 20.0, 1.0, attempt=1,
                        outcome="killed", waste=8.0),
            BatchRecord(9, "fc", 2, 3, 10.0, 30.0, 40.0, 0.0, attempt=2)])
        table = EntryTable(RequestRecord, launches=launches)
        table.add_each([Request(5, "fc", None, 4.0),
                        Request(6, "fc", 2, 8.0)], 1, True)
        assert list(table) == [
            RequestRecord(rid, "fc", tile, arrival, False, batch_id=9,
                          chip=3, batch_size=2, dispatch=10.0, start=30.0,
                          finish=40.0, outcome="served", retries=2,
                          hedged=True)
            for rid, tile, arrival in ((5, None, 4.0), (6, 2, 8.0))]
        # Both entries reference the launch's row: nothing is copied.
        assert table._refs.tolist() == [1, 1]
        assert EntryTable(RequestRecord).add_each is None
        with pytest.raises(ConfigError, match="matches"):
            table.column("outcome")
        with pytest.raises(ConfigError, match="kept in an EntryTable"):
            RecordTable(RequestRecord)

class TestTable:
    def test_reads_an_empty_table(self):
        table = EntryTable(RequestRecord)
        assert len(table) == 0 and not table
        assert list(table) == [] and table == []
        assert len(table.column("rid")) == 0
        assert not table.matches("outcome", "served").any()
        with pytest.raises(IndexError):
            table[0]

    def test_matches_a_string_the_table_never_stored(self):
        table = EntryTable(RequestRecord, [RequestRecord(
            rid=1, kind="bp", tile=0, arrival=0.0, shed=False)])
        assert table.matches("kind", "fc").tolist() == [False]
        assert table.matches("kind", "warp").tolist() == [False]
        assert table.matches("outcome", "never").tolist() == [False]

    def test_extend_rejects_the_other_layout(self):
        with pytest.raises(ConfigError, match="BatchRecord rows"):
            EntryTable(RequestRecord).extend(RecordTable(BatchRecord))

    def test_a_view_pins_the_rows(self):
        # A live column view and an append cannot both hold: the append
        # fails instead of moving the rows under the view.
        table = RecordTable(Request, [Request(rid=1, kind="bp", tile=0,
                                              arrival=0.0)])
        view = table.columns()
        with pytest.raises(BufferError):
            table.append(table[0])
        del view
        table.append(table[0])
        assert len(table) == 2

    def test_iteration_sees_rows_appended_meanwhile(self):
        table = EntryTable(RequestRecord, [RequestRecord(
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
        rows = [Request(rid=rid, kind=kind, tile=None if i % 2 else -i,
                        arrival=-0.0 if i else float(i))
                for i, (rid, kind) in enumerate(
                    [(5, "fc"), (2, "bp"), (5, "conv"), (-1, "gibbs")])]
        table = RecordTable(Request, rows)
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

    @pytest.mark.parametrize("rows, in_order", [
        ([(0, 1.0), (1, 1.0), (2, 2.5), (5, 2.5), (9, 7.0)], True),
        ([(-3, -0.0), (0, 0.0), (4, 0.0)], True),
        ([(7, 3.0)], True),
        # Tied arrivals with descending rids.
        ([(0, 1.0), (2, 2.5), (1, 2.5), (5, 7.0)], False),
        # Ascending arrivals with rids out of order.
        ([(0, 1.0), (2, 2.0), (1, 3.0)], False),
        # Ascending rids with an arrival out of order.
        ([(0, 1.0), (1, 3.0), (2, 2.0)], False),
    ])
    def test_rows_in_order_need_no_permutation(self, rows, in_order):
        trace = RecordTable(Request, [Request(rid, "bp", None, arrival)
                                      for rid, arrival in rows])
        order, span = arrival_order(trace)
        want = sorted(range(len(rows)),
                      key=lambda i: (rows[i][1], rows[i][0]))
        assert list(order) == want
        assert span == (rows[want[0]][1], rows[want[-1]][1])
        # In order with ascending rids exactly: the identity, no array.
        assert isinstance(order, range) is in_order
        # as_trace keeps a trace whose rids ascend and sorts any other
        # by rid; the sorted rids are a view of the one it gives.
        packed = as_trace(trace)
        ascending = [rid for rid, _ in rows] == sorted(r for r, _ in rows)
        assert (packed is trace) is ascending
        assert packed == sorted(trace, key=lambda r: r.rid)
        rids = sorted_rids(packed)
        assert rids.tolist() == sorted(rid for rid, _ in rows)
        assert np.shares_memory(rids, packed.columns())
        if in_order:
            assert ascending

    def test_a_generated_trace_is_stepped_in_place(self):
        trace = generate_requests(WorkloadConfig(mix="bp+vgg",
                                                 requests=3 * CHUNK_ROWS))
        order, span = arrival_order(trace)
        assert order == range(len(trace))
        assert span == (trace[0].arrival, trace[-1].arrival)
        assert list(trace.take(order)) == list(trace)
        assert list(trace.take(range(5, CHUNK_ROWS + 7))) == \
            list(trace[5:CHUNK_ROWS + 7])
        rids = sorted_rids(trace)
        assert np.shares_memory(rids, trace.columns())
        assert rids.tolist() == list(range(len(trace)))

    @pytest.mark.parametrize("shuffle", [False, True],
                             ids=["in-order", "shuffled"])
    def test_checks_hold_on_either_path(self, shuffle):
        rows = [Request(rid, "bp", 0, float(rid)) for rid in range(8)]
        if shuffle:
            rows = rows[::-1]
        bad = [r._replace(arrival=math.nan) if r.rid == 5 else
               r._replace(arrival=math.inf) if r.rid == 2 else r
               for r in rows]
        with pytest.raises(ConfigError,
                           match=r"^request ids with a non-finite arrival: "
                                 r"\[2, 5\]$"):
            arrival_order(RecordTable(Request, bad))
        twice = [r._replace(rid=3) if r.rid == 4 else r for r in rows]
        with pytest.raises(ConfigError,
                           match=r"^duplicate request ids: \[3\]$"):
            as_trace(RecordTable(Request, twice))

    def test_as_trace_keeps_a_trace_and_packs_a_list(self):
        rows = [Request(rid=1, kind="fc", tile=None, arrival=3.0)]
        trace = RecordTable(Request, rows)
        assert as_trace(trace) is trace
        assert as_trace(iter(rows)) == rows
        with pytest.raises(ConfigError, match="RequestRecord rows"):
            as_trace(EntryTable(RequestRecord))


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
        def placed(rids):
            table = EntryTable(RequestRecord, trace=as_trace([
                Request(rid=r, kind="bp", tile=0, arrival=0.0)
                for r in (1, 2, 4)]))
            table.place(RequestRecord(rid=r, kind="bp", tile=0, arrival=0.0,
                                      shed=False) for r in rids)
            return table

        with pytest.raises(SimulationError) as info:
            placed((4, 1, 1))
        assert str(info.value) == "requests recorded more than once: [1]"
        with pytest.raises(SimulationError) as info:
            placed((4, 3, 5))
        assert str(info.value) == "records of unknown requests: [3, 5]"
        with pytest.raises(SimulationError) as info:
            placed((4, 1)).check_complete()
        assert str(info.value) == "requests lost without accounting: [2]"


class TestTraceChecks:
    def test_a_tile_a_row_cannot_hold_is_named(self):
        # The int64 minimum stores None, so it would read back as None.
        tiles = {0: -2**63, 1: None, 2: 2**63, 3: 1.5, 4: -2**63 + 1,
                 5: 2**63 - 1, 6: np.int64(7), 7: "3", 8: -2**64}
        with pytest.raises(ConfigError,
                           match=r"tile a row cannot hold .*: "
                                 r"\[0, 2, 3, 7, 8\]$"):
            as_trace([Request(rid=rid, kind="bp", tile=tile, arrival=0.0)
                      for rid, tile in tiles.items()])
        kept = as_trace([Request(rid=rid, kind="bp", tile=tiles[rid],
                                 arrival=0.0) for rid in (1, 4, 5, 6)])
        assert [r.tile for r in kept] == [None, -2**63 + 1, 2**63 - 1, 7]

    @pytest.mark.parametrize("write", ["add", "append", "extend"])
    def test_a_trace_row_refuses_a_tile_it_would_misread(self, write):
        trace = RecordTable(Request, [Request(0, "bp", 3, 0.0)])
        before = list(trace)

        def put(*row):
            if write == "add":
                trace.add(*row)
            elif write == "append":
                trace.append(Request(*row))
            else:
                trace.extend([Request(*row)])

        tile = r"^request ids with a tile a row cannot hold .*: "
        for rid, value in ((1, -2**63), (2, 2**63), (3, -2**64), (4, 1.5),
                           (5, "3")):
            with pytest.raises(ConfigError, match=tile + rf"\[{rid}\]$"):
                put(rid, "gibbs", value, 0.0)
        with pytest.raises(ConfigError,
                           match=r"^request ids outside int64: "
                                 r"\[9223372036854775808\]$"):
            put(2**63, "gibbs", 0, 0.0)
        # Nothing was written.
        assert list(trace) == before
        for rid, value in ((6, -2**63 + 1), (7, 2**63 - 1), (8, None),
                           (9, np.int64(-4))):
            put(rid, "gibbs", value, 0.0)
        assert [r.tile for r in trace] == [3, -2**63 + 1, 2**63 - 1, None,
                                           -4]

    def test_a_non_finite_arrival_is_named(self):
        trace = as_trace([
            Request(rid=rid, kind="bp", tile=0, arrival=arrival)
            for rid, arrival in [(4, 1.0), (9, math.nan), (2, math.inf),
                                 (7, -math.inf), (1, 1e308)]])
        with pytest.raises(ConfigError,
                           match=r"^request ids with a non-finite arrival: "
                                 r"\[2, 7, 9\]$"):
            arrival_order(trace)

    def test_an_unpriced_kind_is_named(self):
        rows = [Request(rid=i, kind=kind, tile=0, arrival=float(i))
                for i, kind in enumerate(["bp", "gibbs", "fc", "bp"])]
        priced = {"bp": 1, "conv": 1}
        with pytest.raises(ConfigError,
                           match=r"^request kinds the cost table has no "
                                 r"column for: \['fc', 'gibbs'\]"):
            check_kinds(as_trace(rows), priced)
        # Only kinds a row holds count, not every kind there is.
        trace = as_trace(rows)
        check_kinds(trace[:1], priced)
        check_kinds(RecordTable(Request), priced)

    @pytest.mark.parametrize("write", ["as_trace", "table", "add", "append",
                                       "extend"])
    def test_a_kind_outside_the_kinds_is_named(self, write):
        # A kind is stored as its index in KINDS, so a row cannot hold
        # any other, and its rid is named before anything is packed.
        rows = [Request(1, "fc", None, 1.0), Request(2, "warp", 0, 2.0),
                Request(3, "BP", None, 3.0)]
        kind = (r"^request ids with a kind outside \['bp', 'conv', 'fc', "
                r"'gibbs'\]: ")
        if write == "as_trace":
            with pytest.raises(ConfigError, match=kind + r"\[2, 3\]$"):
                as_trace(rows)
            return
        if write == "table":
            with pytest.raises(ConfigError, match=kind + r"\[2\]$"):
                RecordTable(Request, rows)
            with pytest.raises(ConfigError, match=kind + r"\[2\]$"):
                EntryTable(RequestRecord,
                           [RequestRecord(*rows[1], shed=True)])
            return
        trace = RecordTable(Request, [Request(0, "bp", 3, 0.0)])
        for row in rows[1:]:
            with pytest.raises(ConfigError, match=kind + rf"\[{row.rid}\]$"):
                if write == "add":
                    trace.add(*row)
                elif write == "append":
                    trace.append(row)
                else:
                    trace.extend([row])
        # Nothing was written.
        assert list(trace) == [Request(0, "bp", 3, 0.0)]

