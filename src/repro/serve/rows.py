"""Packed rows: the serving layer's append-only tables of named tuples.

An arrival trace holds one row per request and a run one row per
request and per launch, so the bytes of a row set how long a trace fits
in memory.  A :class:`RecordTable` packs each row into one fixed-width
slice of a ``bytearray`` and rebuilds the named tuple only when it is
read.  Each row type packs with one little-endian, unaligned ``struct``
code per field: ``q``/``i`` for 64/32-bit ints, ``d`` for floats, ``?``
for bools, and ``B`` for strings.  A row type declares the texts of
each string field when it registers its layout, and a row stores a
string as its index in that list, so every table of the type reads the
same codes.  An optional int field (a ``tile``) stores None as the
int64 minimum.

A *joined* row type, a run's request record, is kept in an
:class:`EntryTable`: each record is a 5 B entry (an int32 reference and
a flag byte) beside the row of its request in a table of
:class:`~repro.serve.workload.Request` rows, which holds the record's
rid, kind, tile and arrival.  That row is a trace's own, the record of
request ``rid`` written at the trace row of that rid, or one the table
appends with the entry.  The rest of the record is read through the
reference: from a row of another table, its *launch table*, when the
reference is nonnegative, and from a *rest row* of the table's own when
it is negative (``~k`` names rest row ``k``).  The requests a kernel
launch served share the launch's row of the fleet's launch table, so
each launch fact is held once.

This module is a leaf: it imports nothing else of :mod:`repro.serve`,
so the modules that define row types (:mod:`repro.serve.workload` for
:class:`~repro.serve.workload.Request`, :mod:`repro.serve.fleet.records`
for the run records) import it and name their layouts with
:func:`register`.  Every row writer lives here.
"""

from __future__ import annotations

import operator
import struct
from array import array
from bisect import bisect_left
from itertools import chain, repeat
from operator import eq

import numpy as np

from repro.errors import ConfigError, SimulationError

#: The range of an int64 field (rids, tiles, batch ids).
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

#: The stored value of an optional int field holding None.
NO_TILE = INT64_MIN

#: Rows a read decodes per copied chunk of the buffer.
CHUNK_ROWS = 4096

_NUMPY_CODES = {"q": "<i8", "i": "<i4", "d": "<f8", "?": "?", "B": "u1"}


# -- writers ---------------------------------------------------------------
#
# One per row type: ``add`` takes the row's fields positionally, in
# field order, and appends them with one ``struct`` call.  A request
# record table also has ``add_each`` and ``add_rest``, which write a
# launch's or an expiry's records at once.


def _in_int64(value) -> bool:
    """Whether ``value`` is an int (any type with ``__index__``) within
    int64."""
    try:
        value = operator.index(value)
    except TypeError:
        return False
    return INT64_MIN <= value <= INT64_MAX


def holds_tile(tile) -> bool:
    """Whether a row reads ``tile`` back as written: None, or an int
    above the int64 minimum (which stores None) and within int64."""
    return tile is None or (_in_int64(tile) and tile != NO_TILE)


def unheld_requests(wide, tiles, kinds=(), known=()) -> ConfigError | None:
    """The error naming the rids of requests a row cannot hold: ``wide``
    those whose rid is outside int64, ``tiles`` those whose tile fails
    :func:`holds_tile`, ``kinds`` those whose kind is none of the texts
    ``known`` (None when all three are empty)."""
    if wide:
        return ConfigError(f"request ids outside int64: {sorted(wide)}")
    if tiles:
        return ConfigError(f"request ids with a tile a row cannot hold "
                           f"(None or an int64 above {INT64_MIN}): "
                           f"{sorted(tiles)}")
    if kinds:
        return ConfigError(f"request ids with a kind outside "
                           f"{list(known)}: {sorted(kinds)}")
    return None


def trace_writer(layout: "_Layout", rows: bytearray):
    """``add`` for a table of :class:`~repro.serve.workload.Request`
    rows.  A rid, a kind or a tile the row cannot hold is the
    :func:`unheld_requests` error, and no row is appended."""
    pack, kinds = layout.struct.pack, layout.codes["kind"]

    def add(rid, kind, tile, arrival):
        nonlocal rows
        if tile == NO_TILE:  # would read back as None
            raise unheld_requests((), (rid,))
        try:
            rows += pack(rid, kinds[kind], NO_TILE if tile is None else tile,
                         arrival)
        except (KeyError, struct.error):
            error = unheld_requests(() if _in_int64(rid) else (rid,),
                                    () if holds_tile(tile) else (rid,),
                                    () if kind in kinds else (rid,),
                                    tuple(kinds))
            if error is None:
                raise
            raise error from None
    return add


#: An entry's flag: no record yet, a record, a hedged record.
UNWRITTEN, WRITTEN, HEDGED = 0, 1, 2

#: Reads the int64 rid that opens a trace row.
_RID = struct.Struct("<q")


def _misplaced(rid, has_row: bool) -> SimulationError:
    """The error of a record of request ``rid`` that a table over a trace
    cannot take: its row (``has_row``) has one already, or it has no
    row."""
    if has_row:
        return SimulationError(f"requests recorded more than once: [{rid}]")
    return SimulationError(f"records of unknown requests: [{rid}]")


def record_writers(table: "EntryTable"):
    """``add``, ``add_each`` and ``add_rest`` for an :class:`EntryTable`
    of :class:`~repro.serve.fleet.records.RequestRecord` rows.

    ``add_each(requests, launch, hedged)`` writes one entry per request
    of a launch, each referencing row ``launch`` of the table's launch
    table, which holds the rest of the record.  ``add_rest(requests,
    shed, batch_id, ..., retries, hedged)`` writes one rest row of the
    table's own, which every request's entry references, and ``add``
    one record from its fields in order, its rest fields into a rest
    row.  A rest row is appended before the entries that reference it.

    An appended table appends each request's row to its own
    :class:`~repro.serve.workload.Request` table with its entry, through
    that table's writer, which refuses a row it cannot hold.  A
    table over a trace (rids ascending) writes the entry of request
    ``rid`` at that rid's row: row ``rid - rid0`` when the trace's rids
    run consecutively from ``rid0`` (as they ascend, exactly when the
    last of ``n`` rows is ``rid0 + n - 1``), and otherwise the row that
    a bisection of the trace's rids finds, one rid unpacked from the row
    bytes per step (a NumPy search would copy the strided rid column on
    every write).  A rid with no row, or whose row has a record already,
    is a :class:`~repro.errors.SimulationError` naming it, raised before
    its entry is written (a launch's or an expiry's requests before it
    keep theirs).
    """
    rest = table._join.rest
    pack_rest, rest_size = rest.struct.pack, rest.struct.size
    outcomes = rest.codes["outcome"]
    refs, marks, rests = table._refs, table._marks, table._rest
    requests = table.requests
    if table._appended:
        add_request = requests.add

        def add_each(batch, ref, hedged):
            mark = HEDGED if hedged else WRITTEN
            for request in batch:
                add_request(*request)
                refs.append(ref)
                marks.append(mark)
    else:
        rows, size = requests._rows, requests._layout.struct.size

        def row_rid(row):
            return _RID.unpack_from(rows, row * size)[0]

        last = len(marks) - 1
        if last >= 0 and row_rid(last) - row_rid(0) == last:
            rid0 = row_rid(0)

            def add_each(batch, ref, hedged):
                mark = HEDGED if hedged else WRITTEN
                n = len(marks)
                for rid, _, _, _ in batch:
                    at = rid - rid0
                    # A negative row would index from the end without
                    # error.
                    if not 0 <= at < n or marks[at]:
                        raise _misplaced(rid, 0 <= at < n)
                    refs[at] = ref
                    marks[at] = mark
        else:
            def add_each(batch, ref, hedged):
                mark = HEDGED if hedged else WRITTEN
                n = len(marks)
                for rid, _, _, _ in batch:
                    at = bisect_left(range(n), rid, key=row_rid)
                    has_row = at < n and row_rid(at) == rid
                    if not has_row or marks[at]:
                        raise _misplaced(rid, has_row)
                    refs[at] = ref
                    marks[at] = mark

    def add_rest(batch, shed, batch_id, chip, batch_size, dispatch, start,
                 finish, outcome, retries, hedged):
        nonlocal rests
        ref = ~(len(rests) // rest_size)
        rests += pack_rest(shed, batch_id, chip, batch_size, dispatch, start,
                           finish, outcomes[outcome], retries)
        add_each(batch, ref, hedged)

    def add(rid, kind, tile, arrival, shed, batch_id, chip, batch_size,
            dispatch, start, finish, outcome, retries, hedged):
        add_rest(((rid, kind, tile, arrival),), shed, batch_id, chip,
                 batch_size, dispatch, start, finish, outcome, retries,
                 hedged)

    return add, add_each, add_rest


def launch_writer(layout: "_Layout", rows: bytearray):
    """``add`` for a table of
    :class:`~repro.serve.fleet.records.BatchRecord` rows."""
    pack = layout.struct.pack
    kinds, outcomes = layout.codes["kind"], layout.codes["outcome"]

    def add(batch_id, kind, size, chip, close, start, finish, reload,
            attempt, outcome, waste, hedge):
        nonlocal rows
        rows += pack(batch_id, kinds[kind], size, chip, close, start,
                     finish, reload, attempt, outcomes[outcome], waste, hedge)
    return add


class _Layout:
    """How rows of the named ``fields`` pack: their struct, their NumPy
    row dtype, each string field's texts (``texts``, a string stored as
    its index in them, and ``codes``, text -> index) and the int field
    that may hold None; ``writer`` makes a table's ``add``."""

    def __init__(self, fields, codes: str, texts: dict,
                 optional: str | None = None, writer=None):
        self.fields = tuple(fields)
        if len(codes) != len(self.fields):
            raise ValueError(f"{len(self.fields)} fields, layout {codes!r} "
                             f"packs {len(codes)}")
        strings = {f for f, c in zip(self.fields, codes) if c == "B"}
        if set(texts) != strings:
            raise ValueError(f"layout {codes!r} declares the texts of "
                             f"{sorted(texts)}, not of its string fields "
                             f"{sorted(strings)}")
        self.struct = struct.Struct("<" + codes)
        self.writer = writer
        offsets, offset = [], 0
        for code in codes:
            offsets.append(offset)
            offset += struct.calcsize("<" + code)
        self.dtype = np.dtype({
            "names": list(self.fields),
            "formats": [_NUMPY_CODES[c] for c in codes],
            "offsets": offsets, "itemsize": self.struct.size})
        self.texts = {f: tuple(t) for f, t in texts.items()}
        self.codes = {f: {text: code for code, text in enumerate(t)}
                      for f, t in self.texts.items()}
        self.optional = optional if optional in self.fields else None

    def values(self, name: str, column: np.ndarray) -> list:
        """The values of the stored field ``name`` read as ``column``:
        a string field's texts, and None where an optional field holds
        :data:`NO_TILE`."""
        if name in self.texts:
            return np.array(self.texts[name], dtype=object)[column].tolist()
        if name == self.optional and (column == NO_TILE).any():
            return [None if v == NO_TILE else v for v in column.tolist()]
        return column.tolist()


class _Join:
    """How a joined row type stores a row: its fields of a ``requests``
    row (a registered row type) in a row of that type; the rest, the
    fields ``through`` names, in the launch table row that the int32
    ``ref`` of an entry beside that row names, or in rest row ``~ref``
    of the table's own; and its one field of neither kind, a bool
    (``flag``), in the entry's flag byte.  ``through`` maps each rest
    field to the launch-table field a launch row gives it (None: a
    launch row gives it zero, or False); a rest string field and its
    launch field declare the same texts, so a code reads alike from
    either row."""

    def __init__(self, row, codes: str, texts: dict, writer, requests,
                 through):
        code = dict(zip(row._fields, codes))
        rest = tuple(f for f in row._fields if f in through)
        flag = set(row._fields) - set(requests._fields) - set(through)
        if len(codes) != len(row._fields) or len(flag) != 1 \
                or len(rest) != len(through):
            raise ValueError(f"{row.__name__}: {codes!r} must pack every "
                             f"field, each a {requests.__name__} field, "
                             f"one {through} reads, or the one flag")
        (self.flag,) = flag
        self.requests = requests
        self.rest = _Layout(rest, "".join(code[f] for f in rest), texts)
        self.through = through
        self.writer = writer


_LAYOUTS: dict = {}


def register(row, codes: str, writer, texts: dict | None = None,
             optional: str | None = None, requests=None,
             through: dict | None = None) -> None:
    """Pack rows of the named tuple ``row`` with one ``struct`` code per
    field (``codes``) through ``writer``, one of this module's writers.
    ``texts`` maps each string field (code ``B``) to the texts it may
    hold, each stored as its one-byte index; ``optional`` names the
    int field whose None is stored as :data:`NO_TILE`.  With
    ``requests`` (a registered row type), the row type is joined: an
    :class:`EntryTable` reads a row's fields of a ``requests`` row's
    names from one, one more from its entry's flag, and the others
    through its reference, each from the launch-table field ``through``
    maps it to; ``texts`` then names the string fields among those."""
    texts = texts or {}
    if requests is None:
        _LAYOUTS[row] = _Layout(row._fields, codes, texts, optional, writer)
    else:
        _LAYOUTS[row] = _Join(row, codes, texts, writer, requests, through)


def _equal(column, code):
    """Mask of ``column`` equal to ``code`` (None, the code of a text
    the field does not declare, matches nothing)."""
    if code is None:
        return np.zeros(len(column), dtype=bool)
    return column == code


class RecordTable:
    """An append-only table of rows of one registered named tuple type
    (a :class:`~repro.serve.workload.Request` or
    :class:`~repro.serve.fleet.records.BatchRecord`), each packed into
    one fixed-width slice of a ``bytearray``.

    It reads like a list of rows: ``len``, indexing, slicing (into a
    new table), iteration and ``==`` (against a table or any list or
    tuple of rows) see named tuples whose fields are builtin
    ``int``/``float``/``bool``/``str`` (or None), equal to the rows
    appended.  :meth:`add` appends one row from its fields in order,
    :meth:`append` one row and :meth:`extend` many, or a whole table.
    :meth:`take` decodes the rows in a given order.  :meth:`column`
    reads one field, :meth:`matches` compares a string field with a
    text, and :meth:`columns` gives the stored rows as a zero-copy NumPy
    structured array, string fields as their codes; while such a view is
    alive the table cannot grow, so readers drop theirs before the next
    append.

    Request records, a joined row type, are kept in an
    :class:`EntryTable`, which reads the same way.
    """

    __slots__ = ("row", "add", "_layout", "_rows")

    def __init__(self, row, rows=()):
        layout = self._layout = _LAYOUTS[row]
        if isinstance(layout, _Join):
            raise ConfigError(f"{row.__name__} rows are kept in an "
                              f"EntryTable")
        self.row = row
        self._rows = bytearray()
        #: Append one row from its fields, in the row's field order.
        self.add = layout.writer(layout, self._rows)
        self.extend(rows)

    # -- writing -------------------------------------------------------

    def append(self, record) -> None:
        """Append one row (any sequence of its fields in order)."""
        self.add(*record)

    def extend(self, records) -> None:
        """Append every row of ``records``: a table of the same row type
        (its rows copied as they are) or any iterable of rows."""
        if not isinstance(records, RecordTable):
            self._add_all(records)
            return
        self._check_row(records)
        self._rows += records._rows

    def _add_all(self, records) -> None:
        add = self.add
        for record in records:
            add(*record)

    def _check_row(self, records: "RecordTable") -> None:
        if records.row is not self.row:
            raise ConfigError(f"cannot extend a {self.row.__name__} table "
                              f"with {records.row.__name__} rows")

    def sort_by(self, name: str) -> None:
        """Stable in-place sort of the rows by the numeric field
        ``name``.  The row bytes move one column of up to 8 bytes at a
        time, so the sort holds the order and one such column, never a
        copy of the table."""
        order = np.argsort(self.columns()[name], kind="stable")
        size, offset = self._layout.struct.size, 0
        while offset < size and len(order):
            width = next(w for w in (8, 4, 2, 1) if w <= size - offset)
            lane = np.ndarray(len(order), f"<u{width}", self._rows, offset,
                              (size,))
            lane[:] = lane[order]
            offset += width

    # -- reading -------------------------------------------------------

    def columns(self) -> np.ndarray:
        """A zero-copy structured view of the stored rows, one field per
        stored field (string fields as codes, a None tile as
        :data:`NO_TILE`)."""
        return np.frombuffer(self._rows, dtype=self._layout.dtype)

    def column(self, name: str, index=slice(None)) -> np.ndarray:
        """The numeric field ``name`` of the rows at ``index`` (a slice,
        mask or integer array): a view for a slice of a stored field."""
        return self.columns()[name][index]

    def matches(self, name: str, text: str, index=slice(None)) -> np.ndarray:
        """Boolean mask of the rows at ``index`` whose string field
        ``name`` is ``text``."""
        return _equal(self.columns()[name][index],
                      self._layout.codes[name].get(text))

    def take(self, order):
        """An iterator over the rows at the positions ``order`` (an
        integer array or a range), in that order, decoded a chunk at a
        time as it is read.  A range of step 1 is read a slice at a
        time, with no index array."""
        if isinstance(order, range) and order.step == 1:
            chunks = (slice(start, min(start + CHUNK_ROWS, order.stop))
                      for start in range(order.start, order.stop,
                                         CHUNK_ROWS))
        else:
            chunks = (order[start:start + CHUNK_ROWS]
                      for start in range(0, len(order), CHUNK_ROWS))
        return chain.from_iterable(map(self._decoded, chunks))

    def _decoded(self, index):
        """An iterator over the rows at ``index`` (a slice or an integer
        array), decoded a column at a time: each field's values gathered
        and turned into a list with one ``tolist``, string codes and
        None mapped on the column, then one tuple per row.  It holds
        the lists, not a view of the rows."""
        columns, layout = self.columns(), self._layout
        return self._tuples([layout.values(name, columns[name][index])
                             for name in self.row._fields])

    def _tuples(self, values):
        # What the row's ``_make`` calls, less its Python-level length
        # check: ``zip`` hands each row all of its fields.
        return map(tuple.__new__, repeat(self.row), zip(*values))

    def __len__(self) -> int:
        return len(self._rows) // self._layout.struct.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            # A new table of the sliced rows, as a list slice is a list.
            return _packed_table(self.row, self.columns()[index].tobytes())
        index, n = operator.index(index), len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        return next(self._decoded([index]))

    def __iter__(self):
        return chain.from_iterable(self._chunks())

    def _chunks(self):
        # A chunk decodes into lists before its first row is read: no
        # buffer export outlives a step, so the table may grow while it
        # is iterated, as a list may.
        start = 0
        while start < len(self):
            stop = min(start + CHUNK_ROWS, len(self))
            yield self._decoded(slice(start, stop))
            start = stop

    def __eq__(self, other):
        if isinstance(other, RecordTable):
            if other.row is not self.row:
                return False
        elif not isinstance(other, (list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.row.__name__}, {len(self)} rows)"

    def __reduce__(self):
        return _packed_table, (self.row, bytes(self._rows))


class EntryTable(RecordTable):
    """A table of rows of a joined row type (a run's
    :class:`~repro.serve.fleet.records.RequestRecord`\\ s): one 5 B
    entry per record, an int32 reference and a flag (:data:`UNWRITTEN`,
    :data:`WRITTEN` or :data:`HEDGED`, the record's ``hedged`` field),
    beside the record's row in ``requests``, a table of
    :class:`~repro.serve.workload.Request` rows, which gives its rid,
    kind, tile and arrival.  A launch field is read through the
    reference from a row of the launch table ``launches`` (None: no
    record may reference one), and a rest field from a rest row of the
    table's own.

    Without a ``trace`` the table appends: each record written appends
    its request's row to a ``requests`` table of its own (25 B, so 30 B
    a record).  Over a ``trace`` (a table of Request rows in ascending
    rid order, as :func:`~repro.serve.fleet.records.as_trace` gives) it
    holds one entry per trace row, unwritten until the record of that
    row's request is written there, and reads the request's fields from
    the trace row: 5 B a record.  Records are written one at a time,
    each at the row of its rid that the table finds (see
    :func:`record_writers`), and a whole table's at once by
    :meth:`place`, which searches the trace's rids.  Either way a second
    record of a request, or one of a request with no row, raises as it
    is written, and :meth:`check_complete` names the requests with none.
    Until every row has its record, a row without one reads its launch
    and rest fields as zeros and matches no text, and :meth:`written`
    counts the rows that have one.

    ``add`` and ``append`` write a record's rest fields into a rest row;
    ``add_each`` and ``add_rest`` a launch's or an expiry's records.
    The launch table is read, never written: a launch row must not move
    while records reference it.  The table keeps its trace, not a view
    of it, so the trace may still grow; a trace row rewritten after the
    run changes the record that reads it (a request field is read as a
    read-only view).  It reads as a :class:`RecordTable` does (``len``,
    indexing, iteration, :meth:`take`, ``==``, :meth:`column`,
    :meth:`matches`, pickle and deepcopy, which carry the trace and the
    launch table), and a slice of it, once every row has its record, is
    an appended table referencing the same launch table.  It stores no
    rows to view with :meth:`columns` or sort.
    """

    __slots__ = ("requests", "add_each", "add_rest", "_join", "_appended",
                 "_refs", "_marks", "_rest", "_launches", "_full")

    def __init__(self, row, rows=(), launches=None, trace=None):
        join = self._join = _LAYOUTS[row]
        self.row = row
        self._launches = launches
        self._appended = trace is None
        if trace is None:
            self.requests = RecordTable(join.requests)
            self._refs, self._marks = array("i"), bytearray()
        else:
            self.requests = trace
            self._refs = array("i", [0]) * len(trace)
            self._marks = bytearray(len(trace))
        #: Whether every row has its record (once so, always so).
        self._full = not self._marks
        self._rest = bytearray()
        self.add, add_each, self.add_rest = join.writer(self)
        #: Write a launch's records, each referencing the launch's row
        #: of the launch table; None without a launch table.
        self.add_each = add_each if launches is not None else None
        self.extend(rows)

    def extend(self, records) -> None:
        """Write every record of ``records`` (a table of this row type or
        any iterable of records) field by field."""
        if isinstance(records, RecordTable):
            self._check_row(records)
        self._add_all(records)

    def place(self, records, launches_at: int = 0, rids=None) -> None:
        """Write every record of ``records`` (a table of this row type, or
        any iterable of records, appended into one first) at its
        request's row of this table's trace, found by searching ``rids``:
        the trace's rids (its rid column unless given; a caller holding
        them contiguous spares the search a copy).  The records' launch
        references point ``launches_at`` rows further on in this table's
        launch table, where their launch rows begin; their rest rows are
        appended to this table's own as they are.

        A record of a request with no row, or whose row has a record
        already (written before, or another of ``records``), is a
        :class:`~repro.errors.SimulationError` naming every such rid.
        """
        if self._appended:
            raise ConfigError("records are placed in a table over a trace")
        if not isinstance(records, EntryTable):
            records = EntryTable(self.row, records)
        self._check_row(records)
        records.check_complete()
        theirs = records.column("rid")
        if rids is None:
            rids = self.column("rid")
        rows = np.searchsorted(rids, theirs)
        known = rows < len(rids)
        known[known] = rids[rows[known]] == theirs[known]
        if not known.all():
            raise SimulationError(f"records of unknown requests: "
                                  f"{sorted(set(theirs[~known].tolist()))}")
        flags, free = self._flags(), self._marks.count(UNWRITTEN)
        twice = theirs[flags[rows] != UNWRITTEN]
        if not len(twice):
            flags[rows] = records._flags()
            if self._marks.count(UNWRITTEN) != free - len(rows):
                # Two of ``records`` share a row.
                mine = np.sort(theirs)
                twice = mine[1:][mine[1:] == mine[:-1]]
        if len(twice):
            raise SimulationError(f"requests recorded more than once: "
                                  f"{sorted(set(twice.tolist()))}")
        del flags
        ref = records._ref(slice(None)).copy()
        mine = ref < 0
        ref[mine] -= len(self._rest) // self._join.rest.struct.size
        ref[~mine] += launches_at
        np.frombuffer(self._refs, dtype=np.intc)[rows] = ref
        self._rest += records._rest

    def columns(self) -> np.ndarray:
        raise ConfigError("a request-record table stores no rows to view: "
                          "read its fields with column() and matches()")

    # -- exactly once ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._marks)

    def written(self) -> int:
        """The rows that have their record."""
        return len(self._marks) - self._marks.count(UNWRITTEN)

    def _complete(self) -> bool:
        if not self._full:
            self._full = UNWRITTEN not in self._marks
        return self._full

    def check_complete(self) -> None:
        """Raise a :class:`~repro.errors.SimulationError` naming every
        request no record was written for."""
        if not self._complete():
            lost = self.column("rid", self._flags() == UNWRITTEN)
            raise SimulationError(f"requests lost without accounting: "
                                  f"{lost.tolist()}")

    # -- reading ---------------------------------------------------------

    def _flags(self) -> np.ndarray:
        return np.frombuffer(self._marks, dtype=np.uint8)

    def _ref(self, index) -> np.ndarray:
        """The references of the records at ``index``."""
        return np.frombuffer(self._refs, dtype=np.intc)[index]

    def _rests(self) -> np.ndarray:
        return np.frombuffer(self._rest, dtype=self._join.rest.dtype)

    def _own(self, name: str) -> np.ndarray:
        """The request field ``name`` of this table's rows, read-only."""
        column = self.requests.columns()[:len(self)][name]
        column.flags.writeable = False
        return column

    def _through(self, name: str, index) -> np.ndarray:
        """Rest field ``name`` of the records at ``index``, read from the
        launch rows the records reference and from their own rest rows,
        merged in record order; a row without its record reads zero."""
        if self._complete():
            return self._gathered(name, index)
        # Gather the rows at ``index`` that have their record.  A slice
        # or mask becomes the positions it selects, an integer array (a
        # snapshot's chunk) is used as it is.
        if isinstance(index, slice):
            index = np.arange(*index.indices(len(self)))
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        written = self._flags()[index] != UNWRITTEN
        theirs = self._gathered(name, index[written])
        out = np.zeros(len(index), dtype=theirs.dtype)
        out[written] = theirs
        return out

    def _gathered(self, name: str, index) -> np.ndarray:
        ref = self._ref(index)
        launched = ref >= 0
        own = self._rests()[name][~ref[~launched]]
        if not launched.any():
            return own
        rows = ref if not len(own) else ref[launched]
        source = self._join.through[name]
        if source is None:
            theirs = np.zeros(len(rows), dtype=own.dtype)
        else:
            theirs = self._launches.columns()[source][rows]
        if not len(own):
            return theirs
        out = np.empty(len(ref), dtype=own.dtype)
        out[launched] = theirs
        out[~launched] = own
        return out

    def column(self, name: str, index=slice(None)) -> np.ndarray:
        """As :meth:`RecordTable.column`: a request field is a read-only
        view of its column for a slice, a field read through the
        references is gathered into a new array."""
        if name in self.requests._layout.texts \
                or name in self._join.rest.texts:
            raise ConfigError(f"read the string field {name!r} with "
                              f"matches()")
        if name in self.requests.row._fields:
            return self._own(name)[index]
        if name == self._join.flag:
            return self._flags()[index] == HEDGED
        return self._through(name, index)

    def matches(self, name: str, text: str, index=slice(None)) -> np.ndarray:
        if name in self.requests.row._fields:
            return _equal(self._own(name)[index],
                          self.requests._layout.codes[name].get(text))
        hit = _equal(self._through(name, index),
                     self._join.rest.codes[name].get(text))
        if not self._complete():
            # A row without its record reads code 0, a text's.
            hit &= self._flags()[index] != UNWRITTEN
        return hit

    def _decoded(self, index):
        requests, rest = self.requests._layout, self._join.rest
        values = []
        for name in self.row._fields:
            if name in requests.fields:
                values.append(requests.values(name, self._own(name)[index]))
            elif name == self._join.flag:
                values.append(self.column(name, index).tolist())
            else:
                values.append(rest.values(name, self._through(name, index)))
        return self._tuples(values)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return super().__getitem__(index)
        # The sliced records as an appended table: their request rows,
        # their entries, and the rest rows they reference renumbered in
        # order; launch references are kept.  An entry cannot be
        # appended without its record.
        self.check_complete()
        requests = self.requests
        ref = self._ref(index).copy()
        mine = ref < 0
        used, renumbered = np.unique(~ref[mine], return_inverse=True)
        ref[mine] = ~renumbered
        return _entry_table(
            self.row,
            _packed_table(requests.row,
                          requests.columns()[:len(self)][index].tobytes()),
            True, ref.tobytes(), bytes(self._marks[index]),
            self._rests()[used].tobytes(), self._launches)

    def __reduce__(self):
        return _entry_table, (self.row, self.requests, self._appended,
                              self._refs.tobytes(), bytes(self._marks),
                              bytes(self._rest), self._launches)


def _entry_table(row, requests: RecordTable, appended: bool, refs: bytes,
                 marks: bytes, rest: bytes,
                 launches: RecordTable | None) -> EntryTable:
    """Rebuild a pickled, copied or sliced :class:`EntryTable`: appended,
    with the request rows of ``requests``, or over the trace
    ``requests``."""
    table = EntryTable(row, launches=launches,
                       trace=None if appended else requests)
    if appended:
        table.requests.extend(requests)
    table._refs[:] = array("i", refs)
    table._marks[:] = marks
    table._rest += rest
    return table


def _packed_table(row, rows: bytes) -> RecordTable:
    """Rebuild a pickled, copied or sliced table from its rows."""
    table = RecordTable(row)
    table._rows += rows
    return table
