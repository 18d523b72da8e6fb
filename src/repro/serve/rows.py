"""Packed rows: the serving layer's append-only tables of named tuples.

An arrival trace holds one row per request and a run one row per
request and per launch, so the bytes of a row set how long a trace fits
in memory.  A :class:`RecordTable` packs each row into one fixed-width
slice of a ``bytearray`` and rebuilds the named tuple only when it is
read.  Each row type packs with one little-endian, unaligned ``struct``
code per field: ``q``/``i`` for 64/32-bit ints, ``d`` for floats, ``?``
for bools, and ``B`` for strings, which a table stores as a one-byte
code into its own string list.  An optional int field (a ``tile``)
stores None as the int64 minimum.

This module is a leaf: it imports nothing else of :mod:`repro.serve`,
so the modules that define row types (:mod:`repro.serve.workload` for
:class:`~repro.serve.workload.Request`, :mod:`repro.serve.fleet.records`
for the run records) import it and name their layouts with
:func:`register`.  Every row writer lives here.
"""

from __future__ import annotations

import math
import operator
import struct
from itertools import chain, repeat
from operator import eq

import numpy as np

from repro.errors import ConfigError

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
# record table also has an ``add_each`` writer for a launch's rows.


def trace_writer(pack, rows: bytearray, codes: "_Codes"):
    """``add`` for a table of :class:`~repro.serve.workload.Request`
    rows."""
    def add(rid, kind, tile, arrival):
        nonlocal rows
        rows += pack(rid, codes[kind], NO_TILE if tile is None else tile,
                     arrival)
    return add


def record_writer(pack, rows: bytearray, codes: "_Codes"):
    """``add`` for a table of
    :class:`~repro.serve.fleet.records.RequestRecord` rows."""
    def add(rid, kind, tile, arrival, shed, batch_id, chip, batch_size,
            dispatch, start, finish, outcome, retries, hedged):
        nonlocal rows
        rows += pack(rid, codes[kind], NO_TILE if tile is None else tile,
                     arrival, shed, batch_id, chip, batch_size, dispatch,
                     start, finish, codes[outcome], retries, hedged)
    return add


def launch_records_writer(layout: str, rows: bytearray, codes: "_Codes"):
    """``add_each`` for a table of
    :class:`~repro.serve.fleet.records.RequestRecord` rows, whose
    ``struct`` codes are ``layout``: one row per request of a launch,
    each request's own four fields (25 B, a trace row's ``qBqd``)
    followed by the rest every row of the launch shares (47 B), which
    is packed once.  The requests are of one kind, so strings get their
    codes in the order :func:`record_writer` would give them."""
    rest = struct.Struct("<" + layout[4:])
    row = struct.Struct(f"<{layout[:4]}{rest.size}s").pack
    pack_rest = rest.pack

    def add_each(requests, shed, batch_id, chip, batch_size, dispatch,
                 start, finish, outcome, retries, hedged):
        nonlocal rows
        codes[requests[0][1]]  # the kind before the outcome
        tail = pack_rest(shed, batch_id, chip, batch_size, dispatch, start,
                         finish, codes[outcome], retries, hedged)
        for rid, kind, tile, arrival in requests:
            rows += row(rid, codes[kind], NO_TILE if tile is None else tile,
                        arrival, tail)
    return add_each


def launch_writer(pack, rows: bytearray, codes: "_Codes"):
    """``add`` for a table of
    :class:`~repro.serve.fleet.records.BatchRecord` rows."""
    def add(batch_id, kind, size, chip, close, start, finish, reload,
            attempt, outcome, waste, hedge):
        nonlocal rows
        rows += pack(batch_id, codes[kind], size, chip, close, start,
                     finish, reload, attempt, codes[outcome], waste, hedge)
    return add


class _Layout:
    """How one row type packs: its struct, its NumPy row dtype, the
    fields that hold string codes and the one that may hold None."""

    def __init__(self, row, codes: str, writer, optional: str | None,
                 each):
        if len(codes) != len(row._fields):
            raise ValueError(f"{row.__name__} has {len(row._fields)} "
                             f"fields, layout {codes!r} packs {len(codes)}")
        self.codes = codes
        self.struct = struct.Struct("<" + codes)
        self.writer = writer
        self.each = each
        offsets, offset = [], 0
        for code in codes:
            offsets.append(offset)
            offset += struct.calcsize("<" + code)
        self.dtype = np.dtype({
            "names": list(row._fields),
            "formats": [_NUMPY_CODES[c] for c in codes],
            "offsets": offsets, "itemsize": self.struct.size})
        self.strings = tuple(i for i, c in enumerate(codes) if c == "B")
        self.optional = (row._fields.index(optional)
                         if optional is not None else None)


_LAYOUTS: dict = {}


def register(row, codes: str, writer, optional: str | None = None,
             each=None) -> None:
    """Pack rows of the named tuple ``row`` with one ``struct`` code per
    field (``codes``) through ``writer``, one of this module's writers;
    ``optional`` names the int field whose None is stored as
    :data:`NO_TILE`, and ``each`` is the writer of a table's
    ``add_each``, if the row type has one."""
    _LAYOUTS[row] = _Layout(row, codes, writer, optional, each)


class _Codes(dict):
    """A table's string codes: text -> code, each new text registered in
    ``strings`` at the next code."""

    __slots__ = ("strings",)

    def __init__(self):
        super().__init__()
        self.strings = []

    def __missing__(self, text):
        code = len(self.strings)
        if code > 0xFF:
            raise ConfigError(f"a record table holds at most 256 distinct "
                              f"strings; {text!r} would be one more")
        self.strings.append(text)
        self[text] = code
        return code


class RecordTable:
    """An append-only table of rows of one registered named tuple type
    (a :class:`~repro.serve.workload.Request`,
    :class:`~repro.serve.fleet.records.RequestRecord` or
    :class:`~repro.serve.fleet.records.BatchRecord`), each packed into
    one fixed-width slice of a ``bytearray``.

    It reads like a list of rows: ``len``, indexing, slicing (into a
    new table), iteration and ``==`` (against a table or any list or
    tuple of rows) see named tuples whose fields are builtin
    ``int``/``float``/``bool``/``str`` (or None), equal to the rows
    appended.  :meth:`add` appends one row from its fields in order,
    :meth:`append` one row and :meth:`extend` many, or a whole table; a
    table of request records also has ``add_each``, which appends a
    launch's rows at once.  :meth:`take` decodes the rows in a given
    order.  :meth:`columns` reads the rows as a zero-copy NumPy
    structured array, string fields as this table's codes
    (:meth:`matches` compares one to a string); while such a view is
    alive the table cannot grow, so readers drop theirs before the next
    append.
    """

    __slots__ = ("row", "add", "add_each", "_layout", "_rows", "_codes")

    def __init__(self, row, rows=()):
        self.row = row
        layout = self._layout = _LAYOUTS[row]
        self._rows = bytearray()
        self._codes = _Codes()
        #: Append one row from its fields, in the row's field order.
        self.add = layout.writer(layout.struct.pack, self._rows, self._codes)
        #: Append rows that share all fields after their first few (see
        #: the row type's ``each`` writer); None when it has none.
        self.add_each = (layout.each(layout.codes, self._rows, self._codes)
                         if layout.each is not None else None)
        self.extend(rows)

    # -- writing -------------------------------------------------------

    def append(self, record) -> None:
        """Append one row (any sequence of its fields in order)."""
        self.add(*record)

    def extend(self, records) -> None:
        """Append every row of ``records``: a table of the same row type
        (copied row for row, string codes translated) or any iterable of
        rows."""
        if not isinstance(records, RecordTable):
            add = self.add
            for record in records:
                add(*record)
            return
        if records.row is not self.row:
            raise ConfigError(f"cannot extend a {self.row.__name__} table "
                              f"with {records.row.__name__} rows")
        start = len(self)
        self._rows += records._rows
        codes = self._codes
        translate = np.array([codes[text] for text in records.strings],
                             dtype=np.uint8)
        view = self.columns()[start:]
        for i in self._layout.strings:
            column = view[self.row._fields[i]]
            column[:] = translate[column]

    def sort_by(self, name: str) -> None:
        """Stable in-place sort of the rows by the numeric field
        ``name``.  The row bytes move one column of up to 8 bytes at a
        time, so the sort holds the order and one such column, never a
        copy of the table."""
        order = np.argsort(self.columns()[name], kind="stable")
        size = self._layout.struct.size
        width = math.gcd(size, 8)
        lanes = np.frombuffer(self._rows, dtype=f"u{width}").reshape(
            len(order), size // width)
        for k in range(size // width):
            lane = lanes[:, k]
            lane[:] = lane[order]

    # -- reading -------------------------------------------------------

    @property
    def strings(self) -> tuple:
        """This table's strings, indexed by code."""
        return tuple(self._codes.strings)

    def columns(self) -> np.ndarray:
        """A zero-copy structured view of the rows, one field per row
        field (string fields as codes, a None tile as :data:`NO_TILE`).
        """
        return np.frombuffer(self._rows, dtype=self._layout.dtype)

    def matches(self, name: str, text: str) -> np.ndarray:
        """Boolean mask of the rows whose string field ``name`` is
        ``text``."""
        code = self._codes.get(text)
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self.columns()[name] == code

    def take(self, order: np.ndarray):
        """An iterator over the rows at the positions ``order`` (an
        integer array), in that order, decoded a chunk at a time as it
        is read."""
        return chain.from_iterable(
            self._decoded(order[start:start + CHUNK_ROWS])
            for start in range(0, len(order), CHUNK_ROWS))

    def _decoded(self, index):
        """An iterator over the rows at ``index`` (a slice or an integer
        array), decoded a column at a time: each field's values gathered
        and turned into a list with one ``tolist``, string codes and
        None mapped on the column, then one tuple per row.  It holds
        the lists, not a view of the rows."""
        layout, columns = self._layout, self.columns()
        values = []
        for i, name in enumerate(self.row._fields):
            column = columns[name][index]
            if i in layout.strings:
                strings = np.array(self._codes.strings, dtype=object)
                values.append(strings[column].tolist())
            elif i == layout.optional and (column == NO_TILE).any():
                values.append([None if v == NO_TILE else v
                               for v in column.tolist()])
            else:
                values.append(column.tolist())
        # What the row's ``_make`` calls, less its Python-level length
        # check: ``zip`` hands each row all of its fields.
        return map(tuple.__new__, repeat(self.row), zip(*values))

    def __len__(self) -> int:
        return len(self._rows) // self._layout.struct.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            # A new table of the sliced rows, as a list slice is a list.
            return _packed_table(self.row, self.columns()[index].tobytes(),
                                 self.strings)
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
        return f"RecordTable({self.row.__name__}, {len(self)} rows)"

    def __reduce__(self):
        return _packed_table, (self.row, bytes(self._rows), self.strings)


def _packed_table(row, rows: bytes, strings: tuple) -> RecordTable:
    """Rebuild a pickled or copied table from its rows and strings."""
    table = RecordTable(row)
    for text in strings:
        table._codes[text]  # registers it at its code
    table._rows += rows
    return table
