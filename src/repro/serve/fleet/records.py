"""Fleet data definitions: config, per-chip state, and run records.

Shared by the event-loop core (:mod:`repro.serve.fleet.core`) and the
dispatch/policy half (:mod:`repro.serve.fleet.dispatch`); importing this
module pulls in no simulation machinery.  A run keeps its records in
:class:`RecordTable`\\ s, one packed fixed-width row per request and per
launch; the exactly-once checks on them (:func:`sorted_rids`,
:func:`sort_exactly_once`) live here too, so the fleet and the cluster
router share them.
"""

from __future__ import annotations

import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter, eq
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.serve.failures import FailureConfig
from repro.serve.policy import SCHEDULE_PRIMITIVES, PolicySet
from repro.serve.queueing import SHED_POLICIES
from repro.serve.resilience import ResilienceConfig

#: The built-in scheduling policies (leaves of the ``schedule`` slot).
POLICIES = SCHEDULE_PRIMITIVES

#: Request outcomes (the conservation invariant's exhaustive set).
OUTCOMES = ("served", "shed", "expired")

#: The ``rid`` of a request or of a record.
_RID = attrgetter("rid")

#: The range of a rid: a request row stores it as an int64.
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


@dataclass(frozen=True)
class ServeConfig:
    """The serving-layer knobs (all times in PE clock cycles)."""

    chips: int = 4
    policy: str = "least-loaded"
    max_batch: int = 8
    max_wait_cycles: float = 20_000.0
    queue_capacity: int = 64
    shed_policy: str = "drop-newest"
    #: Per-launch fixed cost: program staging + launch handshake.
    dispatch_overhead_cycles: float = 2_000.0
    #: External-link staging bandwidth for model/tile reloads
    #: (8 B/cycle = 10 GB/s at 1.25 GHz, one vault's share of the
    #: chip-level 320 GB/s).
    reload_bytes_per_cycle: float = 8.0
    #: Chips running the degraded (fault-injected, ECC-correcting)
    #: service-time column of the cost table.
    degraded_chips: tuple = ()
    #: Latency SLO; a served request violates it when latency exceeds
    #: this.  Default 0.25 ms at 1.25 GHz.
    slo_cycles: float = 312_500.0
    clock_ghz: float = 1.25
    #: The chip failure lifecycle (None or disabled = no chip ever
    #: fails; see repro.serve.failures).
    failures: FailureConfig | None = None
    #: Scheduler-side resilience knobs when failures are enabled (None
    #: = DEFAULT_RESILIENCE).  With failures off they are ignored: the
    #: fleet runs the defaults with no retry deadline.
    resilience: ResilienceConfig | None = None
    #: Decision-tree overrides for the schedule/shed/retry/hedge slots
    #: (see repro.serve.policy).  None runs the built-in trees, which
    #: reproduce the string knobs above exactly.
    policy_set: PolicySet | None = None
    #: Simulated autoscaling (see repro.serve.autoscale).  None keeps
    #: the fleet static.
    autoscale: "AutoscaleConfig | None" = None
    #: Cluster-of-fleets sharding (see repro.serve.cluster).  None runs
    #: one standalone fleet.  With a cluster, ``chips`` is the per-shard
    #: fleet size.
    cluster: "ClusterConfig | None" = None

    def __post_init__(self):
        if self.chips <= 0:
            raise ConfigError("chips must be positive")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; "
                              f"choose from {POLICIES}")
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(f"unknown shed policy {self.shed_policy!r}")
        if self.dispatch_overhead_cycles < 0:
            raise ConfigError("dispatch_overhead_cycles must be nonnegative")
        if self.reload_bytes_per_cycle <= 0:
            raise ConfigError("reload_bytes_per_cycle must be positive")
        if self.slo_cycles <= 0:
            raise ConfigError("slo_cycles must be positive")
        bad = [c for c in self.degraded_chips
               if not 0 <= c < self.chips]
        if bad:
            raise ConfigError(f"degraded chip ids out of range: {bad}")
        if self.failures is not None:
            self.failures.validate_chips(self.chips)
        if self.policy_set is not None \
                and not isinstance(self.policy_set, PolicySet):
            raise ConfigError("policy_set must be a PolicySet "
                              "(see repro.serve.policy.load_policy)")
        if self.autoscale is not None:
            self.autoscale.validate_fleet(self.chips)
        if self.cluster is not None and not hasattr(self.cluster, "shards"):
            raise ConfigError("cluster must be a ClusterConfig "
                              "(see repro.serve.cluster)")

    @property
    def failures_enabled(self) -> bool:
        return self.failures is not None and self.failures.enabled


@dataclass
class ChipState:
    """One chip's scheduling state and accumulated accounting."""

    chip_id: int
    degraded: bool = False
    free_at: float = 0.0
    resident_kind: str | None = None
    resident_tile: int | None = None
    busy_cycles: float = 0.0
    reload_cycles: float = 0.0
    batches: int = 0
    requests: int = 0
    #: Launches killed under this chip by a fail-stop (incl. hedges).
    kills: int = 0
    #: Autoscaler lifecycle (defaults describe a boot-time chip; the
    #: static fleet never changes them).
    added_at: float = 0.0
    #: A provisioned chip serves no work before this (warm-up cost).
    warm_at: float = 0.0
    #: Draining chips take no new launches and retire once idle.
    draining: bool = False
    retired_at: float | None = None


class RequestRecord(NamedTuple):
    """Final accounting for one request (served, shed, or expired).

    Records are immutable named tuples: a :class:`RecordTable` packs
    each into one row and rebuilds it on read.  Derive a changed copy
    with ``_replace`` and a field dict with ``_asdict``.
    """

    rid: int
    kind: str
    #: Locality key, or None for a request without one.
    tile: int | None
    arrival: float
    shed: bool
    batch_id: int = -1
    chip: int = -1
    batch_size: int = 0
    dispatch: float = 0.0  # batch close time
    start: float = 0.0     # launch start on the chip
    finish: float = 0.0
    #: Exactly-once accounting: "served", "shed", or "expired".
    outcome: str = "served"
    #: Re-dispatch attempts the serving (or expiring) launch had behind it.
    retries: int = 0
    #: True when a hedge launch raced the primary for this request.
    hedged: bool = False

    @property
    def batch_wait(self) -> float:
        return self.dispatch - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.start - self.dispatch

    @property
    def service(self) -> float:
        return self.finish - self.start

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


class BatchRecord(NamedTuple):
    """One kernel launch (or launch attempt); a named tuple like
    :class:`RequestRecord`."""

    batch_id: int
    kind: str
    size: int
    chip: int
    close: float
    start: float
    finish: float
    reload: float
    #: Which re-dispatch attempt this launch was (0 = first).
    attempt: int = 0
    #: "served", "killed" (fail-stop), or "hedge-loser" (cancelled).
    outcome: str = "served"
    #: Cycles the chip burned on a killed / cancelled launch.
    waste: float = 0.0
    #: True for hedge launches (winner or loser).
    hedge: bool = False


# -- packed rows -----------------------------------------------------------
#
# Each record field packs with one little-endian, unaligned ``struct``
# code: ``q``/``i`` for 64/32-bit ints, ``d`` for floats, ``?`` for
# bools, and ``B`` for strings, which a table stores as a one-byte code
# into its own string list.  A request's ``tile`` is an int64 whose
# minimum stands for None.  Chip ids, batch sizes and attempt counts
# are int32; rids, tiles and batch ids int64.

#: The stored tile of a request without one.
_NO_TILE = _INT64_MIN

#: Rows a read decodes per copied chunk of the buffer.
_CHUNK_ROWS = 4096

_NUMPY_CODES = {"q": "<i8", "i": "<i4", "d": "<f8", "?": "?", "B": "u1"}


def _request_writer(pack, rows: bytearray, codes: _Codes):
    """``add`` for a request table: one row from the fields, in order."""
    def add(rid, kind, tile, arrival, shed, batch_id, chip, batch_size,
            dispatch, start, finish, outcome, retries, hedged):
        nonlocal rows
        rows += pack(rid, codes[kind], _NO_TILE if tile is None else tile,
                     arrival, shed, batch_id, chip, batch_size, dispatch,
                     start, finish, codes[outcome], retries, hedged)
    return add


def _batch_writer(pack, rows: bytearray, codes: _Codes):
    """``add`` for a launch table: one row from the fields, in order."""
    def add(batch_id, kind, size, chip, close, start, finish, reload,
            attempt, outcome, waste, hedge):
        nonlocal rows
        rows += pack(batch_id, codes[kind], size, chip, close, start,
                     finish, reload, attempt, codes[outcome], waste, hedge)
    return add


class _Layout:
    """How one record type packs: its struct, its NumPy row dtype, the
    fields that hold string codes and the one that may hold None."""

    def __init__(self, row, codes: str, writer, optional: str | None = None):
        self.struct = struct.Struct("<" + codes)
        self.writer = writer
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


#: 72 B per request, 63 B per launch.
_REQUEST_LAYOUT = _Layout(RequestRecord, "qBqd?qiidddBi?", _request_writer,
                          optional="tile")
_BATCH_LAYOUT = _Layout(BatchRecord, "qBiiddddiBd?", _batch_writer)
_LAYOUTS = {RequestRecord: _REQUEST_LAYOUT, BatchRecord: _BATCH_LAYOUT}


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
    """An append-only table of :class:`RequestRecord` or
    :class:`BatchRecord` rows, each packed into one fixed-width slice of
    a ``bytearray``.

    It reads like a list of records: ``len``, indexing, iteration and
    ``==`` (against a table or any list or tuple of records) see named
    tuples whose fields are builtin ``int``/``float``/``bool``/``str``
    (or None), equal to the records appended.  :meth:`add` appends one
    row from its fields in order, :meth:`append` one record and
    :meth:`extend` many, or a whole table.  :meth:`columns` reads the
    rows as a zero-copy NumPy structured array, string fields as this
    table's codes (:meth:`matches` compares one to a string); while such
    a view is alive the table cannot grow, so readers drop theirs before
    the next append.
    """

    __slots__ = ("row", "add", "_layout", "_rows", "_codes")

    def __init__(self, row, rows=()):
        self.row = row
        self._layout = _LAYOUTS[row]
        self._rows = bytearray()
        self._codes = _Codes()
        #: Append one row from its fields, in the record's field order.
        self.add = self._layout.writer(self._layout.struct.pack, self._rows,
                                       self._codes)
        self.extend(rows)

    # -- writing -------------------------------------------------------

    def append(self, record) -> None:
        """Append one record (any sequence of its fields in order)."""
        self.add(*record)

    def extend(self, records) -> None:
        """Append every record of ``records``: a table of the same
        record type (copied row for row, string codes translated) or any
        iterable of records."""
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
        """A zero-copy structured view of the rows, one field per record
        field (string fields as codes, a None tile as the int64 minimum).
        """
        return np.frombuffer(self._rows, dtype=self._layout.dtype)

    def matches(self, name: str, text: str) -> np.ndarray:
        """Boolean mask of the rows whose string field ``name`` is
        ``text``."""
        code = self._codes.get(text)
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self.columns()[name] == code

    def _decode(self, values: tuple):
        values = list(values)
        strings = self._codes.strings
        for i in self._layout.strings:
            values[i] = strings[values[i]]
        i = self._layout.optional
        if i is not None and values[i] == _NO_TILE:
            values[i] = None
        return self.row._make(values)

    def __len__(self) -> int:
        return len(self._rows) // self._layout.struct.size

    def __getitem__(self, index: int):
        index, n = operator.index(index), len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        layout = self._layout
        return self._decode(layout.struct.unpack_from(
            self._rows, index * layout.struct.size))

    def __iter__(self):
        # A copied chunk at a time: no buffer export outlives a step, so
        # the table may grow while it is iterated, as a list may.
        packing, decode = self._layout.struct, self._decode
        rows, offset = self._rows, 0
        while offset < len(rows):
            chunk = rows[offset:offset + _CHUNK_ROWS * packing.size]
            offset += len(chunk)
            for values in packing.iter_unpack(chunk):
                yield decode(values)

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


def served_finish(tables, default: float) -> float:
    """The latest finish of a served launch in the launch tables
    ``tables`` (``default`` when none served), as ``max`` over the rows
    would give it: the first of equal maxima."""
    last = None
    for batches in tables:
        finish = batches.columns()["finish"][batches.matches("outcome",
                                                             "served")]
        if len(finish):
            top = float(finish[np.argmax(finish)])
            if last is None or top > last:
                last = top
    return default if last is None else last


@dataclass
class FleetResult:
    """Everything the serving simulation observed."""

    records: RecordTable  # RequestRecord rows, rid order
    batches: RecordTable  # BatchRecord rows, resolution order
    chips: list    # final ChipState per chip
    makespan: float  # first arrival -> last finish (or last arrival)
    #: Autoscaler rollup (events, chip-cycles, SLO-during-scale); None
    #: for a static fleet.
    autoscale: dict | None = None


def sorted_rids(requests) -> np.ndarray:
    """The ids of ``requests`` in ascending order, as an int64 array.

    A request row stores its rid as an int64, so a rid outside that
    range is a :class:`ConfigError` naming it.  Records are accounted
    per rid, so two requests sharing one would leave one unaccounted and
    the other counted twice: a duplicate is a :class:`ConfigError`
    naming every repeated rid.
    """
    rids = sorted(map(_RID, requests))
    if rids and (rids[0] < _INT64_MIN or rids[-1] > _INT64_MAX):
        wide = [rid for rid in rids if not _INT64_MIN <= rid <= _INT64_MAX]
        raise ConfigError(f"request ids outside int64: {wide}")
    rids = np.array(rids, dtype=np.int64)
    repeated = rids[1:][rids[1:] == rids[:-1]]
    if len(repeated):
        raise ConfigError(f"duplicate request ids: "
                          f"{sorted(set(repeated.tolist()))}")
    return rids


def sort_exactly_once(records: RecordTable, rids: np.ndarray) -> None:
    """Sort ``records`` in place by rid and check that they account for
    every rid of ``rids`` (ascending, distinct) exactly once.

    The sorted rid column is compared with ``rids``; on a mismatch a
    :class:`SimulationError` names each rid with no record, each rid
    recorded more than once and each record of a rid not in ``rids``.
    The check raises under ``python -O`` too.
    """
    records.sort_by("rid")
    got = records.columns()["rid"]
    if np.array_equal(got, rids):
        return
    counts = Counter(got.tolist())
    rids = rids.tolist()
    wanted = set(rids)
    problems = []
    lost = [rid for rid in rids if rid not in counts]
    if lost:
        problems.append(f"requests lost without accounting: {lost}")
    twice = sorted(rid for rid, n in counts.items() if n > 1)
    if twice:
        problems.append(f"requests recorded more than once: {twice}")
    unknown = sorted(rid for rid in counts if rid not in wanted)
    if unknown:
        problems.append(f"records of unknown requests: {unknown}")
    raise SimulationError("; ".join(problems))
