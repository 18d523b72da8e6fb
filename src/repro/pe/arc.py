"""Array Range Check (ARC) — the scratchpad hazard interlock.

Section III-B: "In order to detect hazards within the scratchpad, VIP
provides an associative array ... which holds scratchpad start and end
addresses upon the issue of an instruction to load data to the scratchpad.
Any subsequent instructions accessing a region of scratchpad that overlaps
with an ARC entry are stalled until the load completes and clears the ARC
entry."  The ARC has 20 entries; a full ARC stalls issue of further loads.

This model keeps (start, end, clear_time) triples.  Because the simulator is
timestamp-based, "clearing" an entry simply means its clear time is in the
past relative to the querying instruction's issue time.

Pruning is deferred: ``_min_clear`` caches the smallest live clear time so
queries against an all-live table skip the list rebuild entirely.  Expired
entries never change an overlap result (``max(time, clear <= time)`` is
``time``), so laziness here is exact; only the capacity math in
:meth:`earliest_free_time` / :meth:`occupancy` needs a real prune first.
For the same reason a caller may skip an overlap query at any time at or
past :attr:`ArrayRangeCheck.latest_clear`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.collector import NULL_TRACE, TraceSink

_INF = float("inf")


@dataclass(slots=True)
class ArcEntry:
    start: int
    end: int  # exclusive
    clear_time: float


class ArrayRangeCheck:
    """The 20-entry associative range tracker."""

    __slots__ = ("capacity", "pe_id", "trace", "_entries", "_min_clear",
                 "latest_clear", "peak_occupancy")

    def __init__(self, entries: int = 20, pe_id: int = 0,
                 trace: TraceSink = NULL_TRACE):
        self.capacity = entries
        self.pe_id = pe_id
        self.trace = trace
        self._entries: list[ArcEntry] = []
        self._min_clear = _INF
        #: Latest clear time ever inserted: no query at a time at or past
        #: it can stall.
        self.latest_clear = 0.0
        self.peak_occupancy = 0

    def _prune(self, time: float) -> None:
        if self._min_clear > time:
            return
        live = [e for e in self._entries if e.clear_time > time]
        self._entries = live
        self._min_clear = min((e.clear_time for e in live), default=_INF)

    def occupancy(self, time: float) -> int:
        self._prune(time)
        return len(self._entries)

    def earliest_free_time(self, time: float) -> float:
        """Earliest time a new entry can be inserted (capacity stall)."""
        self._prune(time)
        if len(self._entries) < self.capacity:
            return time
        ordered = sorted(e.clear_time for e in self._entries)
        return ordered[len(self._entries) - self.capacity]

    def overlap_clear_time(self, start: int, nbytes: int, time: float) -> float:
        """Latest clear time among live entries overlapping [start, start+n).

        Returns ``time`` unchanged when nothing overlaps: the instruction
        may proceed immediately.
        """
        if nbytes <= 0 or not self._entries:
            return time
        end = start + nbytes
        latest = time
        for e in self._entries:
            if e.start < end and start < e.end and e.clear_time > latest:
                latest = e.clear_time
        return latest

    def insert(self, start: int, nbytes: int, clear_time: float, time: float) -> None:
        """Record an in-flight scratchpad load covering [start, start+n)."""
        self._prune(time)
        self._entries.append(ArcEntry(start, start + nbytes, clear_time))
        if clear_time < self._min_clear:
            self._min_clear = clear_time
        if clear_time > self.latest_clear:
            self.latest_clear = clear_time
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        if self.trace.enabled:
            self.trace.arc_acquire(self.pe_id, time, max(clear_time - time, 0.0),
                                   start, nbytes)
