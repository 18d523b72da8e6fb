"""Dynamic batching: pack compatible requests into kernel launches.

Requests of the same *kind* are compatible — they run the same generated
VIP program shape, so a batch of B maps onto one kernel launch (a
genuinely batched FC program, or B back-to-back passes with the model
resident for conv/BP; see :mod:`repro.serve.costmodel`).

The batcher keeps at most one *open* batch per kind.  A batch closes —
becomes ready for dispatch — when either

* it reaches ``max_batch`` requests (closes at the filling request's
  arrival time), or
* its oldest request has waited ``max_wait_cycles`` (closes at that
  deadline, even with only one request aboard).

This is the classic max-batch/max-wait policy of production inference
servers: the first knob bounds batch-formation latency under load, the
second bounds it when traffic is sparse.

A batch is one object from its first request to its launch: the batcher
opens it with its kind's first request, closes it in place, and the
fleet dispatches that same object, so batching allocates one object per
kernel launch and none per request.

The batcher is consulted on every arrival, so it keeps a small index
next to the open batches: the count of waiting requests and the earliest
open deadline.  Every mutation keeps both equal to what a scan of the
open batches would give, so :attr:`DynamicBatcher.waiting` never sums and
:meth:`DynamicBatcher.due` returns at once while no deadline has passed.
"""

from __future__ import annotations

import math
from operator import attrgetter

from repro.errors import ConfigError
from repro.serve.workload import Request


class Batch:
    """One kernel launch worth of requests of one kind.

    A batch built from a list of requests is closed at ``close``.  The
    batcher instead opens one with its kind's first request and closes
    it in place: while it is open, ``close`` holds its deadline (the
    first request's arrival plus the max wait).  Closing fixes
    ``close`` (the filling request's arrival, or the deadline), ``size``
    and ``tile``, the locality key of the oldest request still aboard
    (a drop-oldest eviction of the first request moves it).
    """

    __slots__ = ("kind", "requests", "close", "size", "tile")

    def __init__(self, kind: str, requests: list[Request], close: float):
        self.kind = kind
        self.requests = requests
        self.close = close
        self.size = len(requests)
        self.tile = requests[0].tile


#: Close order of batches due together: deadline, then kind.
_CLOSE_ORDER = attrgetter("close", "kind")


class DynamicBatcher:
    """Max-batch-size / max-wait batching over per-kind open batches."""

    def __init__(self, max_batch: int, max_wait_cycles: float):
        if max_batch <= 0:
            raise ConfigError("max_batch must be positive")
        if max_wait_cycles < 0:
            raise ConfigError("max_wait_cycles must be nonnegative")
        self.max_batch = max_batch
        self.max_wait_cycles = max_wait_cycles
        #: kind -> its open batch, whose ``close`` is its deadline.
        self._open: dict[str, Batch] = {}
        # The index over ``_open``: its request count and its earliest
        # deadline (inf while nothing is open).
        self._waiting = 0
        self._next_deadline = math.inf

    # -- state ---------------------------------------------------------

    @property
    def waiting(self) -> int:
        """Requests admitted but not yet dispatched."""
        return self._waiting

    def kind_depth(self, kind: str) -> int:
        """Open-batch residents of one kind (the per-kind queue depth
        exposed to policy trees as ``queue.kind_depth.<kind>``)."""
        b = self._open.get(kind)
        return len(b.requests) if b is not None else 0

    def oldest(self) -> Request | None:
        """The longest-waiting open request (for drop-oldest shedding)."""
        best: Request | None = None
        for b in self._open.values():
            head = b.requests[0]
            if best is None or head.arrival < best.arrival:
                best = head
        return best

    def remove(self, request: Request) -> None:
        """Evict one open request (it is being shed)."""
        b = self._open[request.kind]
        b.requests.remove(request)
        self._waiting -= 1
        if not b.requests:
            del self._open[b.kind]
            if b.close == self._next_deadline:
                self._next_deadline = self._earliest()

    def _earliest(self) -> float:
        """The earliest open deadline (inf while nothing is open)."""
        earliest = math.inf
        for b in self._open.values():
            if b.close < earliest:
                earliest = b.close
        return earliest

    # -- batching ------------------------------------------------------

    def add(self, request: Request) -> Batch | None:
        """Admit one request; return the batch it filled, if any."""
        kind = request.kind
        b = self._open.get(kind)
        if b is None:
            deadline = request.arrival + self.max_wait_cycles
            b = self._open[kind] = Batch(kind, [request], deadline)
            if deadline < self._next_deadline:
                self._next_deadline = deadline
        else:
            b.requests.append(request)
        requests = b.requests
        size = len(requests)
        if size < self.max_batch:
            self._waiting += 1
            return None
        # Filled: it closes at this arrival.
        del self._open[kind]
        self._waiting -= size - 1
        if b.close == self._next_deadline:
            self._next_deadline = self._earliest()
        b.close = request.arrival
        b.size = size
        b.tile = requests[0].tile
        return b

    def due(self, now: float) -> list[Batch]:
        """Close and return every open batch whose deadline has passed,
        in (deadline, kind) order so ties break deterministically."""
        if now < self._next_deadline:
            return []
        open_ = self._open
        ready = []
        earliest = math.inf
        for b in open_.values():
            deadline = b.close
            if deadline <= now:
                ready.append(b)
            elif deadline < earliest:
                earliest = deadline
        self._next_deadline = earliest
        if len(ready) > 1:
            ready.sort(key=_CLOSE_ORDER)
        for b in ready:
            del open_[b.kind]
            requests = b.requests
            b.size = size = len(requests)
            b.tile = requests[0].tile
            self._waiting -= size
        return ready

    def flush(self) -> list[Batch]:
        """Close every remaining open batch at its deadline (end of trace)."""
        ready = sorted(self._open.values(), key=_CLOSE_ORDER)
        self._open.clear()
        self._waiting = 0
        self._next_deadline = math.inf
        for b in ready:
            b.size = len(b.requests)
            b.tile = b.requests[0].tile
        return ready
