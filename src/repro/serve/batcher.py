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

The batcher is consulted on every arrival, so it keeps a small index
next to the open batches: the count of waiting requests and the earliest
open deadline.  Every mutation keeps both equal to what a scan of the
open batches would give, so :attr:`DynamicBatcher.waiting` never sums and
:meth:`DynamicBatcher.due` returns at once while no deadline has passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import ConfigError
from repro.serve.workload import Request


@dataclass
class Batch:
    """A closed batch: one kernel launch worth of requests."""

    kind: str
    requests: list[Request]
    #: Cycle at which the batch closed (max-batch fill or deadline).
    close: float

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def tile(self) -> int:
        """Locality key of the batch: its oldest request's tile."""
        return self.requests[0].tile


@dataclass
class _OpenBatch:
    kind: str
    deadline: float
    requests: list[Request] = field(default_factory=list)


#: Close order of batches due together: deadline, then kind.
_CLOSE_ORDER = attrgetter("deadline", "kind")


class DynamicBatcher:
    """Max-batch-size / max-wait batching over per-kind open batches."""

    def __init__(self, max_batch: int, max_wait_cycles: float):
        if max_batch <= 0:
            raise ConfigError("max_batch must be positive")
        if max_wait_cycles < 0:
            raise ConfigError("max_wait_cycles must be nonnegative")
        self.max_batch = max_batch
        self.max_wait_cycles = max_wait_cycles
        self._open: dict[str, _OpenBatch] = {}
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
            if b.requests and (best is None or b.requests[0].arrival < best.arrival):
                best = b.requests[0]
        return best

    def remove(self, request: Request) -> None:
        """Evict one open request (it is being shed)."""
        b = self._open[request.kind]
        b.requests.remove(request)
        self._waiting -= 1
        if not b.requests:
            self._drop(b)

    def _drop(self, b: _OpenBatch) -> None:
        """Take ``b`` out of the open set, keeping the index exact."""
        del self._open[b.kind]
        self._waiting -= len(b.requests)
        if b.deadline == self._next_deadline:
            nxt = math.inf
            for o in self._open.values():
                if o.deadline < nxt:
                    nxt = o.deadline
            self._next_deadline = nxt

    # -- batching ------------------------------------------------------

    def add(self, request: Request) -> Batch | None:
        """Admit one request; return the batch it filled, if any."""
        kind = request.kind
        b = self._open.get(kind)
        if b is None:
            deadline = request.arrival + self.max_wait_cycles
            b = _OpenBatch(kind=kind, deadline=deadline)
            self._open[kind] = b
            if deadline < self._next_deadline:
                self._next_deadline = deadline
        b.requests.append(request)
        self._waiting += 1
        if len(b.requests) >= self.max_batch:
            self._drop(b)
            return Batch(kind=b.kind, requests=b.requests,
                         close=request.arrival)
        return None

    def due(self, now: float) -> list[Batch]:
        """Close and return every open batch whose deadline has passed,
        in (deadline, kind) order so ties break deterministically."""
        if now < self._next_deadline:
            return []
        ready = [b for b in self._open.values() if b.deadline <= now]
        if len(ready) > 1:
            ready.sort(key=_CLOSE_ORDER)
        for b in ready:
            self._drop(b)
        return [Batch(kind=b.kind, requests=b.requests, close=b.deadline)
                for b in ready]

    def flush(self) -> list[Batch]:
        """Close every remaining open batch at its deadline (end of trace)."""
        ready = sorted(self._open.values(), key=_CLOSE_ORDER)
        self._open.clear()
        self._waiting = 0
        self._next_deadline = math.inf
        return [Batch(kind=b.kind, requests=b.requests, close=b.deadline)
                for b in ready]
