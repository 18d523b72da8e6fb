"""Admission control in front of the batcher.

The admission queue bounds how many requests may wait for dispatch
(open-batch residents count — they have been admitted but not launched).
When a request arrives at a full queue, the shed policy decides who pays:

``drop-newest``
    The arriving request is shed (classic tail drop).  Served requests
    keep FIFO latency ordering; bursts are clipped at the door.

``drop-oldest``
    The longest-waiting admitted request is evicted and the newcomer
    admitted (head drop).  This bounds the *age* of everything in the
    queue — the policy a deadline-driven service prefers, since the
    oldest request is the one most likely to miss its SLO anyway.

Shed decisions are pure functions of the arrival trace and queue state,
so they are bit-reproducible along with everything else.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigError
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.workload import Request

SHED_POLICIES = ("drop-newest", "drop-oldest")


class Admission(NamedTuple):
    """Outcome of offering one request to the admission queue.

    Immutable, so every offer that neither sheds nor fills returns the
    one shared :data:`ADMITTED`.
    """

    #: The request that was shed, if any (the newcomer under
    #: ``drop-newest``, the evicted oldest under ``drop-oldest``).
    shed: Request | None = None
    #: A batch the admitted request filled to ``max_batch``, if any.
    filled: Batch | None = None


#: The outcome of an offer that admitted the request into an open batch.
ADMITTED = Admission()


class AdmissionQueue:
    """Capacity-bounded admission in front of a :class:`DynamicBatcher`.

    ``decider`` (optional) chooses the shed policy *per overflow*: a
    callable mapping the arriving request to a :data:`SHED_POLICIES`
    name.  The policy engine installs one when a shed decision tree is
    configured; without it the fixed ``shed_policy`` string applies —
    the exact legacy behavior.
    """

    def __init__(self, batcher: DynamicBatcher, capacity: int,
                 shed_policy: str = "drop-newest", decider=None):
        if capacity <= 0:
            raise ConfigError("queue capacity must be positive")
        if shed_policy not in SHED_POLICIES:
            raise ConfigError(f"unknown shed policy {shed_policy!r}; "
                              f"choose from {SHED_POLICIES}")
        self.batcher = batcher
        self.capacity = capacity
        self.shed_policy = shed_policy
        self.decider = decider

    @property
    def waiting(self) -> int:
        return self.batcher.waiting

    def kind_depth(self, kind: str) -> int:
        """Admitted-but-undispatched requests of one kind."""
        return self.batcher.kind_depth(kind)

    def offer(self, request: Request) -> Admission:
        """Admit ``request`` if there is room, shedding per policy if not."""
        batcher = self.batcher
        if batcher._waiting >= self.capacity:
            policy = (self.decider(request) if self.decider is not None
                      else self.shed_policy)
            if policy == "drop-newest":
                return Admission(request)
            evicted = batcher.oldest()
            assert evicted is not None  # capacity > 0 => someone is waiting
            batcher.remove(evicted)
            return Admission(evicted, batcher.add(request))
        filled = batcher.add(request)
        return ADMITTED if filled is None else Admission(None, filled)
