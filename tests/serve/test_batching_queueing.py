"""Dynamic batcher and admission queue behavior."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.queueing import AdmissionQueue
from repro.serve.workload import Request


def _req(rid, arrival, kind="bp", tile=0):
    return Request(rid=rid, kind=kind, tile=tile, arrival=arrival)


class TestBatcher:
    def test_fills_to_max_batch_and_closes_at_fill_time(self):
        b = DynamicBatcher(max_batch=3, max_wait_cycles=1000.0)
        assert b.add(_req(0, 10.0)) is None
        assert b.add(_req(1, 20.0)) is None
        batch = b.add(_req(2, 30.0))
        assert batch is not None
        assert batch.size == 3
        assert batch.close == 30.0  # the filling request's arrival
        assert batch.kind == "bp"
        assert b.waiting == 0

    def test_deadline_closes_partial_batch(self):
        b = DynamicBatcher(max_batch=8, max_wait_cycles=100.0)
        b.add(_req(0, 10.0))
        assert b.due(50.0) == []          # deadline is 110
        (batch,) = b.due(110.0)
        assert batch.size == 1
        assert batch.close == 110.0       # the deadline, not "now"

    def test_kinds_batch_separately(self):
        b = DynamicBatcher(max_batch=2, max_wait_cycles=1000.0)
        b.add(_req(0, 1.0, kind="bp"))
        b.add(_req(1, 2.0, kind="conv"))
        assert b.waiting == 2
        batch = b.add(_req(2, 3.0, kind="bp"))
        assert batch.kind == "bp" and batch.size == 2
        assert b.waiting == 1  # the conv request still open

    def test_flush_closes_everything_at_deadlines(self):
        b = DynamicBatcher(max_batch=8, max_wait_cycles=100.0)
        b.add(_req(0, 10.0, kind="conv"))
        b.add(_req(1, 5.0, kind="bp"))
        batches = b.flush()
        assert [x.kind for x in batches] == ["bp", "conv"]  # deadline order
        assert [x.close for x in batches] == [105.0, 110.0]
        assert b.waiting == 0

    def test_batch_tile_is_oldest_requests(self):
        b = DynamicBatcher(max_batch=2, max_wait_cycles=100.0)
        b.add(_req(0, 1.0, tile=7))
        batch = b.add(_req(1, 2.0, tile=3))
        assert batch.tile == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            DynamicBatcher(0, 10.0)
        with pytest.raises(ConfigError):
            DynamicBatcher(1, -1.0)


class _ScanBatcher:
    """The batcher without its index, as the oracle: ``waiting`` sums
    the open batches and ``due`` sorts a scan of them on every call."""

    def __init__(self, max_batch, max_wait_cycles):
        self.max_batch = max_batch
        self.max_wait_cycles = max_wait_cycles
        self.open = {}  # kind -> (deadline, requests)

    @property
    def waiting(self):
        return sum(len(reqs) for _, reqs in self.open.values())

    def oldest(self):
        heads = [reqs[0] for _, reqs in self.open.values() if reqs]
        return min(heads, key=lambda r: r.arrival, default=None)

    def remove(self, request):
        _, reqs = self.open[request.kind]
        reqs.remove(request)
        if not reqs:
            del self.open[request.kind]

    def add(self, request):
        deadline = request.arrival + self.max_wait_cycles
        _, reqs = self.open.setdefault(request.kind, (deadline, []))
        reqs.append(request)
        if len(reqs) >= self.max_batch:
            del self.open[request.kind]
            return Batch(kind=request.kind, requests=reqs,
                         close=request.arrival)
        return None

    def due(self, now):
        ready = sorted((deadline, kind)
                       for kind, (deadline, _) in self.open.items()
                       if deadline <= now)
        return [Batch(kind=kind, requests=self.open.pop(kind)[1],
                      close=deadline) for deadline, kind in ready]

    def flush(self):
        return self.due(math.inf)


def _closed(batches):
    return [(b.kind, [r.rid for r in b.requests], b.close) for b in batches]


_KINDS = ("bp", "conv", "fc", "gibbs")
# Small integer steps make equal arrivals, and so equal deadlines,
# across kinds common.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("due"), st.integers(0, 4)),
    st.tuples(st.just("remove"), st.integers(0, 31)),
    st.tuples(st.just("drop-oldest")),
    st.tuples(st.just("flush")),
), max_size=60)


class TestBatcherIndex:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(kinds=st.integers(2, 4), max_batch=st.integers(1, 4),
           max_wait=st.sampled_from([0.0, 1.0, 2.0, 5.0]), ops=_OPS)
    def test_matches_the_scan_oracle(self, kinds, max_batch, max_wait, ops):
        new = DynamicBatcher(max_batch, max_wait)
        ref = _ScanBatcher(max_batch, max_wait)
        now, rid = 0.0, 0
        for op in ops:
            if op[0] == "add":
                now += op[2]
                req = _req(rid, now, kind=_KINDS[op[1] % kinds])
                rid += 1
                got, want = new.add(req), ref.add(req)
                assert _closed([got] if got else []) \
                    == _closed([want] if want else [])
            elif op[0] == "due":
                now += op[1]
                passed = any(deadline <= now
                             for deadline, _ in ref.open.values())
                got = new.due(now)
                assert (got == []) == (not passed)
                assert _closed(got) == _closed(ref.due(now))
            elif op[0] == "remove":
                residents = [r for _, reqs in ref.open.values()
                             for r in reqs]
                if residents:
                    victim = residents[op[1] % len(residents)]
                    new.remove(victim)
                    ref.remove(victim)
            elif op[0] == "drop-oldest":
                victim = ref.oldest()
                assert new.oldest() == victim
                if victim is not None:
                    new.remove(victim)
                    ref.remove(victim)
            else:
                assert _closed(new.flush()) == _closed(ref.flush())
            assert new.waiting == ref.waiting
            # The index itself: a stale-early deadline would still give
            # the right batches, only by scanning on every call.
            assert new._next_deadline == min(
                (deadline for deadline, _ in ref.open.values()),
                default=math.inf)
            for kind in _KINDS:
                assert new.kind_depth(kind) == len(
                    ref.open.get(kind, (0.0, []))[1])
        assert _closed(new.flush()) == _closed(ref.flush())
        assert new.waiting == 0

    def test_drop_oldest_that_empties_a_batch_moves_the_next_deadline(self):
        b = DynamicBatcher(max_batch=8, max_wait_cycles=10.0)
        b.add(_req(0, 0.0, kind="bp"))     # deadline 10
        b.add(_req(1, 5.0, kind="conv"))   # deadline 15
        b.remove(b.oldest())               # the bp batch empties
        assert b.waiting == 1
        assert b.due(12.0) == []
        (batch,) = b.due(15.0)
        assert batch.kind == "conv" and batch.close == 15.0
        assert b.waiting == 0 and b.due(1e9) == []

    def test_equal_deadlines_close_in_kind_order(self):
        b = DynamicBatcher(max_batch=8, max_wait_cycles=10.0)
        for rid, kind in enumerate(("fc", "bp", "conv")):
            b.add(_req(rid, 0.0, kind=kind))
        assert [x.kind for x in b.due(10.0)] == ["bp", "conv", "fc"]


class TestAdmissionQueue:
    def test_drop_newest_sheds_arrival(self):
        batcher = DynamicBatcher(max_batch=8, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=2, shed_policy="drop-newest")
        assert q.offer(_req(0, 1.0)).shed is None
        assert q.offer(_req(1, 2.0)).shed is None
        adm = q.offer(_req(2, 3.0))
        assert adm.shed is not None and adm.shed.rid == 2
        assert q.waiting == 2

    def test_drop_oldest_evicts_head_and_admits(self):
        batcher = DynamicBatcher(max_batch=8, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=2, shed_policy="drop-oldest")
        q.offer(_req(0, 1.0, kind="bp"))
        q.offer(_req(1, 2.0, kind="conv"))
        adm = q.offer(_req(2, 3.0, kind="conv"))
        assert adm.shed is not None and adm.shed.rid == 0  # oldest overall
        assert q.waiting == 2
        # the bp open batch emptied out entirely
        assert batcher.oldest().rid == 1

    def test_admitted_request_can_fill_a_batch(self):
        batcher = DynamicBatcher(max_batch=2, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=8)
        q.offer(_req(0, 1.0))
        adm = q.offer(_req(1, 2.0))
        assert adm.filled is not None and adm.filled.size == 2

    def test_validation(self):
        batcher = DynamicBatcher(1, 0.0)
        with pytest.raises(ConfigError):
            AdmissionQueue(batcher, capacity=0)
        with pytest.raises(ConfigError):
            AdmissionQueue(batcher, capacity=1, shed_policy="random")
