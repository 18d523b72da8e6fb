"""What the serving loop allocates: one ``Batch`` per kernel launch and
nothing per request.

The batcher opens a launch's :class:`Batch` with its kind's first
request and closes it in place, the fleet dispatches that same object,
and an offer that neither sheds nor fills returns the one shared
:data:`ADMITTED`.  These tests count constructions on a served trace and
pin what a closed batch, an offer and a least-loaded pick give.
"""

import pytest

from repro.serve.autoscale import AutoscaleConfig
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.costmodel import ServiceCostTable
from repro.serve.fleet import FleetSimulator, ServeConfig
from repro.serve.fleet import dispatch
from repro.serve.queueing import ADMITTED, Admission, AdmissionQueue
from repro.serve.workload import Request, WorkloadConfig, generate_requests


def _table():
    """A hand-built bp/conv/fc table (no kernel simulation)."""
    cycles = {("bp", 1, False): 23_325.0, ("conv", 1, False): 4_382.0}
    for batch in range(1, 5):
        cycles[("fc", batch, False)] = 1_000.0 + 150.0 * batch
    return ServiceCostTable(
        cycles=cycles,
        model_bytes={"bp": 2_912, "conv": 580, "fc": 2_048},
        tile_bytes={"bp": 2_912, "conv": 0, "fc": 0},
        quick=True, max_batch=4, fc_cap=4)


def _req(rid, arrival, kind="bp", tile=0):
    return Request(rid=rid, kind=kind, tile=tile, arrival=arrival)


class _Counted:
    """Counts calls of one class's constructor while installed."""

    def __init__(self, monkeypatch, cls, name):
        self.calls = 0
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)


class TestConstructions:
    """On a failures-off 5,000-request ``bp+vgg`` run that both fills
    batches and sheds."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_requests(WorkloadConfig(
            mix="bp+vgg", arrival="poisson", rate=250_000.0,
            requests=5_000, seed=0))

    def test_one_batch_per_launch_and_an_admission_per_shed_or_fill(
            self, trace, monkeypatch):
        batches = _Counted(monkeypatch, Batch, "__init__")
        admissions = _Counted(monkeypatch, Admission, "__new__")
        pending = _Counted(monkeypatch, dispatch._Pending, "__init__")
        offers = _Counted(monkeypatch, AdmissionQueue, "offer")
        config = ServeConfig(chips=2, max_batch=4, max_wait_cycles=20_000.0,
                             queue_capacity=6)
        result = FleetSimulator(config, _table()).run(trace)
        shed = sum(1 for r in result.records if r.outcome == "shed")
        filled = sum(1 for b in result.batches if b.size == config.max_batch)
        assert shed > 0 and filled > 0
        assert {b.outcome for b in result.batches} == {"served"}
        assert batches.calls == len(result.batches)
        # Drop-newest sheds the arrival, which then fills nothing.
        assert admissions.calls == shed + filled
        assert admissions.calls < offers.calls == len(trace)
        assert pending.calls == 0


class TestClosedBatch:
    def test_closing_fixes_close_size_and_tile(self):
        b = DynamicBatcher(max_batch=3, max_wait_cycles=100.0)
        b.add(_req(0, 10.0, tile=7))
        b.add(_req(1, 20.0, tile=3))
        batch = b.add(_req(2, 30.0, tile=5))
        assert (batch.close, batch.size, batch.tile) == (30.0, 3, 7)
        assert [r.rid for r in batch.requests] == [0, 1, 2]

    @pytest.mark.parametrize("close", ("due", "fill", "flush"))
    def test_evicting_the_first_request_moves_the_tile(self, close):
        """A drop-oldest eviction of an open batch's first request leaves
        the closed batch's tile and size as ``requests[0].tile`` and
        ``len(requests)`` give them, and its deadline as the first
        request set it."""
        batcher = DynamicBatcher(max_batch=3, max_wait_cycles=100.0)
        queue = AdmissionQueue(batcher, capacity=2,
                               shed_policy="drop-oldest")
        queue.offer(_req(0, 10.0, tile=7))
        queue.offer(_req(1, 20.0, tile=3))
        admission = queue.offer(_req(2, 30.0, tile=5))
        assert admission.shed.rid == 0 and admission.filled is None
        if close == "due":
            (batch,) = batcher.due(110.0)
            assert batch.close == 110.0
        elif close == "fill":
            queue.capacity = 3
            batch = queue.offer(_req(3, 40.0, tile=1)).filled
            assert batch.close == 40.0
        else:
            (batch,) = batcher.flush()
            assert batch.close == 110.0
        assert batch.tile == batch.requests[0].tile == 3
        assert batch.size == len(batch.requests)
        assert batcher.waiting == 0

    def test_a_batch_built_from_requests_is_closed(self):
        batch = Batch("fc", [_req(4, 1.0, tile=None), _req(5, 2.0)], 9.0)
        assert (batch.kind, batch.close, batch.size, batch.tile) \
            == ("fc", 9.0, 2, None)


class TestOffer:
    def test_admit_returns_the_shared_admission(self):
        queue = AdmissionQueue(DynamicBatcher(4, 100.0), capacity=8)
        first = queue.offer(_req(0, 1.0))
        second = queue.offer(_req(1, 2.0, kind="fc"))
        assert first is second is ADMITTED
        assert (first.shed, first.filled) == (None, None)

    def test_fill_returns_the_batch(self):
        queue = AdmissionQueue(DynamicBatcher(2, 100.0), capacity=8)
        queue.offer(_req(0, 1.0))
        admission = queue.offer(_req(1, 2.0))
        assert admission is not ADMITTED and admission.shed is None
        assert [r.rid for r in admission.filled.requests] == [0, 1]

    def test_drop_newest_sheds_the_arrival(self):
        queue = AdmissionQueue(DynamicBatcher(2, 100.0), capacity=1)
        queue.offer(_req(0, 1.0))
        arrival = _req(1, 2.0)
        admission = queue.offer(arrival)
        assert admission.shed is arrival and admission.filled is None

    def test_drop_oldest_sheds_the_oldest_and_may_fill(self):
        queue = AdmissionQueue(DynamicBatcher(2, 100.0), capacity=2,
                               shed_policy="drop-oldest")
        queue.offer(_req(0, 1.0, kind="conv"))
        queue.offer(_req(1, 2.0))
        admission = queue.offer(_req(2, 3.0))
        assert admission.shed.rid == 0
        assert [r.rid for r in admission.filled.requests] == [1, 2]
        admission = queue.offer(_req(3, 4.0, kind="fc"))
        assert admission is ADMITTED

    def test_the_shared_admission_cannot_be_mutated(self):
        with pytest.raises(AttributeError):
            ADMITTED.shed = _req(0, 1.0)
        with pytest.raises(AttributeError):
            ADMITTED.filled = None
        with pytest.raises(AttributeError):
            ADMITTED.extra = 1
        assert ADMITTED == Admission(None, None)


class TestLeastLoaded:
    @staticmethod
    def _fleet(**kw):
        config = ServeConfig(chips=4, max_batch=4, **kw)
        sim = FleetSimulator(config, _table())
        sim.begin()
        return sim

    @pytest.mark.parametrize("tied", ([0, 1, 2, 3], [1, 3], [2, 3]))
    def test_equal_free_at_goes_to_the_lowest_chip_id(self, tied):
        sim = self._fleet()
        for chip in sim.chips:
            chip.free_at = 100.0 if chip.chip_id in tied else 500.0
        batch = Batch("bp", [_req(0, 0.0)], 0.0)
        assert sim._pick_chip(batch, 0.0).chip_id == tied[0]
        # The pick the (free_at, chip_id) key gives.
        assert sim._pick_chip(batch, 0.0) is min(
            sim.chips, key=lambda c: (c.free_at, c.chip_id))

    def test_chips_an_autoscaler_added_break_ties_by_id(self):
        sim = self._fleet(autoscale=AutoscaleConfig(min_chips=1,
                                                    max_chips=8))
        added = [sim.provision_chip(0.0, 50.0) for _ in range(3)]
        assert [c.chip_id for c in added] == [4, 5, 6]
        for chip in sim.chips[:4]:
            chip.free_at = 80.0
        batch = Batch("bp", [_req(0, 0.0)], 0.0)
        assert sim._pick_chip(batch, 0.0) is added[0]
        added[0].draining = True
        assert sim._pick_chip(batch, 0.0) is added[1]
        added[2].free_at = 10.0
        assert sim._pick_chip(batch, 0.0) is added[2]
