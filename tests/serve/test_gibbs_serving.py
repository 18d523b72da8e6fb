"""Gibbs request kind in the serving stack: mixes, quality columns,
schema v5, per-kind queue depth observable."""

import json

import pytest

from repro.errors import ConfigError
from repro.serve.batcher import DynamicBatcher
from repro.serve.costmodel import build_cost_table
from repro.serve.fleet import ServeConfig
from repro.serve.policy import OBSERVABLES
from repro.serve.queueing import AdmissionQueue
from repro.serve.report import run_report
from repro.serve.workload import (
    KINDS,
    MIXES,
    Request,
    WorkloadConfig,
    generate_requests,
)

MAX_BATCH = 2


@pytest.fixture(scope="module")
def gibbs_costs():
    return build_cost_table(MAX_BATCH, quick=True, degraded=True,
                            kinds=("bp", "gibbs"), max_workers=1)


def _workload(**kw):
    defaults = dict(mix="bp+gibbs", arrival="poisson", rate=150_000.0,
                    requests=40, seed=0)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


class TestMixes:
    def test_gibbs_mixes_generate_gibbs_requests(self):
        uq = generate_requests(_workload(mix="uq", requests=30))
        assert {r.kind for r in uq} == {"gibbs"}
        mixed = generate_requests(_workload(requests=200, seed=2))
        assert {r.kind for r in mixed} == {"bp", "gibbs"}

    def test_bad_mix_mapping_uses_dotted_path(self, monkeypatch):
        """An out-of-registry kind (or non-positive weight) inside a mix
        surfaces as the scenario DSL's ``workload.mix.<kind>`` form, not
        as a KeyError deep in request generation."""
        monkeypatch.setitem(MIXES, "broken", {"bp": 0.5, "hmm": 0.5})
        with pytest.raises(ConfigError, match=r"workload\.mix\.hmm"):
            WorkloadConfig(mix="broken")
        monkeypatch.setitem(MIXES, "broken", {"bp": 0.0})
        with pytest.raises(ConfigError, match=r"workload\.mix\.bp"):
            WorkloadConfig(mix="broken")


class TestQualityColumns:
    def test_cost_table_carries_gibbs_quality(self, gibbs_costs):
        assert "gibbs" in gibbs_costs.quality
        assert "bp" not in gibbs_costs.quality  # MAP kinds have no UQ row
        for health in ("healthy", "degraded"):
            q = gibbs_costs.quality["gibbs"][health]
            assert q["mean_entropy"] >= 0.0
            assert 0.0 <= q["mean_confidence"] <= 1.0
            assert 0.0 <= q["agreement_vs_reference"] <= 1.0
            assert q["marginal_l1_vs_reference"] >= 0.0
        # The healthy column must be exact vs the reference sampler.
        healthy = gibbs_costs.quality["gibbs"]["healthy"]
        assert healthy["agreement_vs_reference"] == 1.0
        assert healthy["marginal_l1_vs_reference"] == 0.0

    def test_gibbs_is_tile_stateful_like_bp(self, gibbs_costs):
        assert gibbs_costs.tile_bytes["gibbs"] > 0


class TestQualityRollup:
    def test_quality_rolls_up_per_mix(self, gibbs_costs):
        config = ServeConfig(chips=2, max_batch=MAX_BATCH,
                             max_wait_cycles=10_000.0,
                             degraded_chips=(1,))
        serial, _ = run_report(_workload(), config,
                               mixes=("bp", "bp+gibbs"), quick=True,
                               max_workers=1)
        assert serial["schema"] == "repro.serve/v7"
        assert "gibbs" in serial["cost_table"]["quality"]
        for mix in ("bp", "bp+gibbs"):
            rollup = serial["mixes"][mix]["quality"]
            if mix == "bp":
                assert rollup == {}
                continue
            assert rollup["gibbs"]["served"] > 0
            assert 0.0 <= rollup["gibbs"]["agreement_vs_reference"] <= 1.0
            assert rollup["gibbs"]["mean_entropy"] >= 0.0
            assert (0 <= rollup["gibbs"]["served_degraded"]
                    <= rollup["gibbs"]["served"])

        parallel, _ = run_report(_workload(), config,
                                 mixes=("bp", "bp+gibbs"), quick=True,
                                 max_workers=2)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(parallel, sort_keys=True))

    def test_mixes_without_quality_kinds_have_empty_quality(self):
        payload, _ = run_report(
            WorkloadConfig(mix="bp+vgg", rate=150_000.0, requests=20),
            ServeConfig(chips=2, max_batch=MAX_BATCH,
                        max_wait_cycles=10_000.0),
            mixes=("bp",), quick=True, max_workers=1)
        assert payload["schema"] == "repro.serve/v7"
        assert payload["cost_table"]["quality"] == {}
        assert payload["mixes"]["bp"]["quality"] == {}


class TestKindDepthObservable:
    def test_registered_for_every_kind(self):
        for kind in KINDS:
            typ, slots = OBSERVABLES[f"queue.kind_depth.{kind}"]
            assert typ == "int"
            assert set(slots) == {"schedule", "shed", "retry", "hedge"}

    def test_batcher_counts_open_residents_per_kind(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=1e6)
        assert batcher.kind_depth("gibbs") == 0
        batcher.add(Request(rid=0, kind="gibbs", tile=1, arrival=0.0))
        batcher.add(Request(rid=1, kind="gibbs", tile=1, arrival=1.0))
        batcher.add(Request(rid=2, kind="bp", tile=0, arrival=2.0))
        assert batcher.kind_depth("gibbs") == 2
        assert batcher.kind_depth("bp") == 1
        assert batcher.kind_depth("fc") == 0

    def test_queue_delegates(self):
        batcher = DynamicBatcher(max_batch=4, max_wait_cycles=1e6)
        queue = AdmissionQueue(batcher, capacity=16)
        queue.offer(Request(rid=0, kind="gibbs", tile=0, arrival=0.0))
        assert queue.kind_depth("gibbs") == batcher.kind_depth("gibbs") == 1
