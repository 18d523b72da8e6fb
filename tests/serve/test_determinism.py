"""Serving determinism against the real simulator-measured cost table.

The acceptance bar for the subsystem: same seed -> identical per-request
latency records, serial vs ``run_tasks``-parallel cost measurement, and
byte-identical JSON payloads.
"""

import json

import pytest

from repro.serve.costmodel import build_cost_table, fc_max_batch
from repro.serve.fleet import ServeConfig
from repro.serve.report import run_report, run_serve
from repro.serve.workload import WorkloadConfig

MAX_BATCH = 3


@pytest.fixture(scope="module")
def costs():
    return build_cost_table(MAX_BATCH, quick=True, degraded=True,
                            max_workers=1)


def _workload(**kw):
    defaults = dict(mix="bp+vgg", arrival="poisson", rate=150_000.0,
                    requests=40, seed=0)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def _config(**kw):
    defaults = dict(chips=2, max_batch=MAX_BATCH,
                    max_wait_cycles=10_000.0)
    defaults.update(kw)
    return ServeConfig(**defaults)


def test_cost_table_parallel_matches_serial(costs):
    parallel = build_cost_table(MAX_BATCH, quick=True, degraded=True,
                                max_workers=2)
    assert parallel.cycles == costs.cycles
    assert parallel.model_bytes == costs.model_bytes
    assert parallel.tile_bytes == costs.tile_bytes


def test_fc_batching_is_sublinear(costs):
    one = costs.cycles[("fc", 1, False)]
    three = costs.cycles[("fc", 3, False)]
    assert three < 3 * one  # resident batch shares every weight row


def test_degraded_column_is_slower(costs):
    # ECC correction penalties lengthen the measured service time.
    assert (costs.cycles[("bp", 1, True)]
            > costs.cycles[("bp", 1, False)])
    for (kind, batch, degraded), cycles in costs.cycles.items():
        if degraded:
            assert cycles >= costs.cycles[(kind, batch, False)]


def test_fc_max_batch_fits_scratchpad():
    assert fc_max_batch(quick=True) >= 8
    assert fc_max_batch(quick=False) >= 8


def test_same_seed_identical_records(costs):
    a = run_serve(_workload(), _config(), costs=costs)
    b = run_serve(_workload(), _config(), costs=costs)
    assert a.fleet.records == b.fleet.records
    assert a.metrics == b.metrics


def test_serial_and_parallel_reports_are_byte_identical():
    workload = _workload(requests=30)
    config = _config(degraded_chips=(1,))
    serial, _ = run_report(workload, config, mixes=("bp", "bp+vgg"),
                           quick=True, max_workers=1)
    parallel, _ = run_report(workload, config, mixes=("bp", "bp+vgg"),
                             quick=True, max_workers=2)
    assert (json.dumps(serial, sort_keys=True)
            == json.dumps(parallel, sort_keys=True))


def test_report_has_both_mixes_with_required_metrics():
    payload, runs = run_report(_workload(requests=30), _config(),
                               mixes=("bp", "bp+vgg"), quick=True,
                               max_workers=1)
    assert payload["schema"] == "repro.serve/v7"
    # Every cost table is measured: there is no cost-model section.
    assert "cost_model" not in payload
    assert set(payload["mixes"]) == {"bp", "bp+vgg"}
    for mix in ("bp", "bp+vgg"):
        m = payload["mixes"][mix]
        assert m["throughput_rps"] > 0
        assert m["goodput_rps"] <= m["throughput_rps"]
        assert 0.0 <= m["availability"] <= 1.0
        assert m["expired"] == 0 and m["retries"] == 0 and m["hedges"] == 0
        assert m["latency_cycles"]["p99"] >= m["latency_cycles"]["p50"] > 0
        assert 0.0 <= m["slo_violation_rate"] <= 1.0
        assert 0.0 <= m["shed_rate"] < 1.0
        assert len(m["chips"]) == 2
    # Cost table is shared across mixes and self-documenting.
    assert "bp/b1" in payload["cost_table"]["shapes"]
    assert "fc/b3" in payload["cost_table"]["shapes"]
