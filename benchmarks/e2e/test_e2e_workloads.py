"""Tiny-size smoke tests of the child entry and the driver-facing output.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_entries(tmp_path_factory):
    """Each workload at tiny size: two untraced children and a traced one,
    each a fresh process, folded the way a full run folds them."""
    trace_dir = tmp_path_factory.mktemp("traces")
    entries = {}
    for name in NAMES:
        records = [run.spawn(name, 0, "tiny", traced, trace_dir)
                   for traced in (False, False, True)]
        entries[name] = run.aggregate(name, workloads.WORKLOADS[name].kind,
                                      records)
    return entries, trace_dir


@pytest.mark.parametrize("name", NAMES)
def test_child_metric_names_and_units(tiny_entries, name):
    entry = tiny_entries[0][name]
    assert entry["errors"] == []
    expected = {m: unit for m, (unit, _, _, kinds) in run.METRICS.items()
                if entry["kind"] in kinds}
    assert {m: s["unit"] for m, s in entry["metrics"].items()} == expected
    for m in ("setup_s", "run_s", "peak_rss_mb"):
        assert entry["metrics"][m]["median"] > 0
    assert entry["gates"] and all(entry["gates"].values())
    assert entry["checks"] and all(entry["checks"].values())
    assert set(entry["layers"]) >= set(run.DRIVER_PER_LAYER)
    for metric in entry["layers"]:
        assert run.layer_unit(metric)
    assert entry["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_fingerprints_repeat_across_runs_and_under_tracing(tiny_entries,
                                                           name):
    entry = tiny_entries[0][name]
    assert entry["fingerprint_mismatches"] == 0
    assert entry["fingerprint"] is not None


def test_trace_file_written(tiny_entries):
    _, trace_dir = tiny_entries
    body = json.loads((trace_dir / "trace-mrf-fhd.json").read_text())
    assert body["coarse"][0]["name"] == f"{spans.HARNESS}:setup"
    assert "pe:PE.step" in body["spans"]


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, wanted", [(0, run.DRIVER_END_TO_END),
                                           (1, run.DRIVER_PER_LAYER)])
def test_driver_line(tmp_path, trace, wanted):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "serve-steady", "--size", "tiny", "--reps", "1", "--seed", "3",
         "--trace", str(trace), "--trace-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 1 + trace
    assert list(line["metrics"]) == list(wanted)
    for metric, value in line["metrics"].items():
        assert set(value) == {"value", "unit"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["benchmarks/e2e/run.py"]
    assert [m["name"] for m in spec["workloads"]] == NAMES
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(run.DRIVER_END_TO_END)
    for name, m in e2e.items():
        unit, better, bound, _ = run.METRICS[name]
        assert (m["unit"], m["better"], m["bound"]) == (unit, better, bound)
    assert [m["name"] for m in spec["per_layer"]] == list(
        run.DRIVER_PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_missing_sources_exit_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit 2, no
    result line."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mrf-fhd",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
