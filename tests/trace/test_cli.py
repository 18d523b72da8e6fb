"""End-to-end CLI tests: ``python -m repro.trace`` artifacts."""

import json

import pytest

from repro.trace.cli import main


@pytest.mark.parametrize("kernel", ["conv", "fc"])
def test_cli_single_pe_kernels(kernel, tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["--kernel", kernel, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    assert "cross-check ok" in capsys.readouterr().out


def test_cli_bp_tile_artifacts(tmp_path, capsys):
    out = tmp_path / "trace.json"
    csv_path = tmp_path / "trace.csv"
    report = tmp_path / "report.txt"
    code = main([
        "--kernel", "bp-tile", "--rows", "6", "--cols", "6", "--labels", "4",
        "--out", str(out), "--csv", str(csv_path), "--report", str(report),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "M"}
    assert csv_path.read_text().startswith("kind,")
    text = report.read_text()
    assert "Per-PE stall breakdown" in text and "row-hit rate" in text
    assert "cross-check ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["--rows", "0"], "--rows: must be >= 1, got 0"),
    (["--cols", "-1"], "--cols: must be >= 1, got -1"),
    (["--labels", "-3"], "--labels: must be >= 2, got -3"),
    (["--labels", "1"], "--labels: must be >= 2, got 1"),
])
def test_bad_bp_tile_size_exits_2_before_running(argv, message, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.setattr("repro.trace.cli._run_bp_tile", _no_kernel)
    out = tmp_path / "trace.json"
    assert main(["--kernel", "bp-tile", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_sizes_of_other_kernels_are_not_checked(tmp_path):
    # --rows/--cols/--labels shape only the bp-tile kernel.
    out = tmp_path / "trace.json"
    assert main(["--kernel", "fc", "--rows", "0", "--out", str(out)]) == 0


@pytest.mark.parametrize("option", ["--out", "--csv", "--report"])
def test_unwritable_output_exits_2_before_running(option, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.setattr("repro.trace.cli._run_fc", _no_kernel)
    path = tmp_path / "missing" / "artifact"
    argv = ["--kernel", "fc", "--out", str(tmp_path / "trace.json"),
            option, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: config: {option}: cannot write {path}: "
                            f"no directory {path.parent}\n")
    assert captured.out == ""


def test_report_to_stdout_is_not_a_path(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["--kernel", "fc", "--out", str(out), "--report", "-"]) == 0
    assert "Per-PE stall breakdown" in capsys.readouterr().out


def _no_kernel(*args, **kwargs):
    raise AssertionError("ran a kernel before checking the arguments")
