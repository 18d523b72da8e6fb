"""CLI smoke: ``python -m repro.serve``."""

import json
import subprocess
import sys

import pytest

from repro.serve.cli import main


def test_cli_writes_report_and_csv(tmp_path, capsys):
    out = tmp_path / "serve.json"
    csv = tmp_path / "serve.csv"
    rc = main(["--chips", "2", "--requests", "25", "--rate", "150000",
               "--seed", "0", "--max-batch", "3",
               "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "bp+vgg" in printed
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro.serve/v3"
    assert set(payload["mixes"]) == {"bp", "bp+vgg"}
    for mix in payload["mixes"].values():
        assert mix["latency_cycles"]["p99"] >= mix["latency_cycles"]["p50"] > 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("mix,rid,kind")
    assert len(lines) == 1 + 2 * 25  # header + both mixes' records


def test_cli_single_mix_and_policy(tmp_path):
    out = tmp_path / "serve.json"
    rc = main(["--chips", "2", "--requests", "20", "--rate", "150000",
               "--mix", "bp", "--policy", "locality", "--arrival", "bursty",
               "--max-batch", "2", "--degraded", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert list(payload["mixes"]) == ["bp"]
    assert payload["config"]["degraded_chips"] == [1]
    chips = payload["mixes"]["bp"]["chips"]
    assert chips[1]["degraded"] is True


def test_resilience_smoke_conserves_every_request(tmp_path):
    out = tmp_path / "serve.json"
    rc = main(["--chips", "2", "--requests", "30", "--rate", "150000",
               "--mix", "bp", "--max-batch", "3", "--policy", "least-loaded",
               "--fail-chips", "1", "--mtbf-ms", "0.3", "--repair-ms", "0.1",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["failures"]["fail_stop_chips"] == [0]
    assert payload["config"]["resilience"]["max_retries"] == 3
    m = payload["mixes"]["bp"]
    # Conservation: every admitted request accounted exactly once.
    assert m["served"] + m["shed"] + m["expired"] == m["total"] == 30
    assert m["availability"] > 0.0
    assert m["goodput_rps"] <= m["throughput_rps"]


def test_invalid_config_exits_2_with_one_line_error():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "--fail-chips", "3",
         "--chips", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: config:")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_resume_without_checkpoint_is_structured_error(capsys):
    rc = main(["--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,path", [
    (["--rate", "nan"], "workload.rate: must be a finite number"),
    (["--rate", "inf"], "workload.rate: must be a finite number"),
    (["--arrival", "bursty", "--burst-factor", "nan"],
     "workload.burst_factor: must be a finite number"),
    (["--arrival", "bursty", "--burst-len", "0.5"],
     "workload.burst_len: must be >= 1"),
    (["--fail-chips", "1", "--mtbf-ms", "nan"],
     "failures.mtbf_ms: must be a finite number"),
    (["--fail-chips", "1", "--repair-ms", "nan"],
     "failures.repair_ms: must be a finite number"),
    (["--fail-domains", "0,1", "--domain-mtbf-ms", "inf"],
     "failures.domain_mtbf_ms: must be a finite number"),
    (["--fail-chips", "1", "--detect-latency-ms", "nan"],
     "resilience.detect_latency_ms: must be a finite number"),
    (["--cluster-shards", "2", "--cluster-gossip-ms", "nan"],
     "cluster.gossip_interval_ms: must be a finite number"),
    (["--brownout-headroom", "nan"],
     "cluster.brownout_headroom: must be a finite number"),
    (["--max-wait", "inf"], "batching.max_wait_cycles: must be a finite"),
    (["--slo-ms", "nan"], "run.slo_ms: must be a finite number"),
])
def test_bad_workload_numbers_exit_2_before_simulating(argv, path, capsys):
    assert main(argv + ["--requests", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {path}")
    assert len(err.strip().splitlines()) == 1


@pytest.fixture
def no_simulation(monkeypatch):
    def run_report(*args, **kwargs):
        raise AssertionError("simulated before checking the output path")

    monkeypatch.setattr("repro.serve.cli.run_report", run_report)


@pytest.mark.parametrize("option", ["--out", "--csv", "--checkpoint"])
def test_output_in_a_missing_directory_exits_2_before_simulating(
        option, tmp_path, no_simulation, capsys):
    path = tmp_path / "missing" / "artifact"
    assert main(["--requests", "5", option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: config: {option}: cannot write {path}: "
                            f"no directory {path.parent}\n")
    assert captured.out == ""


def test_output_that_is_a_directory_exits_2_before_simulating(
        tmp_path, no_simulation, capsys):
    assert main(["--requests", "5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: config: --out: cannot write {tmp_path}: "
        "it is a directory\n")


def test_nan_gossip_interval_fails_fast_instead_of_hanging():
    # Frequent zone outages force failover during the final drain, which
    # steps the gossip grid until it passes the next handback; a NaN
    # grid never does.  With 0.04 ms the same run takes about a second.
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "--chips", "2",
         "--cluster-shards", "2", "--fail-domains", "0,1",
         "--domain-mtbf-ms", "0.2", "--domain-repair-ms", "0.1",
         "--cluster-gossip-ms", "nan", "--mix", "bp", "--requests", "200"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: config: cluster.gossip_interval_ms: must be a finite number")


def test_argparse_bounds_reject_nonsense(capsys):
    for argv in (["--chips", "0"], ["--rate", "-5"], ["--max-retries", "-1"],
                 ["--requests", "0"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    capsys.readouterr()  # swallow argparse usage noise


def test_checkpoint_resume_report_is_byte_identical(tmp_path):
    # bp+vgg measures several shapes (bp, conv, fc/b1..b3), so the
    # journal has enough entries to truncate mid-campaign.
    args = ["--chips", "2", "--requests", "20", "--rate", "150000",
            "--mix", "bp+vgg", "--max-batch", "3", "--seed", "0"]
    base = tmp_path / "base.json"
    assert main(args + ["--out", str(base)]) == 0

    ck = tmp_path / "ck.jsonl"
    full = tmp_path / "full.json"
    assert main(args + ["--checkpoint", str(ck), "--out", str(full)]) == 0
    assert full.read_bytes() == base.read_bytes()

    # Kill after K of N cost-table measurements: keep header + half.
    lines = ck.read_text().splitlines()
    assert len(lines) >= 3
    keep = 1 + (len(lines) - 1) // 2
    ck.write_text("\n".join(lines[:keep]) + "\n")

    resumed = tmp_path / "resumed.json"
    assert main(args + ["--checkpoint", str(ck), "--resume",
                        "--out", str(resumed)]) == 0
    assert resumed.read_bytes() == base.read_bytes()


def test_list_policies_prints_cluster_observables(capsys):
    assert main(["--list-policies"]) == 0
    printed = capsys.readouterr().out
    for name in ("fleet.slo_headroom", "shard.slo_headroom",
                 "cluster.alive_shard_fraction", "queue.kind_depth.fc"):
        assert name in printed
