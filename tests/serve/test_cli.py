"""CLI smoke: ``python -m repro.serve``."""

import copy
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.perf.checkpoint import CheckpointWarning, TaskCheckpoint
from repro.serve.cli import build_parser, main
from repro.serve.costmodel import MEASUREMENT_VERSION
from repro.serve.scenario import (
    load_scenario,
    ms_to_cycles,
    scenario_from_document,
)


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
    assert payload["schema"] == "repro.serve/v7"
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
    assert err.startswith(f"error: config: scenario.{path}")
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
        "error: config: scenario.cluster.gossip_interval_ms: "
        "must be a finite number")


def test_argparse_bounds_reject_nonsense(capsys):
    for argv in (["--chips", "0"], ["--rate", "-5"], ["--max-retries", "-1"],
                 ["--requests", "0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: scenario.")
        assert len(err.strip().splitlines()) == 1


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


def _journal(path, meta, bp_cycles):
    """A cost-table journal stamped ``meta`` holding one healthy ``bp``
    measurement of ``bp_cycles``."""
    with TaskCheckpoint(str(path), meta=meta) as checkpoint:
        checkpoint.put("measure:bp:1:ok", {
            "kind": "bp", "batch": 1, "degraded": False,
            "cycles": bp_cycles, "model_bytes": 2_912, "tile_bytes": 2_912})


def test_a_journal_of_an_older_measurement_starts_clean(tmp_path):
    # A journal written before the bp column became one iteration's
    # length holds the summed sweep end times (23,324.9375 quick).
    args = ["--chips", "2", "--mix", "bp", "--requests", "20",
            "--max-batch", "2", "--checkpoint", str(tmp_path / "ck.jsonl"),
            "--resume"]
    journal = tmp_path / "ck.jsonl"
    old_meta = {"tool": "repro.serve", "max_batch": 2, "quick": True,
                "degraded": False, "mixes": ["bp"]}
    _journal(journal, old_meta, 23_324.9375)
    out = tmp_path / "resumed.json"
    with pytest.warns(CheckpointWarning, match="different campaign config"):
        assert main(args + ["--out", str(out)]) == 0
    shapes = json.loads(out.read_text())["cost_table"]["shapes"]
    assert shapes == {"bp/b1": 9_284.375}
    meta = json.loads(journal.read_text().splitlines()[0])["meta"]
    assert meta == {**old_meta, "measurement": MEASUREMENT_VERSION}

    # Under today's meta the same entry would be replayed: the
    # measurement version is what keeps it out.
    _journal(journal, meta, 23_324.9375)
    assert main(args + ["--out", str(out)]) == 0
    shapes = json.loads(out.read_text())["cost_table"]["shapes"]
    assert shapes == {"bp/b1": 23_324.9375}


def test_list_policies_prints_cluster_observables(capsys):
    assert main(["--list-policies"]) == 0
    printed = capsys.readouterr().out
    for name in ("fleet.slo_headroom", "shard.slo_headroom",
                 "cluster.alive_shard_fraction", "queue.kind_depth.fc"):
        assert name in printed


# ---------------------------------------------------------------------------
# Flags are scenario keys: each compiles through the scenario schema.


#: Every document flag, written by hand: (flag, "section.key", the flag's
#: text, the same value as a document holds it).  Each value differs from
#: the schema default, so a flag mapped to the wrong key fails.
DOCUMENT_FLAG_SPEC = [
    ("--chips", "fleet.chips", "6", 6),
    ("--policy", "fleet.policy", "locality", "locality"),
    ("--degraded", "fleet.degraded_chips", "1,3", [1, 3]),
    ("--max-batch", "batching.max_batch", "3", 3),
    ("--max-wait", "batching.max_wait_cycles", "5000", 5000.0),
    ("--queue-capacity", "batching.queue_capacity", "16", 16),
    ("--shed-policy", "batching.shed_policy", "drop-oldest", "drop-oldest"),
    ("--arrival", "workload.arrival", "bursty", "bursty"),
    ("--rate", "workload.rate", "150000", 150000.0),
    ("--requests", "workload.requests", "25", 25),
    ("--seed", "workload.seed", "9", 9),
    ("--num-tiles", "workload.num_tiles", "4", 4),
    ("--burst-factor", "workload.burst_factor", "4", 4.0),
    ("--burst-len", "workload.burst_len", "10", 10.0),
    ("--fail-chips", "failures.fail_stop_chips", "2", 2),
    ("--fail-slow-chips", "failures.fail_slow_chips", "2", 2),
    ("--transient-chips", "failures.transient_chips", "3", 3),
    ("--fail-seed", "failures.seed", "5", 5),
    ("--mtbf-ms", "failures.mtbf_ms", "1.5", 1.5),
    ("--repair-ms", "failures.repair_ms", "0.3", 0.3),
    ("--fail-domains", "failures.domains", "0,1;2,3", [[0, 1], [2, 3]]),
    ("--domain-mtbf-ms", "failures.domain_mtbf_ms", "2", 2.0),
    ("--domain-repair-ms", "failures.domain_repair_ms", "0.2", 0.2),
    ("--domain-mode", "failures.domain_mode", "fail-slow", "fail-slow"),
    ("--health-interval-ms", "resilience.health_interval_ms", "0.03", 0.03),
    ("--detect-latency-ms", "resilience.detect_latency_ms", "0.01", 0.01),
    ("--health-fp-rate", "resilience.health_fp_rate", "0.1", 0.1),
    ("--max-retries", "resilience.max_retries", "5", 5),
    ("--retry-deadline-ms", "resilience.retry_deadline_ms", "0.5", 0.5),
    ("--hedge-delay-ms", "resilience.hedge_delay_ms", "0.02", 0.02),
    ("--autoscale-min", "autoscale.min_chips", "2", 2),
    ("--autoscale-max", "autoscale.max_chips", "6", 6),
    ("--autoscale-interval-ms", "autoscale.evaluate_interval_ms", "0.05",
     0.05),
    ("--autoscale-warmup-ms", "autoscale.warmup_ms", "0.02", 0.02),
    ("--autoscale-cooldown-ms", "autoscale.cooldown_ms", "0.1", 0.1),
    ("--cluster-shards", "cluster.shards", "3", 3),
    ("--cluster-router", "cluster.router", "round-robin", "round-robin"),
    ("--cluster-gossip-ms", "cluster.gossip_interval_ms", "0.02", 0.02),
    ("--cluster-failover-retries", "cluster.failover_retries", "2", 2),
    ("--brownout-headroom", "cluster.brownout_headroom", "0.5", 0.5),
    ("--brownout-kinds", "cluster.brownout_kinds", "fc,conv", ["fc", "conv"]),
    ("--slo-ms", "run.slo_ms", "0.5", 0.5),
]

#: Flags that write a document but not one scalar key.
SPECIAL_FLAGS = {"--mix", "--full", "--autoscale", "--policy-file"}
#: Flags that never reach the document.
INFRA_FLAGS = {"--scenario", "--list-scenarios", "--list-policies", "--out",
               "--csv", "--checkpoint", "--resume", "--workers"}

#: Enables the failures section, so resilience and failure keys compile.
BASE_ARGV = ["--fail-chips", "1"]
BASE_DOC = {"failures": {"fail_stop_chips": 1}}


def _configs(scenario):
    return (scenario.workload, scenario.serve, scenario.mixes,
            scenario.quick)


@pytest.fixture
def compiled(monkeypatch):
    """``compiled(argv)``: the configs ``main`` hands to ``run_report``,
    without simulating."""
    calls = []

    def run_report(workload, config, *, mixes, quick, max_workers,
                   checkpoint):
        calls.append((workload, config, mixes, quick))
        return {}, []

    monkeypatch.setattr("repro.serve.cli.run_report", run_report)

    def compile_argv(argv):
        calls.clear()
        assert main(argv) == 0
        (call,) = calls
        return call
    return compile_argv


def test_spec_table_covers_all_54_flags():
    options = {option for action in build_parser()._actions
               for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    assert len(DOCUMENT_FLAG_SPEC) == 42
    assert len(options) == 54
    assert options == ({row[0] for row in DOCUMENT_FLAG_SPEC}
                       | SPECIAL_FLAGS | INFRA_FLAGS)


@pytest.mark.parametrize("flag,path,text,value", DOCUMENT_FLAG_SPEC,
                         ids=[row[0] for row in DOCUMENT_FLAG_SPEC])
def test_flag_compiles_like_its_document_key(flag, path, text, value,
                                             compiled):
    section, key = path.split(".")
    doc = copy.deepcopy(BASE_DOC)
    doc.setdefault(section, {})[key] = value
    expected = _configs(scenario_from_document(doc))
    assert compiled(BASE_ARGV + [flag, text]) == expected
    assert expected != _configs(scenario_from_document(BASE_DOC))


@pytest.mark.parametrize("argv,doc", [
    (["--mix", "vgg", "--mix", "bp"], {"workload": {"mix": ["vgg", "bp"]}}),
    (["--full"], {"run": {"quick": False}}),
    (["--autoscale"], {"autoscale": {}}),
    (["--policy-file", "pressure-shed"],
     {"policy": {"file": "pressure-shed"}}),
], ids=["--mix", "--full", "--autoscale", "--policy-file"])
def test_special_flags_compile_like_their_document(argv, doc, compiled):
    assert compiled(argv) == _configs(scenario_from_document(doc))


def test_flags_override_the_scenario_file_key_by_key(compiled):
    workload, config, *_ = compiled(["--scenario", "steady-bp",
                                     "--chips", "7", "--rate", "1",
                                     "--requests", "3"])
    base = load_scenario("steady-bp")
    assert config == replace(base.serve, chips=7)
    assert workload == replace(base.workload, rate=1.0, requests=3)


def test_autoscale_flag_keeps_the_scenario_autoscale_section(compiled):
    config = compiled(["--scenario", "autoscale-flash-crowd",
                       "--autoscale"])[1]
    autoscale = config.autoscale
    assert autoscale == load_scenario("autoscale-flash-crowd").serve.autoscale
    assert (autoscale.min_chips, autoscale.max_chips,
            autoscale.up_queue_per_chip) == (2, 6, 6.0)


def test_cluster_flag_keeps_the_scenario_cluster_keys(compiled):
    config = compiled(["--scenario", "cluster-zone-outage",
                       "--cluster-shards", "3"])[1]
    base = load_scenario("cluster-zone-outage").serve.cluster
    assert config.cluster == replace(base, shards=3)
    assert config.cluster.router == "round-robin"
    assert config.cluster.gossip_interval_cycles == ms_to_cycles(0.016)


@pytest.mark.parametrize("argv,message", [
    (["--max-retries", "5"],
     "scenario.resilience: requires an enabled failures section"),
    (["--brownout-kinds", "fc,warp"],
     "scenario.cluster.brownout_kinds: unknown kind 'warp'"),
    (["--fail-chips", "0"],
     "scenario.failures: section present but no chips listed"),
    (["--mix", "bp", "--mix", "bp"],
     "scenario.workload.mix: duplicate mix names"),
    (["--policy", "magic"], "scenario.fleet.policy: unknown value 'magic'"),
    (["--seed", "-1"], "scenario.workload.seed: must be >= 0, got -1"),
])
def test_flag_errors_are_the_schema_errors(argv, message, no_simulation,
                                           capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {message}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,key", [
    (["--cost-model", "measured"], "run.cost_model"),
    (["--cost-model=surrogate"], "run.cost_model"),
    (["--surrogate-tolerance", "0.05"], "run.surrogate_tolerance"),
    (["--scenario", "steady-bp", "--surrogate-tolerance=0.1"],
     "run.surrogate_tolerance"),
])
def test_a_removed_flag_fails_naming_its_removed_key(argv, key,
                                                     no_simulation, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: scenario.{key}: removed: ")
    assert len(err.strip().splitlines()) == 1


def test_an_unknown_flag_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--chips", "2", "--bogus", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--autoscale-min", "2"],
                                  ["--autoscale-cooldown-ms", "0.1"]])
def test_an_autoscale_flag_turns_the_autoscaler_on(argv, compiled):
    assert compiled(argv)[1].autoscale is not None


@pytest.mark.parametrize("argv", [["--cluster-router", "hash"],
                                  ["--brownout-headroom", "0.5"]])
def test_a_cluster_flag_turns_on_the_schema_default_cluster(argv, compiled):
    assert compiled(argv)[1].cluster.shards == 2


def _old_journal(path, mixes=("bp", "bp+vgg")):
    """A journal header as a build with ``cost_model`` stamped it."""
    meta = {"tool": "repro.serve", "max_batch": 8, "quick": True,
            "degraded": False, "mixes": sorted(mixes),
            "cost_model": "measured"}
    path.write_text(json.dumps({"schema": "repro.perf.checkpoint/v1",
                                "meta": meta}, sort_keys=True) + "\n")
    return path.read_bytes()


def test_resuming_an_old_cost_model_journal_is_refused(tmp_path,
                                                      no_simulation,
                                                      capsys):
    journal = tmp_path / "old.jsonl"
    before = _old_journal(journal)
    assert main(["--checkpoint", str(journal), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: checkpoint.meta.cost_model: ")
    assert len(err.strip().splitlines()) == 1
    assert journal.read_bytes() == before  # refused, not started over
