"""The scenario DSL: parser, schema validation, compilation, CLI."""

import json

import pytest

from repro.errors import ConfigError
from repro.serve.cli import main
from repro.serve.fleet import ServeConfig
from repro.serve.scenario import (
    list_scenarios,
    load_scenario,
    ms_to_cycles,
    parse_simple_yaml,
    scenario_from_document,
    validate_document,
)
from repro.serve.workload import WorkloadConfig

# ---------------------------------------------------------------------------
# The mini-YAML subset parser


def test_yaml_subset_parses_nested_maps_lists_and_scalars():
    doc = parse_simple_yaml(
        "name: demo            # trailing comment\n"
        "# full-line comment\n"
        "\n"
        "workload:\n"
        "  mix: [bp, vgg]\n"
        "  rate: 5e4\n"
        "  requests: 100\n"
        "fleet:\n"
        "  degraded_chips:\n"
        "    - 0\n"
        "    - 2\n"
        "resilience:\n"
        "  hedge_delay_ms: null\n"
        "run:\n"
        "  quick: true\n"
        "  note: 'a # quoted string'\n"
    )
    assert doc["name"] == "demo"
    assert doc["workload"]["mix"] == ["bp", "vgg"]
    assert doc["workload"]["rate"] == 5e4
    assert doc["workload"]["requests"] == 100
    assert doc["fleet"]["degraded_chips"] == [0, 2]
    assert doc["resilience"]["hedge_delay_ms"] is None
    assert doc["run"]["quick"] is True
    assert doc["run"]["note"] == "a # quoted string"


@pytest.mark.parametrize("text,fragment", [
    ("", "empty document"),
    ("a:\n\tb: 1", "tabs in indentation"),
    ("a: 1\nstray", "expected 'key: value'"),
    ("a: 1\n   stray: 2", "unexpected indent"),
    ("a: 1\na: 2", "duplicate key"),
    ("  indented: 1", "top level must not be indented"),
])
def test_yaml_subset_rejects_malformed_documents(text, fragment):
    with pytest.raises(ConfigError, match="scenario parse"):
        try:
            parse_simple_yaml(text)
        except ConfigError as exc:
            assert fragment in str(exc)
            raise


# ---------------------------------------------------------------------------
# Schema validation and defaults


def test_empty_document_compiles_to_the_flagless_cli_run():
    scenario = scenario_from_document({})
    assert scenario.serve == ServeConfig(slo_cycles=ms_to_cycles(0.25))
    assert scenario.workload == WorkloadConfig(mix="bp")
    assert scenario.mixes == ("bp", "bp+vgg")
    assert scenario.quick is True


def test_defaults_fill_every_section():
    validated = validate_document({"workload": {"rate": 1000}})
    assert validated["workload"]["rate"] == 1000.0
    assert validated["workload"]["requests"] == 200
    assert validated["batching"]["max_batch"] == 8
    assert validated["fleet"]["policy"] == "least-loaded"
    assert validated["run"]["slo_ms"] == 0.25


def test_round_trip_compile_maps_fields_and_units():
    scenario = scenario_from_document({
        "name": "rt",
        "workload": {"mix": ["bp", "vgg"], "arrival": "bursty",
                     "rate": 80000, "requests": 50, "seed": 9},
        "fleet": {"chips": 6, "policy": "locality",
                  "degraded_chips": [1, 4]},
        "batching": {"max_batch": 4, "max_wait_cycles": 5000},
        "failures": {"fail_stop_chips": 2, "mtbf_ms": 1.6,
                     "fail_slow_chips": [3]},
        "resilience": {"max_retries": 5, "hedge_delay_ms": 0.04},
        "run": {"slo_ms": 0.4, "quick": True},
    })
    assert scenario.mixes == ("bp", "vgg")
    assert scenario.workload.arrival == "bursty"
    assert scenario.workload.seed == 9
    assert scenario.serve.chips == 6
    assert scenario.serve.policy == "locality"
    assert scenario.serve.degraded_chips == (1, 4)
    assert scenario.serve.max_batch == 4
    # counts expand to leading ids; explicit lists pass through
    assert scenario.serve.failures.fail_stop_chips == (0, 1)
    assert scenario.serve.failures.fail_slow_chips == (3,)
    # *_ms knobs convert at the 1.25 GHz PE clock
    assert scenario.serve.failures.fail_stop_mtbf_cycles == 2_000_000.0
    assert scenario.serve.resilience.hedge_delay_cycles == 50_000.0
    assert scenario.serve.resilience.max_retries == 5
    assert scenario.serve.slo_cycles == 500_000.0


@pytest.mark.parametrize("doc,path", [
    ({"fleeet": {}}, "scenario.fleeet: unknown key"),
    ({"fleet": {"chipz": 3}}, "scenario.fleet.chipz: unknown key"),
    ({"workload": {"rate": 0}}, "scenario.workload.rate: must be > 0"),
    ({"workload": {"rate": "fast"}}, "scenario.workload.rate: expected"),
    ({"workload": {"requests": 2.5}},
     "scenario.workload.requests: expected an integer"),
    ({"workload": {"mix": "nope"}}, "scenario.workload.mix: unknown mix"),
    ({"run": {"quick": "yes"}}, "scenario.run.quick: expected true/false"),
    ({"fleet": {"policy": "magic"}},
     "scenario.fleet.policy: unknown value"),
    ({"fleet": {"chips": 2, "degraded_chips": [5]}},
     "scenario.fleet.degraded_chips: chip ids out of range"),
    ({"failures": {"fail_stop_chips": 9}},
     "scenario.failures.fail_stop_chips: chip count 9 exceeds"),
    ({"failures": {}}, "scenario.failures: section present but no chips"),
    ({"resilience": {"max_retries": 1}},
     "scenario.resilience: requires an enabled failures"),
    ({"resilience": {"health_fp_rate": 1.5},
      "failures": {"fail_stop_chips": 1}},
     "scenario.resilience.health_fp_rate: must be <= 1"),
    # JSON scenarios can spell NaN/Infinity; geometric phases need >= 1.
    ({"workload": {"rate": float("nan")}},
     "scenario.workload.rate: must be a finite number"),
    ({"workload": {"burst_factor": float("inf")}},
     "scenario.workload.burst_factor: must be a finite number"),
    ({"workload": {"burst_len": 0.5}},
     "scenario.workload.burst_len: must be >= 1"),
])
def test_validation_errors_carry_the_field_path(doc, path):
    with pytest.raises(ConfigError) as exc:
        scenario_from_document(doc)
    assert path in str(exc.value)


@pytest.mark.parametrize("doc,path", [
    # Malformed cluster: sections.
    ({"cluster": {"shardz": 2}}, "scenario.cluster.shardz: unknown key"),
    ({"cluster": {"shards": 0}},
     "scenario.cluster.shards: must be >= 1"),
    ({"cluster": {"shards": "many"}},
     "scenario.cluster.shards: expected an integer"),
    ({"cluster": {"router": "warp"}},
     "scenario.cluster.router: unknown value"),
    ({"cluster": {"gossip_interval_ms": 0}},
     "scenario.cluster.gossip_interval_ms: must be > 0"),
    ({"cluster": {"failover_retries": -1}},
     "scenario.cluster.failover_retries: must be >= 0"),
    ({"cluster": {"brownout_headroom": 1.5}},
     "scenario.cluster.brownout_headroom: must be <= 1"),
    ({"cluster": {"brownout_headroom": 0}},
     "scenario.cluster.brownout_headroom: must be > 0"),
    ({"cluster": {"brownout_kinds": ["warp"]}},
     "scenario.cluster.brownout_kinds: unknown kind 'warp'"),
    ({"cluster": {"brownout_kinds": ["fc", "fc"]}},
     "scenario.cluster.brownout_kinds: duplicate kind names"),
    ({"cluster": {"brownout_kinds": []}},
     "scenario.cluster.brownout_kinds: expected a kind name"),
    # Malformed autoscale: sections.
    ({"autoscale": {"min_chipz": 1}},
     "scenario.autoscale.min_chipz: unknown key"),
    ({"autoscale": {"min_chips": 0}},
     "scenario.autoscale.min_chips: must be >= 1"),
    ({"autoscale": {"max_chips": "lots"}},
     "scenario.autoscale.max_chips: expected an integer"),
    ({"autoscale": {"evaluate_interval_ms": 0}},
     "scenario.autoscale.evaluate_interval_ms: must be > 0"),
    ({"autoscale": {"max_step": 0}},
     "scenario.autoscale.max_step: must be >= 1"),
    # Correlated failure domains: shape and range errors.
    ({"failures": {"domains": "zone-a"}},
     "scenario.failures.domains: expected a list of chip-id lists"),
    ({"failures": {"domains": [0, 1]}},
     "scenario.failures.domains: expected a list of chip-id lists"),
    ({"failures": {"domains": [[]]}},
     "scenario.failures.domains[0]: expected a non-empty list"),
    ({"failures": {"domains": [[0], [True]]}},
     "scenario.failures.domains[1]: expected a non-empty list"),
    ({"fleet": {"chips": 4}, "failures": {"domains": [[0, 1], [7]]}},
     "scenario.failures.domains[1]: chip ids out of range"),
    ({"failures": {"domains": [[0]], "domain_mode": "explode"}},
     "scenario.failures.domain_mode: unknown value"),
    # *_ms edge cases on the new knobs.
    ({"failures": {"domains": [[0]], "domain_mtbf_ms": 0}},
     "scenario.failures.domain_mtbf_ms: must be > 0"),
    ({"failures": {"domains": [[0]], "domain_repair_ms": -0.1}},
     "scenario.failures.domain_repair_ms: must be > 0"),
    ({"failures": {"domains": [[0]], "domain_mtbf_ms": "soon"}},
     "scenario.failures.domain_mtbf_ms: expected a number"),
    ({"failures": {"domains": [[0]], "domain_slow_factor": 0.5}},
     "scenario.failures.domain_slow_factor: must be >= 1"),
])
def test_cluster_and_domain_errors_carry_the_field_path(doc, path):
    with pytest.raises(ConfigError) as exc:
        scenario_from_document(doc)
    assert path in str(exc.value)


def test_domains_alone_enable_the_failures_section():
    scenario = scenario_from_document(
        {"fleet": {"chips": 4}, "failures": {"domains": [[0, 1], [2, 3]]}})
    assert scenario.serve.failures is not None
    assert scenario.serve.failures.domains == ((0, 1), (2, 3))


def test_cluster_section_defaults_compile():
    scenario = scenario_from_document({"cluster": {}})
    c = scenario.serve.cluster
    assert c is not None
    assert (c.shards, c.router) == (2, "least-loaded")
    assert c.gossip_interval_cycles == ms_to_cycles(0.04)
    assert c.brownout_headroom is None


def test_no_cluster_section_leaves_config_cluster_none():
    assert scenario_from_document({}).serve.cluster is None


# ---------------------------------------------------------------------------
# The named library and file loading


def test_repo_scenarios_all_compile_and_list():
    names = {entry["name"] for entry in list_scenarios()}
    assert {"steady-bp", "flash-crowd", "degraded-fleet",
            "chaos-failover", "slo-probe"} <= names
    for entry in list_scenarios():
        scenario = load_scenario(entry["name"])
        assert scenario.name == entry["name"]
        assert scenario.source and scenario.source.endswith(
            tuple(".yaml .yml .json".split()))


def test_scenario_dir_env_var_takes_priority(tmp_path, monkeypatch):
    (tmp_path / "mine.yaml").write_text(
        "description: private\nworkload:\n  requests: 10\n")
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path))
    scenario = load_scenario("mine")
    assert scenario.name == "mine"
    assert scenario.workload.requests == 10


def test_unknown_name_lists_known_scenarios():
    with pytest.raises(ConfigError, match="known scenarios"):
        load_scenario("no-such-scenario")


def test_json_scenario_files_load(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"workload": {"requests": 7}}))
    scenario = load_scenario(str(path))
    assert scenario.name == "probe"
    assert scenario.workload.requests == 7


# ---------------------------------------------------------------------------
# CLI integration


def _small_scenario(tmp_path, **extra):
    doc = ("description: cli equivalence\n"
           "workload:\n"
           "  mix: bp\n"
           "  rate: 150000\n"
           "  requests: 25\n"
           "fleet:\n"
           "  chips: 2\n"
           "batching:\n"
           "  max_batch: 3\n")
    path = tmp_path / "small.yaml"
    path.write_text(doc)
    return path


def test_cli_scenario_matches_equivalent_flags_byte_for_byte(tmp_path):
    flags_out = tmp_path / "flags.json"
    scenario_out = tmp_path / "scenario.json"
    assert main(["--chips", "2", "--requests", "25", "--rate", "150000",
                 "--mix", "bp", "--max-batch", "3",
                 "--out", str(flags_out)]) == 0
    path = _small_scenario(tmp_path)
    assert main(["--scenario", str(path),
                 "--out", str(scenario_out)]) == 0
    assert flags_out.read_bytes() == scenario_out.read_bytes()


def test_cli_rejects_malformed_scenario_with_field_path(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("workload:\n  rate: -3\n")
    assert main(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "scenario.workload.rate" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_list_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "steady-bp" in out and "chaos-failover" in out
