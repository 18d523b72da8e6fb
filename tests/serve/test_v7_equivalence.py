"""One dispatch path and one report schema reproduce the forked code.

The fleet used to run a separate dispatch path while failures were off,
and ``run_report`` chose one of four schemas (``repro.serve/v3`` to
``v6``) by which features were on.  Now a failures-off fleet is the
resilient path over an empty failure timeline with no retry deadline,
and every report is ``repro.serve/v7``.  The digests below were
computed on the forked code (run ``python tests/serve/test_v7_equivalence.py``
with that code on ``PYTHONPATH`` to print them) and pin what the one
path must reproduce:

* every bundled scenario: its payload under :func:`legacy_to_v7`, the
  one projection from a v3–v6 payload to v7, and each mix's request
  records, launch records, chip accounting and metrics;
* every cell of the default chaos matrix (54 single-fleet cells plus
  the ``bp+gibbs`` cell) and every cluster cell CI runs
  (``--seeds 2 --cluster``): the same run digest;
* autoscaled cluster cells whose failures never stop a chip: no breaker
  can move, yet a completed launch still reports to its breaker,
  because popping that event advances the autoscaler whose chip list
  the router's gossip reads.
"""

import dataclasses
import functools
import glob
import hashlib
import json
import os
import sys

import pytest

from repro.serve.chaos import (
    MODES,
    POLICY_DOCS,
    _cell_config,
    _cluster_cell_config,
)
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.cluster import ClusterConfig, ClusterSimulator
from repro.serve.costmodel import build_cost_table
from repro.serve.failures import FailureConfig
from repro.serve.fleet import FleetSimulator, ServeConfig
from repro.serve.metrics import compute_metrics
from repro.serve.report import run_report
from repro.serve.scenario import load_scenario
from repro.serve.workload import WorkloadConfig, generate_requests

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples", "scenarios")


def legacy_to_v7(payload: dict) -> dict:
    """A ``repro.serve/v3``–``v6`` payload in v7 form.

    The schema name changes and the ``cost_model`` section goes.  Every
    section a feature adds is present: null for a feature's config
    (``policy_tree``, ``autoscale``, ``cluster``) or rollup (a mix's or
    a shard's ``autoscale``, a mix's ``cluster``; ``chips`` under a
    cluster, ``shards`` without one), empty for a per-kind map
    (``cost_table.quality``, a mix's ``quality``).
    """
    out = {key: value for key, value in payload.items()
           if key != "cost_model"}
    out["schema"] = "repro.serve/v7"
    out["config"] = {"policy_tree": None, "autoscale": None,
                     "cluster": None, **payload["config"]}
    out["cost_table"] = {"quality": {}, **payload["cost_table"]}
    mixes = {}
    for name, mix in payload["mixes"].items():
        mix = {"autoscale": None, "chips": None, "cluster": None,
               "quality": {}, "shards": None, **mix}
        if mix["shards"] is not None:
            mix["shards"] = [{"autoscale": None, **shard}
                             for shard in mix["shards"]]
        mixes[name] = mix
    out["mixes"] = mixes
    return out


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(result, config) -> str:
    """Records, launches, chip accounting and metrics of one fleet or
    cluster run."""
    cluster = hasattr(result, "shard_results")
    shards = result.shard_results if cluster else [result]
    metrics = compute_metrics(result.records, result.batches,
                              result.makespan, slo_cycles=config.slo_cycles,
                              clock_ghz=config.clock_ghz)
    return _digest({
        "records": [list(r) for r in result.records],
        "batches": [[list(b) for b in fr.batches] for fr in shards],
        "chips": [[dataclasses.astuple(c) for c in fr.chips]
                  for fr in shards],
        "autoscale": [fr.autoscale for fr in shards],
        "makespan": result.makespan,
        "metrics": metrics.as_dict(),
        "rollup": result.rollup() if cluster else None,
    })


def scenario_report(name: str):
    scenario = load_scenario(os.path.join(SCENARIO_DIR, name))
    payload, runs = run_report(scenario.workload, scenario.serve,
                               mixes=scenario.mixes, quick=scenario.quick,
                               max_workers=1)
    return payload, [run_digest(run.fleet, scenario.serve) for run in runs]


def _requests(mix: str, seed: int):
    return generate_requests(WorkloadConfig(
        mix=mix, arrival="bursty", rate=250_000.0, requests=80, seed=seed))


@functools.cache
def _costs(kinds: tuple):
    return build_cost_table(4, quick=True, degraded=True, kinds=kinds,
                            max_workers=1)


def chaos_cell_digest(seed: int, mode: str, policy: str, autoscale: bool,
                      mix: str = "bp") -> str:
    """One default chaos cell's run, as ``repro.serve.chaos`` runs it."""
    config = _cell_config(mode, policy, seed, autoscale)
    kinds = ("bp", "gibbs") if mix == "bp+gibbs" else ("bp",)
    result = FleetSimulator(config, _costs(kinds)).run(
        list(_requests(mix, seed)))
    return run_digest(result, config)


def cluster_cell_digest(seed: int, policy: str) -> str:
    """One ``--cluster`` chaos cell's run."""
    config = _cluster_cell_config(policy, seed)
    result = ClusterSimulator(config, _costs(("bp",))).run(
        list(_requests("bp", seed)))
    return run_digest(result, config)


def paced_cell_digest(seed: int, mode: str) -> str:
    """Two autoscaled 2-chip shards under fail-slow or transient
    windows, gossiping every 7,000 cycles."""
    if mode == "fail-slow":
        failures = FailureConfig(
            seed=seed, fail_slow_chips=(0, 1),
            fail_slow_mtbf_cycles=300_000.0,
            fail_slow_duration_cycles=120_000.0)
    else:
        failures = FailureConfig(
            seed=seed, transient_chips=(0, 1),
            transient_mtbf_cycles=300_000.0,
            transient_duration_cycles=120_000.0)
    config = ServeConfig(
        chips=2, max_batch=4, queue_capacity=16, failures=failures,
        autoscale=AutoscaleConfig(
            min_chips=1, max_chips=4, evaluate_interval_cycles=30_000.0,
            cooldown_cycles=60_000.0, idle_cycles=30_000.0,
            warmup_cycles=20_000.0),
        cluster=ClusterConfig(shards=2, router="least-loaded",
                              gossip_interval_cycles=7_000.0))
    requests = generate_requests(WorkloadConfig(
        mix="bp", arrival="bursty", rate=250_000.0, requests=300,
        seed=seed))
    result = ClusterSimulator(config, _costs(("bp",))).run(list(requests))
    return run_digest(result, config)


#: (seed, mode, policy, autoscale, mix) of the default chaos matrix.
CHAOS_CELLS = [(seed, mode, policy, autoscale, "bp")
               for seed in range(3) for mode in MODES
               for policy in POLICY_DOCS for autoscale in (False, True)]
CHAOS_CELLS.append((0, "compound", "builtin", False, "bp+gibbs"))
#: (seed, policy) of the cluster cells CI runs.
CLUSTER_CELLS = [(seed, policy) for seed in range(2)
                 for policy in ("builtin", "pressure-shed")]
#: (seed, mode) of the autoscaled cluster cells.
PACED_CELLS = [(seed, mode) for seed in range(2)
               for mode in ("fail-slow", "transient")]

#: autoscaled cluster cell -> run digest.
PACED_DIGESTS = {
    (0, 'fail-slow'): 'eab200c22e96aeb9',
    (0, 'transient'): '4fbe19e607d5c805',
    (1, 'fail-slow'): 'e43e93dcaeed3a1b',
    (1, 'transient'): '6983017c8a6539a7',
}

#: scenario file -> (v7 payload digest, per-mix run digests).
SCENARIO_DIGESTS = {
    'autoscale-flash-crowd.yaml': (
        'abfdf979a5ab8124', ['9bb9578cc20cfe3c', '68084def048b80e5']),
    'chaos-failover.yaml': (
        '6e0b5361d005c784', ['2142635355dab33b', '730d22878e427f0a']),
    'cluster-zone-outage.yaml': (
        '8ca8258022efbdff', ['ed56a1ee583ba1f7']),
    'degraded-fleet.yaml': (
        'd6316ab41aa9ad73', ['8bc108e0d34ce27f']),
    'fc-deep-batch.yaml': (
        'd6869170bd27b5af', ['fc1939985a64ea9b']),
    'flash-crowd.yaml': (
        '120cc0b8c494b7da', ['5c7300c3315d0d29', 'ff3815866083e553']),
    'gibbs-uq.yaml': (
        '33517e8d655478dc', ['cf71448823421d4c', 'c76f32c95c730864']),
    'slo-probe.json': (
        '3a3b6364018cf58f', ['559d25a1329f6933']),
    'steady-bp.yaml': (
        'dafe65e61727ed02', ['89212b49b9008c51', 'd2c9538b729bf211']),
}

#: chaos cell -> run digest.
CHAOS_DIGESTS = {
    (0, 'fail-stop', 'builtin', False, 'bp'): 'ea4e03ddf461e69a',
    (0, 'fail-stop', 'builtin', True, 'bp'): '92843d26483a10c0',
    (0, 'fail-stop', 'pressure-shed', False, 'bp'): '218d9089b7b9c814',
    (0, 'fail-stop', 'pressure-shed', True, 'bp'): '92843d26483a10c0',
    (0, 'fail-stop', 'conservative-retry', False, 'bp'): 'ea4e03ddf461e69a',
    (0, 'fail-stop', 'conservative-retry', True, 'bp'): 'cef7d2e537e89ea4',
    (0, 'fail-slow', 'builtin', False, 'bp'): 'bd590e569152d448',
    (0, 'fail-slow', 'builtin', True, 'bp'): 'c99346c575f8edbe',
    (0, 'fail-slow', 'pressure-shed', False, 'bp'): '15a49d733cc94280',
    (0, 'fail-slow', 'pressure-shed', True, 'bp'): 'c99346c575f8edbe',
    (0, 'fail-slow', 'conservative-retry', False, 'bp'): '8b2bb52f9aef005d',
    (0, 'fail-slow', 'conservative-retry', True, 'bp'): 'b9f2fb4649b465d8',
    (0, 'compound', 'builtin', False, 'bp'): '3e5d78e8756df415',
    (0, 'compound', 'builtin', True, 'bp'): '40f1ef268bed7e06',
    (0, 'compound', 'pressure-shed', False, 'bp'): '1aae2cc61d6e8e45',
    (0, 'compound', 'pressure-shed', True, 'bp'): '40f1ef268bed7e06',
    (0, 'compound', 'conservative-retry', False, 'bp'): 'c932ce9aa5383190',
    (0, 'compound', 'conservative-retry', True, 'bp'): 'ed143c98183ed214',
    (1, 'fail-stop', 'builtin', False, 'bp'): '4b2c5d4b68e0617f',
    (1, 'fail-stop', 'builtin', True, 'bp'): 'c213764e4131d9d9',
    (1, 'fail-stop', 'pressure-shed', False, 'bp'): '4b2c5d4b68e0617f',
    (1, 'fail-stop', 'pressure-shed', True, 'bp'): 'c213764e4131d9d9',
    (1, 'fail-stop', 'conservative-retry', False, 'bp'): '7be2c2fae0e2bbf9',
    (1, 'fail-stop', 'conservative-retry', True, 'bp'): 'c213764e4131d9d9',
    (1, 'fail-slow', 'builtin', False, 'bp'): 'c3b3e0b7be5f1fad',
    (1, 'fail-slow', 'builtin', True, 'bp'): '6d8e4412e7eef642',
    (1, 'fail-slow', 'pressure-shed', False, 'bp'): 'c3b3e0b7be5f1fad',
    (1, 'fail-slow', 'pressure-shed', True, 'bp'): '6d8e4412e7eef642',
    (1, 'fail-slow', 'conservative-retry', False, 'bp'): '2a97c66661a64089',
    (1, 'fail-slow', 'conservative-retry', True, 'bp'): '0a78ac89913e6017',
    (1, 'compound', 'builtin', False, 'bp'): '836c67ae85ae5ce1',
    (1, 'compound', 'builtin', True, 'bp'): '6e4f98ffeae25f98',
    (1, 'compound', 'pressure-shed', False, 'bp'): '836c67ae85ae5ce1',
    (1, 'compound', 'pressure-shed', True, 'bp'): '6e4f98ffeae25f98',
    (1, 'compound', 'conservative-retry', False, 'bp'): '836c67ae85ae5ce1',
    (1, 'compound', 'conservative-retry', True, 'bp'): '6e4f98ffeae25f98',
    (2, 'fail-stop', 'builtin', False, 'bp'): '984193e3808acb08',
    (2, 'fail-stop', 'builtin', True, 'bp'): '1500332facf34c7f',
    (2, 'fail-stop', 'pressure-shed', False, 'bp'): '984193e3808acb08',
    (2, 'fail-stop', 'pressure-shed', True, 'bp'): '1500332facf34c7f',
    (2, 'fail-stop', 'conservative-retry', False, 'bp'): '644225fda5ceea13',
    (2, 'fail-stop', 'conservative-retry', True, 'bp'): '1500332facf34c7f',
    (2, 'fail-slow', 'builtin', False, 'bp'): 'b341833b655402af',
    (2, 'fail-slow', 'builtin', True, 'bp'): 'd740047f4092da4f',
    (2, 'fail-slow', 'pressure-shed', False, 'bp'): 'b341833b655402af',
    (2, 'fail-slow', 'pressure-shed', True, 'bp'): 'd740047f4092da4f',
    (2, 'fail-slow', 'conservative-retry', False, 'bp'): 'eb398062af9a1ff1',
    (2, 'fail-slow', 'conservative-retry', True, 'bp'): '2166a4b7d966c60d',
    (2, 'compound', 'builtin', False, 'bp'): '97e511ec6efd767e',
    (2, 'compound', 'builtin', True, 'bp'): '2f5fbb8b8ec95957',
    (2, 'compound', 'pressure-shed', False, 'bp'): '97e511ec6efd767e',
    (2, 'compound', 'pressure-shed', True, 'bp'): '2f5fbb8b8ec95957',
    (2, 'compound', 'conservative-retry', False, 'bp'): '97e511ec6efd767e',
    (2, 'compound', 'conservative-retry', True, 'bp'): '2f5fbb8b8ec95957',
    (0, 'compound', 'builtin', False, 'bp+gibbs'): 'b5ff97edc0640c38',
}

#: cluster cell -> run digest.
CLUSTER_DIGESTS = {
    (0, 'builtin'): '428677147f62a72b',
    (0, 'pressure-shed'): '428677147f62a72b',
    (1, 'builtin'): '96d7934a9e22cb83',
    (1, 'pressure-shed'): 'cb6261fc4efa8eb4',
}


def test_every_bundled_scenario_and_cell_is_pinned():
    scenarios = sorted(os.path.basename(p)
                       for p in glob.glob(os.path.join(SCENARIO_DIR, "*")))
    assert sorted(SCENARIO_DIGESTS) == scenarios
    assert sorted(CHAOS_DIGESTS) == sorted(CHAOS_CELLS)
    assert len(CHAOS_DIGESTS) == 55
    assert sorted(CLUSTER_DIGESTS) == sorted(CLUSTER_CELLS)
    assert sorted(PACED_DIGESTS) == sorted(PACED_CELLS)


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_bundled_scenario_reproduces_the_forked_code(name):
    payload, runs = scenario_report(name)
    assert payload["schema"] == "repro.serve/v7"
    assert (_digest(payload), runs) == SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("cell", CHAOS_CELLS,
                         ids=["-".join(map(str, c)) for c in CHAOS_CELLS])
def test_chaos_cell_reproduces_the_forked_code(cell):
    assert chaos_cell_digest(*cell) == CHAOS_DIGESTS[cell]


@pytest.mark.parametrize("cell", CLUSTER_CELLS,
                         ids=["-".join(map(str, c)) for c in CLUSTER_CELLS])
def test_cluster_cell_reproduces_the_forked_code(cell):
    assert cluster_cell_digest(*cell) == CLUSTER_DIGESTS[cell]


@pytest.mark.parametrize("cell", PACED_CELLS,
                         ids=["-".join(map(str, c)) for c in PACED_CELLS])
def test_autoscaled_cluster_cell_reproduces_the_forked_code(cell):
    assert paced_cell_digest(*cell) == PACED_DIGESTS[cell]


def test_projection_fills_every_v7_section():
    payload, _ = scenario_report("steady-bp.yaml")
    legacy = json.loads(json.dumps(payload))
    legacy["schema"] = "repro.serve/v3"
    legacy["cost_model"] = {"mode": "measured", "validation": None}
    for key in ("policy_tree", "autoscale", "cluster"):
        del legacy["config"][key]
    del legacy["cost_table"]["quality"]
    for mix in legacy["mixes"].values():
        for key in ("autoscale", "cluster", "quality", "shards"):
            del mix[key]
    assert legacy_to_v7(legacy) == payload


def _print_digests(project) -> None:
    """Print the pinned tables for the code on ``sys.path``;
    ``project`` maps that code's payload to v7."""
    print("SCENARIO_DIGESTS = {")
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*"))):
        name = os.path.basename(path)
        payload, runs = scenario_report(name)
        print(f"    {name!r}: (\n        {_digest(project(payload))!r}, "
              f"{runs!r}),")
    print("}\nCHAOS_DIGESTS = {")
    for cell in CHAOS_CELLS:
        print(f"    {cell!r}: {chaos_cell_digest(*cell)!r},")
    print("}\nCLUSTER_DIGESTS = {")
    for cell in CLUSTER_CELLS:
        print(f"    {cell!r}: {cluster_cell_digest(*cell)!r},")
    print("}\nPACED_DIGESTS = {")
    for cell in PACED_CELLS:
        print(f"    {cell!r}: {paced_cell_digest(*cell)!r},")
    print("}")


if __name__ == "__main__":
    # ``--legacy``: the code on the path emits v3–v6 payloads.
    _print_digests(legacy_to_v7 if "--legacy" in sys.argv else
                   (lambda payload: payload))
