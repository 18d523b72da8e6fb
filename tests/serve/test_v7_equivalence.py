"""One dispatch path and one report schema, pinned by digest.

The fleet used to run a separate dispatch path while failures were off,
and ``run_report`` chose one of four schemas (``repro.serve/v3`` to
``v6``) by which features were on.  Now a failures-off fleet is the
resilient path over an empty failure timeline with no retry deadline,
and every report is ``repro.serve/v7``.  The one path reproduced the
forked code's digests exactly.  The digests below were taken once more
when the ``bp`` cost column became the length of one BP-M iteration
(the chip clock at the end of its last sweep) instead of the sum of
the four sweeps' end times: every run that serves ``bp`` moved, and
``fc-deep-batch`` (``fc``) and ``slo-probe`` (``vgg``) did not.  With
the summed column put back into ``measure_shape`` all 72 equal the
forked code's.  ``python tests/serve/test_v7_equivalence.py`` prints
them for the code on ``PYTHONPATH``.  They pin:

* every bundled scenario: its v7 payload (the forked code's ran through
  :func:`legacy_to_v7`, the one projection from a v3–v6 payload to v7)
  and each mix's request records, launch records, chip accounting and
  metrics;
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
    (0, 'fail-slow'): '32b98268b4e2f9c5',
    (0, 'transient'): 'e76f1dac002868bc',
    (1, 'fail-slow'): '1db76f69bfc3edc7',
    (1, 'transient'): '9b8647ab2f66a8bc',
}

#: scenario file -> (v7 payload digest, per-mix run digests).
SCENARIO_DIGESTS = {
    'autoscale-flash-crowd.yaml': (
        'e606ce902f7ac595', ['44c7565327c63bf2', '68084def048b80e5']),
    'chaos-failover.yaml': (
        '8a86dbe08b214933', ['491f345b6d1a98db', 'bf92e3ce6960f39a']),
    'cluster-zone-outage.yaml': (
        'a71af6dce7260f52', ['a1384c2561aff578']),
    'degraded-fleet.yaml': (
        '286d132dcdc77707', ['671276318cc25bdf']),
    'fc-deep-batch.yaml': (
        'd6869170bd27b5af', ['fc1939985a64ea9b']),
    'flash-crowd.yaml': (
        '760a884506cf0079', ['c38384e90d7f4fb1', 'ff3815866083e553']),
    'gibbs-uq.yaml': (
        'd42c06db629c1756', ['cf71448823421d4c', '446a51e67a5e9a72']),
    'slo-probe.json': (
        '3a3b6364018cf58f', ['559d25a1329f6933']),
    'steady-bp.yaml': (
        '532eeb6487063e9b', ['089ad89a842cc97c', '0c82f9ebb8d4b7ae']),
}

#: chaos cell -> run digest.
CHAOS_DIGESTS = {
    (0, 'fail-stop', 'builtin', False, 'bp'): '90496732dfccd7d5',
    (0, 'fail-stop', 'builtin', True, 'bp'): 'a54a011e6882fd0d',
    (0, 'fail-stop', 'pressure-shed', False, 'bp'): '1dd890f45a4074bd',
    (0, 'fail-stop', 'pressure-shed', True, 'bp'): 'a54a011e6882fd0d',
    (0, 'fail-stop', 'conservative-retry', False, 'bp'): '90496732dfccd7d5',
    (0, 'fail-stop', 'conservative-retry', True, 'bp'): 'a54a011e6882fd0d',
    (0, 'fail-slow', 'builtin', False, 'bp'): 'aaa8720373481ee5',
    (0, 'fail-slow', 'builtin', True, 'bp'): 'eac3ce5537799314',
    (0, 'fail-slow', 'pressure-shed', False, 'bp'): 'e614a0954698bad1',
    (0, 'fail-slow', 'pressure-shed', True, 'bp'): 'eac3ce5537799314',
    (0, 'fail-slow', 'conservative-retry', False, 'bp'): '069a0bcb8b9f60e0',
    (0, 'fail-slow', 'conservative-retry', True, 'bp'): 'a587b9c23df812f7',
    (0, 'compound', 'builtin', False, 'bp'): '5ff2ea3a54736cdc',
    (0, 'compound', 'builtin', True, 'bp'): 'a3d9b4c7f442a6b3',
    (0, 'compound', 'pressure-shed', False, 'bp'): '7046f58b5ae96d75',
    (0, 'compound', 'pressure-shed', True, 'bp'): 'a3d9b4c7f442a6b3',
    (0, 'compound', 'conservative-retry', False, 'bp'): '7a5b50a2c179b0c8',
    (0, 'compound', 'conservative-retry', True, 'bp'): 'e0bb94acbed85875',
    (1, 'fail-stop', 'builtin', False, 'bp'): '3cd0b24e9b5271c6',
    (1, 'fail-stop', 'builtin', True, 'bp'): '9450eb12e2a25a9b',
    (1, 'fail-stop', 'pressure-shed', False, 'bp'): '208c92b13ab1ef6e',
    (1, 'fail-stop', 'pressure-shed', True, 'bp'): '82470a4dfacd105f',
    (1, 'fail-stop', 'conservative-retry', False, 'bp'): '3cd0b24e9b5271c6',
    (1, 'fail-stop', 'conservative-retry', True, 'bp'): '9450eb12e2a25a9b',
    (1, 'fail-slow', 'builtin', False, 'bp'): '6df75445e67efea9',
    (1, 'fail-slow', 'builtin', True, 'bp'): '1fa94ea4bf2d09a1',
    (1, 'fail-slow', 'pressure-shed', False, 'bp'): 'e83d983b6b33ae10',
    (1, 'fail-slow', 'pressure-shed', True, 'bp'): '5cd6c7e9738f7000',
    (1, 'fail-slow', 'conservative-retry', False, 'bp'): 'a451c61a95d5d622',
    (1, 'fail-slow', 'conservative-retry', True, 'bp'): '9405dab3730bb4bb',
    (1, 'compound', 'builtin', False, 'bp'): 'aac7ac94f5485e0c',
    (1, 'compound', 'builtin', True, 'bp'): '7766750106ed05dc',
    (1, 'compound', 'pressure-shed', False, 'bp'): '6fe82ae9799dd4ec',
    (1, 'compound', 'pressure-shed', True, 'bp'): 'f292e58a92bac422',
    (1, 'compound', 'conservative-retry', False, 'bp'): 'aac7ac94f5485e0c',
    (1, 'compound', 'conservative-retry', True, 'bp'): '7766750106ed05dc',
    (2, 'fail-stop', 'builtin', False, 'bp'): '3b0d9a56fcd67b27',
    (2, 'fail-stop', 'builtin', True, 'bp'): 'a1dd47282f3a6204',
    (2, 'fail-stop', 'pressure-shed', False, 'bp'): '29740103c367cd06',
    (2, 'fail-stop', 'pressure-shed', True, 'bp'): 'a815da8add2957af',
    (2, 'fail-stop', 'conservative-retry', False, 'bp'): '3b0d9a56fcd67b27',
    (2, 'fail-stop', 'conservative-retry', True, 'bp'): 'a1dd47282f3a6204',
    (2, 'fail-slow', 'builtin', False, 'bp'): 'db4547202bbda67b',
    (2, 'fail-slow', 'builtin', True, 'bp'): 'ccb0c14d6351d2cf',
    (2, 'fail-slow', 'pressure-shed', False, 'bp'): '61ac11a63d24525d',
    (2, 'fail-slow', 'pressure-shed', True, 'bp'): 'f2aebba0792ff5dd',
    (2, 'fail-slow', 'conservative-retry', False, 'bp'): '336262e6c713175f',
    (2, 'fail-slow', 'conservative-retry', True, 'bp'): '351b40c2ea251c3b',
    (2, 'compound', 'builtin', False, 'bp'): 'f367d63c2b882482',
    (2, 'compound', 'builtin', True, 'bp'): '4d9b1a5035a7048e',
    (2, 'compound', 'pressure-shed', False, 'bp'): 'e3a220ab33076a5d',
    (2, 'compound', 'pressure-shed', True, 'bp'): '319385290c645554',
    (2, 'compound', 'conservative-retry', False, 'bp'): 'f367d63c2b882482',
    (2, 'compound', 'conservative-retry', True, 'bp'): '4d9b1a5035a7048e',
    (0, 'compound', 'builtin', False, 'bp+gibbs'): 'ac0eea3a5c3ff6a2',
}

#: cluster cell -> run digest.
CLUSTER_DIGESTS = {
    (0, 'builtin'): '9013ba560840a6cc',
    (0, 'pressure-shed'): '9013ba560840a6cc',
    (1, 'builtin'): '9d1e45c72e55aaee',
    (1, 'pressure-shed'): 'e074f70b5537a3d2',
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
