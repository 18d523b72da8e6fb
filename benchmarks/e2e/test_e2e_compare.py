"""``compare`` verdicts and fingerprint gating on synthetic result sets."""

import json

import pytest

import run


def stats(*values):
    return run.summary(list(values))


@pytest.mark.parametrize("baseline, candidate, better, expected", [
    # Within the 10% bound either way.
    ((1.00, 1.01, 0.99, 1.00, 1.02), (1.05, 1.06, 1.04, 1.05, 1.07),
     "lower", "ok"),
    # 20% slower with tight spreads.
    ((1.00, 1.01, 0.99, 1.00, 1.02), (1.20, 1.21, 1.19, 1.20, 1.22),
     "lower", "regressed"),
    # 20% faster.
    ((1.00, 1.01, 0.99, 1.00, 1.02), (0.80, 0.81, 0.79, 0.80, 0.82),
     "lower", "improved"),
    # Higher is better: a 20% drop in throughput regresses.
    ((100, 101, 99, 100, 102), (80, 81, 79, 80, 82), "higher", "regressed"),
    # Spread wider than the bound and the run sets overlap.
    ((1.0, 1.3, 0.7, 1.0, 1.2), (1.1, 0.8, 1.4, 1.1, 0.9), "lower",
     "unresolved"),
    # Spread wider than the bound, but every candidate run is slower.
    ((1.0, 1.3, 0.7, 1.0, 1.2), (2.0, 2.6, 1.5, 2.0, 2.4), "lower",
     "regressed"),
    # ...or every candidate run is faster.
    ((2.0, 2.6, 1.5, 2.0, 2.4), (1.0, 1.3, 0.7, 1.0, 1.2), "lower",
     "improved"),
])
def test_verdicts(baseline, candidate, better, expected):
    assert run.verdict(stats(*baseline), stats(*candidate), better,
                       0.10) == expected


def test_exact_metrics_must_repeat():
    same = stats(16.4, 16.4)
    assert run.verdict(same, stats(16.4, 16.4), "lower", None) == "ok"
    assert run.verdict(same, stats(16.5, 16.5), "lower", None) == "regressed"
    assert run.verdict(same, stats(16.3, 16.3), "lower", None) == "improved"


def test_summary_quartiles_match_statistics():
    s = run.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 1.5, 4.5, 5)
    assert run.summary([2.0])["q1"] == run.summary([2.0])["q3"] == 2.0


def result_set(seed, fingerprint, run_s):
    metric = {"unit": "s", "better": "lower", "bound": 0.10,
              **run.summary(list(run_s))}
    return {"schema": run.SCHEMA, "seed": seed, "size": "full",
            "workloads": {"mrf-fhd": {"metrics": {"run_s": metric},
                                      "fingerprint": fingerprint}}}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.json", result_set(0, "f0", (1.0, 1.01, 0.99)))
    same = write(tmp_path, "b.json", result_set(0, "f0", (1.02, 1.0, 1.01)))
    assert run.main(["compare", a, same]) == 0
    assert "ok" in capsys.readouterr().out

    drifted = write(tmp_path, "c.json", result_set(0, "f1", (1.0, 1.0, 1.0)))
    assert run.main(["compare", a, drifted]) == 3
    assert "FINGERPRINT MISMATCH mrf-fhd" in capsys.readouterr().out

    slower = write(tmp_path, "d.json", result_set(0, "f0", (1.3, 1.3, 1.31)))
    assert run.main(["compare", a, slower]) == 3

    other_seed = write(tmp_path, "e.json", result_set(1, "f9", (1.0, 1.0, 1.0)))
    assert run.main(["compare", a, other_seed]) == 0
    assert "fingerprints not compared" in capsys.readouterr().out
