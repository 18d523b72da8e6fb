"""Arrival-trace generation: determinism, mixes, process shapes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.serve.workload import (
    ARRIVALS,
    KINDS,
    MAX_TILES,
    MIXES,
    Request,
    WorkloadConfig,
    generate_requests,
)


def _reference_requests(config: WorkloadConfig) -> list[Request]:
    """The straightforward generator loop, kept as the stream oracle:
    ``Generator.choice`` per request, in the same gap/kind/tile order."""
    rng = np.random.default_rng(config.seed)
    weights = MIXES[config.mix]
    kinds = [k for k in KINDS if k in weights]
    probs = np.array([weights[k] for k in kinds], dtype=np.float64)
    probs /= probs.sum()

    base = config.mean_gap_cycles
    hot_gap = base / config.burst_factor
    cold_gap = 2.0 * base - hot_gap

    hot = True
    left = 0.0
    t = 0.0
    out: list[Request] = []
    for rid in range(config.requests):
        if config.arrival == "poisson":
            gap = rng.exponential(base)
        else:
            if left <= 0:
                left = rng.geometric(1.0 / config.burst_len)
                hot = not hot
            left -= 1
            gap = rng.exponential(hot_gap if hot else cold_gap)
        t += gap
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        tile = int(rng.integers(config.num_tiles))
        out.append(Request(rid=rid, kind=kind, tile=tile, arrival=t))
    return out


def _trace_sha256(reqs) -> str:
    h = hashlib.sha256()
    for r in reqs:
        h.update(repr((r.rid, r.kind, r.tile, r.arrival)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("arrival", ARRIVALS)
@pytest.mark.parametrize("mix", sorted(MIXES))
def test_stream_matches_the_reference_loop(mix, arrival):
    # One tile draws nothing; 2**31 + 5 tiles rejects about half the
    # 32-bit draws, so the held half-word carries across requests.
    for seed in (0, 1, 7, 13):
        for num_tiles in (1, 2, 3, 8, 13, 64, 2**31 + 5):
            cfg = WorkloadConfig(mix=mix, arrival=arrival, requests=400,
                                 seed=seed, num_tiles=num_tiles)
            assert generate_requests(cfg) == _reference_requests(cfg), cfg


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mix=st.sampled_from(sorted(MIXES)),
       arrival=st.sampled_from(ARRIVALS),
       rate=st.floats(1e3, 1e7),
       burst_factor=st.floats(1.0, 64.0),
       burst_len=st.floats(1.0, 200.0),
       seed=st.integers(0, 2**32 - 1),
       requests=st.integers(1, 300),
       num_tiles=st.integers(1, 32))
def test_stream_matches_the_reference_loop_on_generated_configs(
        mix, arrival, rate, burst_factor, burst_len, seed, requests,
        num_tiles):
    cfg = WorkloadConfig(mix=mix, arrival=arrival, rate=rate,
                         burst_factor=burst_factor, burst_len=burst_len,
                         seed=seed, requests=requests, num_tiles=num_tiles)
    assert generate_requests(cfg) == _reference_requests(cfg)


def test_pinned_trace_digest():
    # Computed with the per-request ``Generator.choice`` loop; any change
    # to the draw stream changes every same-seed serving artifact.
    reqs = generate_requests(WorkloadConfig(mix="bp+vgg", arrival="poisson",
                                            requests=5000, seed=0))
    assert _trace_sha256(reqs) == (
        "674a47891999675da7de16006f0a2ae8634a321afe81ae1ec87bac319f5f65eb")


def test_same_seed_same_trace():
    cfg = WorkloadConfig(mix="bp+vgg", requests=100, seed=3)
    assert generate_requests(cfg) == generate_requests(cfg)


def test_different_seeds_differ():
    a = generate_requests(WorkloadConfig(requests=50, seed=0))
    b = generate_requests(WorkloadConfig(requests=50, seed=1))
    assert [r.arrival for r in a] != [r.arrival for r in b]


def test_arrivals_are_increasing_and_ids_sequential():
    reqs = generate_requests(WorkloadConfig(mix="bp+vgg", requests=200))
    assert [r.rid for r in reqs] == list(range(200))
    arrivals = [r.arrival for r in reqs]
    assert all(b > a for a, b in zip(arrivals, arrivals[1:]))


def test_mix_restricts_kinds_and_tiles_in_range():
    reqs = generate_requests(WorkloadConfig(mix="bp", requests=80,
                                            num_tiles=4))
    assert {r.kind for r in reqs} == {"bp"}
    assert all(0 <= r.tile < 4 for r in reqs)
    mixed = generate_requests(WorkloadConfig(mix="bp+vgg", requests=400,
                                             seed=2))
    kinds = {r.kind for r in mixed}
    assert kinds == set(MIXES["bp+vgg"])


@pytest.mark.parametrize("arrival", ["poisson", "bursty"])
def test_mean_rate_is_respected(arrival):
    cfg = WorkloadConfig(arrival=arrival, rate=100_000.0, requests=4000,
                         seed=5)
    reqs = generate_requests(cfg)
    mean_gap = reqs[-1].arrival / len(reqs)
    # Mean inter-arrival gap should be near clock_hz/rate = 12500 cycles.
    assert mean_gap == pytest.approx(cfg.mean_gap_cycles, rel=0.15)


def test_bursty_has_heavier_gap_tail_than_poisson():
    pois = generate_requests(WorkloadConfig(arrival="poisson",
                                            requests=3000, seed=9))
    burst = generate_requests(WorkloadConfig(arrival="bursty",
                                             requests=3000, seed=9,
                                             burst_factor=16.0))
    def gap_var(reqs):
        gaps = [b.arrival - a.arrival for a, b in zip(reqs, reqs[1:])]
        mean = sum(gaps) / len(gaps)
        return sum((g - mean) ** 2 for g in gaps) / len(gaps) / mean**2
    # Squared coefficient of variation: ~1 for Poisson, >1 for bursty.
    assert gap_var(burst) > 1.5 * gap_var(pois)


def test_config_validation():
    with pytest.raises(ConfigError):
        WorkloadConfig(mix="nope")
    with pytest.raises(ConfigError):
        WorkloadConfig(arrival="uniform")
    with pytest.raises(ConfigError):
        WorkloadConfig(rate=0.0)
    with pytest.raises(ConfigError):
        WorkloadConfig(requests=0)
    with pytest.raises(ConfigError):
        WorkloadConfig(burst_factor=0.5)


@pytest.mark.parametrize("field,value,message", [
    ("burst_len", 0.5, "workload.burst_len: must be >= 1"),
    ("burst_len", 0.0, "workload.burst_len: must be >= 1"),
    ("rate", float("nan"), "workload.rate: must be a finite number"),
    ("rate", float("inf"), "workload.rate: must be a finite number"),
    ("burst_factor", float("nan"),
     "workload.burst_factor: must be a finite number"),
    ("burst_len", float("inf"),
     "workload.burst_len: must be a finite number"),
    ("clock_ghz", float("nan"),
     "workload.clock_ghz: must be a finite number, got nan"),
    ("clock_ghz", float("-inf"),
     "workload.clock_ghz: must be a finite number, got -inf"),
    # A zero clock would draw every arrival at cycle 0, and a negative
    # one escape as NumPy's "scale < 0".
    # The ids keep the messages the cases matched before the field
    # declared its bound.
    pytest.param("clock_ghz", 0.0, "^workload.clock_ghz: must be > 0, "
                 "got 0.0$", id="clock_ghz-0.0-^workload.clock_ghz: must "
                 "be positive, got 0.0$"),
    pytest.param("clock_ghz", -1.0, "^workload.clock_ghz: must be > 0, "
                 "got -1.0$", id="clock_ghz--1.0-^workload.clock_ghz: must "
                 "be positive, got -1.0$"),
])
def test_config_rejects_out_of_range_and_non_finite(field, value, message):
    with pytest.raises(ConfigError, match=message):
        WorkloadConfig(arrival="bursty", **{field: value})


def test_tile_count_is_bounded_by_the_32_bit_draw():
    cfg = WorkloadConfig(mix="bp", requests=300, seed=2,
                         num_tiles=MAX_TILES)
    assert generate_requests(cfg) == _reference_requests(cfg)
    with pytest.raises(ConfigError, match=(
            r"^workload\.num_tiles: must be <= 4294967296, "
            r"got 4294967297$")):
        WorkloadConfig(num_tiles=MAX_TILES + 1)


@pytest.mark.parametrize("field, value, message", [
    # Each used to raise a raw TypeError while the trace was drawn.
    ("requests", 2.5, "requests: must be a positive integer, got 2.5"),
    ("num_tiles", 2.5, "num_tiles: must be a positive integer, got 2.5"),
    ("seed", 1.5, "seed: must be a nonnegative integer, got 1.5"),
])
def test_counts_must_be_integers(field, value, message):
    with pytest.raises(ConfigError) as info:
        WorkloadConfig(**{field: value})
    assert str(info.value) == f"workload.{message}"
    kept = WorkloadConfig(**{field: np.int64(3)})
    assert getattr(kept, field) == 3 and type(getattr(kept, field)) is int


def test_negative_seed_is_a_config_error():
    # numpy's default_rng would reject it only after the cost table.
    with pytest.raises(ConfigError,
                       match=(r"^workload\.seed: must be a nonnegative "
                              r"integer, got -1$")):
        WorkloadConfig(seed=-1)


def test_unit_burst_len_is_accepted_and_matches_the_reference():
    # burst_len == 1 is the smallest valid mean phase: geometric(p=1)
    # always draws 1, so hot and cold phases alternate every request.
    cfg = WorkloadConfig(mix="bp+vgg", arrival="bursty", burst_len=1.0,
                         requests=200, seed=4)
    assert generate_requests(cfg) == _reference_requests(cfg)
