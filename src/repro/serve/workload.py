"""Open-loop request generation for the serving layer.

A *request* is one inference the service must answer: a BP-M tile
iteration (``bp``), a VGG-geometry convolution tile (``conv``), an FC
input vector (``fc``), or a Gibbs-sampling sweep over an MRF tile with
uncertainty quantification (``gibbs``).  The generator draws a seeded
arrival process over
a named *mix* of kinds and returns the complete arrival trace up front —
the serving simulation is open-loop (arrivals do not react to service
times), which is the regime where queueing and batching dominate tail
latency.

Arrival processes (times are PE clock cycles at ``clock_ghz``):

``poisson``
    Exponential inter-arrival gaps with mean ``clock_hz / rate``.

``bursty``
    A two-state modulated Poisson process: phases alternate *hot* and
    *cold*, each lasting a geometric number of requests (mean
    ``burst_len``).  Hot gaps have mean ``base / burst_factor``; cold
    gaps have mean ``2*base - base/burst_factor``, so with equal expected
    requests per phase the long-run mean rate still equals ``rate`` —
    bursty traffic stresses the queue without changing offered load.

Every draw comes from one ``numpy`` Generator seeded with the workload
seed, in a fixed order (gap, kind, tile per request), so a
``WorkloadConfig`` maps to exactly one arrival trace on every machine.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Request kinds understood by the cost model and batcher.
KINDS = ("bp", "conv", "fc", "gibbs")

#: Named workload mixes: kind -> probability.  ``bp`` is the paper's
#: flagship MRF workload alone; ``bp+vgg`` interleaves it with VGG conv
#: and FC traffic (the two CNN phases have opposite compute/bandwidth
#: character, so they batch and schedule differently).
MIXES = {
    "bp": {"bp": 1.0},
    "bp+vgg": {"bp": 0.5, "conv": 0.3, "fc": 0.2},
    "vgg": {"conv": 0.6, "fc": 0.4},
    # Pure FC traffic: the batch-sensitive kind whose cost curve the
    # surrogate cost model calibrates; also the worst cold-start case
    # (one kernel simulation per batch size under --cost-model measured).
    "fc": {"fc": 1.0},
    # Gibbs sampling over the same MRF substrate as bp: tile-stateful
    # like bp, but its report rollup carries quality metrics (posterior
    # entropy, agreement vs the reference sampler).
    "bp+gibbs": {"bp": 0.6, "gibbs": 0.4},
    # Pure uncertainty-quantification traffic.
    "uq": {"gibbs": 1.0},
}

ARRIVALS = ("poisson", "bursty")


@dataclass(frozen=True)
class Request:
    """One inference request in the arrival trace."""

    rid: int
    kind: str
    #: Locality key: which model tile / weight shard the request touches.
    #: The locality-aware fleet policy routes same-tile BP requests to
    #: the chip that already holds that tile's message state.
    tile: int
    #: Arrival time in PE clock cycles.
    arrival: float


@dataclass(frozen=True)
class WorkloadConfig:
    """Seeded specification of one open-loop workload."""

    mix: str = "bp"
    arrival: str = "poisson"
    #: Offered load in requests per simulated second.
    rate: float = 50_000.0
    requests: int = 200
    seed: int = 0
    #: Number of distinct locality keys (model tiles) in rotation.
    num_tiles: int = 8
    #: Bursty-mode rate multiplier inside a hot phase.
    burst_factor: float = 8.0
    #: Bursty-mode mean requests per phase (a geometric phase length
    #: has mean >= 1).
    burst_len: float = 20.0
    clock_ghz: float = 1.25

    def __post_init__(self):
        if self.mix not in MIXES:
            raise ConfigError(f"unknown mix {self.mix!r}; choose from "
                              f"{sorted(MIXES)}")
        # Validate the mix *mapping* here rather than letting an unknown
        # kind surface later as a raw KeyError (or a probability-sum
        # mismatch) deep inside request generation; the dotted path keeps
        # the `error: config: workload.mix.<kind>` exit-2 form the
        # scenario DSL uses.
        for kind, weight in MIXES[self.mix].items():
            if kind not in KINDS:
                raise ConfigError(
                    f"workload.mix.{kind}: unknown request kind "
                    f"(known kinds: {', '.join(KINDS)})"
                )
            if not weight > 0:
                raise ConfigError(
                    f"workload.mix.{kind}: weight must be positive, got {weight}"
                )
        if self.arrival not in ARRIVALS:
            raise ConfigError(f"unknown arrival process {self.arrival!r}; "
                              f"choose from {ARRIVALS}")
        # NaN compares false against every bound below, so it would slip
        # through them, and an infinite rate puts every arrival at cycle 0.
        for name in ("rate", "burst_factor", "burst_len"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"workload.{name}: must be a finite number, got {value!r}")
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if self.requests <= 0:
            raise ConfigError("requests must be positive")
        if self.num_tiles <= 0:
            raise ConfigError("num_tiles must be positive")
        if self.burst_factor < 1.0:
            raise ConfigError("burst_factor must be >= 1")
        if self.burst_len < 1.0:
            raise ConfigError(
                f"workload.burst_len: must be >= 1, got {self.burst_len!r}")

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def mean_gap_cycles(self) -> float:
        """Mean inter-arrival gap in cycles at the offered rate."""
        return self.clock_hz / self.rate


def generate_requests(config: WorkloadConfig) -> list[Request]:
    """Draw the full arrival trace for ``config`` (deterministic)."""
    rng = np.random.default_rng(config.seed)
    weights = MIXES[config.mix]
    kinds = [k for k in KINDS if k in weights]
    probs = np.array([weights[k] for k in kinds], dtype=np.float64)
    probs /= probs.sum()
    # The kind draw is numpy's own ``Generator.choice(n, p=probs)``
    # algorithm with the CDF built once instead of on every call: one
    # ``random()`` double, then a right-bisection into the normalised
    # CDF.  It consumes the same draw and returns the same index, so the
    # trace is byte-identical to calling ``choice`` per request.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    exponential = rng.exponential
    uniform = rng.random
    integers = rng.integers
    num_tiles = config.num_tiles

    base = config.mean_gap_cycles
    hot_gap = base / config.burst_factor
    # Chosen so equal expected requests per phase keep the mean at ``base``.
    cold_gap = 2.0 * base - hot_gap

    t = 0.0
    out: list[Request] = []
    append = out.append
    # Per request the draw order is fixed: gap (plus a geometric phase
    # length at each bursty phase start), then kind, then tile.
    if config.arrival == "poisson":
        for rid in range(config.requests):
            t += exponential(base)
            kind = kinds[bisect_right(cdf, uniform())]
            append(Request(rid, kind, int(integers(num_tiles)), t))
        return out
    geometric = rng.geometric
    phase_p = 1.0 / config.burst_len
    hot = True  # bursty traces open in a burst
    left = 0  # requests left in the current phase
    for rid in range(config.requests):
        if left <= 0:
            left = geometric(phase_p)
            hot = not hot
        left -= 1
        t += exponential(hot_gap if hot else cold_gap)
        kind = kinds[bisect_right(cdf, uniform())]
        append(Request(rid, kind, int(integers(num_tiles)), t))
    return out
