"""Open-loop request generation for the serving layer.

A *request* is one inference the service must answer: a BP-M tile
iteration (``bp``), a VGG-geometry convolution tile (``conv``), an FC
input vector (``fc``), or a Gibbs-sampling sweep over an MRF tile with
uncertainty quantification (``gibbs``).  The generator draws a seeded
arrival process over
a named *mix* of kinds and returns the complete arrival trace up front —
the serving simulation is open-loop (arrivals do not react to service
times), which is the regime where queueing and batching dominate tail
latency.  The trace is a :class:`~repro.serve.rows.RecordTable` of
:class:`Request` rows, one packed 25 B row per arrival, that reads like
a list of requests.

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

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError
from repro.knobs import check_knobs, choice, count, number
from repro.serve import rows
from repro.serve.rows import RecordTable

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
    # Pure FC traffic: the batch-sensitive kind, and the worst
    # cold-start case (one kernel simulation per batch size).
    "fc": {"fc": 1.0},
    # Gibbs sampling over the same MRF substrate as bp: tile-stateful
    # like bp, but its report rollup carries quality metrics (posterior
    # entropy, agreement vs the reference sampler).
    "bp+gibbs": {"bp": 0.6, "gibbs": 0.4},
    # Pure uncertainty-quantification traffic.
    "uq": {"gibbs": 1.0},
}

ARRIVALS = ("poisson", "bursty")

#: The most locality keys a trace may rotate through: tiles are drawn
#: with numpy's 32-bit bounded-integer method (see :func:`_tile_draws`).
MAX_TILES = 2**32


class Request(NamedTuple):
    """One inference request in the arrival trace.

    An immutable named tuple, like the run records: a trace packs each
    into one row and rebuilds it on read.  Derive a changed copy with
    ``_replace``.
    """

    rid: int
    kind: str
    #: Locality key: which model tile / weight shard the request touches.
    #: The locality-aware fleet policy routes same-tile BP requests to
    #: the chip that already holds that tile's message state.
    tile: int | None
    #: Arrival time in PE clock cycles.
    arrival: float


#: 25 B per request: rid ``q``, kind ``B`` (its index in KINDS), tile
#: ``q``, arrival ``d``.
rows.register(Request, "qBqd", rows.trace_writer, texts={"kind": KINDS},
              optional="tile")


@dataclass(frozen=True)
class WorkloadConfig:
    """Seeded specification of one open-loop workload."""

    mix: str = choice("bp", MIXES)
    arrival: str = choice("poisson", ARRIVALS)
    #: Offered load in requests per simulated second.  An infinite
    #: rate would put every arrival at cycle 0.
    rate: float = number(50_000.0, above=0)
    requests: int = count(200, min=1)
    #: numpy's default_rng rejects a negative seed, but only once the
    #: trace is drawn, after the cost table has been built.
    seed: int = count(0, min=0)
    #: Number of distinct locality keys (model tiles) in rotation.
    num_tiles: int = count(8, min=1, max=MAX_TILES)
    #: Bursty-mode rate multiplier inside a hot phase.
    burst_factor: float = number(8.0, min=1.0)
    #: Bursty-mode mean requests per phase (a geometric phase length
    #: has mean >= 1).
    burst_len: float = number(20.0, min=1.0)
    #: A zero clock draws every arrival at cycle 0; a negative one
    #: fails deep in the draw.
    clock_ghz: float = number(1.25, above=0)

    def __post_init__(self):
        check_knobs(self, "workload")
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

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def mean_gap_cycles(self) -> float:
        """Mean inter-arrival gap in cycles at the offered rate."""
        return self.clock_hz / self.rate


def _tile_draws(raw, num_tiles: int):
    """numpy's ``Generator.integers(num_tiles)`` on PCG64, one tile per
    ``next``, from the 64-bit words ``raw`` returns.

    For ``num_tiles`` up to :data:`MAX_TILES` numpy takes Lemire's
    method on 32-bit draws: it multiplies a draw by ``num_tiles``,
    rejects the product while its low word is below ``2**32 %
    num_tiles``, and returns the high word.  PCG64 serves 32-bit draws
    from a word's low half first and keeps the high half for the next
    draw, so each word is walked low half, high half.  One tile draws
    nothing.  Nothing else draws 32 bits from the generator, so the
    held half is the one PCG64 would hold.
    """
    if num_tiles == 1:
        while True:
            yield 0
    reject_below = MAX_TILES % num_tiles
    while True:
        word = raw()
        for half in (word & 0xFFFFFFFF, word >> 32):
            m = half * num_tiles
            if m & 0xFFFFFFFF >= reject_below:
                yield m >> 32


def generate_requests(config: WorkloadConfig) -> RecordTable:
    """Draw the full arrival trace for ``config`` (deterministic), as a
    table of :class:`Request` rows in rid order."""
    rng = np.random.default_rng(config.seed)
    weights = MIXES[config.mix]
    kinds = [k for k in KINDS if k in weights]
    probs = np.array([weights[k] for k in kinds], dtype=np.float64)
    probs /= probs.sum()
    # The kind draw is numpy's own ``Generator.choice(n, p=probs)``
    # algorithm with the CDF built once instead of on every call: one
    # ``random()`` double, then a right-bisection into the normalised
    # CDF.  It consumes the same draw and returns the same index, so the
    # trace is byte-identical to calling ``choice`` per request.  The
    # double is PCG64's: a word's top 53 bits times 2**-53.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    exponential = rng.exponential
    raw = rng.bit_generator.random_raw
    tiles = _tile_draws(raw, config.num_tiles)

    base = config.mean_gap_cycles
    hot_gap = base / config.burst_factor
    # Chosen so equal expected requests per phase keep the mean at ``base``.
    cold_gap = 2.0 * base - hot_gap

    t = 0.0
    out = RecordTable(Request)
    add = out.add
    # Per request the draw order is fixed: gap (plus a geometric phase
    # length at each bursty phase start), then kind, then tile.
    if config.arrival == "poisson":
        for rid in range(config.requests):
            t += exponential(base)
            kind = kinds[bisect_right(cdf, (raw() >> 11) * 2**-53)]
            add(rid, kind, next(tiles), t)
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
        kind = kinds[bisect_right(cdf, (raw() >> 11) * 2**-53)]
        add(rid, kind, next(tiles), t)
    return out
