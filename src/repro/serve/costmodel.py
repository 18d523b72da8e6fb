"""Batch service times from real kernel simulations.

The serving simulation needs the *service time* of every kernel launch it
dispatches: ``cycles(kind, batch_size)``.  Those numbers are not modeled
— they are **measured** by running the actual generated VIP programs on
the cycle-approximate simulator, once per distinct shape, through the
hardened :func:`repro.perf.run_tasks` pool:

* ``fc`` batches are *genuinely batched kernels*: a batch of B inputs is
  one :func:`~repro.kernels.fc_kernel.build_fc_partial_program` launch
  with ``FCTileLayout(batch=B)`` — B resident input chunks share every
  streamed weight row, so FC service time grows sub-linearly in B
  (the paper's Section VI-A batching effect).
* ``conv`` and ``bp`` requests each need their own pass over their own
  input/tile, so a batch of B is B back-to-back passes with the model
  resident: ``cycles(kind, B) = B * cycles(kind, 1)``.  Batching still
  pays — the per-launch dispatch overhead and any model reload are
  amortized across the batch (see :mod:`repro.serve.fleet`).

Because service time is a pure function of shape, the whole table is
measured up front (every reachable ``(kind, B)``), embarrassingly
parallel across the pool, and byte-identical whether measured serially
or with ``--workers N`` — which is what makes the full serving report
reproducible under parallelism.

*Degraded* chips (the :mod:`repro.faults` composition) get a second
table column: the same kernels re-measured with a seeded fault injector
attached (DRAM read-disturb flips under SECDED ECC, double bits counted
not raised), so every correction's read-latency penalty lengthens the
measured service time exactly as the fault subsystem models it.  The
fleet scheduler then sees — and can route around — genuinely slower
chips rather than an arbitrary slowdown factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.isa.instructions import SCRATCHPAD_BYTES
from repro.perf.runner import Task, run_tasks
from repro.serve.workload import KINDS

#: The degraded-chip fault profile: DRAM that has started failing, every
#: read passing through SECDED.  The flip rate is high enough that a
#: noticeable fraction of 64-bit words need correction, and each
#: correction is modeled as a controller-level retry (25 cycles) rather
#: than the in-stream 1-cycle fixup — that is what makes a degraded
#: chip's service times *visibly* longer, so fleet policies have
#: something real to route around.  Double-bit words are counted, not
#: raised (the serving layer measures time, not output quality).
DEGRADED_DRAM_FLIP_RATE = 2e-3
DEGRADED_ECC_CORRECTION_CYCLES = 25.0


def _fault_injector(seed: int):
    from repro.faults.config import FaultConfig
    from repro.faults.injector import FaultInjector

    return FaultInjector(FaultConfig(
        seed=seed,
        dram_read_flip_rate=DEGRADED_DRAM_FLIP_RATE,
        ecc=True,
        ecc_correction_cycles=DEGRADED_ECC_CORRECTION_CYCLES,
        ecc_double_bit="count",
    ))


def _geometry(kind: str, quick: bool) -> dict:
    if kind == "bp":
        rows, cols, labels = (8, 8, 4) if quick else (12, 16, 8)
        return {"rows": rows, "cols": cols, "labels": labels}
    if kind == "conv":
        return {"size": (4, 8, 16) if quick else (8, 16, 64)}
    if kind == "fc":
        return {}  # the harness's fc_tile(quick), at the launch's batch
    if kind == "gibbs":
        rows, cols, samples = (8, 8, 2) if quick else (10, 12, 3)
        return {"rows": rows, "cols": cols, "labels": 8,
                "burn_in": 1, "samples": samples}
    raise ConfigError(f"unknown request kind {kind!r}")


def fc_max_batch(quick: bool) -> int:
    """Largest FC batch whose resident inputs fit the 4 KiB scratchpad
    (B input chunks + 2 double-buffered weight rows + B partial scalars)."""
    from repro.kernels.harness import fc_tile

    _, chunk = fc_tile(quick)
    eb = 2
    b = 1
    while ((b + 1) * chunk * eb + 2 * chunk * eb + (b + 1) * eb
           <= SCRATCHPAD_BYTES):
        b += 1
    return b


# ----------------------------------------------------------------------
# shape measurements (module-level: task functions must pickle)


def measure_shape(kind: str, batch: int, quick: bool,
                  degraded: bool, seed: int = 0) -> dict:
    """Simulate one launch shape; returns cycles and resident-state sizes.

    Each kind runs through its one runner: a BP-M iteration through
    :func:`~repro.workloads.bp.run_bpm_on_chip`, a Gibbs request through
    :func:`~repro.workloads.gibbs.run_gibbs_on_chip`, and conv and FC
    through the kernel harness's :func:`~repro.kernels.harness.run_conv_pass`
    and :func:`~repro.kernels.harness.run_fc_stream`.

    ``model_bytes`` is what a chip must stage to start serving this kind
    at all (weights / smoothness + tile state); ``tile_bytes`` is what a
    same-kind tile switch costs (BP message state; zero for conv/fc,
    whose weights are tile-independent and whose inputs stream per
    request regardless).
    """
    from repro.faults.config import NO_FAULTS
    from repro.kernels.harness import run_conv_pass, run_fc_stream
    from repro.system.config import VIPConfig
    from repro.workloads.bp import run_bpm_on_chip, stereo_mrf
    from repro.workloads.gibbs import run_gibbs_on_chip

    g = _geometry(kind, quick)
    faults = _fault_injector(seed) if degraded else NO_FAULTS
    quality = None
    if kind in ("bp", "gibbs"):
        mrf, _ = stereo_mrf(g["rows"], g["cols"], labels=g["labels"], seed=7)
        config = VIPConfig(faults=faults)
    if kind == "bp":
        run = run_bpm_on_chip(mrf, iterations=1, config=config)
        model = tile = run.layout.total_bytes
    elif kind == "gibbs":
        run = run_gibbs_on_chip(mrf, burn_in=g["burn_in"],
                                samples=g["samples"], seed=0, config=config)
        model = tile = run.layout.end - run.layout.base
        quality = _gibbs_quality(mrf, run.result, g)
    elif kind == "conv":
        run = run_conv_pass(faults=faults, size=g["size"])
        model, tile = run.layout.weights_bytes + run.layout.bias_bytes, 0
    else:
        run = run_fc_stream(quick=quick, faults=faults, batch=batch)
        model, tile = run.layout.weights_bytes, 0
    row = {"kind": kind, "batch": batch, "degraded": degraded,
           "cycles": run.cycles, "model_bytes": model, "tile_bytes": tile}
    if quality is not None:
        row["quality"] = quality
    return row


def _gibbs_quality(mrf, measured, g: dict) -> dict:
    """Score a Gibbs request's marginals against the fault-free reference
    sampler, so a *degraded* chip's row records not just longer service
    times but the quality its corrupted draws actually produce (the
    uncertainty-quantification angle: entropy, confidence, agreement are
    servable metrics)."""
    from repro.workloads.gibbs import label_agreement, marginal_l1, run_gibbs

    reference = run_gibbs(mrf, burn_in=g["burn_in"], samples=g["samples"],
                          seed=0)
    return {
        "mean_entropy": measured.mean_entropy,
        "mean_confidence": measured.mean_confidence,
        "agreement_vs_reference": label_agreement(reference.labels,
                                                  measured.labels),
        "marginal_l1_vs_reference": marginal_l1(reference.marginals,
                                                measured.marginals),
    }


# ----------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class ServiceCostTable:
    """Measured service cycles per (kind, batch, health) launch shape."""

    #: (kind, batch, degraded) -> simulated cycles of the launch.
    cycles: dict
    #: kind -> bytes a chip stages to switch its resident model.
    model_bytes: dict
    #: kind -> bytes a same-kind tile switch stages (BP message state).
    tile_bytes: dict
    quick: bool
    max_batch: int
    #: Largest FC batch held resident in the table (0 when the table has
    #: no FC column).  FC launches above it stream through the scratchpad
    #: in ``fc_cap``-sized waves, so their cost derives from capped shapes.
    fc_cap: int = 0
    #: kind -> {"healthy"|"degraded" -> metrics} for kinds whose
    #: measurement scores output quality (currently ``gibbs``: posterior
    #: entropy/confidence plus agreement against the reference sampler).
    #: Empty for tables without such kinds; feeds the serve report's
    #: per-kind quality rollups.
    quality: dict = field(default_factory=dict)

    def launch_cycles(self, kind: str, batch: int,
                      degraded: bool = False) -> float:
        """Service cycles of one launch of ``batch`` ``kind`` requests.

        FC batches above :attr:`fc_cap` cost ``floor(batch / fc_cap)``
        full waves plus one remainder wave — the kernel re-runs with a
        fresh resident input set per wave.  Unknown kinds, batches outside
        the table, and a missing degraded column raise :class:`ConfigError`
        naming the offending shape.
        """
        if batch < 1:
            raise ConfigError(f"launch batch must be >= 1, got {batch}")
        try:
            if kind == "fc":
                cap = self.fc_cap
                if cap and batch > cap:
                    waves, rem = divmod(batch, cap)
                    total = waves * self.cycles[("fc", cap, degraded)]
                    if rem:
                        total += self.cycles[("fc", rem, degraded)]
                    return total
                return self.cycles[(kind, batch, degraded)]
            return batch * self.cycles[(kind, 1, degraded)]
        except KeyError:
            column = "degraded" if degraded else "healthy"
            kinds = sorted({k for k, _, _ in self.cycles})
            raise ConfigError(
                f"cost table has no {column} entry for kind={kind!r} "
                f"batch={batch} (kinds={kinds}, max_batch={self.max_batch})"
            ) from None


def required_shapes(max_batch: int, quick: bool,
                    kinds=KINDS) -> list[tuple[str, int]]:
    """Every (kind, batch) the table must hold for batches up to
    ``max_batch``: per-pass shapes for conv/bp, every B for fc up to the
    scratchpad-resident cap (larger serving batches stream through in
    cap-sized waves, so their cost derives from the capped shapes — see
    :meth:`ServiceCostTable.launch_cycles`)."""
    if max_batch < 1:
        raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
    cap = fc_max_batch(quick)
    shapes: list[tuple[str, int]] = []
    for kind in kinds:
        if kind == "fc":
            shapes.extend(("fc", b) for b in range(1, min(max_batch, cap) + 1))
        else:
            shapes.append((kind, 1))
    return shapes


def build_cost_table(max_batch: int, quick: bool = True,
                     degraded: bool = False, kinds=KINDS,
                     max_workers: int | None = None,
                     seed: int = 0, checkpoint=None) -> ServiceCostTable:
    """Measure every required shape across the ``run_tasks`` pool.

    The result is a pure function of ``(max_batch, quick, degraded,
    kinds, seed)`` — worker count only changes wall time, never the
    table — so serial and parallel serving runs agree byte for byte.
    ``checkpoint`` journals per-shape measurements so a killed build
    resumes without re-simulating completed shapes.
    """
    shapes = required_shapes(max_batch, quick, kinds)
    health = [False, True] if degraded else [False]
    tasks = [
        Task(key=f"measure:{kind}:{batch}:{'deg' if d else 'ok'}",
             fn=measure_shape,
             kwargs=dict(kind=kind, batch=batch, quick=quick,
                         degraded=d, seed=seed))
        for d in health
        for kind, batch in shapes
    ]
    rows = run_tasks(tasks, max_workers=max_workers, checkpoint=checkpoint)
    cycles = {(r["kind"], r["batch"], r["degraded"]): r["cycles"]
              for r in rows}
    model = {r["kind"]: r["model_bytes"] for r in rows}
    tile = {r["kind"]: r["tile_bytes"] for r in rows}
    quality: dict = {}
    for r in rows:
        if "quality" in r:
            health = "degraded" if r["degraded"] else "healthy"
            quality.setdefault(r["kind"], {})[health] = r["quality"]
    fc_cap = min(max_batch, fc_max_batch(quick)) if "fc" in kinds else 0
    return ServiceCostTable(cycles=cycles, model_bytes=model,
                            tile_bytes=tile, quick=quick,
                            max_batch=max_batch, fc_cap=fc_cap,
                            quality=quality)
