"""Convenience API: Gibbs-sample a grid MRF end-to-end on the simulated
chip, plus the reference-vs-kernel quality gate.

Mirrors :mod:`repro.workloads.bp.runner`: stage once, then alternate the
two checkerboard phase programs with ``chip.run`` boundaries acting as
the cross-PE barrier, reading the labeling back after every post-burn-in
sweep to accumulate the marginal histogram host-side.  This is the one
place Gibbs sweeps run on a vault: the kernel harness and the serving
cost model call it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.system.config import VIPConfig
from repro.workloads.bp.mrf import GridMRF
from repro.workloads.gibbs.reference import (
    GibbsResult,
    label_agreement,
    marginal_l1,
    run_gibbs,
    summarize_histogram,
)

if TYPE_CHECKING:
    from repro.kernels.gibbs_kernel import GibbsTileLayout
    from repro.system.chip import Chip


@dataclass
class ChipGibbsResult:
    """Marginal statistics + simulated cost of an on-chip Gibbs run."""

    result: GibbsResult
    cycles: float
    sweeps: int
    #: Where the tile was staged in DRAM.
    layout: GibbsTileLayout

    @property
    def milliseconds(self) -> float:
        return self.cycles / 1.25e9 * 1e3


def run_gibbs_on_chip(
    mrf: GridMRF,
    burn_in: int = 2,
    samples: int = 8,
    seed: int = 0,
    config: VIPConfig | None = None,
    base: int = 4096,
    chip: Chip | None = None,
) -> ChipGibbsResult:
    """Run ``burn_in + samples`` checkerboard sweeps on one simulated
    vault.  Labels, marginals, and entropy are bit-identical to
    :func:`repro.workloads.gibbs.run_gibbs` on the same inputs — the two
    implementations share the seeded per-pixel draw stream.

    ``chip`` is a prebuilt one-vault chip to run on instead of a fresh
    ``Chip(config)``, as in :func:`repro.workloads.bp.run_bpm_on_chip`.
    ``cycles`` is the chip clock when the last phase ends: PE clocks
    accumulate across ``chip.run`` barriers, so on a fresh chip that is
    the whole run's length.
    """
    # Imported here: the kernel generators import this package's data
    # structures, so a module-level import would be circular.
    from repro.kernels.gibbs_kernel import GibbsTileLayout, build_vault_phase_programs

    if chip is None:
        from repro.system.chip import Chip

        config = config or VIPConfig()
        chip = Chip(config, num_pes=config.pes_per_vault)
    layout = GibbsTileLayout(
        rows=mrf.rows,
        cols=mrf.cols,
        labels=mrf.labels,
        num_pes=chip.config.pes_per_vault,
        base=base,
    )
    layout.stage(chip.hmc.store, mrf, seed=seed)

    histogram = np.zeros((mrf.rows, mrf.cols, mrf.labels), dtype=np.int64)
    ii, jj = np.indices((mrf.rows, mrf.cols))
    cycles = 0.0
    labels = None
    for sweep in range(burn_in + samples):
        for parity in (0, 1):
            result = chip.run(build_vault_phase_programs(layout, parity))
            cycles = result.cycles
        if sweep >= burn_in:
            labels = layout.read_labels(chip.hmc.store)
            histogram[ii, jj, labels] += 1

    summary = summarize_histogram(histogram, samples, burn_in)
    summary.last_sample = labels
    return ChipGibbsResult(result=summary, cycles=cycles,
                           sweeps=burn_in + samples, layout=layout)


def quality_gate(
    mrf: GridMRF,
    burn_in: int = 2,
    samples: int = 8,
    seed: int = 0,
    config: VIPConfig | None = None,
    l1_tolerance: float = 0.0,
    agreement_floor: float = 1.0,
) -> dict:
    """Reference-vs-kernel quality gate.

    Both implementations consume the same seeded draw stream, so the
    default tolerances demand exactness: zero marginal L1 and full label
    agreement.  Returns the measured metrics plus the verdict.
    """
    reference = run_gibbs(mrf, burn_in=burn_in, samples=samples, seed=seed)
    on_chip = run_gibbs_on_chip(
        mrf, burn_in=burn_in, samples=samples, seed=seed, config=config
    )
    l1 = marginal_l1(reference.marginals, on_chip.result.marginals)
    agreement = label_agreement(reference.labels, on_chip.result.labels)
    return {
        "marginal_l1": l1,
        "agreement": agreement,
        "exact_draws": bool(
            np.array_equal(reference.last_sample, on_chip.result.last_sample)
        ),
        "mean_entropy": on_chip.result.mean_entropy,
        "cycles": on_chip.cycles,
        "ok": bool(l1 <= l1_tolerance and agreement >= agreement_floor),
    }
