"""Convenience API: solve a grid MRF end-to-end on the simulated chip.

Wraps the stage -> sweep x4 -> decode loop that the examples and
integration tests follow, returning both the solution and the simulated
timing.  Suitable for MRFs up to a few thousand vertices (one vault
simulated in detail); for full-HD-scale timing use
:class:`repro.perf.BPPerformanceModel` (the paper's independent-tile
methodology).  This is the one place BP-M sweeps run back to back on a
vault: the kernel harness and the serving cost model call it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.system.config import VIPConfig
from repro.workloads.bp.mrf import DIRECTIONS, GridMRF
from repro.workloads.bp.reference import decode_labels

if TYPE_CHECKING:
    from repro.kernels.bp_kernel import BPTileLayout
    from repro.system.chip import Chip


@dataclass
class ChipBPResult:
    """Solution + simulated cost of an on-chip BP-M run."""

    labels: np.ndarray
    messages: dict[str, np.ndarray]
    cycles: float
    iterations: int
    #: Where the tile was staged in DRAM.
    layout: BPTileLayout

    @property
    def milliseconds(self) -> float:
        return self.cycles / 1.25e9 * 1e3


def run_bpm_on_chip(
    mrf: GridMRF,
    iterations: int = 4,
    messages: dict[str, np.ndarray] | None = None,
    config: VIPConfig | None = None,
    base: int = 4096,
    chip: Chip | None = None,
) -> ChipBPResult:
    """Run ``iterations`` of BP-M on one simulated vault and decode labels.

    The four PEs of a vault execute every directional sweep as generated
    VIP assembly; ``chip.run`` boundaries act as the inter-sweep barrier.
    Messages (and therefore labels) are bit-identical to
    :func:`repro.workloads.bp.run_bpm` on the same inputs.

    ``chip`` is a prebuilt one-vault chip to run on instead of a fresh
    ``Chip(config)``; the kernel harness passes the ``ReferenceChip``
    oracle this way and reads counters, DRAM and scratchpads off it.
    ``cycles`` is the chip clock when the last sweep ends, which on a
    fresh chip is the length of the whole run: ``PE.load`` never resets
    a PE's clock, so each sweep's ``ChipResult.cycles`` already counts
    the sweeps before it.
    """
    # Imported here: the kernel generators themselves import this package's
    # data structures, so a module-level import would be circular.
    from repro.kernels.bp_kernel import (
        BPTileLayout,
        build_vault_sweep_programs,
        cross_extent,
    )

    if chip is None:
        from repro.system.chip import Chip

        config = config or VIPConfig()
        chip = Chip(config, num_pes=config.pes_per_vault)
    pes_per_vault = chip.config.pes_per_vault
    layout = BPTileLayout(base=base, rows=mrf.rows, cols=mrf.cols,
                          labels=mrf.labels)
    layout.stage(chip.hmc.store, mrf, messages or mrf.zero_messages())

    cycles = 0.0
    for _ in range(iterations):
        for direction in DIRECTIONS:
            pes = min(pes_per_vault, cross_extent(layout, direction))
            result = chip.run(build_vault_sweep_programs(layout, direction, pes))
            cycles = result.cycles

    final_messages = layout.read_messages(chip.hmc.store)
    return ChipBPResult(
        labels=decode_labels(mrf, final_messages),
        messages=final_messages,
        cycles=cycles,
        iterations=iterations,
        layout=layout,
    )
