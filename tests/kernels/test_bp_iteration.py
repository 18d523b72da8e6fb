"""One BP-M iteration on a vault costs the same cycles wherever it is
measured.

The serving cost model's ``bp`` column, the harness's ``vault-bp-tile``
and :func:`run_bpm_on_chip` all run the four sweep directions back to
back on one chip through the same loop, and report the chip clock when
the last sweep ends.  Table IV's method is independent of that loop: it
times each direction on a fresh chip staged with that sweep's input
messages and adds the four.  The two must agree to within 5%; adding up
the back-to-back runs' end times instead reads about 2.5 times too long.
"""

import pytest

from repro.faults.config import NO_FAULTS
from repro.kernels.bp_kernel import (
    BPTileLayout,
    build_vault_sweep_programs,
    cross_extent,
)
from repro.kernels.harness import run_sim_kernel
from repro.serve.costmodel import _fault_injector, _geometry, measure_shape
from repro.system.chip import Chip
from repro.system.config import VIPConfig
from repro.workloads.bp import run_bpm_on_chip, stereo_mrf
from repro.workloads.bp.mrf import DIRECTIONS
from repro.workloads.bp.reference import sweep


def _faults(degraded: bool):
    """A fresh injector: the cost model's degraded profile, or none."""
    return _fault_injector(0) if degraded else NO_FAULTS


def _fresh_chip_sweeps(mrf) -> float:
    """The four sweep directions, each on a fresh chip staged with the
    messages that sweep reads, their cycles added up."""
    messages = mrf.zero_messages()
    total = 0.0
    for direction in DIRECTIONS:
        config = VIPConfig()
        chip = Chip(config, num_pes=config.pes_per_vault)
        layout = BPTileLayout(base=4096, rows=mrf.rows, cols=mrf.cols,
                              labels=mrf.labels)
        layout.stage(chip.hmc.store, mrf, messages)
        pes = min(config.pes_per_vault, cross_extent(layout, direction))
        total += chip.run(
            build_vault_sweep_programs(layout, direction, pes)).cycles
        sweep(mrf, messages, direction)
    return total


@pytest.mark.parametrize("degraded", [False, True],
                         ids=["healthy", "degraded"])
@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_bp_iteration_cycles_match_an_independent_run(quick, degraded):
    g = _geometry("bp", quick)
    mrf, _ = stereo_mrf(g["rows"], g["cols"], labels=g["labels"], seed=7)
    iteration = run_bpm_on_chip(
        mrf, iterations=1, config=VIPConfig(faults=_faults(degraded)))
    shape = measure_shape("bp", 1, quick, degraded, seed=0)
    kernel = run_sim_kernel("vault-bp-tile", quick=quick,
                            faults=_faults(degraded))
    assert shape["cycles"] == iteration.cycles
    assert kernel.cycles == iteration.cycles
    if not degraded:
        independent = _fresh_chip_sweeps(mrf)
        assert iteration.cycles == pytest.approx(independent, rel=0.05)
