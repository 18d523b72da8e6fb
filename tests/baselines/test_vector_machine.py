"""Figure 4 variant-kernel tests (small tiles for speed)."""

import numpy as np
import pytest

from repro.baselines.vector_machine import (
    VARIANTS,
    SeparateArrayLayout,
    build_variant_program,
    run_figure4,
)
from repro.errors import ConfigError
from repro.kernels.common import split_evenly
from repro.system import Chip
from repro.workloads.bp.mrf import DIRECTIONS, GridMRF, truncated_linear_smoothness
from repro.workloads.bp.reference import sweep


@pytest.fixture
def tile(rng):
    rows, cols, labels = 8, 16, 8
    mrf = GridMRF(rng.integers(0, 50, (rows, cols, labels)).astype(np.int16),
                  truncated_linear_smoothness(labels, weight=8, truncation=2))
    messages = {d: rng.integers(0, 16, (rows, cols, labels)).astype(np.int16)
                for d in DIRECTIONS}
    return mrf, messages


@pytest.mark.parametrize("variant", ["RF+R", "RF-R"])
def test_rf_variants_bit_exact(tile, variant):
    mrf, messages = tile
    layout = SeparateArrayLayout(base=4096, rows=mrf.rows, cols=mrf.cols,
                                 labels=mrf.labels)
    chip = Chip(num_pes=2)
    layout.stage(chip.hmc.store, mrf, messages)
    programs = [build_variant_program(layout, variant, start, count)
                for start, count in split_evenly(mrf.cols, 2)]
    chip.run(programs)
    reference = {d: m.copy() for d, m in messages.items()}
    sweep(mrf, reference, "down")
    assert np.array_equal(layout.read_message(chip.hmc.store, "down"),
                          reference["down"])


def test_rf_needs_groups_of_eight(tile):
    mrf, _ = tile
    layout = SeparateArrayLayout(base=4096, rows=8, cols=16, labels=8)
    with pytest.raises(ConfigError):
        build_variant_program(layout, "RF+R", 0, 12)


def test_unknown_variant_rejected():
    layout = SeparateArrayLayout(base=4096, rows=8, cols=8, labels=8)
    with pytest.raises(ConfigError):
        build_variant_program(layout, "SP++", 0, 8)


@pytest.mark.parametrize("variant", ["SP-R", "SP+R"])
def test_scratchpad_variants_run_the_vip_kernel(variant):
    """Only the RF variants are restricted code; SP-R and SP+R run
    ``build_sweep_program`` in ``run_figure4``."""
    layout = SeparateArrayLayout(base=4096, rows=8, cols=8, labels=8)
    with pytest.raises(ConfigError, match="build_sweep_program"):
        build_variant_program(layout, variant, 0, 8)


def test_figure4_ordering_small_tile():
    """The reduction-unit claim on a fast, reduced-size run; at this tiny
    scale SP and RF are within startup noise of each other, so the
    scratchpad-vs-RF ordering is checked only at the paper's full tile
    size (``python -m repro.experiments figure4``)."""
    results = {r.variant: r.time_ms for r in run_figure4(rows=8, cols=32, labels=8)}
    assert results["SP+R"] < results["SP-R"]
    assert results["RF+R"] < results["RF-R"]
    assert results["SP+R"] < 1.1 * results["RF+R"]
