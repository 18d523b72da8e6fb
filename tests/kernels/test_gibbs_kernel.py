"""VIP Gibbs kernel tests: layout validation, staging, bit-exactness."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels.gibbs_kernel import GibbsTileLayout, build_phase_program
from repro.system.chip import Chip
from repro.system.config import VIPConfig
from repro.workloads.bp import stereo_mrf
from repro.workloads.bp.mrf import GridMRF, potts_smoothness
from repro.workloads.gibbs import (
    init_labels,
    init_states,
    quality_gate,
    run_gibbs,
    run_gibbs_on_chip,
)


class TestLayout:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            GibbsTileLayout(rows=0, cols=4, labels=4)
        with pytest.raises(ConfigError):
            GibbsTileLayout(rows=4, cols=4, labels=5)
        with pytest.raises(ConfigError):
            GibbsTileLayout(rows=4, cols=4, labels=4, num_pes=0)
        with pytest.raises(ConfigError):
            build_phase_program(
                GibbsTileLayout(rows=4, cols=4, labels=4), 0, parity=2
            )

    def test_regions_are_disjoint_and_aligned(self):
        lay = GibbsTileLayout(rows=5, cols=7, labels=8, num_pes=4)
        edges = [lay.smooth_base, lay.theta_base, lay.labels_base,
                 lay.states_base, lay.cond_base, lay.end]
        assert edges == sorted(edges)
        # 8-byte regions (labels/states/cond scratch) need alignment.
        assert lay.labels_base % 8 == 0
        assert lay.states_base % 8 == 0
        assert lay.cond_base % 8 == 0
        assert lay.cond_stride % 8 == 0

    def test_stage_validates(self):
        lay = GibbsTileLayout(rows=4, cols=4, labels=4)
        chip = Chip(VIPConfig(), num_pes=4)
        mrf, _ = stereo_mrf(4, 5, labels=4)  # wrong cols
        with pytest.raises(ConfigError):
            lay.stage(chip.hmc.store, mrf)
        bad = GridMRF(np.full((4, 4, 4), -2, np.int16), potts_smoothness(4))
        with pytest.raises(ConfigError):
            lay.stage(chip.hmc.store, bad)

    def test_stage_round_trip(self):
        mrf, _ = stereo_mrf(4, 6, labels=4, seed=3)
        lay = GibbsTileLayout(rows=4, cols=6, labels=4)
        chip = Chip(VIPConfig(), num_pes=4)
        lay.stage(chip.hmc.store, mrf, seed=11)
        assert np.array_equal(lay.read_labels(chip.hmc.store), init_labels(mrf))
        assert np.array_equal(
            lay.read_states(chip.hmc.store), init_states(4, 6, seed=11)
        )


class TestBitExactness:
    @pytest.mark.parametrize(
        "rows,cols,labels",
        [
            (6, 7, 4),   # odd cols: uneven checkerboard phases
            (5, 4, 8),   # rows not divisible by num_pes: uneven strips
        ],
    )
    def test_quality_gate_is_exact(self, rows, cols, labels):
        mrf, _ = stereo_mrf(rows, cols, labels=labels, seed=5)
        gate = quality_gate(mrf, burn_in=1, samples=3, seed=0)
        assert gate["ok"]
        assert gate["exact_draws"]
        assert gate["marginal_l1"] == 0.0
        assert gate["agreement"] == 1.0

    def test_chip_matches_reference_across_seeds(self):
        mrf, _ = stereo_mrf(6, 6, labels=4, seed=2)
        for seed in (0, 7):
            ref = run_gibbs(mrf, burn_in=1, samples=2, seed=seed)
            chip = run_gibbs_on_chip(mrf, burn_in=1, samples=2, seed=seed)
            assert np.array_equal(ref.last_sample, chip.result.last_sample)
            assert np.array_equal(ref.marginals, chip.result.marginals)
        assert chip.cycles > 0
        assert chip.milliseconds > 0

    def test_matches_reference_interpreter(self):
        from repro.pe.reference import ReferenceChip

        mrf, _ = stereo_mrf(6, 6, labels=4, seed=1)
        run = run_gibbs_on_chip(mrf, burn_in=1, samples=2, seed=0)
        config = VIPConfig()
        reference = run_gibbs_on_chip(
            mrf, burn_in=1, samples=2, seed=0,
            chip=ReferenceChip(config, num_pes=config.pes_per_vault))
        assert np.array_equal(run.result.last_sample,
                              reference.result.last_sample)
        assert np.array_equal(run.result.marginals, reference.result.marginals)
        assert run.cycles == reference.cycles

    def test_emits_trace_events(self):
        """Gibbs rides the standard instrumentation: a traced run emits
        PE instruction and memory events with no kernel-side changes."""
        from repro.trace import TraceCollector

        tc = TraceCollector()
        mrf, _ = stereo_mrf(4, 4, labels=4, seed=0)
        run_gibbs_on_chip(mrf, burn_in=0, samples=1, seed=0,
                          config=VIPConfig(trace=tc))
        kinds = {e.kind for e in tc.events}
        assert "instr" in kinds
        assert "mem" in kinds
        assert any(e.pe is not None for e in tc.events)

    def test_degraded_chip_still_completes(self):
        """Fault injection may corrupt draws, never crash the kernel: the
        neighbor-label mask keeps smoothness lookups in range, so the
        degraded quality column is measurable."""
        from repro.faults import FaultConfig, FaultInjector

        mrf, _ = stereo_mrf(6, 6, labels=4, seed=0)
        injector = FaultInjector(FaultConfig(seed=3, dram_read_flip_rate=1e-6))
        degraded = run_gibbs_on_chip(
            mrf, burn_in=1, samples=3, seed=0,
            config=VIPConfig(faults=injector),
        )
        r = degraded.result
        assert r.marginals.shape == (6, 6, 4)
        assert np.allclose(r.marginals.sum(axis=2), 1.0)
        assert (r.labels >= 0).all() and (r.labels < 4).all()
