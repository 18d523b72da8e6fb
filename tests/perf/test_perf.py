"""Performance-model tests: requirements, roofline, extrapolation."""

import numpy as np
import pytest

from repro.pe.counters import PECounters
from repro.perf import (
    BPPerformanceModel,
    BPRequirements,
    CNNPerformanceModel,
    HierarchicalBPModel,
    Roofline,
    RooflinePoint,
    point_from_counters,
    prewarm_cnn_models,
    vgg16_conv_gops,
)
from repro.perf import extrapolate
from repro.workloads.cnn import vgg16


class TestRequirements:
    """Section II-A's back-of-envelope numbers."""

    def test_storage_316_mb(self):
        req = BPRequirements()
        assert req.storage_bytes == pytest.approx(316e6, rel=0.05)

    def test_bandwidth_190_gbps(self):
        assert BPRequirements().bandwidth_gibps == pytest.approx(190, rel=0.01)

    def test_compute_892_gops(self):
        assert BPRequirements().compute_gops == pytest.approx(892, rel=0.01)

    def test_vgg16_734_gops_at_24fps(self):
        assert vgg16_conv_gops() == pytest.approx(734, rel=0.01)


class TestRoofline:
    def test_vip_envelope(self):
        roof = Roofline.for_vip()
        assert roof.peak_gops == pytest.approx(1280)
        assert roof.peak_bandwidth_gbps == pytest.approx(320)
        assert roof.knee == pytest.approx(4.0)

    def test_attainable(self):
        roof = Roofline.for_vip()
        assert roof.attainable_gops(1.0) == pytest.approx(320)
        assert roof.attainable_gops(100.0) == pytest.approx(1280)

    @pytest.mark.parametrize("num_pes,gops,gbps", [
        (1, 10, 10),       # a lone PE owns its vault's whole data bus
        (4, 40, 10),       # one full vault
        (5, 50, 20),       # a fifth PE spills into a second vault
        (128, 1280, 320),  # the whole chip
    ])
    def test_pe_subset_scales_bandwidth_by_vaults(self, num_pes, gops, gbps):
        roof = Roofline.for_vip(num_pes=num_pes)
        assert roof.peak_gops == pytest.approx(gops)
        assert roof.peak_bandwidth_gbps == pytest.approx(gbps)

    def test_bound_classification(self):
        roof = Roofline.for_vip()
        assert RooflinePoint("a", 0.5, 100).bound(roof) == "memory"
        assert RooflinePoint("b", 50, 100).bound(roof) == "compute"

    def test_point_from_counters(self):
        counters = PECounters(vector_alu_ops=1250, dram_bytes_read=100,
                              dram_bytes_written=25)
        p = point_from_counters("k", counters, cycles=1250.0)
        assert p.arithmetic_intensity == pytest.approx(10.0)
        assert p.gops == pytest.approx(1.25)  # 1 op/cycle at 1.25 GHz

    def test_efficiency(self):
        roof = Roofline(peak_gops=100, peak_bandwidth_gbps=10)
        assert RooflinePoint("x", 100, 50).efficiency(roof) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def small_bp_model():
    """A small-image BP model (fast to simulate, same machinery)."""
    model = BPPerformanceModel(image_rows=128, image_cols=256, labels=8)
    model.measure()
    return model


class TestBPModel:
    def test_measures_all_directions(self, small_bp_model):
        result = small_bp_model.measure()
        assert set(result.sweep_cycles) == {"down", "up", "right", "left"}
        assert all(c > 0 for c in result.sweep_cycles.values())

    def test_iteration_composition(self, small_bp_model):
        result = small_bp_model.measure()
        lower = sum(result.sweep_cycles.values()) * result.tiles_per_vault
        assert result.iteration_cycles >= lower

    def test_measure_cached(self, small_bp_model):
        assert small_bp_model.measure() is small_bp_model.measure()

    def test_frame_scales_with_iterations(self, small_bp_model):
        r = small_bp_model.measure()
        assert r.frame_ms(8) == pytest.approx(8 * r.iteration_ms)

    def test_hierarchical_phases(self, small_bp_model):
        hier = HierarchicalBPModel(small_bp_model)
        h = hier.measure()
        assert h.construct_cycles > 0
        assert h.copy_cycles > h.construct_cycles * 0.5  # copy moves 4x data
        assert h.coarse_iteration_cycles < h.fine_iteration_cycles


@pytest.fixture(scope="module")
def tiny_cnn_model():
    """VGG-16's machinery exercised through a model instance; layer sims are
    cached so this runs each layer once."""
    return CNNPerformanceModel(vgg16(), batch=1, sim_rows=1, fc_sim_rows=8)


class TestCNNModel:
    def test_all_layers_timed(self, tiny_cnn_model):
        timings = tiny_cnn_model.layer_timings()
        assert len(timings) == len(list(vgg16()))
        assert all(t.cycles > 0 for t in timings)

    def test_kinds_partition(self, tiny_cnn_model):
        kinds = {t.kind for t in tiny_cnn_model.layer_timings()}
        assert kinds == {"conv", "pool", "fc"}

    def test_network_is_sum_of_parts(self, tiny_cnn_model):
        total = tiny_cnn_model.network_ms()
        assert total == pytest.approx(
            tiny_cnn_model.conv_ms() + tiny_cnn_model.fc_ms()
        )

    def test_conv_dominates_vgg(self, tiny_cnn_model):
        assert tiny_cnn_model.conv_ms() > 10 * tiny_cnn_model.fc_ms()

    def test_fc_is_memory_bound(self, tiny_cnn_model):
        roof = Roofline.for_vip()
        for t in tiny_cnn_model.layer_timings():
            if t.kind == "fc":
                assert t.arithmetic_intensity < roof.knee

    def test_conv_layers_near_knee(self, tiny_cnn_model):
        for t in tiny_cnn_model.layer_timings():
            if t.kind == "conv":
                assert 5 < t.arithmetic_intensity < 60

    def test_layer_tasks_are_keyed_by_batch(self, monkeypatch):
        """``layer_timings`` and ``prewarm_cnn_models`` build one task
        set, whose keys name the batch, so two batches of one network
        never share a checkpoint entry (the runner is stubbed: nothing
        is simulated)."""
        keys = []

        def run_tasks(tasks, max_workers=None):
            keys.append([task.key for task in tasks])
            return [None] * len(tasks)

        monkeypatch.setattr(extrapolate, "run_tasks", run_tasks)
        CNNPerformanceModel(vgg16(), batch=1).layer_timings()
        prewarm_cnn_models([CNNPerformanceModel(vgg16(), batch=3)])
        names = [layer.name for layer in vgg16()]
        for batch, got in zip((1, 3), keys):
            assert got == [f"cnn-layer:VGG-16:b{batch}:{i}:{name}"
                           for i, name in enumerate(names)]
