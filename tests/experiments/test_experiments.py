"""Experiment-module tests (fast paths: descriptive tables + registry;
the heavy simulations are covered by the paper suite, ``python -m
repro.experiments``, and by small-scale model tests in tests/perf)."""

import pytest

from repro.experiments import (
    REGISTRY,
    main,
    render_table4,
    table1,
    table2,
    table3,
    table4_cnn,
    table4_mrf,
)
from repro.experiments import suite, tables
from repro.experiments.tables import Table4Row
from repro.perf import BPPerformanceModel, HierarchicalBPModel


class TestDescriptiveTables:
    def test_table1_contains_all_platforms(self):
        text = table1()
        for platform in ("CPU", "GPU", "FPGA", "Tile-BP", "Eyeriss", "TPU", "VIP"):
            assert platform in text

    def test_table2_covers_isa_groups(self):
        text = table2()
        for group in ("Matrix-vector", "Vector-vector", "Scalar ALU",
                      "Load-store", "Control"):
            assert group in text

    def test_table3_lists_timing_parameters(self):
        text = table3()
        for param in ("tCK", "tCL", "tRFC", "tREFI", "open-page"):
            assert param in text

    def test_registry_complete(self):
        for key in ("table1", "table2", "table3", "table4-mrf", "table4-cnn",
                    "figure3a", "figure3b", "figure3c", "figure4", "figure5"):
            assert key in REGISTRY
            experiment = REGISTRY[key]
            assert experiment.description
            assert callable(experiment.compute)
            assert callable(experiment.render)
            assert callable(experiment.claims)


class TestTable4:
    @pytest.fixture(scope="class")
    def small_models(self):
        bp = BPPerformanceModel(image_rows=128, image_cols=256, labels=8)
        return bp, HierarchicalBPModel(bp)

    def test_mrf_block_structure(self, small_models):
        bp, hier = small_models
        rows = table4_mrf(bp, hier)
        systems = [r.system for r in rows]
        assert "VIP (baseline BP-M)" in systems
        assert "VIP (hierarchical BP-M)" in systems
        assert "Pascal Titan X" in systems
        assert all(r.time_ms > 0 for r in rows)

    def test_sources_labeled(self, small_models):
        rows = table4_mrf(*small_models)
        assert {r.source for r in rows} <= {"published", "model", "simulated"}

    def test_render(self, small_models):
        text = render_table4(table4_mrf(*small_models), "Table IV test")
        assert "Time (ms)" in text

    def test_row_dataclass(self):
        row = Table4Row("s", "w", "d", 1.0, None, None, None, "model")
        assert row.power_w is None

    def test_cnn_block_fills_the_callers_empty_cache(self, monkeypatch):
        """A caller passing ``{}`` gets back every model the block built,
        and a second call reuses them; the models and their warm-up are
        stubbed, so nothing is simulated."""
        class Stub:
            def __init__(self, network, batch):
                self.network, self.batch = network, batch

            def conv_ms(self):
                return 100.0 + self.batch

            def network_ms(self):
                per_image = {"VGG-16": 10.0, "VGG-19": 12.0}
                return per_image[self.network.name] * self.batch

        warmed = []
        monkeypatch.setattr(tables, "CNNPerformanceModel", Stub)
        monkeypatch.setattr(tables, "prewarm_cnn_models",
                            lambda models, max_workers=None:
                            warmed.append(models))
        cache = {}
        rows = table4_cnn(cache)
        keys = [("VGG-16", 3), ("VGG-16", 16), ("VGG-16", 1), ("VGG-19", 1)]
        assert list(cache) == keys
        assert warmed == [[cache[key] for key in keys]]
        vip = {(r.workload, r.detail): r.time_ms for r in rows
               if r.system == "VIP"}
        assert vip == {("vgg16-conv", "batch 3, simulated"): 103.0,
                       ("vgg16-full", "batch 16, simulated"): 160.0,
                       ("vgg16-full", "batch 1, simulated"): 10.0,
                       ("vgg19-full", "batch 1, simulated"): 12.0}
        built = dict(cache)
        table4_cnn(cache)
        assert all(cache[key] is built[key] for key in keys)
        assert warmed[1] == warmed[0]


class TestRegistryTargets:
    def test_the_command_line_runs_every_id(self, monkeypatch):
        """Every registry id is a target of ``python -m repro.experiments``,
        and no id runs them all in registry order (the run itself is
        stubbed)."""
        ran = []
        monkeypatch.setattr(suite, "run",
                            lambda ids, quick: ran.append(list(ids)) or [])
        assert main(list(REGISTRY)) == 0
        assert main([]) == 0
        assert ran == [list(REGISTRY)] * 2
