"""Figure-module tests at reduced scale (full scale runs in the paper
suite, ``python -m repro.experiments``)."""

import pytest

from repro.experiments.figures import RooflineFigure, figure3a, render_figure4
from repro.baselines.vector_machine import VariantResult
from repro.perf import BPPerformanceModel, HierarchicalBPModel, Roofline
from repro.perf.roofline import RooflinePoint


@pytest.fixture(scope="module")
def small_models():
    bp = BPPerformanceModel(image_rows=128, image_cols=256, labels=8)
    return bp, HierarchicalBPModel(bp)


class TestFigure3a:
    def test_points_present(self, small_models):
        fig = figure3a(*small_models)
        names = {p.name for p in fig.points}
        assert names == {"fhd", "qhd", "fhd cons"}

    def test_construct_is_memory_bound(self, small_models):
        fig = figure3a(*small_models)
        cons = next(p for p in fig.points if p.name == "fhd cons")
        assert cons.bound(fig.roofline) == "memory"
        assert cons.arithmetic_intensity < 1.0

    def test_render_contains_envelope(self, small_models):
        text = figure3a(*small_models).render()
        assert "1280 GOp/s" in text
        assert "knee" in text

    def test_points_below_roof(self, small_models):
        fig = figure3a(*small_models)
        for p in fig.points:
            assert p.gops <= fig.roofline.attainable_gops(p.arithmetic_intensity) * 1.01


class TestRendering:
    def test_render_figure4(self):
        text = render_figure4([VariantResult("SP+R", 1000.0, 0.0008)])
        assert "SP+R" in text and "64x32" in text

    def test_roofline_figure_dataclass(self):
        fig = RooflineFigure("f", Roofline(100, 10),
                             [RooflinePoint("k", 50.0, 50.0)])
        assert "compute-bound" in fig.render()
