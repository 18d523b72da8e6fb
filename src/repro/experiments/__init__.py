"""The paper's tables and figures, and the suite that checks them."""

from repro.experiments.figures import (
    RooflineFigure,
    figure3a,
    figure3b,
    figure3c,
    render_figure4,
    render_figure5,
)
from repro.experiments.suite import REGISTRY, main
from repro.experiments.tables import (
    Table4Row,
    render_table4,
    table1,
    table2,
    table3,
    table4_cnn,
    table4_mrf,
)

__all__ = [
    "REGISTRY",
    "RooflineFigure",
    "Table4Row",
    "figure3a",
    "figure3b",
    "figure3c",
    "main",
    "render_figure4",
    "render_figure5",
    "render_table4",
    "table1",
    "table2",
    "table3",
    "table4_cnn",
    "table4_mrf",
]
