"""Figures 3-5 of the paper, as data series.

Each function returns the series the figure plots (Figures 4 and 5 are
``run_figure4`` and ``run_figure5``); the paper suite prints them and
EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.vector_machine import VariantResult
from repro.perf.extrapolate import (
    BPPerformanceModel,
    CNNPerformanceModel,
    HierarchicalBPModel,
)
from repro.pe.counters import PECounters
from repro.perf.memsweep import SweepPoint
from repro.perf.roofline import Roofline, RooflinePoint, point_from_counters
from repro.reporting import render_series
from repro.workloads.bp.mrf import DIRECTIONS

CLOCK_GHZ = 1.25


@dataclass
class RooflineFigure:
    """One roofline panel: the envelope plus the kernel points."""

    name: str
    roofline: Roofline
    points: list[RooflinePoint]

    def render(self) -> str:
        header = (
            f"{self.name}  (peak {self.roofline.peak_gops:.0f} GOp/s, "
            f"{self.roofline.peak_bandwidth_gbps:.0f} GB/s, knee at "
            f"{self.roofline.knee:.2f} Op/B)"
        )
        rows = [
            (f"{p.name} [{p.bound(self.roofline)}-bound]",
             p.gops)
            for p in self.points
        ]
        body = render_series(header, rows, unit="GOp/s")
        detail = "\n".join(
            f"  {p.name:<12s} AI={p.arithmetic_intensity:8.2f} Op/B   "
            f"{p.gops:8.1f} GOp/s   {100 * p.efficiency(self.roofline):5.1f}% of roof"
            for p in self.points
        )
        return body + detail + "\n"


def figure3a(bp: BPPerformanceModel,
             hier: HierarchicalBPModel) -> RooflineFigure:
    """BP roofline: full-HD and quarter-HD iterations, construct, copy."""
    fhd = bp.measure()
    qhd = hier.coarse.measure()
    h = hier.measure()
    points = []
    for label, result in (("fhd", fhd), ("qhd", qhd)):
        counters = PECounters.sum(result.sweep_counters[d] for d in DIRECTIONS)
        cycles = sum(result.sweep_cycles.values())
        points.append(point_from_counters(label, counters, cycles))
    tiles = bp.grid.tiles_per_vault()
    points.append(
        point_from_counters("fhd cons", h.construct_counters,
                            h.construct_cycles / tiles)
    )
    # Scale single-vault measurements to the full 128-PE machine.
    scaled = [
        RooflinePoint(p.name, p.arithmetic_intensity, p.gops * 32) for p in points
    ]
    return RooflineFigure("Figure 3a: belief propagation roofline",
                          Roofline.for_vip(), scaled)


def _cnn_roofline(batch: int, model: CNNPerformanceModel) -> RooflineFigure:
    points = [
        RooflinePoint(t.name, t.arithmetic_intensity, t.gops)
        for t in model.layer_timings()
    ]
    return RooflineFigure(
        f"Figure 3{'b' if batch == 1 else 'c'}: VGG-16 roofline, batch {batch}",
        Roofline.for_vip(), points,
    )


def figure3b(model: CNNPerformanceModel) -> RooflineFigure:
    """VGG-16 batch-1 roofline (paper Figure 3b)."""
    return _cnn_roofline(1, model)


def figure3c(model: CNNPerformanceModel) -> RooflineFigure:
    """VGG-16 batch-16 roofline (paper Figure 3c)."""
    return _cnn_roofline(16, model)


def render_figure4(results: list[VariantResult]) -> str:
    """Render the Figure 4 runtime series as text."""
    return render_series(
        "Figure 4: BP-M vertical updates on a 64x32 tile",
        [(r.variant, r.time_ms) for r in results],
        unit="ms",
    )


def render_figure5(points: list[SweepPoint]) -> str:
    """Render the Figure 5 bandwidth and runtime series as text."""
    out = []
    for workload in sorted({p.workload for p in points}):
        series = [
            (p.config_name, p.bandwidth_gbps)
            for p in points
            if p.workload == workload
        ]
        out.append(render_series(f"Figure 5 ({workload}): bandwidth (GB/s)", series))
        series_t = [
            (p.config_name, p.time_ms) for p in points if p.workload == workload
        ]
        out.append(render_series(f"Figure 5 ({workload}): runtime (ms)", series_t))
    return "\n".join(out)
