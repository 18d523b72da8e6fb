"""The paper suite: every table and figure of the evaluation, printed and
checked.

``python -m repro.experiments [--quick] [ID ...]`` computes each named
experiment (all of :data:`REGISTRY` when none is named) on one set of
models, prints its block and checks the paper's shape claims on it.
``--quick`` shrinks BP-M to 270x480 with 8 labels and runs Figure 5 on
BP only; the claims that hold only at full size are then not checked.
Exit status: 0 when every claim holds, 2 (one ``error: config:`` line)
for an unknown id, 3 when a claim fails, naming it on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

from repro.baselines import (
    eyeriss_scaled_time_ms,
    run_figure4,
    vip_summary,
    volta_area_ratio,
)
from repro.experiments.figures import (
    RooflineFigure,
    figure3a,
    figure3b,
    figure3c,
    render_figure4,
    render_figure5,
)
from repro.experiments.tables import (
    Table4Row,
    render_table4,
    table1,
    table2,
    table3,
    table4_cnn,
    table4_mrf,
)
from repro.perf.extrapolate import (
    BPPerformanceModel,
    CNNPerformanceModel,
    HierarchicalBPModel,
)
from repro.perf.memsweep import run_figure5
from repro.reporting import render_series
from repro.workloads.cnn.vgg import vgg16, vgg19

Claims = Iterable[tuple[str, bool]]


class Models(NamedTuple):
    """The models one run shares, each caching what it simulates."""

    quick: bool
    bp: BPPerformanceModel
    hier: HierarchicalBPModel
    #: VGG-16 at batches 1, 3 and 16 and VGG-19 at batch 1, keyed by
    #: (network name, batch) as :func:`table4_cnn` keys them.
    cnn: dict


def build_models(quick: bool = False) -> Models:
    """Build, without simulating, the models of one run."""
    bp = (BPPerformanceModel(image_rows=270, image_cols=480, labels=8)
          if quick else BPPerformanceModel())
    cnn = {(net().name, batch): CNNPerformanceModel(net(), batch=batch)
           for net, batch in ((vgg16, 1), (vgg16, 3), (vgg16, 16),
                              (vgg19, 1))}
    return Models(quick, bp, HierarchicalBPModel(bp), cnn)


@dataclass(frozen=True)
class Experiment:
    """One table or figure: how a run computes it, the block it prints
    and the paper's shape claims on it, each a (claim, holds) pair."""

    description: str
    compute: Callable[[Models], Any]
    render: Callable[[Any], str]
    claims: Callable[[Any], Claims]

    def failures(self, result) -> list[str]:
        """The claims that do not hold on ``result``."""
        return [claim for claim, holds in self.claims(result) if not holds]


class MRFBlock(NamedTuple):
    """Table IV's MRF rows, VIP's BP-M phase times (ms), image height."""

    rows: list[Table4Row]
    phases: list[tuple[str, float]]
    image_rows: int


def _table4_mrf(models: Models) -> MRFBlock:
    rows = table4_mrf(models.bp, models.hier)
    result, h = models.bp.measure(), models.hier.measure()
    phases = [("iteration", result.iteration_ms),
              ("construct", h.construct_ms),
              ("copy", h.copy_ms),
              ("coarse iter", h.coarse_iteration_ms)]
    return MRFBlock(rows, phases, models.bp.grid.image_rows)


def _render_table4_mrf(block: MRFBlock) -> str:
    return (render_table4(block.rows, "Table IV: Markov random fields")
            + "\n"
            + render_series("VIP BP-M phase breakdown (paper: iter 5.2 ms, "
                            "construct 0.36, copy 1.26, coarse iter 1.8)",
                            block.phases, unit="ms")
            + f"\nsilicon: {vip_summary()}\n")


def _table4_mrf_claims(block: MRFBlock) -> Claims:
    vip = next(r for r in block.rows if r.system == "VIP (baseline BP-M)")
    titan = next(r for r in block.rows if r.system == "Pascal Titan X")
    yield "VIP beats the Titan X on BP-M", vip.time_ms < titan.time_ms
    if block.image_rows == 1080:
        yield ("VIP runs full-HD BP-M within 25% of the 24 fps budget",
               vip.time_ms < 1000 / 24 * 1.25)
        hier = next(r for r in block.rows if "hierarchical" in r.system)
        yield "hierarchical BP-M beats baseline", hier.time_ms < vip.time_ms


def _render_table4_cnn(rows: list[Table4Row]) -> str:
    return (render_table4(rows, "Table IV: convolutional neural networks")
            + f"\nVolta normalized-area ratio: {volta_area_ratio():.0f}x "
            "(paper: ~250x)\n")


def _table4_cnn_claims(rows: list[Table4Row]) -> Claims:
    vip = {(r.workload, r.detail): r.time_ms for r in rows
           if r.system == "VIP"}
    b1 = vip["vgg16-full", "batch 1, simulated"]
    b16 = vip["vgg16-full", "batch 16, simulated"]
    jetson = next(r.time_ms for r in rows if r.system == "Jetson TX2")
    # The paper reports VIP within 10% of the Eyeriss-scaled projection;
    # the simulator is modestly slower.
    yield ("VIP's VGG-16 conv layers at batch 3 run within 1.5x of "
           "Eyeriss-scaled",
           vip["vgg16-conv", "batch 3, simulated"]
           / eyeriss_scaled_time_ms() < 1.5)
    yield "VIP runs VGG-16 at batch 1 in under 50 ms (near 24 fps)", b1 < 50
    yield ("VGG-16 at batch 16 takes 10x to 20x batch 1 (no batching "
           "needed)", 10 < b16 / b1 < 20)
    yield ("VIP runs VGG-19 at batch 1 within 1.5x of the Jetson TX2",
           vip["vgg19-full", "batch 1, simulated"] < 1.5 * jetson)


def _figure3a_claims(fig: RooflineFigure) -> Claims:
    p = {point.name: point for point in fig.points}
    yield ("the full-HD BP-M iteration sits near the knee (1 to 10 Op/B)",
           1.0 < p["fhd"].arithmetic_intensity < 10)
    yield ("construct has a lower arithmetic intensity than the iteration",
           p["fhd cons"].arithmetic_intensity < p["fhd"].arithmetic_intensity)
    yield "construct is memory-bound", \
        p["fhd cons"].bound(fig.roofline) == "memory"


def _figure3b_claims(fig: RooflineFigure) -> Claims:
    p = {point.name: point for point in fig.points}
    # p5's 14x14 features run on a fraction of the machine, so it sits
    # lower, as in the paper, where p5 is also the lowest pool point.
    for name in ("p3", "p4", "p5"):
        yield (f"{name} is memory-bound",
               p[name].bound(fig.roofline) == "memory")
    for name in ("p3", "p4"):
        yield (f"{name} reaches over half its roof",
               p[name].efficiency(fig.roofline) > 0.5)
    yield ("c3_2 reaches over half its roof",
           p["c3_2"].efficiency(fig.roofline) > 0.5)
    # Data movement overheads grow for the later fc layers.
    yield "fc8 runs at most 1.2x fc6's rate", \
        p["fc8"].gops <= p["fc6"].gops * 1.2


def _figure3c_claims(figs: tuple[RooflineFigure, RooflineFigure]) -> Claims:
    """``figs`` is (batch 16, batch 1): batching moves the fc layers
    toward the knee."""
    b16, b1 = ({point.name: point for point in fig.points} for fig in figs)
    for name in ("fc6", "fc7", "fc8"):
        yield (f"batch 16 raises {name}'s arithmetic intensity",
               b16[name].arithmetic_intensity > b1[name].arithmetic_intensity)


def _figure4_claims(results) -> Claims:
    t = {r.variant: r.time_ms for r in results}
    yield ("the reduction unit must help the scratchpad machine",
           t["SP+R"] < t["SP-R"])
    yield "the reduction unit must help the RF machine", t["RF+R"] < t["RF-R"]
    yield ("the scratchpad must beat the register file (+R)",
           t["SP+R"] < t["RF+R"])
    yield ("the scratchpad must beat the register file (-R)",
           t["SP-R"] < t["RF-R"])
    yield "SP+R (VIP) is the fastest", min(t.values()) == t["SP+R"]


def _figure5_claims(points) -> Claims:
    bp = {p.config_name: p.time_ms for p in points
          if p.workload.startswith("bp")}
    yield "open page must win for BP", bp["closed page"] > bp["open page"]
    yield ("losing bank parallelism must hurt BP badly",
           bp["fewer ranks"] > 1.3 * bp["open page"])
    yield ("more ranks must not slow BP by over 5%",
           bp["more ranks"] <= bp["open page"] * 1.05)
    yield ("slower refresh must not help BP",
           bp["refresh 1x"] >= bp["refresh 2x"] * 0.95)
    cnn = {p.config_name: p.time_ms for p in points
           if p.workload.startswith("vgg")}
    if cnn:
        yield ("open page must win for the CNN",
               cnn["closed page"] > cnn["open page"])
        yield ("the CNN must tolerate refresh changes better than BP",
               cnn["refresh 1x"] / cnn["open page"]
               <= bp["refresh 1x"] / bp["open page"] + 0.05)


#: Experiment id -> the table or figure and how it is checked.
REGISTRY = {
    "table1": Experiment(
        "qualitative platform overview", lambda m: table1(), str,
        lambda text: [("Table I lists VIP", "VIP" in text)]),
    "table2": Experiment(
        "VIP ISA summary", lambda m: table2(), str,
        lambda text: [(
            "Table II lists the matrix-vector group",
            "m.v.{mul,add,sub,min,max,nop}.{add,min,max}" in text)]),
    "table3": Experiment(
        "memory simulation parameters", lambda m: table3(), str,
        lambda text: [("Table III's peak bandwidth is 320 GB/s",
                       "320 GB/s" in text)]),
    "table4-mrf": Experiment(
        "BP-M performance summary", _table4_mrf, _render_table4_mrf,
        _table4_mrf_claims),
    "table4-cnn": Experiment(
        "VGG performance summary", lambda m: table4_cnn(m.cnn),
        _render_table4_cnn, _table4_cnn_claims),
    "figure3a": Experiment(
        "BP roofline", lambda m: figure3a(m.bp, m.hier),
        RooflineFigure.render, _figure3a_claims),
    "figure3b": Experiment(
        "VGG-16 batch-1 roofline", lambda m: figure3b(m.cnn["VGG-16", 1]),
        RooflineFigure.render, _figure3b_claims),
    "figure3c": Experiment(
        "VGG-16 batch-16 roofline",
        lambda m: (figure3c(m.cnn["VGG-16", 16]),
                   figure3b(m.cnn["VGG-16", 1])),
        lambda figs: figs[0].render(), _figure3c_claims),
    "figure4": Experiment(
        "scratchpad/reduction ablation", lambda m: run_figure4(),
        render_figure4, _figure4_claims),
    "figure5": Experiment(
        "memory parameter sensitivity",
        lambda m: run_figure5(("bp",) if m.quick else ("bp", "cnn")),
        render_figure5, _figure5_claims),
}


def run(ids: Iterable[str], quick: bool = False) -> list[str]:
    """Compute, print and check each experiment of ``ids`` on one set of
    models; returns the failed claims as ``"<id>: <claim>"``."""
    models = build_models(quick)
    failed = []
    for eid in ids:
        experiment = REGISTRY[eid]
        result = experiment.compute(models)
        print("\n" + experiment.render(result), flush=True)
        failed += [f"{eid}: {claim}" for claim in experiment.failures(result)]
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Print the paper's tables and figures and check its "
        "shape claims on them.")
    parser.add_argument("--quick", action="store_true",
                        help="BP-M at 270x480x8, Figure 5 on BP only")
    parser.add_argument("ids", nargs="*", metavar="ID", help="default: all; "
                        + "; ".join(f"{eid} ({e.description})"
                                    for eid, e in REGISTRY.items()))
    args = parser.parse_args(argv)
    unknown = [eid for eid in args.ids if eid not in REGISTRY]
    if unknown:
        print(f"error: config: unknown experiment {', '.join(unknown)} "
              f"(known: {', '.join(REGISTRY)})", file=sys.stderr)
        return 2
    failed = run(args.ids or REGISTRY, args.quick)
    for claim in failed:
        print(f"check failed: {claim}", file=sys.stderr)
    return 3 if failed else 0
