"""Figure 5: memory-parameter sensitivity for BP (a) and VGG-16 (b).

Paper shape targets (Section VI-C): closed page hurts both workloads;
fewer ranks hurts BP badly (9.7 vs 5.2 ms) and the CNN moderately; slower
refresh (refresh 1x) hurts BP more than the CNN; BP prefers narrow rows
while the CNN prefers wide rows.
"""

import os

from repro.experiments import figure5, render_figure5

FULL = os.environ.get("REPRO_BENCH_FULL", "1") != "0"


def bench_figure5():
    workloads = ("bp", "cnn") if FULL else ("bp",)
    points = figure5(workloads)
    print("\n" + render_figure5(points))

    bp = {p.config_name: p.time_ms for p in points if p.workload.startswith("bp")}
    assert bp["closed page"] > bp["open page"], "open page must win for BP"
    assert bp["fewer ranks"] > 1.3 * bp["open page"], \
        "losing bank parallelism must hurt BP badly"
    assert bp["more ranks"] <= bp["open page"] * 1.05
    assert bp["refresh 1x"] >= bp["refresh 2x"] * 0.95, \
        "slower refresh must not help BP"

    if FULL:
        cnn = {p.config_name: p.time_ms for p in points
               if p.workload.startswith("vgg")}
        assert cnn["closed page"] > cnn["open page"]
        # CNNs tolerate refresh changes better than BP (relative deltas).
        bp_refresh_penalty = bp["refresh 1x"] / bp["open page"]
        cnn_refresh_penalty = cnn["refresh 1x"] / cnn["open page"]
        assert cnn_refresh_penalty <= bp_refresh_penalty + 0.05
