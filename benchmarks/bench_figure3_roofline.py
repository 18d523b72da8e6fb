"""Figure 3: roofline plots for BP (a) and VGG-16 at batch 1 (b) and 16 (c).

Paper shape targets: BP kernels sit near the knee (construct near the
memory roof); conv layers near the knee with c1_1 and c5 below peak; pool
layers memory-bound near the roof; fc6 near the roof at batch 1, moving
toward the knee at batch 16.
"""

from repro.experiments import figure3a, figure3b, figure3c


def bench_figure3a(bp_model, hier_model):
    fig = figure3a(bp_model, hier_model)
    print("\n" + fig.render())
    by_name = {p.name: p for p in fig.points}
    # BP iterations near the knee; construct memory-bound with low AI.
    assert 1.0 < by_name["fhd"].arithmetic_intensity < 10
    assert by_name["fhd cons"].arithmetic_intensity < by_name["fhd"].arithmetic_intensity
    assert by_name["fhd cons"].bound(fig.roofline) == "memory"


def bench_figure3b(cnn_models):
    fig = figure3b(cnn_models.vgg16(1))
    print("\n" + fig.render())
    by_name = {p.name: p for p in fig.points}
    # Pool layers memory-bound; the big ones near the roof (p5's 14x14
    # features run on a fraction of the machine, so it sits lower — as in
    # the paper, where p5 is also the lowest pool point).
    for name in ("p3", "p4", "p5"):
        assert by_name[name].bound(fig.roofline) == "memory"
    for name in ("p3", "p4"):
        assert by_name[name].efficiency(fig.roofline) > 0.5
    # Conv layers near the knee; the bulk achieve a solid roof fraction.
    assert by_name["c3_2"].efficiency(fig.roofline) > 0.5
    # fc8 below fc6 (data movement overheads grow for later fc layers).
    assert by_name["fc8"].gops <= by_name["fc6"].gops * 1.2


def bench_figure3c(cnn_models):
    fig = figure3c(cnn_models.vgg16(16))
    print("\n" + fig.render())
    by_name_16 = {p.name: p for p in fig.points}
    by_name_1 = {p.name: p for p in figure3b(cnn_models.vgg16(1)).points}
    # Batching raises the fc layers' arithmetic intensity (paper: the fc
    # layers move toward the knee at batch 16).
    for name in ("fc6", "fc7", "fc8"):
        assert by_name_16[name].arithmetic_intensity > by_name_1[name].arithmetic_intensity
