"""Shared state for the benchmark harness.

The expensive extrapolation models are built once per session and shared
across benches; each bench assembles its table or figure from them,
*prints* the reproduced rows/series, which is the deliverable, and
asserts the paper's shape targets.  Nothing here is timed: the speed
gate is ``benchmarks/e2e/run.py``.

Environment knobs:

* ``REPRO_BENCH_FULL=0`` shrinks the BP image and skips the slowest CNN
  batches for a quick smoke run (the printed tables say so).
"""

import os

import pytest

from repro.perf.extrapolate import (
    BPPerformanceModel,
    CNNPerformanceModel,
    HierarchicalBPModel,
)
from repro.workloads.cnn.vgg import vgg16, vgg19

FULL = os.environ.get("REPRO_BENCH_FULL", "1") != "0"


@pytest.fixture(scope="session")
def bp_model():
    if FULL:
        model = BPPerformanceModel()  # full-HD, 16 labels
    else:
        model = BPPerformanceModel(image_rows=270, image_cols=480, labels=8)
    model.measure()
    return model


@pytest.fixture(scope="session")
def hier_model(bp_model):
    model = HierarchicalBPModel(bp_model)
    model.measure()
    return model


@pytest.fixture(scope="session")
def cnn_models():
    """CNNPerformanceModel instances keyed by (network name, batch)."""
    cache = {}

    def get(factory, batch):
        key = (factory().name, batch)
        if key not in cache:
            cache[key] = CNNPerformanceModel(factory(), batch=batch)
            cache[key].layer_timings()
        return cache[key]

    get.vgg16 = lambda batch: get(vgg16, batch)
    get.vgg19 = lambda batch: get(vgg19, batch)
    return get
