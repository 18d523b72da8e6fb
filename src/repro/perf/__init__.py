"""Performance modeling: requirements, rooflines, extrapolation, sweeps."""

from repro.perf.extrapolate import (
    BPModelResult,
    BPPerformanceModel,
    CNNPerformanceModel,
    HierarchicalBPModel,
    HierarchicalBPResult,
    KernelMeasurement,
    LayerTiming,
    prewarm_cnn_models,
)
from repro.perf.memsweep import SweepPoint, bp_sweep_point, cnn_sweep_point, run_figure5
from repro.perf.requirements import BPRequirements, fc6_weight_bytes, vgg16_conv_gops
from repro.perf.roofline import Roofline, RooflinePoint, point_from_counters
from repro.perf.checkpoint import CheckpointWarning, TaskCheckpoint
from repro.perf.runner import (
    Task,
    TaskResult,
    TaskTimeoutError,
    default_workers,
    run_tasks,
)

__all__ = [
    "BPModelResult",
    "BPPerformanceModel",
    "BPRequirements",
    "CNNPerformanceModel",
    "HierarchicalBPModel",
    "HierarchicalBPResult",
    "KernelMeasurement",
    "LayerTiming",
    "Roofline",
    "RooflinePoint",
    "CheckpointWarning",
    "SweepPoint",
    "Task",
    "TaskCheckpoint",
    "TaskResult",
    "TaskTimeoutError",
    "bp_sweep_point",
    "cnn_sweep_point",
    "default_workers",
    "fc6_weight_bytes",
    "point_from_counters",
    "prewarm_cnn_models",
    "run_figure5",
    "run_tasks",
    "vgg16_conv_gops",
]
