"""Batched inference serving over a multi-chip VIP fleet.

The layer the ROADMAP's "heavy traffic" north star needs above the chip
simulator: an open-loop workload generator (:mod:`~repro.serve.workload`),
admission control (:mod:`~repro.serve.queueing`), dynamic batching
(:mod:`~repro.serve.batcher`), measured batch service times
(:mod:`~repro.serve.costmodel`), a pluggable-policy fleet scheduler
(:mod:`~repro.serve.fleet`), and latency/throughput rollups
(:mod:`~repro.serve.metrics`) behind a ``python -m repro.serve`` CLI
(:mod:`~repro.serve.cli`).

Robustness: a seeded chip failure lifecycle
(:mod:`~repro.serve.failures`) can be injected into the fleet, and the
scheduler defends with health checks, circuit breakers, bounded
retries, hedging, and load-shedding tiers
(:mod:`~repro.serve.resilience`).  Serving *behavior* is pluggable:
decision-tree policies (:mod:`~repro.serve.policy`) override the
schedule/shed/retry/hedge slots declaratively, a deterministic
simulated autoscaler (:mod:`~repro.serve.autoscale`) grows and drains
the fleet under load and failures, and the chaos harness
(:mod:`~repro.serve.chaos`) sweeps the failure × policy × autoscaler
matrix asserting structural invariants on every run.
"""

from repro.serve.autoscale import Autoscaler, AutoscaleConfig, ScaleEvent
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.failures import (
    FAILURE_KINDS,
    ChipFailureTimeline,
    FailureConfig,
    FailureWindow,
    scripted_timeline,
)
from repro.serve.costmodel import (
    ServiceCostTable,
    build_cost_table,
    fc_max_batch,
    measure_shape,
    required_shapes,
)
from repro.serve.fleet import (
    OUTCOMES,
    POLICIES,
    BatchRecord,
    ChipState,
    EntryTable,
    FleetResult,
    FleetSimulator,
    RecordTable,
    RequestRecord,
    ServeConfig,
)
from repro.serve.policy import (
    SCHEDULE_PRIMITIVES,
    PolicyEngine,
    PolicySet,
    builtin_tree,
    compile_tree,
    list_policies,
    load_policy,
    policy_from_document,
)
from repro.serve.metrics import (
    ServeMetrics,
    chip_utilization,
    compute_metrics,
    percentile,
)
from repro.serve.queueing import SHED_POLICIES, Admission, AdmissionQueue
from repro.serve.resilience import (
    DEFAULT_RESILIENCE,
    CircuitBreaker,
    HealthMonitor,
    ResilienceConfig,
)
from repro.serve.report import (
    ServeRun,
    run_report,
    run_serve,
    write_csv,
    write_json,
)
from repro.serve.workload import (
    ARRIVALS,
    KINDS,
    MIXES,
    Request,
    WorkloadConfig,
    generate_requests,
)

__all__ = [
    "ARRIVALS",
    "Admission",
    "AdmissionQueue",
    "AutoscaleConfig",
    "Autoscaler",
    "Batch",
    "BatchRecord",
    "ChipFailureTimeline",
    "ChipState",
    "CircuitBreaker",
    "DEFAULT_RESILIENCE",
    "DynamicBatcher",
    "FAILURE_KINDS",
    "EntryTable",
    "FailureConfig",
    "FailureWindow",
    "FleetResult",
    "FleetSimulator",
    "HealthMonitor",
    "KINDS",
    "MIXES",
    "OUTCOMES",
    "POLICIES",
    "PolicyEngine",
    "PolicySet",
    "RecordTable",
    "Request",
    "RequestRecord",
    "ResilienceConfig",
    "SCHEDULE_PRIMITIVES",
    "SHED_POLICIES",
    "ScaleEvent",
    "ServeConfig",
    "ServeMetrics",
    "ServeRun",
    "ServiceCostTable",
    "WorkloadConfig",
    "build_cost_table",
    "builtin_tree",
    "chip_utilization",
    "compile_tree",
    "compute_metrics",
    "fc_max_batch",
    "generate_requests",
    "list_policies",
    "load_policy",
    "measure_shape",
    "percentile",
    "policy_from_document",
    "required_shapes",
    "run_report",
    "run_serve",
    "scripted_timeline",
    "write_csv",
    "write_json",
]
