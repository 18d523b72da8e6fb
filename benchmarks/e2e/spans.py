"""Per-layer host time, measured from outside the simulator.

:class:`SpanTracer` installs timing wrappers on public callables of the
``repro`` package and keeps a stack of open spans, so every wrapped call
knows how much of its duration its wrapped children covered.  A span's
*self time* is its duration minus that share; a layer's self time is the
sum over its spans.  Because every second of the traced window lands in
exactly one open span's self time, layer self times plus the harness's
own root spans add up to the traced wall clock, which
:func:`layer_metrics` checks.

Fine spans (one per PE instruction, vault access, ...) are aggregated in
memory as count/total/self per span name.  Coarse spans (workload
phases, ``Chip.run``, cost-table shapes, fleet and cluster runs) also
keep their start, end and parent id for the trace file.

Wrappers are installed where the caller looks the name up: methods on
their class, functions in every ``repro`` module namespace that holds
them (a ``from x import f`` copy is a separate binding that a patch on
the defining module alone would miss).  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: The layer of the harness's own root spans.  Span names read
#: ``<layer>:<callable>``.
HARNESS = "harness"

#: Methods wrapped: (module, class, method, layer, coarse).
METHODS = (
    ("repro.system.chip", "Chip", "run", "system", True),
    ("repro.pe.pe", "PE", "step", "pe", False),
    ("repro.pe.pe", "PE", "next_issue_lower_bound", "system.bound", False),
    ("repro.pe.batch", "VectorOpQueue", "push", "pe.batch", False),
    ("repro.pe.batch", "VectorOpQueue", "flush", "pe.batch", False),
    ("repro.memory.vault", "VaultController", "access", "memory", False),
    ("repro.memory.vault", "VaultController", "access_run", "memory", False),
    ("repro.memory.store", "DramStore", "read", "memory", False),
    ("repro.memory.store", "DramStore", "write", "memory", False),
    ("repro.noc.torus", "TorusNetwork", "transfer", "noc", False),
    ("repro.noc.torus", "TorusNetwork", "pe_to_vault", "noc", False),
    ("repro.perf.extrapolate", "BPPerformanceModel", "measure",
     "perf.extrapolate", True),
    ("repro.perf.extrapolate", "HierarchicalBPModel", "measure",
     "perf.extrapolate", True),
    ("repro.perf.extrapolate", "CNNPerformanceModel", "layer_timings",
     "perf.extrapolate", True),
    ("repro.serve.fleet.core", "FleetSimulator", "run", "serve.fleet", True),
    ("repro.serve.fleet.core", "FleetSimulator", "step", "serve.fleet", False),
    ("repro.serve.fleet.core", "FleetSimulator", "advance_to", "serve.fleet",
     False),
    ("repro.serve.fleet.core", "FleetSimulator", "finish", "serve.fleet",
     False),
    ("repro.serve.fleet.core", "FleetSimulator", "collect", "serve.fleet",
     False),
    ("repro.serve.cluster", "ClusterSimulator", "run", "serve.cluster", True),
    ("repro.serve.batcher", "DynamicBatcher", "add", "serve.batcher", False),
    ("repro.serve.queueing", "AdmissionQueue", "offer", "serve.queueing",
     False),
)

#: Functions wrapped: (defining module, name, layer, coarse).  The kernel
#: builders are the entry points callers use; the per-PE builders they
#: call internally stay unwrapped so each call counts once.
FUNCTIONS = (
    ("repro.pe.decode", "predecode", "pe.decode", False),
    ("repro.kernels.bp_kernel", "build_vault_sweep_programs", "kernels", False),
    ("repro.kernels.bp_kernel", "build_construct_program", "kernels", False),
    ("repro.kernels.bp_kernel", "build_copy_program", "kernels", False),
    ("repro.kernels.conv_kernel", "build_conv_pass_program", "kernels", False),
    ("repro.kernels.fc_kernel", "build_fc_partial_program", "kernels", False),
    ("repro.kernels.pool_kernel", "build_pool_program", "kernels", False),
    ("repro.kernels.gibbs_kernel", "build_vault_phase_programs", "kernels",
     False),
    ("repro.serve.costmodel", "build_cost_table", "serve.costmodel", True),
    ("repro.serve.costmodel", "measure_shape", "serve.costmodel", True),
    ("repro.serve.metrics", "compute_metrics", "serve.metrics", True),
    ("repro.serve.workload", "generate_requests", "serve.workload", True),
)

_STALLS = ("operand", "arc", "vector_pipe", "lsu", "hazard", "sync")


class SpanTracer:
    """Span stack plus in-memory aggregates; see the module docstring."""

    def __init__(self):
        #: span name -> [count, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: coarse spans: [id, name, parent id or None, start, end] with
        #: times in seconds since ``epoch``.
        self.coarse: list[list] = []
        #: counts measured inside wrapped calls (bytes, accesses, ...).
        self.counts: dict[str, float] = {}
        self.epoch = time.perf_counter()
        self._stack: list[float] = []  # child seconds of each open span
        self._open: list[int] = []     # ids of open coarse spans
        self._undo: list[tuple] = []
        self._chips: dict = {}         # id -> every Chip that ran
        self._programs: dict = {}      # id -> every Program built

    # -- spans -----------------------------------------------------------

    def _record(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn, on_return=None):
        """A fine-span wrapper around ``fn``.  ``on_return(args,
        result)`` runs after the call, outside the timed interval."""
        rec = self._record(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def wrap_coarse(self, name: str, fn, on_return=None):
        """Like :meth:`wrap`, but each call is also kept as a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """One coarse span around the ``with`` body."""
        rec = self._record(name)
        entry = [len(self.coarse), name,
                 self._open[-1] if self._open else None, 0.0, 0.0]
        self.coarse.append(entry)
        self._open.append(entry[0])
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            self._open.pop()
            entry[3], entry[4] = t0 - self.epoch, t1 - self.epoch

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ----------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, coarse: bool = False,
                     on_return=None) -> None:
        original = cls.__dict__[attr]
        make = self.wrap_coarse if coarse else self.wrap
        setattr(cls, attr, make(name, original, on_return))
        self._undo.append((cls, attr, original))

    def patch_function(self, module: str, attr: str, name: str,
                       coarse: bool = False, on_return=None) -> None:
        """Replace the function in every loaded ``repro`` namespace."""
        original = getattr(importlib.import_module(module), attr)
        make = self.wrap_coarse if coarse else self.wrap
        wrapper = make(name, original, on_return)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self) -> None:
        """Wrap every callable in :data:`METHODS` and :data:`FUNCTIONS`.
        Modules imported afterwards bind the wrappers themselves."""
        hooks = self._hooks()
        for module, cls_name, attr, layer, coarse in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self.patch_method(cls, attr, f"{layer}:{cls_name}.{attr}",
                              coarse, hooks.get((cls_name, attr)))
        for module, attr, layer, coarse in FUNCTIONS:
            on_return = self._count_reuse if layer == "kernels" else None
            self.patch_function(module, attr, f"{layer}:{attr}", coarse,
                                on_return)

    # -- counting hooks (outside the timed interval of their call) -------

    def _hooks(self) -> dict:
        add = self.add
        return {
            ("Chip", "run"): self._chip_result,
            ("VaultController", "access"):
                lambda args, r: add("memory.vault_accesses"),
            ("VaultController", "access_run"):
                lambda args, r: add("memory.vault_accesses", args[4]),
            ("DramStore", "read"):
                lambda args, r: add("memory.store_bytes", args[2]),
            ("DramStore", "write"):
                lambda args, r: add("memory.store_bytes", _nbytes(args[2])),
            ("AdmissionQueue", "offer"): self._count_shed,
        }

    def _count_shed(self, args, admission) -> None:
        if admission.shed is not None:
            self.add("serve.queueing.shed")

    def _chip_result(self, args, result) -> None:
        chip = args[0]
        self._chips[id(chip)] = chip
        counters = result.counters
        self.add("sim.cycles", result.cycles)
        self.add("memory.dram_bytes", counters.dram_bytes)
        for stall in _STALLS:
            self.add(f"pe.stall_cycles.{stall}",
                     getattr(counters, f"stall_{stall}"))

    def _count_reuse(self, args, result) -> None:
        programs = result if isinstance(result, list) else [result]
        seen = self._programs
        if all(id(p) in seen for p in programs):
            self.add("kernels.reused")
        for p in programs:
            seen[id(p)] = p  # keep alive so ids stay unique

    def row_hits(self) -> tuple[int, int]:
        """(row hits, accesses) over every bank of every traced chip."""
        hits = accesses = 0
        for chip in self._chips.values():
            for vault in chip.hmc.vaults:
                for bank in vault.banks:
                    hits += bank.stats.row_hits
                    accesses += bank.stats.accesses
        return hits, accesses

    # -- aggregates ------------------------------------------------------

    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self) -> dict:
        """The trace file body: aggregates plus coarse spans."""
        return {
            "spans": {name: {"count": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "layers_self_s": dict(sorted(self.layer_self().items())),
            "counts": dict(sorted(self.counts.items())),
            "coarse": [{"id": i, "name": n, "parent": p, "start_s": a,
                        "end_s": b} for i, n, p, a, b in self.coarse],
        }


def _nbytes(data) -> int:
    return getattr(data, "nbytes", None) or len(data)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metric -> unit.  Host seconds are inclusive of wrapped
#: children unless the name ends in ``self_s``.
LAYER_UNITS = {
    "kernels.build_s": "s",
    "kernels.build_calls": "count",
    "kernels.reuse_ratio": "ratio",
    "pe.self_s": "s",
    "pe.instructions": "count",
    "pe.host_ns_per_instr": "ns",
    "pe.decode_s": "s",
    "pe.batch.flush_s": "s",
    "pe.batch.flushes": "count",
    "pe.batch.ops_per_flush": "count",
    "system.self_s": "s",
    "system.runs": "count",
    "system.bound_check_s": "s",
    "system.bound_checks": "count",
    "system.steps_per_bound_check": "ratio",
    "memory.vault_s": "s",
    "memory.vault_accesses": "count",
    "memory.store_s": "s",
    "memory.store_bytes": "bytes",
    "memory.row_hit_rate": "ratio",
    "memory.dram_bytes": "bytes",
    "noc.transfer_s": "s",
    "noc.transfers": "count",
    "perf.extrapolate.self_s": "s",
    "sim.cycles": "cycles",
    **{f"pe.stall_cycles.{s}": "cycles" for s in _STALLS},
    "serve.costmodel.build_s": "s",
    "serve.costmodel.shapes": "count",
    "serve.costmodel.s_per_shape": "s",
    "serve.fleet.step_s": "s",
    "serve.fleet.steps": "count",
    "serve.fleet.advance_s": "s",
    "serve.fleet.advances": "count",
    "serve.fleet.finish_collect_s": "s",
    "serve.fleet.us_per_request": "us",
    "serve.batcher.adds": "count",
    "serve.queueing.offers": "count",
    "serve.queueing.shed": "count",
    "serve.cluster.self_s": "s",
    "serve.cluster.gossip_ticks": "count",
    "serve.cluster.us_per_tick": "us",
    "serve.metrics.rollup_s": "s",
    "serve.workload.gen_s": "s",
    "harness.self_s": "s",
    "trace.unattributed_frac": "ratio",
}


def layer_metrics(tracer: SpanTracer, wall_s: float,
                  shards: int = 0) -> dict[str, float]:
    """Fold the tracer's aggregates into the per-layer metrics.

    ``wall_s`` is the traced window the harness timed around its root
    spans; ``trace.unattributed_frac`` is the share of it that no span's
    self time covers.  Gossip ticks are counted by the wrappers: a
    ``shards``-shard cluster tick advances every shard once, and nothing
    else calls ``advance_to``.
    """
    t, n = tracer.total, tracer.count
    ticks = _ratio(n("serve.fleet:FleetSimulator.advance_to"), shards)
    layers = tracer.layer_self()
    counts = tracer.counts
    steps = n("pe:PE.step")
    bound_checks = n("system.bound:PE.next_issue_lower_bound")
    flushes = n("pe.batch:VectorOpQueue.flush")
    builds = sum(c for name, (c, _, _) in tracer.stats.items()
                 if name.startswith("kernels:"))
    shapes = n("serve.costmodel:measure_shape")
    fleet_s = sum(t(f"serve.fleet:FleetSimulator.{m}")
                  for m in ("step", "advance_to", "finish", "collect"))
    fleet_steps = n("serve.fleet:FleetSimulator.step")
    hits, accesses = tracer.row_hits()
    out = {
        "kernels.build_s": layers.get("kernels", 0.0),
        "kernels.build_calls": builds,
        "kernels.reuse_ratio": _ratio(counts.get("kernels.reused", 0), builds),
        "pe.self_s": layers.get("pe", 0.0),
        "pe.instructions": steps,
        "pe.host_ns_per_instr": _ratio(t("pe:PE.step"), steps) * 1e9,
        "pe.decode_s": layers.get("pe.decode", 0.0),
        "pe.batch.flush_s": t("pe.batch:VectorOpQueue.flush"),
        "pe.batch.flushes": flushes,
        "pe.batch.ops_per_flush": _ratio(n("pe.batch:VectorOpQueue.push"),
                                         flushes),
        "system.self_s": layers.get("system", 0.0),
        "system.runs": n("system:Chip.run"),
        "system.bound_check_s": layers.get("system.bound", 0.0),
        "system.bound_checks": bound_checks,
        "system.steps_per_bound_check": _ratio(steps, bound_checks),
        "memory.vault_s": (t("memory:VaultController.access")
                           + t("memory:VaultController.access_run")),
        "memory.vault_accesses": counts.get("memory.vault_accesses", 0),
        "memory.store_s": (t("memory:DramStore.read")
                           + t("memory:DramStore.write")),
        "memory.store_bytes": counts.get("memory.store_bytes", 0),
        "memory.row_hit_rate": _ratio(hits, accesses),
        "memory.dram_bytes": counts.get("memory.dram_bytes", 0),
        "noc.transfer_s": (t("noc:TorusNetwork.transfer")
                           + t("noc:TorusNetwork.pe_to_vault")),
        "noc.transfers": (n("noc:TorusNetwork.transfer")
                          + n("noc:TorusNetwork.pe_to_vault")),
        "perf.extrapolate.self_s": layers.get("perf.extrapolate", 0.0),
        "sim.cycles": counts.get("sim.cycles", 0.0),
        **{f"pe.stall_cycles.{s}": counts.get(f"pe.stall_cycles.{s}", 0.0)
           for s in _STALLS},
        "serve.costmodel.build_s": t("serve.costmodel:build_cost_table"),
        "serve.costmodel.shapes": shapes,
        "serve.costmodel.s_per_shape": _ratio(
            t("serve.costmodel:build_cost_table"), shapes),
        "serve.fleet.step_s": t("serve.fleet:FleetSimulator.step"),
        "serve.fleet.steps": fleet_steps,
        "serve.fleet.advance_s": t("serve.fleet:FleetSimulator.advance_to"),
        "serve.fleet.advances": n("serve.fleet:FleetSimulator.advance_to"),
        "serve.fleet.finish_collect_s": (
            t("serve.fleet:FleetSimulator.finish")
            + t("serve.fleet:FleetSimulator.collect")),
        "serve.fleet.us_per_request": _ratio(fleet_s, fleet_steps) * 1e6,
        "serve.batcher.adds": n("serve.batcher:DynamicBatcher.add"),
        "serve.queueing.offers": n("serve.queueing:AdmissionQueue.offer"),
        "serve.queueing.shed": counts.get("serve.queueing.shed", 0),
        "serve.cluster.self_s": layers.get("serve.cluster", 0.0),
        "serve.cluster.gossip_ticks": ticks,
        "serve.cluster.us_per_tick": _ratio(
            t("serve.fleet:FleetSimulator.advance_to"), ticks) * 1e6,
        "serve.metrics.rollup_s": t("serve.metrics:compute_metrics"),
        "serve.workload.gen_s": t("serve.workload:generate_requests"),
        "harness.self_s": layers.get(HARNESS, 0.0),
        "trace.unattributed_frac": _ratio(
            abs(wall_s - sum(layers.values())), wall_s),
    }
    return out
