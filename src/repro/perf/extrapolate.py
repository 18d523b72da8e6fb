"""Independent-tile extrapolation: tile simulations -> end-to-end numbers.

This implements the paper's own evaluation methodology (Section V-A): run
the detailed execution-driven simulator on the largest *independent tile*
of each workload — a unit of work that shares no PEs, memory requests, or
network bandwidth with other units — then multiply by the number of such
units, adding the measured or modeled cost of the synchronization that
stitches units together (tile-boundary message copies and the distributed
barrier for BP; shard accumulation and layer hand-off for CNNs; the input
broadcast and partial-sum gather passes for FC layers).

All models accept a :class:`~repro.memory.timing.MemoryConfig` so the
Figure 5 sweep can re-run them under the eight memory configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.bp_kernel import (
    BPTileLayout,
    build_construct_program,
    build_copy_program,
    build_vault_sweep_programs,
)
from repro.kernels.common import split_evenly
from repro.kernels.conv_kernel import ConvTileLayout, build_conv_pass_program
from repro.kernels.fc_kernel import FCTileLayout, build_fc_partial_program
from repro.kernels.pool_kernel import PoolTileLayout, build_pool_program
from repro.memory.timing import MemoryConfig
from repro.pe.counters import PECounters
from repro.perf.runner import Task, run_tasks
from repro.system.chip import Chip, ChipResult
from repro.system.config import VIPConfig
from repro.workloads.bp.mrf import DIRECTIONS, GridMRF, truncated_linear_smoothness
from repro.workloads.bp.tiling import TileGrid
from repro.workloads.cnn.layers import ConvSpec, FCSpec, LayerInstance, PoolSpec
from repro.workloads.cnn.tiling import plan_conv
from repro.workloads.cnn.vgg import Network

EB = 2
CLOCK_GHZ = 1.25


def _cycles_to_ms(cycles: float) -> float:
    return cycles / (CLOCK_GHZ * 1e9) * 1e3


def _config_with_memory(memory: MemoryConfig | None) -> VIPConfig:
    if memory is None:
        return VIPConfig()
    return VIPConfig(memory=memory)


@dataclass
class KernelMeasurement:
    """One simulated kernel window plus its extrapolation weight."""

    name: str
    cycles: float
    counters: PECounters
    bandwidth_gbps: float

    @classmethod
    def from_chip(cls, name: str, result: ChipResult) -> "KernelMeasurement":
        return cls(name, result.cycles, result.counters, result.achieved_bandwidth_gbps)


# ---------------------------------------------------------------------------
# Belief propagation


@dataclass
class BPModelResult:
    """Extrapolated BP-M timings for one image size."""

    sweep_cycles: dict[str, float]
    sweep_counters: dict[str, PECounters]
    iteration_cycles: float
    tiles_per_vault: int
    boundary_cycles: float
    barrier_cycles: float

    @property
    def iteration_ms(self) -> float:
        return _cycles_to_ms(self.iteration_cycles)

    def frame_ms(self, iterations: int) -> float:
        return iterations * self.iteration_ms


class BPPerformanceModel:
    """Full-HD (or any size) BP-M performance via vault-tile simulation.

    One vault's four PEs sweep the largest tile in each direction under
    detailed simulation; a full iteration is ``tiles_per_vault`` such tiles
    per direction (every vault works in parallel on its own tiles), plus a
    boundary message copy per tile and a distributed barrier per direction.
    """

    def __init__(
        self,
        image_rows: int = 1080,
        image_cols: int = 1920,
        labels: int = 16,
        memory: MemoryConfig | None = None,
        seed: int = 0,
    ):
        self.config = _config_with_memory(memory)
        self.grid = TileGrid(image_rows, image_cols, self.config.num_vaults,
                             self.config.noc)
        self.labels = labels
        self.seed = seed
        tile_rows, tile_cols = self.grid.max_tile_shape()
        self.tile_rows, self.tile_cols = tile_rows, tile_cols
        self._result: BPModelResult | None = None

    def _make_tile_mrf(self) -> tuple[GridMRF, dict[str, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        data = rng.integers(0, 50, (self.tile_rows, self.tile_cols, self.labels))
        mrf = GridMRF(data.astype(np.int16),
                      truncated_linear_smoothness(self.labels, weight=8, truncation=2))
        messages = {
            d: rng.integers(0, 16, (self.tile_rows, self.tile_cols, self.labels))
            .astype(np.int16)
            for d in DIRECTIONS
        }
        return mrf, messages

    def _sweep_once(self, direction: str) -> tuple[float, PECounters]:
        """Simulate one directional sweep on one vault (independent of the
        other directions — safe to run in a worker process)."""
        from repro.kernels.bp_kernel import cross_extent

        mrf, messages = self._make_tile_mrf()
        layout = BPTileLayout(base=4096, rows=self.tile_rows, cols=self.tile_cols,
                              labels=self.labels)
        pes = min(self.config.pes_per_vault, cross_extent(layout, direction))
        chip = Chip(self.config, num_pes=self.config.pes_per_vault)
        layout.stage(chip.hmc.store, mrf, messages)
        programs = build_vault_sweep_programs(layout, direction, pes)
        result = chip.run(programs)
        return result.cycles, result.counters

    def measure(self, max_workers: int | None = None) -> BPModelResult:
        """Simulate the four directional sweeps (in parallel when cores
        allow) and extrapolate."""
        if self._result is not None:
            return self._result
        grid = self.grid
        tasks = [
            Task(key=f"bp-sweep:{direction}", fn=_bp_sweep_worker,
                 args=(grid.image_rows, grid.image_cols, self.labels,
                       self.config.memory, self.seed, direction))
            for direction in DIRECTIONS
        ]
        outcomes = run_tasks(tasks, max_workers=max_workers)
        sweep_cycles = {d: cycles for d, (cycles, _) in zip(DIRECTIONS, outcomes)}
        sweep_counters = {d: counters for d, (_, counters) in zip(DIRECTIONS, outcomes)}

        boundary = self._boundary_copy_cycles()
        barrier = self._barrier_cycles()
        tiles_per_vault = self.grid.tiles_per_vault()
        iteration = sum(
            tiles_per_vault * (sweep_cycles[d] + boundary) + barrier
            for d in DIRECTIONS
        )
        self._result = BPModelResult(
            sweep_cycles=sweep_cycles,
            sweep_counters=sweep_counters,
            iteration_cycles=iteration,
            tiles_per_vault=tiles_per_vault,
            boundary_cycles=boundary,
            barrier_cycles=barrier,
        )
        return self._result

    def _boundary_copy_cycles(self) -> float:
        """Copy one tile edge of messages to the neighboring vault: the
        edge vectors serialize over a single torus link (the ring
        assignment guarantees one hop), overlapped with a full-empty
        handshake."""
        edge_vectors = max(self.tile_rows, self.tile_cols)
        nbytes = edge_vectors * self.labels * EB
        link = self.config.noc.link_bytes_per_cycle
        return nbytes / link + self.config.noc.hop_cycles + 100.0

    def _barrier_cycles(self) -> float:
        """Two-phase chain barrier over all vaults: each phase is a chain
        of neighbor full-empty handshakes (one hop + DRAM sync access)."""
        per_hop = self.config.noc.hop_cycles + 30.0
        return 2 * self.config.num_vaults * per_hop


def _bp_sweep_worker(image_rows: int, image_cols: int, labels: int,
                     memory: MemoryConfig, seed: int,
                     direction: str) -> tuple[float, PECounters]:
    """Process-pool entry point for one BP sweep direction.

    Rebuilds the model from its defining parameters (cheap: construction
    does no simulation) so only plain config data crosses the pickle
    boundary; the tile MRF is regenerated deterministically from ``seed``.
    """
    model = BPPerformanceModel(image_rows, image_cols, labels,
                               memory=memory, seed=seed)
    return model._sweep_once(direction)


@dataclass
class HierarchicalBPResult:
    construct_cycles: float
    copy_cycles: float
    coarse_iteration_cycles: float
    fine_iteration_cycles: float
    construct_counters: PECounters
    copy_counters: PECounters

    def frame_ms(self, coarse_iterations: int = 5, fine_iterations: int = 5) -> float:
        total = (
            self.construct_cycles
            + self.copy_cycles
            + coarse_iterations * self.coarse_iteration_cycles
            + fine_iterations * self.fine_iteration_cycles
        )
        return _cycles_to_ms(total)

    @property
    def construct_ms(self) -> float:
        return _cycles_to_ms(self.construct_cycles)

    @property
    def copy_ms(self) -> float:
        return _cycles_to_ms(self.copy_cycles)

    @property
    def coarse_iteration_ms(self) -> float:
        return _cycles_to_ms(self.coarse_iteration_cycles)


class HierarchicalBPModel:
    """Hierarchical BP-M: construct + coarse iterations + copy + fine
    iterations (Section VI-A)."""

    def __init__(self, fine: BPPerformanceModel):
        self.fine = fine
        self.coarse = BPPerformanceModel(
            fine.grid.image_rows // 2,
            fine.grid.image_cols // 2,
            fine.labels,
            memory=fine.config.memory,
            seed=fine.seed,
        )
        self._result: HierarchicalBPResult | None = None

    def measure(self) -> HierarchicalBPResult:
        """Simulate construct and copy once and combine them with the
        fine and coarse iterations; later calls return the result."""
        if self._result is not None:
            return self._result
        fine_result = self.fine.measure()
        coarse_result = self.coarse.measure()
        construct_cycles, construct_counters = self._measure_construct()
        copy_cycles, copy_counters = self._measure_copy()
        self._result = HierarchicalBPResult(
            construct_cycles=construct_cycles,
            copy_cycles=copy_cycles,
            coarse_iteration_cycles=coarse_result.iteration_cycles,
            fine_iteration_cycles=fine_result.iteration_cycles,
            construct_counters=construct_counters,
            copy_counters=copy_counters,
        )
        return self._result

    def _phase_layouts(self) -> tuple[BPTileLayout, BPTileLayout]:
        fine_rows = self.fine.tile_rows - self.fine.tile_rows % 2
        fine_cols = self.fine.tile_cols - self.fine.tile_cols % 2
        fine = BPTileLayout(base=4096, rows=fine_rows, cols=fine_cols,
                            labels=self.fine.labels)
        coarse = BPTileLayout(base=4096 + fine.total_bytes + 4096,
                              rows=fine_rows // 2, cols=fine_cols // 2,
                              labels=self.fine.labels)
        return fine, coarse

    def _measure_construct(self) -> tuple[float, PECounters]:
        fine, coarse = self._phase_layouts()
        mrf, messages = self.fine._make_tile_mrf()
        mrf = GridMRF(mrf.data_cost[: fine.rows, : fine.cols], mrf.smoothness)
        messages = {d: m[: fine.rows, : fine.cols] for d, m in messages.items()}
        chip = Chip(self.fine.config, num_pes=self.fine.config.pes_per_vault)
        fine.stage(chip.hmc.store, mrf, messages)
        programs = [
            build_construct_program(fine, coarse, start, count)
            for start, count in split_evenly(coarse.rows, self.fine.config.pes_per_vault)
            if count > 0
        ]
        result = chip.run(programs)
        per_frame = result.cycles * self.fine.grid.tiles_per_vault()
        return per_frame, result.counters

    def _measure_copy(self) -> tuple[float, PECounters]:
        fine, coarse = self._phase_layouts()
        mrf, messages = self.fine._make_tile_mrf()
        mrf = GridMRF(mrf.data_cost[: fine.rows, : fine.cols], mrf.smoothness)
        messages = {d: m[: fine.rows, : fine.cols] for d, m in messages.items()}
        chip = Chip(self.fine.config, num_pes=self.fine.config.pes_per_vault)
        fine.stage(chip.hmc.store, mrf, messages)
        coarse_mrf = GridMRF(mrf.data_cost[: coarse.rows, : coarse.cols], mrf.smoothness)
        coarse_msgs = {d: m[: coarse.rows, : coarse.cols] for d, m in messages.items()}
        coarse.stage(chip.hmc.store, coarse_mrf, coarse_msgs)
        # One program per PE: each PE copies one message direction's rows.
        programs = []
        for pe, direction in enumerate(DIRECTIONS):
            programs.append(build_copy_program(fine, coarse, direction, 0, coarse.rows))
        result = chip.run(programs)
        per_frame = result.cycles * self.fine.grid.tiles_per_vault()
        return per_frame, result.counters


# ---------------------------------------------------------------------------
# CNN / MLP


@dataclass
class LayerTiming:
    """Extrapolated timing of one network layer."""

    name: str
    kind: str
    cycles: float
    active_pes: int
    macs: int
    ops: int
    dram_bytes: int
    measurement: KernelMeasurement

    @property
    def ms(self) -> float:
        return _cycles_to_ms(self.cycles)

    @property
    def gops(self) -> float:
        seconds = self.cycles / (CLOCK_GHZ * 1e9)
        return self.ops / seconds / 1e9 if seconds else 0.0

    @property
    def arithmetic_intensity(self) -> float:
        return self.ops / self.dram_bytes if self.dram_bytes else float("inf")


class CNNPerformanceModel:
    """Per-layer VGG timing via one-pass vault simulations.

    For each convolution layer, one vault (four PEs) simulates a single
    filter *pass* over a short strip of its tile; the layer's total MACs
    divided by the measured per-PE MAC rate (which already includes vault
    DRAM contention and all kernel overheads) gives the layer time across
    the active PEs.  Pool layers scale a simulated strip by element count;
    FC layers scale a simulated weight-tile stream by total weight bytes
    and add the input-broadcast and partial-gather passes.
    """

    def __init__(self, network: Network, batch: int = 1,
                 memory: MemoryConfig | None = None, seed: int = 0,
                 sim_rows: int = 2, fc_sim_rows: int = 24):
        self.network = network
        self.batch = batch
        self.config = _config_with_memory(memory)
        self.seed = seed
        self.sim_rows = sim_rows
        self.fc_sim_rows = fc_sim_rows
        self._timings: list[LayerTiming] | None = None

    # -- conv ------------------------------------------------------------

    def _simulate_conv_pass(self, layer: LayerInstance) -> tuple[ChipResult, int, int]:
        """Simulate one filter pass (four PEs, each a sim_rows strip);
        returns (result, macs simulated, filters per pass)."""
        spec: ConvSpec = layer.spec  # type: ignore[assignment]
        placement = plan_conv(layer, self.config.noc,
                              pes_per_vault=self.config.pes_per_vault)
        z = placement.shard_channels
        F = placement.filters_per_load
        k = spec.kernel
        # The vault's PEs split the *filter* dimension, so each PE's pass
        # covers the whole vault tile (maximum filter reuse).  Simulate
        # enough rows that the per-pass filter preload carries its real
        # (small) weight: ~96 pixels per simulated pass.
        width = placement.tile_width
        rows = min(placement.tile_height,
                   max(placement.strip_rows, self.sim_rows, -(-96 // width)))
        rng = np.random.default_rng(self.seed)

        # Simulate several consecutive passes so per-pass startup (filter
        # preload, ring priming) is weighted as it is in a real multi-pass
        # layer program, where consecutive passes overlap each other's
        # load/drain tails.
        passes = max(1, min(4, spec.out_channels // max(1, F)))
        chip = Chip(self.config, num_pes=self.config.pes_per_vault)
        programs = []
        base = 4096
        for pe in range(self.config.pes_per_vault):
            layout = ConvTileLayout(base=base, in_h=rows + 2, in_w=width + 2, z=z,
                                    k=k, num_filters=passes * F, out_h=rows,
                                    out_w=width)
            inputs = rng.integers(-32, 32, (rows, width, z)).astype(np.int16)
            weights = rng.integers(-32, 32, (passes * F, k, k, z)).astype(np.int16)
            bias = rng.integers(-8, 8, passes * F).astype(np.int16)
            layout.stage(chip.hmc.store, inputs, weights, bias)
            programs.append(
                build_conv_pass_program(layout, 0, F, 0, rows, fx=8,
                                        apply_relu=spec.relu,
                                        strip_rows=placement.strip_rows,
                                        passes=passes)
            )
            base += layout.total_bytes + 4096
        result = chip.run(programs)
        macs_sim = self.config.pes_per_vault * passes * rows * width * F * k * k * z
        return result, macs_sim, F

    def _conv_timing(self, layer: LayerInstance) -> LayerTiming:
        spec: ConvSpec = layer.spec  # type: ignore[assignment]
        placement = plan_conv(layer, self.config.noc,
                              pes_per_vault=self.config.pes_per_vault)
        result, macs_sim, _ = self._simulate_conv_pass(layer)
        rate_per_pe = macs_sim / result.cycles / self.config.pes_per_vault
        # Z shards spread over additional vaults ("tiles in the Z dimension
        # are assigned to adjacent vaults in the X dimension", Section
        # IV-B), so sharded layers engage up to the whole machine.
        active_pes = min(
            self.config.num_pes,
            placement.vaults_used * self.config.pes_per_vault * placement.z_shards,
        )
        total_macs = layer.macs(self.batch)
        cycles = total_macs / (rate_per_pe * active_pes)
        if placement.needs_accumulation:
            # Shard partial-sum accumulation: stream z_shards partial output
            # images through the vector units once.
            acc_bytes = self.batch * layer.out_shape.bytes * placement.z_shards
            per_vault_bw = self.config.memory.peak_vault_bandwidth_gbps
            bytes_per_cycle = per_vault_bw / (CLOCK_GHZ * 8) * 8  # GB/s -> B/cycle
            cycles += acc_bytes / (placement.vaults_used * bytes_per_cycle * 0.5)
        return LayerTiming(
            name=layer.name, kind="conv", cycles=cycles, active_pes=active_pes,
            macs=total_macs, ops=2 * total_macs,
            dram_bytes=self._conv_dram_bytes(layer, placement),
            measurement=KernelMeasurement.from_chip(layer.name, result),
        )

    def _conv_dram_bytes(self, layer: LayerInstance, placement) -> int:
        """Actual DRAM traffic: inputs re-read once per filter pass, weights
        once, outputs written once (plus shard partials)."""
        spec: ConvSpec = layer.spec  # type: ignore[assignment]
        passes = -(-spec.out_channels // placement.filters_per_load)
        traffic = self.batch * layer.in_shape.bytes * passes
        traffic += spec.weight_bytes()
        traffic += self.batch * layer.out_shape.bytes * max(1, placement.z_shards)
        return traffic

    # -- pool -------------------------------------------------------------

    def _pool_timing(self, layer: LayerInstance) -> LayerTiming:
        spec: PoolSpec = layer.spec  # type: ignore[assignment]
        z = layer.in_shape.channels
        width = max(2, layer.out_shape.width // self.config.noc.cols)
        rows = min(self.sim_rows, layer.out_shape.height)
        rng = np.random.default_rng(self.seed)
        chip = Chip(self.config, num_pes=self.config.pes_per_vault)
        programs = []
        base = 4096
        for pe in range(self.config.pes_per_vault):
            layout = PoolTileLayout(base=base, in_h=2 * rows, in_w=2 * width, z=z)
            layout.stage(chip.hmc.store,
                         rng.integers(-100, 100, (2 * rows, 2 * width, z)).astype(np.int16))
            programs.append(build_pool_program(layout, 0, rows))
            base += layout.total_bytes + 4096
        result = chip.run(programs)
        elements_sim = self.config.pes_per_vault * rows * width * z
        rate = elements_sim / result.cycles  # output elements/cycle for a vault
        active_vaults = min(self.config.num_vaults,
                            max(1, (layer.out_shape.height * layer.out_shape.width) // (rows * width)))
        total_elements = self.batch * layer.out_shape.elements
        cycles = total_elements / (rate * active_vaults)
        ops = layer.ops(self.batch)
        return LayerTiming(
            name=layer.name, kind="pool", cycles=cycles,
            active_pes=active_vaults * self.config.pes_per_vault,
            macs=0, ops=ops,
            dram_bytes=self.batch * (layer.in_shape.bytes + layer.out_shape.bytes),
            measurement=KernelMeasurement.from_chip(layer.name, result),
        )

    # -- fc ---------------------------------------------------------------

    def _fc_timing(self, layer: LayerInstance) -> LayerTiming:
        spec: FCSpec = layer.spec  # type: ignore[assignment]
        batch = self.batch
        # Scratchpad budget: batch resident input chunks + two weight-row
        # buffers + the per-row output scalars.
        chunk = (4096 - 2 * batch - 64) // (2 * batch + 4)
        chunk = max(32, min(512, chunk // 32 * 32))
        rows = self.fc_sim_rows
        rng = np.random.default_rng(self.seed)
        chip = Chip(self.config, num_pes=self.config.pes_per_vault)
        programs = []
        base = 4096
        for pe in range(self.config.pes_per_vault):
            layout = FCTileLayout(base=base, rows=rows, chunk=chunk, batch=batch)
            layout.stage(chip.hmc.store,
                         rng.integers(-32, 32, (rows, chunk)).astype(np.int16),
                         rng.integers(-32, 32, (batch, chunk)).astype(np.int16))
            programs.append(build_fc_partial_program(layout, fx=8))
            base += layout.total_bytes + 4096
        result = chip.run(programs)
        weight_bytes_sim = self.config.pes_per_vault * rows * chunk * EB
        rate_per_vault = weight_bytes_sim / result.cycles  # weight B/cycle/vault
        total_weight_bytes = spec.weight_bytes()
        cycles = total_weight_bytes / (self.config.num_vaults * rate_per_vault)
        cycles += self._fc_overhead_cycles(spec)
        ops = layer.ops(batch)
        dram = total_weight_bytes + batch * (layer.in_shape.bytes + layer.out_shape.bytes) * (
            1 + self.config.noc.cols  # input broadcast copies + partial gather
        )
        return LayerTiming(
            name=layer.name, kind="fc", cycles=cycles, active_pes=self.config.num_pes,
            macs=layer.macs(batch), ops=ops, dram_bytes=dram,
            measurement=KernelMeasurement.from_chip(layer.name, result),
        )

    def _fc_overhead_cycles(self, spec: FCSpec) -> float:
        """Pass 1 (copy input segments into local vaults) and pass 3
        (row-side accumulation of partial products), Section IV-C."""
        noc = self.config.noc
        link_bpc = noc.link_bytes_per_cycle
        input_bytes = self.batch * spec.in_features * EB
        broadcast = input_bytes / (noc.num_nodes * link_bpc) * noc.cols
        partial_bytes = self.batch * spec.out_features * EB * (noc.cols - 1)
        gather = partial_bytes / (noc.rows * link_bpc)
        sync = 2 * noc.num_nodes * (noc.hop_cycles + 30.0)
        return broadcast + gather + sync

    # -- network ------------------------------------------------------------

    def _layer_timing(self, layer: LayerInstance) -> LayerTiming:
        if isinstance(layer.spec, ConvSpec):
            return self._conv_timing(layer)
        if isinstance(layer.spec, PoolSpec):
            return self._pool_timing(layer)
        return self._fc_timing(layer)

    def layer_timings(self, max_workers: int | None = None) -> list[LayerTiming]:
        """Per-layer timings, simulated in parallel (each layer's vault
        simulation is independent); results are in network layer order."""
        if self._timings is None:
            prewarm_cnn_models([self], max_workers=max_workers)
        return self._timings

    def total_ms(self, kinds: tuple[str, ...] = ("conv", "pool", "fc")) -> float:
        return sum(t.ms for t in self.layer_timings() if t.kind in kinds)

    def conv_ms(self) -> float:
        """Convolution + ReLU + pooling time (what the paper reports as
        "convolution layers only", e.g. 30.9 ms for VGG-16 batch 1)."""
        return self.total_ms(kinds=("conv", "pool"))

    def fc_ms(self) -> float:
        return self.total_ms(kinds=("fc",))

    def network_ms(self) -> float:
        return self.total_ms()


def _cnn_layer_worker(network: Network, batch: int, memory: MemoryConfig,
                      seed: int, sim_rows: int, fc_sim_rows: int,
                      index: int) -> LayerTiming:
    """Process-pool entry point for one CNN/MLP layer timing."""
    model = CNNPerformanceModel(network, batch=batch, memory=memory, seed=seed,
                                sim_rows=sim_rows, fc_sim_rows=fc_sim_rows)
    return model._layer_timing(list(network)[index])


def prewarm_cnn_models(models: list[CNNPerformanceModel],
                       max_workers: int | None = None) -> None:
    """Fill several models' layer-timing caches with one flat fan-out.

    Warming each model in turn leaves cores idle at every model's tail;
    pooling every (model, layer) pair into a single task list keeps the
    pool saturated.  Results land in each model's ``_timings`` in network
    layer order; :meth:`CNNPerformanceModel.layer_timings` warms one
    model through here, so every layer task is built in one place.
    """
    pending = [m for m in models if m._timings is None]
    tasks: list[Task] = []
    slices = []
    for m in pending:
        start = len(tasks)
        # The key names the batch: two batches of one network are two
        # task sets under a checkpoint.
        for i, layer in enumerate(m.network):
            tasks.append(
                Task(key=f"cnn-layer:{m.network.name}:b{m.batch}:{i}:{layer.name}",
                     fn=_cnn_layer_worker,
                     args=(m.network, m.batch, m.config.memory, m.seed,
                           m.sim_rows, m.fc_sim_rows, i))
            )
        slices.append((m, start, len(tasks)))
    results = run_tasks(tasks, max_workers=max_workers)
    for m, start, end in slices:
        m._timings = results[start:end]
