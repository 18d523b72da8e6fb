"""Figure 4: scratchpad + reduction-unit ablation.

The paper evaluates four configurations by *writing restricted code for
VIP* (Section VI-B), and we do exactly the same:

* **SP+R** — VIP proper: scratchpad operands at arbitrary addresses, the
  horizontal reduction unit does Equation 1b as one ``m.v``;
* **SP-R** — scratchpad, but no reduction unit: every reduction becomes a
  divide-and-conquer ladder of elementwise ``v.v.min`` halvings;
* **RF+R** — a 16 x 256 B vector-register machine (IBM Active Memory Cube
  style): vectors load eight-at-a-time into aligned 256 B registers and
  each 32 B message vector must be *unpacked* into a working register
  before use and the result *repacked*, each move costing its N/w cycles;
* **RF-R** — both restrictions.

All four run the same computation: vertical-direction BP-M message updates
(Equation 1a + normalization + Equation 1b) on a 64x32 tile, the
orthogonal dimension split across a vault's four PEs.  The RF experiment
uses the favorable separate-array layout the paper grants it ("messages
and data costs [stored] such that eight vectors may be loaded into the
vector register file using a single contiguous load").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.kernels.common import ScratchpadAllocator, split_evenly
from repro.memory.store import DramStore
from repro.system.chip import Chip, ChipResult
from repro.system.config import VIPConfig
from repro.workloads.bp.mrf import DIRECTIONS, GridMRF

EB = 2

#: The four Figure 4 configurations, in the paper's order.
VARIANTS = ("RF-R", "RF+R", "SP-R", "SP+R")


@dataclass(frozen=True)
class SeparateArrayLayout:
    """Separate per-array DRAM layout (theta + four message arrays), each
    (rows, cols, labels) row-major — eight consecutive vectors of one array
    are one contiguous 256 B load."""

    base: int
    rows: int
    cols: int
    labels: int

    @property
    def vec_bytes(self) -> int:
        return self.labels * EB

    @property
    def row_stride(self) -> int:
        return self.cols * self.vec_bytes

    @property
    def array_bytes(self) -> int:
        return (self.rows + 1) * self.row_stride  # padding row

    def array_base(self, name: str) -> int:
        order = ("theta",) + DIRECTIONS
        return self.base + order.index(name) * self.array_bytes

    def smoothness_base(self) -> int:
        return self.base + 5 * self.array_bytes

    def stage(self, store: DramStore, mrf: GridMRF, messages) -> None:
        store.write_array(self.array_base("theta"), mrf.data_cost.ravel(), np.int16)
        for d in DIRECTIONS:
            store.write_array(self.array_base(d), messages[d].ravel(), np.int16)
        store.write_array(self.smoothness_base(), mrf.smoothness.ravel(), np.int16)

    def read_message(self, store: DramStore, d: str) -> np.ndarray:
        flat = store.read_array(self.array_base(d), self.rows * self.cols * self.labels,
                                np.int16)
        return flat.reshape(self.rows, self.cols, self.labels)


def build_variant_program(
    layout: SeparateArrayLayout,
    variant: str,
    cross_start: int,
    cross_count: int,
) -> Program:
    """Vertical-sweep message-update program for one PE under the
    register-file ``variant`` ``"RF-R"`` or ``"RF+R"``.  The scratchpad
    variants run the VIP kernel itself,
    :func:`~repro.kernels.bp_kernel.build_sweep_program`."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if not variant.startswith("RF"):
        raise ConfigError(f"{variant} runs the VIP kernel "
                          "(repro.kernels.bp_kernel.build_sweep_program)")
    use_reduction = variant.endswith("+R")
    L = layout.labels
    vb = layout.vec_bytes
    group = 8  # vectors per 256 B register
    if cross_count % group:
        raise ConfigError("RF variants need a multiple of 8 columns per PE")

    b = ProgramBuilder()
    sp = ScratchpadAllocator()
    s_addr = sp.alloc(L * L * EB, "S")
    # Double-buffered packed input registers (the RF machine has sixteen
    # 256 B registers; we use 2x4 inputs + 1 output) so the next group's
    # loads overlap the current group's compute.
    packed = {name: [sp.alloc(8 * vb, f"P_{name}{i}", align=256) for i in (0, 1)]
              for name in ("theta", "down", "right", "left")}
    packed_out = sp.alloc(8 * vb, "P_out", align=256)
    work = {name: sp.alloc(vb, f"w_{name}") for name in
            ("theta", "down", "right", "left")}
    acc = sp.alloc(vb, "acc")
    out = sp.alloc(vb, "out")
    tmp = sp.alloc(vb, "tmp")
    minloc = sp.alloc(EB, "min")
    zero_vec = sp.alloc(vb, "zerovec")
    zero_sc = sp.alloc(EB, "zero")

    r_vl = b.alloc_reg("vl")
    b.movi(r_vl, L)
    r_vl8 = b.alloc_reg("vl8")
    b.movi(r_vl8, 8 * L)
    r_s = b.alloc_reg("S")
    b.movi(r_s, s_addr)
    r_a = b.alloc_reg("a")
    r_x = b.alloc_reg("x")
    r_y = b.alloc_reg("y")
    b.set_fx(0)

    # Zero constants (scalar and a full zero vector for copies).
    b.set_vl(1)
    b.movi(r_a, zero_sc)
    b.vs("sub", r_a, r_a, r_a)
    b.set_vl(L)
    b.movi(r_a, zero_vec)
    b.movi(r_x, zero_sc)
    b.vs("mul", r_a, r_a, r_x)  # anything times zero

    r_tmp = b.alloc_reg("t")
    r_cnt = b.alloc_reg("cnt")
    b.movi(r_a, s_addr)
    b.movi(r_tmp, layout.smoothness_base())
    b.movi(r_cnt, L * L)
    b.ld_sram(r_a, r_tmp, r_cnt)

    arrays = ("theta", "down", "right", "left")  # sources for a down sweep
    src_base = {name: b.alloc_reg(f"sb_{name}") for name in arrays}
    src = {name: b.alloc_reg(f"s_{name}") for name in arrays}
    for name in arrays:
        b.movi(src_base[name], layout.array_base(name if name != "theta" else "theta")
               + cross_start * vb)
    r_dst = b.alloc_reg("dst")
    r_dst_base = b.alloc_reg("dstb")
    b.movi(r_dst_base, layout.array_base("down") + layout.row_stride
           + cross_start * vb)

    r_seq = b.alloc_reg("seq")
    r_seqmax = b.alloc_reg("seqmax")
    b.movi(r_seq, 0)
    b.movi(r_seqmax, layout.rows - 1)
    r_g = b.alloc_reg("g")
    r_gmax = b.alloc_reg("gmax")
    b.movi(r_gmax, cross_count // group)
    r_u = b.alloc_reg("u")
    r_umax = b.alloc_reg("umax")
    b.movi(r_umax, group)
    r_off = b.alloc_reg("off")  # byte offset of the update inside a group

    def emit_dnc_min(vec_addr_reg: int, result_addr: int) -> None:
        """Divide-and-conquer min of an L-vector into ``result_addr``
        (element 0), clobbering ``tmp``."""
        # tmp = vec
        b.set_vl(L)
        b.movi(r_a, tmp)
        b.movi(r_y, zero_sc)
        b.vs("add", r_a, vec_addr_reg, r_y)
        half = L // 2
        while half >= 1:
            b.set_vl(half)
            b.movi(r_a, tmp)
            b.movi(r_x, tmp + half * EB)
            b.vv("min", r_a, r_a, r_x)
            half //= 2
        b.set_vl(1)
        b.movi(r_a, result_addr)
        b.movi(r_x, tmp)
        b.movi(r_y, zero_sc)
        b.vs("add", r_a, r_x, r_y)

    def emit_compute(operand: dict) -> None:
        """Equation 1a + normalization + Equation 1b from the given operand
        scratchpad addresses into ``out``."""
        b.set_vl(L)
        b.movi(r_a, acc)
        b.movi(r_x, operand["theta"])
        b.movi(r_y, operand["down"])
        b.vv("add", r_a, r_x, r_y)
        for name in ("right", "left"):
            b.movi(r_x, operand[name])
            b.vv("add", r_a, r_a, r_x)
        # Normalization: subtract min(acc).
        b.movi(r_x, acc)
        if use_reduction:
            b.set_mr(1)
            b.movi(r_y, minloc)
            b.mv("nop", "min", r_y, r_x, r_x)
        else:
            emit_dnc_min(r_x, minloc)
        b.set_vl(L)
        b.movi(r_a, acc)
        b.movi(r_y, minloc)
        b.vs("sub", r_a, r_a, r_y)
        # Equation 1b.
        if use_reduction:
            b.set_mr(L)
            b.movi(r_a, out)
            b.movi(r_x, acc)
            b.mv("add", "min", r_a, r_s, r_x)
        else:
            b.movi(r_srow, s_addr)
            b.movi(r_orow, out)
            b.movi(r_l, 0)
            row_loop = b.label(f"dnc_row_{len(b._instructions)}")
            b.set_vl(L)
            b.movi(r_a, tmp)
            b.movi(r_x, acc)
            b.vv("add", r_a, r_srow, r_x)
            half = L // 2
            while half >= 1:
                b.set_vl(half)
                b.movi(r_a, tmp)
                b.movi(r_x, tmp + half * EB)
                b.vv("min", r_a, r_a, r_x)
                half //= 2
            b.set_vl(1)
            b.movi(r_x, tmp)
            b.movi(r_y, zero_sc)
            b.vs("add", r_orow, r_x, r_y)
            b.add(r_srow, r_srow, imm=vb)
            b.add(r_orow, r_orow, imm=EB)
            b.add(r_l, r_l, imm=1)
            b.blt(r_l, r_lmax, row_loop)

    if not use_reduction:
        r_srow = b.alloc_reg("srow")
        r_orow = b.alloc_reg("orow")
        r_l = b.alloc_reg("l")
        r_lmax = b.alloc_reg("lmax")
        b.movi(r_lmax, L)

    seq_loop = b.label("seq_loop")
    for name in arrays:
        b.mov(src[name], src_base[name])
    b.mov(r_dst, r_dst_base)

    groups = cross_count // group

    def rf_group_loads(pset: int) -> None:
        """One contiguous 256 B load per operand array (eight vectors)."""
        for name in arrays:
            b.movi(r_a, packed[name][pset])
            b.ld_sram(r_a, src[name], r_vl8)
            b.add(src[name], src[name], imm=8 * vb)

    def rf_body(pset: int, prefetch: bool) -> None:
        """Load the next group into the other register set, then run
        this group's eight updates from set ``pset``."""
        if prefetch:
            rf_group_loads(1 - pset)
        b.movi(r_u, 0)
        b.movi(r_off, 0)
        update_loop = b.label(f"upd_{pset}_{len(b._instructions)}")
        # Unpack the four operands (N/w cycles each on the RF machine).
        for name in arrays:
            b.set_vl(L)
            b.movi(r_a, work[name])
            b.movi(r_x, packed[name][pset])
            b.add(r_x, r_x, r_off)
            b.movi(r_y, zero_sc)
            b.vs("add", r_a, r_x, r_y)
        emit_compute({name: work[name] for name in arrays})
        # Repack the result into the packed output register.
        b.set_vl(L)
        b.movi(r_a, packed_out)
        b.add(r_a, r_a, r_off)
        b.movi(r_x, out)
        b.movi(r_y, zero_sc)
        b.vs("add", r_a, r_x, r_y)
        b.add(r_off, r_off, imm=vb)
        b.add(r_u, r_u, imm=1)
        b.blt(r_u, r_umax, update_loop)
        b.movi(r_a, packed_out)
        b.st_sram(r_a, r_dst, r_vl8)
        b.add(r_dst, r_dst, imm=8 * vb)

    rf_group_loads(0)
    pairs, rem = divmod(groups, 2)
    if pairs:
        b.movi(r_g, 0)
        b.movi(r_gmax, pairs)
        group_loop = b.label("group_loop")
        rf_body(0, prefetch=True)
        rf_body(1, prefetch=True)
        b.add(r_g, r_g, imm=1)
        b.blt(r_g, r_gmax, group_loop)
    if rem:
        rf_body(0, prefetch=False)

    for name in arrays:
        b.add(src_base[name], src_base[name], imm=layout.row_stride)
    b.add(r_dst_base, r_dst_base, imm=layout.row_stride)
    b.add(r_seq, r_seq, imm=1)
    b.blt(r_seq, r_seqmax, seq_loop)
    b.memfence()
    b.halt()
    return b.build()


@dataclass
class VariantResult:
    variant: str
    cycles: float
    time_ms: float


def run_figure4(
    rows: int = 32,
    cols: int = 64,
    labels: int = 16,
    seed: int = 0,
    variants: tuple[str, ...] = VARIANTS,
) -> list[VariantResult]:
    """Run the four configurations on the paper's 64x32 tile, one
    :func:`~repro.perf.runner.run_tasks` task each; returns runtimes in
    the paper's presentation order (slowest configuration first)."""
    from repro.perf.runner import Task, run_tasks

    return run_tasks(Task(key=f"figure4:{variant}", fn=_run_variant,
                          args=(rows, cols, labels, seed, variant))
                     for variant in variants)


def _run_variant(rows: int, cols: int, labels: int, seed: int,
                 variant: str) -> VariantResult:
    """One Figure 4 configuration on one vault's PEs (a pool worker:
    the tile is drawn again from ``seed``)."""
    from repro.kernels.bp_kernel import BPTileLayout, build_sweep_program
    from repro.workloads.bp.mrf import truncated_linear_smoothness

    rng = np.random.default_rng(seed)
    mrf = GridMRF(
        rng.integers(0, 50, (rows, cols, labels)).astype(np.int16),
        truncated_linear_smoothness(labels, weight=8, truncation=2),
    )
    messages = {
        d: rng.integers(0, 16, (rows, cols, labels)).astype(np.int16)
        for d in DIRECTIONS
    }
    config = VIPConfig()
    chip = Chip(config, num_pes=config.pes_per_vault)
    if variant.startswith("SP"):
        # The scratchpad machine runs the real VIP kernel (with its
        # interleaved per-vertex layout — arbitrary data arrangement is
        # exactly what the scratchpad buys), with or without the
        # horizontal reduction unit.
        sp_layout = BPTileLayout(base=4096, rows=rows, cols=cols, labels=labels)
        sp_layout.stage(chip.hmc.store, mrf, messages)
        programs = [
            build_sweep_program(sp_layout, "down", start, count,
                                use_reduction_unit=variant == "SP+R")
            for start, count in split_evenly(cols, config.pes_per_vault)
        ]
    else:
        rf_layout = SeparateArrayLayout(base=4096, rows=rows, cols=cols,
                                        labels=labels)
        rf_layout.stage(chip.hmc.store, mrf, messages)
        programs = [
            build_variant_program(rf_layout, variant, start, count)
            for start, count in split_evenly(cols, config.pes_per_vault)
        ]
    outcome: ChipResult = chip.run(programs)
    return VariantResult(
        variant=variant,
        cycles=outcome.cycles,
        time_ms=outcome.cycles / 1.25e9 * 1e3,
    )
