"""VIP assembly generation for BP-M message-update sweeps (Section IV-A).

The generated per-PE program is the paper's Figure 2 inner loop, extended
with message normalization and software pipelining:

* the tile's smoothness matrix is loaded into the scratchpad once;
* the sweep walks the tile in the strict sequential direction, with the
  orthogonal dimension split across the vault's PEs;
* each update loads theta and the three relevant incoming messages,
  accumulates them (Equation 1a), normalizes theta-hat (``m.v.nop.min``
  with mr=1 into a scratchpad scalar, then ``v.s.sub``), applies the
  min-sum update (``m.v.add.min``, Equation 1b) and stores the result;
* loads run four scratchpad slots ahead of their consumers — the paper's
  code "is software pipelined to load data four iterations before it is
  used" — so local-vault DRAM latency hides behind the ~85-cycle vector
  computation of each update.

DRAM layout: per-vertex *interleaved* blocks.  All five vectors of a vertex
(four messages + theta, ``5 * L`` elements) are stored contiguously, in the
order ``[m_up, theta, m_down, m_right, m_left]``.  A sweep then reads one
(or two) contiguous runs per update instead of gathering from five separate
arrays: each PE becomes a single sequential read stream plus a strided
write stream, which is what keeps the open-page row-hit rate high.  (With
five separate arrays, the 20 concurrent streams of a four-PE vault
persistently collide in DRAM banks and halve effective bandwidth — the
interleaved layout is what a hand-tuned implementation would use.)

All loops are expressed with scalar pointer arithmetic and branches so the
whole sweep fits comfortably in the 1,024-entry instruction buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.kernels.common import (
    ScratchpadAllocator,
    emit_mul_const,
    memoize_programs,
    split_evenly,
)
from repro.memory.store import DramStore
from repro.workloads.bp.mrf import DIRECTIONS, OPPOSITE, GridMRF

#: Bytes per fixed-point element.
EB = 2

#: Order of the five per-vertex vectors inside an interleaved block.  This
#: order makes the operand set of every sweep direction at most two
#: contiguous runs (a single run for down/right).
BLOCK_FIELDS = ("up", "theta", "down", "right", "left")


@dataclass(frozen=True)
class BPTileLayout:
    """DRAM layout of one tile's BP state inside a vault's address region.

    Vertices are stored as interleaved blocks of ``5 * labels`` elements in
    row-major (y, x) order, with one padding row at the end to absorb
    software-pipelining prefetch overrun, followed by the (labels x labels)
    smoothness matrix.
    """

    base: int
    rows: int
    cols: int
    labels: int

    @property
    def vec_bytes(self) -> int:
        return self.labels * EB

    @property
    def block_bytes(self) -> int:
        return len(BLOCK_FIELDS) * self.vec_bytes

    @property
    def row_stride(self) -> int:
        return self.cols * self.block_bytes

    @property
    def grid_bytes(self) -> int:
        return (self.rows + 1) * self.row_stride  # +1 padding row

    def field_offset(self, field: str) -> int:
        return BLOCK_FIELDS.index(field) * self.vec_bytes

    def block_addr(self, y: int, x: int) -> int:
        return self.base + (y * self.cols + x) * self.block_bytes

    def smoothness_base(self) -> int:
        return self.base + self.grid_bytes

    @property
    def total_bytes(self) -> int:
        return self.grid_bytes + self.labels * self.labels * EB

    # -- staging ---------------------------------------------------------

    def stage(self, store: DramStore, mrf: GridMRF,
              messages: dict[str, np.ndarray]) -> None:
        """Write a tile's MRF state into the DRAM store."""
        if (mrf.rows, mrf.cols, mrf.labels) != (self.rows, self.cols, self.labels):
            raise ConfigError("tile shape mismatch with layout")
        blocks = np.zeros((self.rows, self.cols, len(BLOCK_FIELDS), self.labels),
                          dtype=np.int16)
        for i, field in enumerate(BLOCK_FIELDS):
            blocks[:, :, i, :] = mrf.data_cost if field == "theta" else messages[field]
        store.write_array(self.base, blocks.ravel(), np.int16)
        store.write_array(self.smoothness_base(), mrf.smoothness.ravel(), np.int16)

    def read_messages(self, store: DramStore) -> dict[str, np.ndarray]:
        flat = store.read_array(
            self.base, self.rows * self.cols * len(BLOCK_FIELDS) * self.labels, np.int16
        )
        blocks = flat.reshape(self.rows, self.cols, len(BLOCK_FIELDS), self.labels)
        return {
            field: blocks[:, :, i, :].copy()
            for i, field in enumerate(BLOCK_FIELDS)
            if field != "theta"
        }

    def read_theta(self, store: DramStore) -> np.ndarray:
        flat = store.read_array(
            self.base, self.rows * self.cols * len(BLOCK_FIELDS) * self.labels, np.int16
        )
        blocks = flat.reshape(self.rows, self.cols, len(BLOCK_FIELDS), self.labels)
        return blocks[:, :, BLOCK_FIELDS.index("theta"), :].copy()


@dataclass(frozen=True)
class SweepGeometry:
    """Pointer strides and trip counts of one directional sweep."""

    seq_steps: int  # sequential steps (strict order)
    seq_stride: int  # bytes between consecutive sequential positions
    cross_stride: int  # bytes between consecutive cross (parallel) positions
    src_start: int  # block offset (bytes from base) of the first source
    dst_start: int  # block offset of the first destination vertex


def sweep_geometry(layout: BPTileLayout, direction: str) -> SweepGeometry:
    bb, rs = layout.block_bytes, layout.row_stride

    def off(y, x):
        return (y * layout.cols + x) * bb

    if direction == "down":
        return SweepGeometry(layout.rows - 1, rs, bb, off(0, 0), off(1, 0))
    if direction == "up":
        return SweepGeometry(layout.rows - 1, -rs, bb,
                             off(layout.rows - 1, 0), off(layout.rows - 2, 0))
    if direction == "right":
        return SweepGeometry(layout.cols - 1, bb, rs, off(0, 0), off(0, 1))
    if direction == "left":
        return SweepGeometry(layout.cols - 1, -bb, rs,
                             off(0, layout.cols - 1), off(0, layout.cols - 2))
    raise ConfigError(f"unknown direction {direction!r}")


def cross_extent(layout: BPTileLayout, direction: str) -> int:
    """Size of the parallel dimension (split across the vault's PEs)."""
    return layout.cols if direction in ("down", "up") else layout.rows


def operand_runs(layout: BPTileLayout, direction: str) -> list[tuple[int, int]]:
    """Contiguous (offset, nbytes) runs within a vertex block covering
    theta plus the three included message fields."""
    include = {"theta"} | {d for d in DIRECTIONS if d != OPPOSITE[direction]}
    offsets = sorted(layout.field_offset(f) for f in include)
    vb = layout.vec_bytes
    runs: list[tuple[int, int]] = []
    for off in offsets:
        if runs and runs[-1][0] + runs[-1][1] == off:
            runs[-1] = (runs[-1][0], runs[-1][1] + vb)
        else:
            runs.append((off, vb))
    return runs


@memoize_programs
def build_sweep_program(
    layout: BPTileLayout,
    direction: str,
    cross_start: int,
    cross_count: int,
    labels_width: int = 16,
    nslots: int = 4,
    use_reduction_unit: bool = True,
) -> Program:
    """Build the sweep program for one PE covering ``cross_count`` parallel
    positions starting at ``cross_start``.

    ``nslots`` is the software-pipeline depth: loads lead their consumers by
    ``nslots - 1`` updates.  Scratchpad operand addresses are compile-time
    constants re-materialized into a few shared scratch registers with
    ``mov.imm`` right before each use (in-order issue makes the reuse safe),
    so the register budget does not limit the pipeline depth.

    ``use_reduction_unit=False`` emits the Figure 4 "SP-R" variant: both
    reductions (theta-hat normalization and the Equation 1b min-sum) become
    divide-and-conquer ladders of elementwise ``v.v.min`` halvings instead
    of horizontal-unit operations.
    """
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction {direction!r}")
    if cross_count < 1:
        raise ConfigError("cross_count must be at least 1")
    if nslots < 2:
        raise ConfigError("need at least two pipeline slots")
    L = layout.labels
    vb = layout.vec_bytes
    geo = sweep_geometry(layout, direction)
    runs = operand_runs(layout, direction)
    # Operand addresses inside the loaded block image, ordered
    # [theta, msg, msg, msg] to match the reference accumulation order.
    include = ["theta"] + [d for d in DIRECTIONS if d != OPPOSITE[direction]]
    field_offs = [layout.field_offset(f) for f in include]

    b = ProgramBuilder()
    sp = ScratchpadAllocator()
    s_addr = sp.alloc(L * L * EB, "S")
    slots = []
    for s in range(nslots):
        slots.append(
            {
                "block": sp.alloc(layout.block_bytes, f"block{s}"),
                "acc": sp.alloc(vb, f"acc{s}"),
                "min": sp.alloc(EB, f"min{s}", align=2),
                "out": sp.alloc(vb, f"out{s}"),
            }
        )
    if not use_reduction_unit:
        dnc_tmp = sp.alloc(vb, "dnc_tmp")
        zero_sc = sp.alloc(EB, "zero")

    # -- registers ----------------------------------------------------------
    r_vl = b.alloc_reg("vl")
    b.movi(r_vl, L)
    r_runlen = []
    for i, (_, nbytes) in enumerate(runs):
        reg = b.alloc_reg(f"runlen{i}")
        b.movi(reg, nbytes // EB)
        r_runlen.append(reg)
    r_s = b.alloc_reg("sp_S")
    b.movi(r_s, s_addr)
    # Shared scratch registers for scratchpad operand addresses.
    r_a = b.alloc_reg("scr_a")
    r_x = b.alloc_reg("scr_x")
    r_y = b.alloc_reg("scr_y")
    r_o = b.alloc_reg("scr_o")

    # Load the smoothness matrix once.
    r_tmp = b.alloc_reg("tmp")
    r_cnt_ll = b.alloc_reg("cnt_ll")
    b.movi(r_tmp, layout.smoothness_base())
    b.movi(r_cnt_ll, L * L)
    b.ld_sram(r_s, r_tmp, r_cnt_ll, width=labels_width)
    b.set_fx(0)
    if not use_reduction_unit:
        r_srow = b.alloc_reg("srow")
        r_orow = b.alloc_reg("orow")
        r_l = b.alloc_reg("l")
        r_lmax = b.alloc_reg("lmax")
        b.movi(r_lmax, L)
        b.set_vl(1)
        b.movi(r_a, zero_sc)
        b.vs("sub", r_a, r_a, r_a, width=labels_width)
    b.set_vl(L)

    # -- pointers -----------------------------------------------------------
    src_base = layout.base + geo.src_start + cross_start * geo.cross_stride
    dst_base = (
        layout.base + geo.dst_start + cross_start * geo.cross_stride
        + layout.field_offset(direction)
    )
    r_src = [b.alloc_reg(f"src_run{i}") for i in range(len(runs))]
    r_src_base = [b.alloc_reg(f"srcb_run{i}") for i in range(len(runs))]
    for i, (off, _) in enumerate(runs):
        b.movi(r_src_base[i], src_base + off)
    r_dst = b.alloc_reg("dst")
    r_dst_base = b.alloc_reg("dst_base")
    b.movi(r_dst_base, dst_base)

    r_seq = b.alloc_reg("seq")
    r_seq_total = b.alloc_reg("seq_total")
    b.movi(r_seq, 0)
    b.movi(r_seq_total, geo.seq_steps)
    r_group = b.alloc_reg("group")
    r_group_total = b.alloc_reg("group_total")
    groups, trailing = divmod(cross_count, nslots)
    b.movi(r_group_total, groups)

    def emit_loads(slot: int) -> None:
        """Load the update at the current source pointers into ``slot``."""
        for i, (off, _) in enumerate(runs):
            b.movi(r_x, slots[slot]["block"] + off)
            b.ld_sram(r_x, r_src[i], r_runlen[i], width=labels_width)

    def emit_bump_src() -> None:
        for i in range(len(runs)):
            b.add(r_src[i], r_src[i], imm=geo.cross_stride)

    def emit_dnc_reduce(src_addr: int, dst_addr: int) -> None:
        """Divide-and-conquer min of the L-vector at ``src_addr`` into the
        single element at ``dst_addr`` using only elementwise operations
        (the SP-R machine has no horizontal unit)."""
        b.set_vl(L)
        b.movi(r_a, dnc_tmp)
        b.movi(r_x, src_addr)
        b.movi(r_y, zero_sc)
        b.vs("add", r_a, r_x, r_y, width=labels_width)
        half = L // 2
        while half >= 1:
            b.set_vl(half)
            b.movi(r_a, dnc_tmp)
            b.movi(r_x, dnc_tmp + half * EB)
            b.vv("min", r_a, r_a, r_x, width=labels_width)
            half //= 2
        b.set_vl(1)
        b.movi(r_a, dst_addr)
        b.movi(r_x, dnc_tmp)
        b.movi(r_y, zero_sc)
        b.vs("add", r_a, r_x, r_y, width=labels_width)
        b.set_vl(L)

    def emit_accumulate(slot: int) -> None:
        """Phase A: Equation 1a plus the min-reduction of theta-hat."""
        block = slots[slot]["block"]
        b.movi(r_a, slots[slot]["acc"])
        b.movi(r_x, block + field_offs[0])
        b.movi(r_y, block + field_offs[1])
        b.vv("add", r_a, r_x, r_y, width=labels_width)
        b.movi(r_x, block + field_offs[2])
        b.vv("add", r_a, r_a, r_x, width=labels_width)
        b.movi(r_x, block + field_offs[3])
        b.vv("add", r_a, r_a, r_x, width=labels_width)
        if use_reduction_unit:
            b.movi(r_y, slots[slot]["min"])
            b.set_mr(1)
            b.mv("nop", "min", r_y, r_a, r_a, width=labels_width)
        else:
            emit_dnc_reduce(slots[slot]["acc"], slots[slot]["min"])

    def emit_minsum(slot: int) -> None:
        """Phase B: normalize, Equation 1b, store."""
        b.movi(r_a, slots[slot]["acc"])
        b.movi(r_y, slots[slot]["min"])
        b.vs("sub", r_a, r_a, r_y, width=labels_width)
        if use_reduction_unit:
            b.movi(r_o, slots[slot]["out"])
            b.set_mr(L)
            b.mv("add", "min", r_o, r_s, r_a, width=labels_width)
        else:
            # Equation 1b row by row with elementwise halvings.
            b.movi(r_srow, s_addr)
            b.movi(r_orow, slots[slot]["out"])
            b.movi(r_l, 0)
            row_loop = b.label(f"dnc_row_{len(b._instructions)}")
            b.set_vl(L)
            b.movi(r_a, dnc_tmp)
            b.movi(r_x, slots[slot]["acc"])
            b.vv("add", r_a, r_srow, r_x, width=labels_width)
            half = L // 2
            while half >= 1:
                b.set_vl(half)
                b.movi(r_a, dnc_tmp)
                b.movi(r_x, dnc_tmp + half * EB)
                b.vv("min", r_a, r_a, r_x, width=labels_width)
                half //= 2
            b.set_vl(1)
            b.movi(r_x, dnc_tmp)
            b.movi(r_y, zero_sc)
            b.vs("add", r_orow, r_x, r_y, width=labels_width)
            b.add(r_srow, r_srow, imm=vb)
            b.add(r_orow, r_orow, imm=EB)
            b.add(r_l, r_l, imm=1)
            b.blt(r_l, r_lmax, row_loop)
            b.set_vl(L)
            b.movi(r_o, slots[slot]["out"])
        b.st_sram(r_o, r_dst, r_vl, width=labels_width)
        b.add(r_dst, r_dst, imm=geo.cross_stride)

    def emit_body(j_mod: int) -> None:
        """Steady state for update j (slot ``j_mod``): prefetch update
        j + nslots - 1, finish update j (phase B), start update j+1 (phase
        A).  Phase A of j+1 fills the latency gaps of phase B of j, keeping
        the vector pipe near fully occupied."""
        emit_bump_src()
        emit_loads((j_mod + nslots - 1) % nslots)
        emit_minsum(j_mod)
        emit_accumulate((j_mod + 1) % nslots)

    seq_loop = "seq_loop"
    b.label(seq_loop)
    # Reset working pointers from the per-sweep-step bases.
    for i in range(len(runs)):
        b.mov(r_src[i], r_src_base[i])
    b.mov(r_dst, r_dst_base)
    # Software-pipeline prologue: fill nslots - 2 slots and start update
    # 0's accumulate phase.
    emit_loads(0)
    for s in range(1, nslots - 1):
        emit_bump_src()
        emit_loads(s)
    emit_accumulate(0)
    if groups:
        b.movi(r_group, 0)
        group_loop = b.label("group_loop")
        for j_mod in range(nslots):
            emit_body(j_mod)
        b.add(r_group, r_group, imm=1)
        b.blt(r_group, r_group_total, group_loop)
    for j_mod in range(trailing):
        emit_body(j_mod)
    # Advance to the next sequential position.
    for i in range(len(runs)):
        b.add(r_src_base[i], r_src_base[i], imm=geo.seq_stride)
    b.add(r_dst_base, r_dst_base, imm=geo.seq_stride)
    b.add(r_seq, r_seq, imm=1)
    b.blt(r_seq, r_seq_total, seq_loop)
    b.memfence()
    b.halt()
    return b.build()


@memoize_programs
def build_vault_sweep_programs(
    layout: BPTileLayout, direction: str, num_pes: int = 4
) -> list[Program]:
    """Per-PE programs for one vault sweeping one tile in one direction;
    the cross dimension is split evenly across the PEs."""
    extent = cross_extent(layout, direction)
    programs = []
    for start, count in split_evenly(extent, num_pes):
        if count == 0:
            raise ConfigError(f"more PEs ({num_pes}) than cross extent ({extent})")
        programs.append(build_sweep_program(layout, direction, start, count))
    return programs


# ---------------------------------------------------------------------------
# Hierarchical BP phase kernels: construct (pool data costs) and copy
# (upsample messages), Section VI-A.


@memoize_programs
def build_construct_program(
    fine: BPTileLayout, coarse: BPTileLayout, row_start: int, row_count: int
) -> Program:
    """Pool 2x2 fine data-cost vectors into each coarse theta vector.

    One PE handles coarse rows [row_start, row_start + row_count).
    """
    if (coarse.rows * 2, coarse.cols * 2) != (fine.rows, fine.cols):
        raise ConfigError("coarse layout must be half the fine layout")
    L, vb = fine.labels, fine.vec_bytes
    b = ProgramBuilder()
    sp = ScratchpadAllocator()
    bufs = [sp.alloc(vb, f"c{i}") for i in range(4)]

    r_vl = b.alloc_reg()
    b.movi(r_vl, L)
    b.set_vl(L)
    r_buf = [b.alloc_reg() for _ in range(4)]
    for reg, addr in zip(r_buf, bufs):
        b.movi(reg, addr)

    r_src = [b.alloc_reg() for _ in range(4)]  # 2x2 children pointers
    r_dst = b.alloc_reg()
    r_x = b.alloc_reg()
    r_xmax = b.alloc_reg()
    r_y = b.alloc_reg()
    r_ymax = b.alloc_reg()
    b.movi(r_xmax, coarse.cols)
    b.movi(r_y, 0)
    b.movi(r_ymax, row_count)
    theta_off = fine.field_offset("theta")

    row_loop = b.label("row_loop")
    # Fine children of coarse row y live at fine rows 2*(row_start+y).
    r_rowoff = b.alloc_reg()
    b.mov(r_rowoff, r_y)
    b.add(r_rowoff, r_rowoff, imm=row_start)
    emit_mul_const(b, r_rowoff, 2 * fine.row_stride)
    b.movi(r_src[0], fine.base + theta_off)
    b.add(r_src[0], r_src[0], r_rowoff)
    b.add(r_src[1], r_src[0], imm=fine.block_bytes)  # (2y, 2x+1)
    b.add(r_src[2], r_src[0], imm=fine.row_stride)  # (2y+1, 2x)
    b.add(r_src[3], r_src[2], imm=fine.block_bytes)
    b.mov(r_dst, r_y)
    b.add(r_dst, r_dst, imm=row_start)
    emit_mul_const(b, r_dst, coarse.row_stride)
    b.add(r_dst, r_dst, imm=coarse.base + coarse.field_offset("theta"))

    b.movi(r_x, 0)
    col_loop = b.label("col_loop")
    for i in range(4):
        b.ld_sram(r_buf[i], r_src[i], r_vl)
    b.vv("add", r_buf[0], r_buf[0], r_buf[1])
    b.vv("add", r_buf[0], r_buf[0], r_buf[2])
    b.vv("add", r_buf[0], r_buf[0], r_buf[3])
    b.st_sram(r_buf[0], r_dst, r_vl)
    for i in range(4):
        b.add(r_src[i], r_src[i], imm=2 * fine.block_bytes)
    b.add(r_dst, r_dst, imm=coarse.block_bytes)
    b.add(r_x, r_x, imm=1)
    b.blt(r_x, r_xmax, col_loop)

    b.add(r_y, r_y, imm=1)
    b.blt(r_y, r_ymax, row_loop)
    b.memfence()
    b.halt()
    return b.build()


@memoize_programs
def build_copy_program(
    fine: BPTileLayout, coarse: BPTileLayout, direction: str,
    row_start: int, row_count: int,
) -> Program:
    """Upsample one message field: each coarse message vector is stored to
    its four fine children."""
    L, vb = fine.labels, fine.vec_bytes
    b = ProgramBuilder()
    sp = ScratchpadAllocator()
    buf = sp.alloc(vb, "buf")

    r_vl = b.alloc_reg()
    b.movi(r_vl, L)
    b.set_vl(L)
    r_buf = b.alloc_reg()
    b.movi(r_buf, buf)

    r_src = b.alloc_reg()
    r_dst = [b.alloc_reg() for _ in range(4)]
    r_x = b.alloc_reg()
    r_xmax = b.alloc_reg()
    r_y = b.alloc_reg()
    r_ymax = b.alloc_reg()
    b.movi(r_xmax, coarse.cols)
    b.movi(r_y, 0)
    b.movi(r_ymax, row_count)
    field = coarse.field_offset(direction)

    row_loop = b.label("row_loop")
    r_rowoff = b.alloc_reg()
    b.mov(r_src, r_y)
    b.add(r_src, r_src, imm=row_start)
    emit_mul_const(b, r_src, coarse.row_stride)
    b.add(r_src, r_src, imm=coarse.base + field)
    b.mov(r_rowoff, r_y)
    b.add(r_rowoff, r_rowoff, imm=row_start)
    emit_mul_const(b, r_rowoff, 2 * fine.row_stride)
    b.movi(r_dst[0], fine.base + field)
    b.add(r_dst[0], r_dst[0], r_rowoff)
    b.add(r_dst[1], r_dst[0], imm=fine.block_bytes)
    b.add(r_dst[2], r_dst[0], imm=fine.row_stride)
    b.add(r_dst[3], r_dst[2], imm=fine.block_bytes)

    b.movi(r_x, 0)
    col_loop = b.label("col_loop")
    b.ld_sram(r_buf, r_src, r_vl)
    for i in range(4):
        b.st_sram(r_buf, r_dst[i], r_vl)
    b.add(r_src, r_src, imm=coarse.block_bytes)
    for i in range(4):
        b.add(r_dst[i], r_dst[i], imm=2 * fine.block_bytes)
    b.add(r_x, r_x, imm=1)
    b.blt(r_x, r_xmax, col_loop)

    b.add(r_y, r_y, imm=1)
    b.blt(r_y, r_ymax, row_loop)
    b.memfence()
    b.halt()
    return b.build()
