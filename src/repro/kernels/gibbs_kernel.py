"""VIP kernel generator for checkerboard Gibbs sampling on grid MRFs.

Bit-exact fixed-point twin of :mod:`repro.workloads.gibbs.reference`,
generated with the same layout/builder idioms as the BP-M kernel:

* **Conditional build** (vector unit): the pixel's data-cost row is
  ``ld.sram``-ed into the scratchpad, then the smoothness row of each of
  the four neighbors is accumulated with saturating ``vv add``.  The
  neighbor's label is read with ``ld.reg`` and shifted into a scratchpad
  row address — the smoothness matrix (padded with an all-zero row for
  the border sentinel) is resident in the scratchpad, so the lookup is a
  single register shift.
* **Cumulative-sum sampling** (scalar unit): the conditional is flushed
  to a per-PE DRAM scratch row and pulled back through the scalar file
  with ``ld.reg`` (the scalar unit has no scratchpad port; ``ld.reg`` /
  ``st.reg`` move 8-byte DRAM words).  Costs become weights with
  shift-only arithmetic, the 32-bit LCG advances with a shift-add
  constant multiply, and ``u = (draw * total) >> 16`` is a 16-step
  software multiply.  The sampled label is the count of cumulative sums
  ``<= u`` — a branchless sign-bit sum.
* **Checkerboard tiling** (reusing the ``bp.tiling`` strip idea): rows
  are split evenly across the vault's PEs; within a phase only one
  parity is resampled, and same-parity pixels are never 4-neighbors, so
  strips need no intra-phase synchronization.  The ``chip.run`` boundary
  between the two phases is the cross-PE barrier, exactly like the BP
  kernel's inter-sweep barrier.

Labels and LCG states are DRAM-resident int64 words (one per pixel), so
the draw stream a pixel consumes is independent of the PE assignment —
the determinism argument recorded in DESIGN.md §14.
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
from repro.workloads.bp.mrf import GridMRF
from repro.workloads.gibbs.reference import (
    BETA_SHIFT,
    LCG_A,
    LCG_C,
    LCG_MASK,
    SHIFT_CAP,
    WEIGHT_SHIFT,
    init_labels,
    init_states,
    pad_labels,
    padded_smoothness,
)


def _align8(addr: int) -> int:
    return (addr + 7) & ~7


@dataclass(frozen=True)
class GibbsTileLayout:
    """DRAM placement of one Gibbs tile plus its sampler state.

    ``labels`` must be a power of two in [4, 16]: neighbor smoothness
    rows are addressed with a single shift, conditional lanes are
    unpacked four-per-word, and the per-label weight registers must fit
    the scalar file.
    """

    rows: int
    cols: int
    labels: int
    num_pes: int = 4
    base: int = 4096

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigError("tile must be non-empty")
        if self.labels not in (4, 8, 16):
            raise ConfigError(
                f"gibbs kernel supports 4/8/16 labels, got {self.labels}"
            )
        if self.num_pes <= 0:
            raise ConfigError("num_pes must be positive")

    # -- DRAM map -------------------------------------------------------

    @property
    def smooth_base(self) -> int:
        return self.base

    @property
    def theta_base(self) -> int:
        return _align8(self.smooth_base + (self.labels + 1) * self.labels * 2)

    @property
    def labels_base(self) -> int:
        return _align8(self.theta_base + self.rows * self.cols * self.labels * 2)

    @property
    def states_base(self) -> int:
        return self.labels_base + (self.rows + 2) * (self.cols + 2) * 8

    @property
    def cond_base(self) -> int:
        return self.states_base + self.rows * self.cols * 8

    @property
    def cond_stride(self) -> int:
        return 2 * self.labels  # multiple of 8 for labels >= 4

    @property
    def end(self) -> int:
        return self.cond_base + self.num_pes * self.cond_stride

    # -- staging --------------------------------------------------------

    def stage(
        self,
        store,
        mrf: GridMRF,
        labels: np.ndarray | None = None,
        states: np.ndarray | None = None,
        seed: int = 0,
    ) -> None:
        """Write costs, (padded) labels, and LCG states into DRAM."""
        if mrf.data_cost.shape != (self.rows, self.cols, self.labels):
            raise ConfigError("MRF shape does not match layout")
        if (mrf.data_cost < 0).any() or (mrf.smoothness < 0).any():
            raise ConfigError("gibbs kernel requires nonnegative costs")
        if labels is None:
            labels = init_labels(mrf)
        if states is None:
            states = init_states(self.rows, self.cols, seed)
        store.write_array(
            self.smooth_base, padded_smoothness(mrf.smoothness).ravel(), np.int16
        )
        store.write_array(self.theta_base, mrf.data_cost.ravel(), np.int16)
        store.write_array(
            self.labels_base, pad_labels(np.asarray(labels), self.labels).ravel(), np.int64
        )
        store.write_array(self.states_base, np.asarray(states).ravel(), np.int64)

    def read_labels(self, store) -> np.ndarray:
        padded = store.read_array(
            self.labels_base, (self.rows + 2) * (self.cols + 2), np.int64
        ).reshape(self.rows + 2, self.cols + 2)
        return padded[1:-1, 1:-1].copy()

    def read_states(self, store) -> np.ndarray:
        return store.read_array(
            self.states_base, self.rows * self.cols, np.int64
        ).reshape(self.rows, self.cols)


@memoize_programs
def build_phase_program(layout: GibbsTileLayout, pe_index: int, parity: int) -> Program:
    """One PE's program for one checkerboard phase over its row strip."""
    if parity not in (0, 1):
        raise ConfigError("parity must be 0 or 1")
    start_row, num_rows = split_evenly(layout.rows, layout.num_pes)[pe_index]
    b = ProgramBuilder()
    if num_rows == 0:
        b.halt()
        return b.build()

    L = layout.labels
    cols = layout.cols
    prow = cols + 2  # padded label row, in 8-byte words
    row_shift = (2 * L).bit_length() - 1  # log2 of a theta/smoothness row's bytes

    sp = ScratchpadAllocator()
    sp_smooth = sp.alloc((L + 1) * 2 * L, "smoothness")
    assert sp_smooth == 0  # neighbor row address is then just (label << row_shift)
    sp_cond = sp.alloc(2 * L, "conditional", align=8)

    # Constants live in registers when an instruction needs a register
    # operand (vv address, register-shift amount, branch bound).
    r_spcond = b.alloc_reg("sp_cond")
    b.movi(r_spcond, sp_cond)
    r_cnt_l = b.alloc_reg("count_labels")
    b.movi(r_cnt_l, L)
    r_cond_dram = b.alloc_reg("cond_dram")
    b.movi(r_cond_dram, layout.cond_base + pe_index * layout.cond_stride)
    r_mask32 = b.alloc_reg("mask32")
    b.movi(r_mask32, LCG_MASK)
    r_lcg_c = b.alloc_reg("lcg_c")
    b.movi(r_lcg_c, LCG_C)
    r_cap = b.alloc_reg("shift_cap")
    b.movi(r_cap, SHIFT_CAP)
    r_pow = b.alloc_reg("weight_one")
    b.movi(r_pow, 1 << WEIGHT_SHIFT)
    r_sixteen = b.alloc_reg("sixteen")
    b.movi(r_sixteen, 16)
    r_cols = b.alloc_reg("cols")
    b.movi(r_cols, cols)

    # Smoothness (with its zero border row) is resident for the whole phase.
    r_t = b.alloc_reg("tmp")
    r_cnt = b.alloc_reg("tmp_count")
    b.movi(r_t, layout.smooth_base)
    b.movi(r_cnt, (L + 1) * L)
    b.ld_sram(sp_smooth, r_t, r_cnt, width=16)
    b.set_vl(L)

    r_y = b.alloc_reg("y")
    b.movi(r_y, start_row)
    r_yend = b.alloc_reg("y_end")
    b.movi(r_yend, start_row + num_rows)
    r_theta_y = b.alloc_reg("theta_row")
    b.movi(r_theta_y, layout.theta_base + start_row * cols * 2 * L)
    r_lab_y = b.alloc_reg("label_row")
    b.movi(r_lab_y, layout.labels_base + ((start_row + 1) * prow + 1) * 8)
    r_state_y = b.alloc_reg("state_row")
    b.movi(r_state_y, layout.states_base + start_row * cols * 8)

    r_x = b.alloc_reg("x")
    r_theta = b.alloc_reg("theta_px")
    r_lab = b.alloc_reg("label_px")
    r_state = b.alloc_reg("state_px")
    r_nlab = b.alloc_reg("neighbor_label")
    r_srow = b.alloc_reg("smooth_row")
    r_word = b.alloc_reg("cond_word")
    r_lane = b.alloc_reg("cond_lane")
    r_shift = b.alloc_reg("weight_shift")
    r_total = b.alloc_reg("total")
    r_lcg = b.alloc_reg("lcg_state")
    r_draw = b.alloc_reg("draw")
    r_u = b.alloc_reg("u")
    r_mula = b.alloc_reg("mul_bits")
    r_mulb = b.alloc_reg("mul_addend")
    r_muli = b.alloc_reg("mul_i")
    r_bit = b.alloc_reg("mul_bit")
    r_lbl = b.alloc_reg("label_out")
    r_cum = b.alloc_reg("cumulative")
    r_delta = b.alloc_reg("delta")
    r_weights = [b.alloc_reg(f"weight{l}") for l in range(L)]

    b.label("row_loop")
    # First phase column of this row: x0 = (y + parity) & 1.
    b.add(r_x, r_y, imm=parity)
    b.alu("and", r_x, r_x, imm=1)
    b.alu("sll", r_t, r_x, imm=row_shift)
    b.add(r_theta, r_theta_y, r_t)
    b.alu("sll", r_t, r_x, imm=3)
    b.add(r_lab, r_lab_y, r_t)
    b.add(r_state, r_state_y, r_t)
    b.bge(r_x, r_cols, "row_next")

    b.label("col_loop")
    # Conditional = theta row + smoothness rows of the four neighbors
    # (saturating int16, fixed order: up, down, left, right).
    b.ld_sram(r_spcond, r_theta, r_cnt_l, width=16)
    for offset in (-prow * 8, prow * 8, -8, 8):
        b.add(r_t, r_lab, imm=offset)
        b.ld_reg(r_nlab, r_t)
        # A no-op fault-free (labels are in [0, L]); under fault injection
        # it bounds a corrupted label so the smoothness-row address below
        # stays inside the resident table instead of faulting the range
        # check — degraded-column measurement must finish, not crash.
        b.alu("and", r_nlab, r_nlab, imm=2 * L - 1)
        b.alu("sll", r_srow, r_nlab, imm=row_shift)
        b.vv("add", dst=r_spcond, a=r_spcond, b=r_srow, width=16)

    # Scalar unit has no scratchpad port: round-trip the conditional
    # through the per-PE DRAM scratch row and unpack four lanes per word.
    b.st_sram(r_spcond, r_cond_dram, r_cnt_l, width=16)
    b.memfence()
    b.movi(r_total, 0)
    for word in range(L // 4):
        b.add(r_t, r_cond_dram, imm=8 * word)
        b.ld_reg(r_word, r_t)
        for lane in range(4):
            label_idx = 4 * word + lane
            b.alu("srl", r_lane, r_word, imm=16 * lane)
            b.alu("and", r_lane, r_lane, imm=0xFFFF)
            b.alu("srl", r_shift, r_lane, imm=BETA_SHIFT)
            b.blt(r_shift, r_cap, f"capped_{label_idx}")
            b.mov(r_shift, r_cap)
            b.label(f"capped_{label_idx}")
            wreg = r_weights[label_idx]
            b.alu("srl", wreg, r_pow, rs2=r_shift)
            b.add(wreg, wreg, imm=1)
            b.add(r_total, r_total, wreg)

    # Advance this pixel's LCG: s = (A*s + C) & 0xFFFFFFFF.
    b.ld_reg(r_lcg, r_state)
    emit_mul_const(b, r_lcg, LCG_A)
    b.add(r_lcg, r_lcg, r_lcg_c)
    b.alu("and", r_lcg, r_lcg, r_mask32)
    b.st_reg(r_lcg, r_state)
    b.alu("srl", r_draw, r_lcg, imm=16)
    b.alu("and", r_draw, r_draw, imm=0xFFFF)

    # u = (draw * total) >> 16 — 16-step software shift-add multiply.
    b.movi(r_u, 0)
    b.mov(r_mula, r_draw)
    b.mov(r_mulb, r_total)
    b.movi(r_muli, 0)
    b.label("mul_loop")
    b.alu("and", r_bit, r_mula, imm=1)
    b.beq(r_bit, 0, "mul_skip")
    b.add(r_u, r_u, r_mulb)
    b.label("mul_skip")
    b.alu("srl", r_mula, r_mula, imm=1)
    b.alu("sll", r_mulb, r_mulb, imm=1)
    b.add(r_muli, r_muli, imm=1)
    b.blt(r_muli, r_sixteen, "mul_loop")
    b.alu("srl", r_u, r_u, imm=16)

    # label = #{l : cumsum[l] <= u} via the sign bit of (u - cumsum).
    b.movi(r_lbl, 0)
    b.movi(r_cum, 0)
    for label_idx in range(L):
        b.add(r_cum, r_cum, r_weights[label_idx])
        b.sub(r_delta, r_u, r_cum)
        b.alu("sra", r_delta, r_delta, imm=63)
        b.add(r_delta, r_delta, imm=1)
        b.add(r_lbl, r_lbl, r_delta)
    b.st_reg(r_lbl, r_lab)

    b.add(r_theta, r_theta, imm=4 * L)
    b.add(r_lab, r_lab, imm=16)
    b.add(r_state, r_state, imm=16)
    b.add(r_x, r_x, imm=2)
    b.blt(r_x, r_cols, "col_loop")

    b.label("row_next")
    b.add(r_theta_y, r_theta_y, imm=cols * 2 * L)
    b.add(r_lab_y, r_lab_y, imm=prow * 8)
    b.add(r_state_y, r_state_y, imm=cols * 8)
    b.add(r_y, r_y, imm=1)
    b.blt(r_y, r_yend, "row_loop")
    b.halt()
    return b.build()


def build_vault_phase_programs(layout: GibbsTileLayout, parity: int) -> list[Program]:
    """One program per PE for one checkerboard phase.  The ``chip.run``
    boundary between the two phases is the cross-PE barrier."""
    return [build_phase_program(layout, pe, parity) for pe in range(layout.num_pes)]
