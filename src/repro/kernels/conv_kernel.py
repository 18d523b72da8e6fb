"""VIP assembly generation for convolution layers (Section IV-B).

The paper's template: *load in as many k x k x z filters into the
scratchpad as possible, while being able to also store (k+1) x k x z
inputs.  While applying the loaded filters to the k x k window of inputs,
prefetch the next 1 x k x z column of inputs.*

Concretely, for the VGG layers (k = 3, z = 64) the scratchpad holds

* ``F = 2`` filters as three *column matrices* ``W[i]`` of shape
  ``(F, k*z)`` — row ``f`` of ``W[i]`` is filter ``f``'s column ``i``
  flattened over (kernel row, channel) — 2,304 bytes, and
* a ring of ``k+1`` input columns of ``k*z`` elements each — 1,536 bytes,

3,840 bytes total, exactly the paper's budget.  One output pixel is then
``k`` ``m.v.mul.add`` instructions (one per kernel column, each producing
``F`` partial sums at peak MAC throughput) plus two short ``v.v.add``s, a
bias add and a ReLU (``v.s.max`` against a zero in the scratchpad).

Tensors are channels-last; inputs are staged *padded* in DRAM so the
kernel needs no edge special-casing.  For sharded layers (k*k*z too big,
Section IV-B) the caller runs one pass per shard with ``accumulate=False``
and combines partial outputs with :func:`build_accumulate_program`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.kernels.common import ScratchpadAllocator, emit_mul_const, memoize_programs
from repro.memory.store import DramStore

EB = 2  # bytes per element


@dataclass(frozen=True)
class ConvTileLayout:
    """DRAM layout of one PE/vault conv working set.

    ``input`` is the padded input tile (in_h + 2*pad, in_w + 2*pad, z),
    ``weights`` is (num_filters, k, k, z), ``bias`` is (num_filters,),
    ``output`` is (out_h, out_w, num_filters) — all channels-last int16.
    """

    base: int
    in_h: int  # padded input height
    in_w: int  # padded input width
    z: int
    k: int
    num_filters: int
    out_h: int
    out_w: int

    @property
    def input_base(self) -> int:
        return self.base

    @property
    def input_bytes(self) -> int:
        return self.in_h * self.in_w * self.z * EB

    @property
    def weights_base(self) -> int:
        return self.input_base + self.input_bytes

    @property
    def weights_bytes(self) -> int:
        return self.num_filters * self.k * self.k * self.z * EB

    @property
    def bias_base(self) -> int:
        return self.weights_base + self.weights_bytes

    @property
    def bias_bytes(self) -> int:
        return self.num_filters * EB

    @property
    def output_base(self) -> int:
        return self.bias_base + self.bias_bytes

    @property
    def output_bytes(self) -> int:
        return self.out_h * self.out_w * self.num_filters * EB

    @property
    def total_bytes(self) -> int:
        return self.output_base + self.output_bytes - self.base

    def input_addr(self, y: int, x: int) -> int:
        return self.input_base + (y * self.in_w + x) * self.z * EB

    def weight_addr(self, f: int, r: int, i: int) -> int:
        return self.weights_base + ((f * self.k + r) * self.k + i) * self.z * EB

    def output_addr(self, y: int, x: int, f: int) -> int:
        return self.output_base + ((y * self.out_w + x) * self.num_filters + f) * EB

    # -- staging ---------------------------------------------------------

    def stage(self, store: DramStore, inputs: np.ndarray, weights: np.ndarray,
              bias: np.ndarray, pad: int = 1) -> None:
        """Stage (unpadded) inputs, weights and bias into DRAM."""
        h, w, z = inputs.shape
        if (h + 2 * pad, w + 2 * pad) != (self.in_h, self.in_w) or z != self.z:
            raise ConfigError("input shape mismatch with layout")
        if weights.shape != (self.num_filters, self.k, self.k, self.z):
            raise ConfigError("weight shape mismatch with layout")
        padded = np.pad(np.asarray(inputs, dtype=np.int16),
                        ((pad, pad), (pad, pad), (0, 0)))
        store.write_array(self.input_base, padded.ravel(), np.int16)
        store.write_array(self.weights_base, np.asarray(weights, np.int16).ravel(),
                          np.int16)
        store.write_array(self.bias_base, np.asarray(bias, np.int16).ravel(), np.int16)

    def read_output(self, store: DramStore) -> np.ndarray:
        flat = store.read_array(
            self.output_base, self.out_h * self.out_w * self.num_filters, np.int16
        )
        return flat.reshape(self.out_h, self.out_w, self.num_filters)


@memoize_programs
def build_conv_pass_program(
    layout: ConvTileLayout,
    filter_start: int,
    filter_count: int,
    row_start: int,
    row_count: int,
    fx: int = 8,
    apply_relu: bool = True,
    strip_rows: int | None = None,
    passes: int = 1,
) -> Program:
    """``passes`` consecutive convolution *passes*: pass ``p`` applies
    filters [filter_start + p*filter_count, ...) to output rows
    [row_start, row_start + row_count) of the tile.

    The pass walks the tile in *strips* of ``strip_rows`` output rows: the
    input-column ring holds ``k`` columns that each span the full strip
    height plus the kernel halo, so the ring primes once per strip (not per
    row) and every column load feeds ``strip_rows`` output pixels per
    resident filter.  A full layer runs ``ceil(num_filters /
    filter_count)`` such passes per PE — the repeating unit the
    extrapolation model multiplies out.
    """
    k, z, F = layout.k, layout.z, filter_count
    if filter_start + passes * F > layout.num_filters:
        raise ConfigError("filter range out of bounds")
    if row_start + row_count > layout.out_h:
        raise ConfigError("row range out of bounds")
    if strip_rows is None:
        strip_rows = row_count
    strip_rows = min(strip_rows, row_count)
    kz = k * z
    col_rows = strip_rows + k - 1  # input rows spanned by one ring column

    b = ProgramBuilder()
    sp = ScratchpadAllocator()
    w_addr = [sp.alloc(F * kz * EB, f"W{i}") for i in range(k)]
    col_addr = [sp.alloc(col_rows * z * EB, f"col{s}") for s in range(k)]
    # The first kernel column's m.v writes the accumulator directly; the
    # remaining columns share one partial buffer that is added in.
    part_addr = sp.alloc(F * EB, "part")
    acc_addr = sp.alloc(F * EB, "acc")
    bias_addr = sp.alloc(F * EB, "bias")
    zero_addr = sp.alloc(EB, "zero")

    r_z = b.alloc_reg("cnt_z")
    b.movi(r_z, z)
    r_zcol = b.alloc_reg("cnt_zcol")
    b.movi(r_zcol, col_rows * z)
    r_f = b.alloc_reg("cnt_f")
    b.movi(r_f, F)
    r_a = b.alloc_reg("scr_a")
    r_x = b.alloc_reg("scr_x")
    r_y = b.alloc_reg("scr_y")
    b.set_fx(fx)

    # Materialize the ReLU zero constant by subtracting a scratchpad
    # location from itself (no immediate path into the scratchpad exists).
    b.set_vl(1)
    b.movi(r_a, zero_addr)
    b.vs("sub", r_a, r_a, r_a, width=16)

    # Per-pass moving bases: the DRAM filter/bias source and the output
    # channel offset advance by one filter group per pass.
    r_wdram = b.alloc_reg("wdram")
    b.movi(r_wdram, layout.weight_addr(filter_start, 0, 0))
    r_bdram = b.alloc_reg("bdram")
    b.movi(r_bdram, layout.bias_base + filter_start * EB)
    r_foff = b.alloc_reg("foff")
    b.movi(r_foff, 0)
    r_pass = b.alloc_reg("pass")
    r_passes = b.alloc_reg("passes")
    b.movi(r_pass, 0)
    b.movi(r_passes, passes)
    r_i = b.alloc_reg("pre_i")
    r_n = b.alloc_reg("pre_n")

    def emit_preload() -> None:
        """Preload the pass's filters as column matrices: row f of W[i] is
        [w[f,0,i,:], w[f,1,i,:], ..., w[f,k-1,i,:]].  Iterating (f, r)
        lexicographically makes the scratchpad destination contiguous and
        the DRAM source a constant k*z stride, so each column matrix fills
        with one small pointer loop.  No fence is needed: the ARC
        interlocks every consumer against its in-flight loads, so column
        loads overlap the preload and consecutive passes overlap each
        other's tails."""
        for i in range(k):
            b.movi(r_a, w_addr[i])
            b.mov(r_x, r_wdram)
            if i:
                b.add(r_x, r_x, imm=i * z * EB)
            b.movi(r_i, 0)
            b.movi(r_n, F * k)
            loop = b.label(f"preload_{i}_{len(b._instructions)}")
            b.ld_sram(r_a, r_x, r_z)
            b.add(r_a, r_a, imm=z * EB)
            b.add(r_x, r_x, imm=k * z * EB)
            b.add(r_i, r_i, imm=1)
            b.blt(r_i, r_n, loop)
        b.movi(r_a, bias_addr)
        b.ld_sram(r_a, r_bdram, r_f)

    # A strip column is contiguous in the padded input only if the tile
    # spans the full padded width; in general it is col_rows runs of z with
    # stride in_w*z.  When the tile *is* full width the rows still are not
    # contiguous column-wise, so columns always load as col_rows runs.
    r_colptr = b.alloc_reg("colptr")
    r_out_base = b.alloc_reg("out_base")
    r_out = b.alloc_reg("outptr")
    r_col = [b.alloc_reg(f"colcur{i}") for i in range(k)]
    r_xi = b.alloc_reg("xi")
    r_xmax = b.alloc_reg("xmax")
    b.movi(r_xmax, layout.out_w)
    r_r = b.alloc_reg("r")
    r_rmax = b.alloc_reg("rmax")
    r_strip = b.alloc_reg("strip")
    r_stripmax = b.alloc_reg("stripmax")
    strips, strip_rem = divmod(row_count, strip_rows)
    b.movi(r_stripmax, strips)

    def load_column(slot: int) -> None:
        """Load the strip column at DRAM address r_colptr (col_rows runs of
        z channels, row stride in_w*z) into ring ``slot``; bumps r_colptr
        to the next column."""
        b.movi(r_a, col_addr[slot])
        b.mov(r_x, r_colptr)
        b.movi(r_i, 0)
        b.movi(r_n, col_rows)
        loop = b.label(f"ldcol_{slot}_{len(b._instructions)}")
        b.ld_sram(r_a, r_x, r_z)
        b.add(r_a, r_a, imm=z * EB)
        b.add(r_x, r_x, imm=layout.in_w * z * EB)
        b.add(r_i, r_i, imm=1)
        b.blt(r_i, r_n, loop)
        b.add(r_colptr, r_colptr, imm=z * EB)

    def emit_strip(rows_here: int, strip_reg_scaled: bool) -> None:
        """Emit one strip of ``rows_here`` output rows (runtime strip index
        in r_strip)."""
        # Input pointer: padded row (row_start + strip*strip_rows), col 0.
        b.mov(r_colptr, r_strip)
        emit_mul_const(b, r_colptr, strip_rows * layout.in_w * z * EB, r_a, r_x)
        b.add(r_colptr, r_colptr, imm=layout.input_addr(row_start, 0))
        # Output pointer base for the strip (channel offset per pass).
        b.mov(r_out_base, r_strip)
        emit_mul_const(b, r_out_base,
                       strip_rows * layout.out_w * layout.num_filters * EB,
                       r_a, r_x)
        b.add(r_out_base, r_out_base,
              imm=layout.output_addr(row_start, 0, filter_start))
        b.add(r_out_base, r_out_base, r_foff)
        for s in range(k):
            load_column(s)
        b.movi(r_rmax, rows_here)
        b.movi(r_xi, 0)
        x_loop = b.label(f"xloop_{len(b._instructions)}")
        for x_mod in range(k):
            # Inner loop over the strip's output rows at this x position.
            for i in range(k):
                b.movi(r_col[i], col_addr[(x_mod + i) % k])
            b.mov(r_out, r_out_base)
            b.movi(r_r, 0)
            r_loop = b.label(f"rloop_{x_mod}_{len(b._instructions)}")
            b.set_vl(kz)
            b.set_mr(F)
            b.movi(r_a, acc_addr)
            b.mv("mul", "add", r_a, w_reg[0], r_col[0], width=16)
            for i in range(1, k):
                b.movi(r_a, part_addr)
                b.mv("mul", "add", r_a, w_reg[i], r_col[i], width=16)
                b.set_vl(F)
                b.movi(r_x, acc_addr)
                b.vv("add", r_x, r_x, r_a, width=16)
                b.set_vl(kz)
            b.set_vl(F)
            b.movi(r_a, acc_addr)
            b.movi(r_x, bias_addr)
            b.vv("add", r_a, r_a, r_x, width=16)
            if apply_relu:
                b.movi(r_y, zero_addr)
                b.vs("max", r_a, r_a, r_y, width=16)
            b.st_sram(r_a, r_out, r_f)
            b.add(r_out, r_out, imm=layout.out_w * layout.num_filters * EB)
            for i in range(k):
                b.add(r_col[i], r_col[i], imm=z * EB)
            b.add(r_r, r_r, imm=1)
            b.blt(r_r, r_rmax, r_loop)
            # Prefetch the next window's new column (overwrites the ring
            # slot that just went dead) and advance the output base.
            load_column(x_mod % k)
            b.add(r_out_base, r_out_base, imm=layout.num_filters * EB)
            b.add(r_xi, r_xi, imm=1)
            b.bge(r_xi, r_xmax, f"strip_done_{strip_reg_scaled}_{rows_here}")
        b.jmp(x_loop)
        b.label(f"strip_done_{strip_reg_scaled}_{rows_here}")

    # Registers holding the W[i] scratchpad addresses (constants).
    w_reg = [b.alloc_reg(f"wreg{i}") for i in range(k)]
    for i in range(k):
        b.movi(w_reg[i], w_addr[i])

    pass_loop = b.label("pass_loop")
    emit_preload()
    b.movi(r_strip, 0)
    if strips:
        strip_loop = b.label("strip_loop")
        emit_strip(strip_rows, strip_reg_scaled=True)
        b.add(r_strip, r_strip, imm=1)
        b.blt(r_strip, r_stripmax, strip_loop)
    if strip_rem:
        emit_strip(strip_rem, strip_reg_scaled=False)
    b.add(r_wdram, r_wdram, imm=F * k * k * z * EB)
    b.add(r_bdram, r_bdram, imm=F * EB)
    b.add(r_foff, r_foff, imm=F * EB)
    b.add(r_pass, r_pass, imm=1)
    b.blt(r_pass, r_passes, pass_loop)
    b.memfence()
    b.halt()
    return b.build()


def build_accumulate_program(
    partial_bases: list[int],
    output_base: int,
    elements: int,
    bias_base: int | None = None,
    bias_elements: int = 0,
    fx: int = 8,
    apply_relu: bool = True,
    chunk_elements: int = 512,
) -> Program:
    """Sum shard partial outputs elementwise (plus optional bias + ReLU).

    Used for Z-sharded convolutions (Section IV-B: "PEs within these
    vaults compute local partial convolutions, synchronize, then
    accumulate these partial results") and for the FC partial-sum gather.
    ``partial_bases`` may point at remote vaults; communication cost then
    flows through the NoC model.

    When ``bias_base`` is given, the bias pattern of ``bias_elements`` is
    assumed to tile the output (channels-last layout), and
    ``chunk_elements`` must be a multiple of it.
    """
    if len(partial_bases) < 2:
        raise ConfigError("need at least two partials to accumulate")
    if bias_base is not None and chunk_elements % max(1, bias_elements):
        raise ConfigError("chunk must be a multiple of the bias length")

    b = ProgramBuilder()
    sp = ScratchpadAllocator()
    nsrc = len(partial_bases)
    bufs = [sp.alloc(chunk_elements * EB, f"p{i}") for i in range(min(nsrc, 4))]
    bias_buf = sp.alloc(max(1, bias_elements) * EB, "bias") if bias_base is not None else None
    zero_addr = sp.alloc(EB, "zero")

    r_cnt = b.alloc_reg("cnt")
    r_a = b.alloc_reg("scr_a")
    r_x = b.alloc_reg("scr_x")
    r_y = b.alloc_reg("scr_y")
    b.set_fx(fx)
    if bias_base is not None and bias_elements:
        b.movi(r_cnt, bias_elements)
        b.movi(r_a, bias_buf)
        b.movi(r_x, bias_base)
        b.ld_sram(r_a, r_x, r_cnt)
        b.memfence()
    b.set_vl(1)
    b.movi(r_a, zero_addr)
    b.vs("sub", r_a, r_a, r_a, width=16)

    r_srcs = [b.alloc_reg(f"src{i}") for i in range(nsrc)]
    for reg, base in zip(r_srcs, partial_bases):
        b.movi(reg, base)
    r_dst = b.alloc_reg("dst")
    b.movi(r_dst, output_base)
    r_i = b.alloc_reg("i")
    r_n = b.alloc_reg("n")
    chunks, rem = divmod(elements, chunk_elements)
    if rem:
        raise ConfigError("elements must divide evenly into chunks")
    b.movi(r_i, 0)
    b.movi(r_n, chunks)
    b.movi(r_cnt, chunk_elements)

    loop = b.label("loop")
    for i, base in enumerate(partial_bases):
        buf = bufs[min(i, len(bufs) - 1)]
        b.movi(r_a, bufs[0] if i == 0 else buf)
        b.ld_sram(r_a, r_srcs[i], r_cnt)
        b.add(r_srcs[i], r_srcs[i], imm=chunk_elements * EB)
        if i >= 1:
            b.set_vl(chunk_elements)
            b.movi(r_x, bufs[0])
            b.movi(r_y, buf)
            b.vv("add", r_x, r_x, r_y, width=16)
    if bias_base is not None and bias_elements:
        # Add the bias pattern to every bias_elements-long stripe.
        b.set_vl(bias_elements)
        for off in range(0, chunk_elements, bias_elements):
            b.movi(r_x, bufs[0] + off * EB)
            b.movi(r_y, bias_buf)
            b.vv("add", r_x, r_x, r_y, width=16)
    if apply_relu:
        b.set_vl(chunk_elements)
        b.movi(r_x, bufs[0])
        b.movi(r_y, zero_addr)
        b.vs("max", r_x, r_x, r_y, width=16)
    b.movi(r_x, bufs[0])
    b.st_sram(r_x, r_dst, r_cnt)
    b.add(r_dst, r_dst, imm=chunk_elements * EB)
    b.add(r_i, r_i, imm=1)
    b.blt(r_i, r_n, loop)
    b.memfence()
    b.halt()
    return b.build()
