"""VIP assembly for 2x2 max pooling (Section II-B / IV-B).

Channels-last layout makes pooling a pure vector kernel: each output pixel
is the elementwise max of four z-long vectors (``v.v.max`` three times).
The kernel is memory bound (it performs z*3 comparisons per 5*z elements
moved), matching the pool layers' position at the memory roofline in
Figure 3b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.kernels.common import ScratchpadAllocator, emit_mul_const, memoize_programs
from repro.memory.store import DramStore

EB = 2


@dataclass(frozen=True)
class PoolTileLayout:
    """DRAM layout for one pooling tile: input (in_h, in_w, z) and output
    (in_h//2, in_w//2, z), channels-last int16."""

    base: int
    in_h: int
    in_w: int
    z: int

    def __post_init__(self):
        if self.in_h % 2 or self.in_w % 2:
            raise ConfigError("pooling tile dimensions must be even")

    @property
    def out_h(self) -> int:
        return self.in_h // 2

    @property
    def out_w(self) -> int:
        return self.in_w // 2

    @property
    def input_base(self) -> int:
        return self.base

    @property
    def input_bytes(self) -> int:
        return self.in_h * self.in_w * self.z * EB

    @property
    def output_base(self) -> int:
        return self.input_base + self.input_bytes

    @property
    def output_bytes(self) -> int:
        return self.out_h * self.out_w * self.z * EB

    @property
    def total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes

    def stage(self, store: DramStore, inputs: np.ndarray) -> None:
        inputs = np.asarray(inputs, dtype=np.int16)
        if inputs.shape != (self.in_h, self.in_w, self.z):
            raise ConfigError("input shape mismatch")
        store.write_array(self.input_base, inputs.ravel(), np.int16)

    def read_output(self, store: DramStore) -> np.ndarray:
        flat = store.read_array(self.output_base, self.out_h * self.out_w * self.z,
                                np.int16)
        return flat.reshape(self.out_h, self.out_w, self.z)


@memoize_programs
def build_pool_program(layout: PoolTileLayout, row_start: int, row_count: int) -> Program:
    """Max-pool output rows [row_start, row_start + row_count)."""
    if row_start + row_count > layout.out_h:
        raise ConfigError("row range out of bounds")
    z = layout.z
    b = ProgramBuilder()
    sp = ScratchpadAllocator()
    bufs = [sp.alloc(z * EB, f"v{i}") for i in range(4)]

    r_z = b.alloc_reg("cnt_z")
    b.movi(r_z, z)
    b.set_vl(z)
    r_buf = [b.alloc_reg(f"buf{i}") for i in range(4)]
    for reg, addr in zip(r_buf, bufs):
        b.movi(reg, addr)

    r_src = [b.alloc_reg(f"src{i}") for i in range(4)]
    r_dst = b.alloc_reg("dst")
    r_x = b.alloc_reg("x")
    r_xmax = b.alloc_reg("xmax")
    r_y = b.alloc_reg("y")
    r_ymax = b.alloc_reg("ymax")
    r_t1 = b.alloc_reg("t1")
    r_t2 = b.alloc_reg("t2")
    b.movi(r_xmax, layout.out_w)
    b.movi(r_y, 0)
    b.movi(r_ymax, row_count)
    row_bytes = layout.in_w * z * EB

    row_loop = b.label("row_loop")
    b.mov(r_src[0], r_y)
    b.add(r_src[0], r_src[0], imm=row_start)
    emit_mul_const(b, r_src[0], 2 * row_bytes, r_t1, r_t2)
    b.add(r_src[0], r_src[0], imm=layout.input_base)
    b.add(r_src[1], r_src[0], imm=z * EB)
    b.add(r_src[2], r_src[0], imm=row_bytes)
    b.add(r_src[3], r_src[2], imm=z * EB)
    b.mov(r_dst, r_y)
    b.add(r_dst, r_dst, imm=row_start)
    emit_mul_const(b, r_dst, layout.out_w * z * EB, r_t1, r_t2)
    b.add(r_dst, r_dst, imm=layout.output_base)

    b.movi(r_x, 0)
    col_loop = b.label("col_loop")
    for i in range(4):
        b.ld_sram(r_buf[i], r_src[i], r_z)
    b.vv("max", r_buf[0], r_buf[0], r_buf[1])
    b.vv("max", r_buf[2], r_buf[2], r_buf[3])
    b.vv("max", r_buf[0], r_buf[0], r_buf[2])
    b.st_sram(r_buf[0], r_dst, r_z)
    for i in range(4):
        b.add(r_src[i], r_src[i], imm=2 * z * EB)
    b.add(r_dst, r_dst, imm=z * EB)
    b.add(r_x, r_x, imm=1)
    b.blt(r_x, r_xmax, col_loop)

    b.add(r_y, r_y, imm=1)
    b.blt(r_y, r_ymax, row_loop)
    b.memfence()
    b.halt()
    return b.build()
