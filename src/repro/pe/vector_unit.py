"""Functional and timing model of the VIP vector unit.

The vector unit (Section III-B) is two pipelined stages: a *vertical* unit
performing elementwise operations and a *horizontal* unit reducing vectors
to scalars, bypassed when not needed.  Both have a 64-bit datapath that
processes one 64-bit, two 32-bit, four 16-bit, or eight 8-bit elements per
cycle; longer vectors stream through over multiple cycles in the classic
temporal vector-processing style.

Functional semantics (shared with the workload references through
``repro.fixedpoint``):

* vertical ``add/sub/min/max`` — saturating at the element width;
* vertical ``mul`` — full product, arithmetic right shift by the PE's
  dynamic fixed-point ``fx`` amount, then saturation;
* vertical ``nop`` — passes the matrix operand through unchanged (used with
  a horizontal op to reduce the rows of a matrix);
* horizontal ``add`` — 64-bit internal accumulator, saturate on writeback;
* horizontal ``min/max`` — exact.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from operator import add, mul, sub

import numpy as np

from repro.errors import SimulationError
from repro.fixedpoint import (
    DTYPES,
    int_bounds,
    sat_add,
    sat_mul,
    sat_reduce_add,
    sat_sub,
    saturate_cast,
)
from repro.isa.instructions import Opcode
from repro.pe.config import PEConfig


def apply_vertical(op: str, a: np.ndarray, b: np.ndarray, bits: int, fx: int) -> np.ndarray:
    """Apply a vertical operator elementwise; inputs/outputs are int64."""
    if op == "add":
        return sat_add(a, b, bits)
    if op == "sub":
        return sat_sub(a, b, bits)
    if op == "mul":
        return sat_mul(a, b, bits, frac_shift=fx)
    if op == "min":
        return np.minimum(a, b)
    if op == "max":
        return np.maximum(a, b)
    if op == "nop":
        return np.asarray(a, dtype=np.int64)
    raise SimulationError(f"unknown vertical op {op!r}")


def apply_horizontal(op: str, rows: np.ndarray, bits: int) -> np.ndarray:
    """Reduce each row of ``rows`` (2-D int64) to a scalar."""
    if op == "add":
        return sat_reduce_add(rows, bits)
    if op == "min":
        return rows.min(axis=1)
    if op == "max":
        return rows.max(axis=1)
    raise SimulationError(f"unknown horizontal op {op!r}")


#: Largest vector instruction (``rows * cols`` elements) that
#: :func:`short_vector_op` executes.  Per 16-bit ``v.v.add`` on a 2-core
#: Xeon VM, Python integers against one queued NumPy op: 2.5 vs 13.0 us
#: at 2 elements, 5.7 vs 13.9 at 16, 10.8 vs 16.4 at 32, and 16.7 vs 14.1
#: at 64, where NumPy wins.  32 keeps every short op on Python's side.
SHORT_VECTOR_ELEMENTS = 32

#: ``struct`` codes for the widths the short path takes.  64-bit ops stay
#: on NumPy: its int64 products and sums wrap, Python integers do not.
_SHORT_CODES = {8: "b", 16: "h", 32: "i"}

#: width -> (native-order, unaligned ``struct.Struct`` views over the
#: scratchpad bytes indexed by element count, min value, max value).
_SHORT_FORMATS = {
    width: (tuple(struct.Struct(f"={n}{code}")
                  for n in range(SHORT_VECTOR_ELEMENTS + 1)),
            *int_bounds(width))
    for width, code in _SHORT_CODES.items()
}


def _clamp(values: list, lo: int, hi: int) -> list:
    if min(values) < lo or max(values) > hi:
        return [lo if v < lo else hi if v > hi else v for v in values]
    return values


def _vertical_ints(op: str, a, b, lo: int, hi: int, fx: int):
    """:func:`apply_vertical` on Python integers.  Operands are at most 32
    bits wide, so no product or sum leaves the int64 range NumPy uses."""
    if op == "add":
        return _clamp(list(map(add, a, b)), lo, hi)
    if op == "sub":
        return _clamp(list(map(sub, a, b)), lo, hi)
    if op == "mul":
        if fx:
            return _clamp([v >> fx for v in map(mul, a, b)], lo, hi)
        return _clamp(list(map(mul, a, b)), lo, hi)
    if op == "min":
        return [x if x < y else y for x, y in zip(a, b)]
    if op == "max":
        return [x if x > y else y for x, y in zip(a, b)]
    if op == "nop":
        return a
    raise SimulationError(f"unknown vertical op {op!r}")


def _horizontal_ints(op: str, vert, rows: int, cols: int,
                     lo: int, hi: int) -> list:
    """:func:`apply_horizontal` on Python integers, ``rows`` x ``cols``."""
    if op == "add":
        reduce = sum
    elif op == "min":
        reduce = min
    elif op == "max":
        reduce = max
    else:
        raise SimulationError(f"unknown horizontal op {op!r}")
    if rows == 1:
        out = [reduce(vert)]
    else:
        out = [reduce(vert[i:i + cols]) for i in range(0, rows * cols, cols)]
    return _clamp(out, lo, hi) if reduce is sum else out


def short_vector_op(buf, opcode: Opcode, vop: str, hop: str | None,
                    width: int, rows: int, cols: int, fx: int,
                    src1: int, src2: int, dst: int) -> None:
    """Execute one MV/VV/VS instruction of at most
    :data:`SHORT_VECTOR_ELEMENTS` elements and width <= 32 bits in place.

    ``buf`` is the scratchpad's byte buffer (any writable object with
    the buffer protocol, such as its ``uint8`` array).  Operands are
    read at any byte offset before the result is written, so a
    destination may overlap a source.  Results are bit-identical to
    ``read_vector`` -> :func:`apply_vertical` (-> :func:`apply_horizontal`
    for MV) -> ``write_vector``; the caller has range-checked every
    operand.
    """
    structs, lo, hi = _SHORT_FORMATS[width]
    a = structs[rows * cols].unpack_from(buf, src1)
    if opcode is Opcode.VS:
        b = structs[1].unpack_from(buf, src2) * cols
    else:
        b = structs[cols].unpack_from(buf, src2)
    if opcode is Opcode.MV:
        if rows > 1:
            b = b * rows
        out = _horizontal_ints(hop, _vertical_ints(vop, a, b, lo, hi, fx),
                               rows, cols, lo, hi)
    else:
        out = _vertical_ints(vop, a, b, lo, hi, fx)
    structs[len(out)].pack_into(buf, dst, *out)


@dataclass(frozen=True)
class VectorTiming:
    """Issue-relative timing of one vector instruction."""

    occupancy: float  # cycles the instruction holds the pipeline entry stage
    done: float  # cycles after issue when the last result is written


@functools.lru_cache(maxsize=4096)
def vector_timing(
    config: PEConfig,
    vop: str,
    use_horizontal: bool,
    elements_per_row: int,
    rows: int,
    width_bits: int,
) -> VectorTiming:
    """Compute pipeline occupancy and completion latency.

    ``elements_per_row`` stream through at ``lanes`` per cycle; ``rows > 1``
    (matrix-vector instructions) repeat the stream per matrix row.  The
    pipeline depth is the vertical latency (1 for addition-like operations,
    4 for multiplies) plus the horizontal reduction depth when the
    horizontal unit is not bypassed.

    The result is a pure function of the arguments (``PEConfig`` is frozen
    and hashable, ``trace`` is excluded from its hash), so it is memoised:
    kernels re-issue the same few (vl, mr, width) shapes millions of times.
    """
    lanes = config.lanes(width_bits)
    chunks_per_row = max(1, math.ceil(elements_per_row / lanes))
    occupancy = chunks_per_row * max(1, rows)
    depth = (
        config.vertical_mul_latency if vop == "mul" else config.vertical_add_latency
    )
    if use_horizontal:
        depth += config.horizontal_latency
    return VectorTiming(occupancy=occupancy, done=occupancy - 1 + depth)


class ScratchpadView:
    """Typed access to a PE scratchpad byte buffer.

    The scratchpad may be read or written at any byte address (the banked
    structure with swizzle logic removes alignment restrictions,
    Section III-B), so reads copy out and writes copy in.
    """

    def __init__(self, data: np.ndarray):
        self.data = data

    def check_range(self, addr: int, nbytes: int, what: str) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.data.size:
            raise SimulationError(
                f"{what} [{addr}, {addr + nbytes}) outside the "
                f"{self.data.size}-byte scratchpad"
            )

    def read_vector(self, addr: int, count: int, width_bits: int) -> np.ndarray:
        dtype = DTYPES[width_bits]
        nbytes = count * dtype().itemsize
        self.check_range(addr, nbytes, "vector read")
        # astype copies, so the slice can be viewed without a copy first.
        return self.data[addr : addr + nbytes].view(dtype).astype(np.int64)

    def write_vector(self, addr: int, values: np.ndarray, width_bits: int) -> None:
        dtype = DTYPES[width_bits]
        # Writeback consumes ``values`` (always a freshly computed result),
        # so the saturating cast may clamp its buffer in place.
        out = saturate_cast(values, width_bits)
        nbytes = out.size * dtype().itemsize
        self.check_range(addr, nbytes, "vector write")
        self.data[addr : addr + nbytes] = out.view(np.uint8)


def flip_element_bits(
    scratchpad: np.ndarray,
    start: int,
    element_size: int,
    elements: np.ndarray,
    bits: np.ndarray,
) -> None:
    """XOR single bits into vector elements already stored in a scratchpad.

    ``elements[i]`` names an element index relative to ``start`` and
    ``bits[i]`` a bit position within that element (``0 .. 8*element_size``).
    Used by ``repro.faults`` to model transient compute faults after the
    functional result has been written back.  ``bitwise_xor.at`` makes
    repeated hits on the same byte accumulate instead of racing.
    """
    byte_index = start + elements * element_size + (bits >> 3)
    masks = (np.uint8(1) << (bits & 7).astype(np.uint8)).astype(np.uint8)
    np.bitwise_xor.at(scratchpad, byte_index, masks)
