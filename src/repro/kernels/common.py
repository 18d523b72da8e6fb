"""Shared helpers for kernel generators."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import SCRATCHPAD_BYTES


def memoize_programs(builder):
    """Memoize a program builder on its (hashable) arguments.

    Kernel builders are pure functions of frozen layout dataclasses and
    scalars, and experiment sweeps call them repeatedly with identical
    arguments (e.g. the four directional sweep programs per measured BP
    configuration, or one conv pass program per simulated PE).  Programs
    are immutable during simulation — the PC lives in the PE and the
    instruction list is never mutated — so cached instances can be shared
    between runs; this also lets the PE-level pre-decode cache attached to
    a :class:`~repro.isa.program.Program` survive across simulations.

    List results are returned as fresh shallow copies so callers may
    append/slice without corrupting the cache.  Unhashable arguments fall
    back to building uncached.
    """
    cache: dict = {}

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        try:
            key = (args, tuple(sorted(kwargs.items())))
            hash(key)
        except TypeError:
            return builder(*args, **kwargs)
        if key not in cache:
            cache[key] = builder(*args, **kwargs)
        result = cache[key]
        return list(result) if isinstance(result, list) else result

    wrapper.cache_clear = cache.clear
    wrapper.cache = cache
    return wrapper


@dataclass
class ScratchpadAllocator:
    """Bump allocator for scratchpad byte ranges within one PE."""

    size: int = SCRATCHPAD_BYTES
    _cursor: int = 0
    _names: dict = field(default_factory=dict)

    def alloc(self, nbytes: int, name: str | None = None, align: int = 2) -> int:
        cursor = -(-self._cursor // align) * align
        if cursor + nbytes > self.size:
            raise ConfigError(
                f"scratchpad exhausted: need {nbytes} bytes at {cursor} "
                f"(capacity {self.size})"
            )
        self._cursor = cursor + nbytes
        if name is not None:
            self._names[name] = cursor
        return cursor

    def addr(self, name: str) -> int:
        return self._names[name]

    @property
    def used(self) -> int:
        return self._cursor


def split_evenly(total: int, parts: int) -> list[tuple[int, int]]:
    """Split range(total) into ``parts`` contiguous (start, count) slices,
    the first slices taking the remainder."""
    if parts <= 0:
        raise ConfigError("parts must be positive")
    base, extra = divmod(total, parts)
    slices = []
    start = 0
    for i in range(parts):
        count = base + (1 if i < extra else 0)
        slices.append((start, count))
        start += count
    return slices


def emit_mul_const(b: ProgramBuilder, reg: int, constant: int,
                   tmp: int | None = None, scratch: int | None = None) -> None:
    """Multiply ``reg`` by a non-negative compile-time constant in place
    with shift-adds (the scalar ISA has no multiplier).

    ``tmp`` and ``scratch`` are the two working registers; a constant
    above 1 allocates each one not given from ``b``.
    """
    if constant < 0:
        raise ConfigError("negative constants unsupported")
    if constant == 0:
        b.movi(reg, 0)
        return
    if constant == 1:
        return
    if tmp is None:
        tmp = b.alloc_reg()
    if scratch is None:
        scratch = b.alloc_reg()
    b.mov(tmp, reg)
    bits = [i for i in range(constant.bit_length()) if constant >> i & 1]
    b.alu("sll", reg, reg, imm=bits[0])
    for shift in bits[1:]:
        b.mov(scratch, tmp)
        b.alu("sll", scratch, scratch, imm=shift)
        b.add(reg, reg, scratch)
