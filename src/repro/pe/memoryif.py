"""Memory ports: what a PE plugs into.

A *memory port* is any object providing::

    access(pe_id, time, addr, nbytes, is_write, data) -> (done_time, data_or_None)
    fe_load(pe_id, time, addr)  -> (done_time, value) or None when blocked
    fe_store(pe_id, time, addr, value) -> done_time

Two implementations live here:

* :class:`FlatMemory` — fixed latency + bandwidth, for unit tests and
  single-PE kernel studies where DRAM detail is irrelevant;
* :class:`LocalVaultMemory` — a single PE attached to one vault of a real
  :class:`~repro.memory.hmc.HMC` through the intra-vault star (no torus),
  for single-PE runs with faithful DRAM timing.

The full-system port (PE + torus + remote vaults + shared full-empty state)
is built by :class:`repro.system.chip.Chip`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DeadlockError, SimulationError
from repro.faults.config import NO_FAULTS
from repro.memory.hmc import HMC
from repro.memory.store import DramStore
from repro.trace.collector import NULL_TRACE, TraceSink


class FullEmptyState:
    """Full-empty synchronization variables (Section IV-A).

    Each 8-byte-aligned DRAM word can carry a *full* bit.  ``store`` sets it
    full with a value; ``load`` consumes the value and marks it empty, or
    reports "not full" so the caller can block.
    """

    def __init__(self):
        self._full: dict[int, int] = {}

    def store(self, addr: int, value: int) -> None:
        self._full[addr] = value

    def try_load(self, addr: int) -> int | None:
        """Consume and return the value if full, else None."""
        return self._full.pop(addr, None)

    def is_full(self, addr: int) -> bool:
        return addr in self._full


class FlatMemory:
    """Idealized DRAM: fixed latency, finite bandwidth, functional store."""

    def __init__(
        self,
        latency_cycles: float = 50.0,
        bytes_per_cycle: float = 8.0,
        size_bytes: int = 1 << 30,
        trace: TraceSink = NULL_TRACE,
        faults=NO_FAULTS,
    ):
        self.latency = latency_cycles
        self.bytes_per_cycle = bytes_per_cycle
        self.store = DramStore(size_bytes)
        self.fe = FullEmptyState()
        self._bus_free = 0.0
        self.bytes_moved = 0
        self.trace = trace
        self.faults = faults
        if faults.enabled:
            # No refresh in the idealized model: retention decay only runs
            # when the config pins an explicit interval.
            faults.bind_store(self.store, None)

    def access(self, pe_id, time, addr, nbytes, is_write, data=None):
        if nbytes < 0:
            raise SimulationError("negative access size")
        if is_write and data is not None:
            self.store.write(addr, data)
        start = max(time + self.latency, self._bus_free)
        done = start + math.ceil(nbytes / self.bytes_per_cycle)
        self._bus_free = done
        self.bytes_moved += nbytes
        out = None
        if not is_write:
            out = self.store.read(addr, nbytes)
            if self.faults.enabled:
                done = self.faults.dram_read(pe_id, addr, out, done)
        if self.trace.enabled:
            self.trace.mem(pe_id, time, done - time, addr, nbytes, is_write)
        return done, out

    def fe_load(self, pe_id, time, addr):
        value = self.fe.try_load(addr)
        if value is None:
            # A single PE blocking on an empty variable can never progress.
            raise DeadlockError(
                f"PE {pe_id} blocked on empty full-empty variable {addr:#x} "
                "with no other producer (single-PE memory)"
            )
        return time + self.latency, value

    def fe_store(self, pe_id, time, addr, value):
        self.fe.store(addr, value)
        return time + self.latency


class LocalVaultMemory:
    """A single PE wired to one vault of a real HMC (local accesses only).

    Column requests are paced one per cycle out of the PE's address
    generator and each takes ``2 * star_cycles`` of network on top of DRAM
    service time.  Remote-vault addresses are rejected: single-PE runs are
    meant to model the paper's independent-tile methodology where a PE only
    touches its local vault.
    """

    def __init__(self, hmc: HMC | None = None, vault: int = 0, star_cycles: int = 1,
                 trace: TraceSink = NULL_TRACE, faults=NO_FAULTS):
        self.hmc = hmc if hmc is not None else HMC(trace=trace, faults=faults)
        self.vault = vault
        # Bind the home controller once: every legal access lands on it,
        # so the per-burst loop never pays a vault lookup.
        self._home_ctl = self.hmc.vaults[vault]
        self.star_cycles = star_cycles
        self.fe = FullEmptyState()
        self.trace = trace
        self.faults = faults if faults.enabled else self.hmc.faults
        if self.faults.enabled and self.hmc.faults is not self.faults:
            # Caller supplied both an HMC and an injector: bind now.
            from repro.memory.bank import TimingCycles

            self.faults.bind_store(
                self.hmc.store, TimingCycles.from_config(self.hmc.config).tREFI
            )

    def access(self, pe_id, time, addr, nbytes, is_write, data=None):
        if is_write and data is not None:
            self.hmc.store.write(addr, data)
        done = time
        star = self.star_cycles
        home = self.vault
        home_ctl = self._home_ctl
        request_time = time + star  # 1 request/cycle pacing
        run = self.hmc.mapper.run_of(addr, nbytes)
        if run is not None and run[1] == home:
            # The whole range lives in one (bank, row) of the home vault
            # — the common case for streamed rows, whose bursts walk the
            # columns of one open row — so the controller services the
            # run in one call with the same one-request-per-cycle pacing.
            count, _, bank, row = run
            if count > 1:
                served = home_ctl.access_run(request_time, bank, row,
                                             count, nbytes, is_write)
            else:
                served = home_ctl.access(request_time, bank, row,
                                         nbytes, is_write)
            return self._finish(pe_id, time, addr, nbytes, is_write,
                                served + star)
        for _, piece_len, vault_id, bank, row in self.hmc.mapper.split_decoded(addr, nbytes):
            if vault_id != home:
                raise SimulationError(
                    f"PE {pe_id} accessed vault {vault_id} but is wired "
                    f"to vault {self.vault} only"
                )
            served = home_ctl.access(request_time, bank, row, piece_len,
                                     is_write)
            served += star
            if served > done:
                done = served
            request_time += 1
        return self._finish(pe_id, time, addr, nbytes, is_write, done)

    def _finish(self, pe_id, time, addr, nbytes, is_write, done):
        out = None
        if not is_write:
            out = self.hmc.store.read(addr, nbytes)
            if self.faults.enabled:
                done = self.faults.dram_read(pe_id, addr, out, done)
        if self.trace.enabled:
            self.trace.mem(pe_id, time, done - time, addr, nbytes, is_write)
        return done, out

    def fe_load(self, pe_id, time, addr):
        value = self.fe.try_load(addr)
        if value is None:
            raise DeadlockError(
                f"PE {pe_id} blocked on empty full-empty variable {addr:#x} "
                "with no other producer (single-PE memory)"
            )
        return time + 2 * self.star_cycles, value

    def fe_store(self, pe_id, time, addr, value):
        self.fe.store(addr, value)
        return time + 2 * self.star_cycles


def as_bytes(value: int) -> np.ndarray:
    """Encode a 64-bit register value as 8 little-endian bytes."""
    return np.frombuffer(
        int(value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"), dtype=np.uint8
    ).copy()


def from_bytes(raw: np.ndarray) -> int:
    """Decode 8 little-endian bytes into a signed 64-bit integer."""
    unsigned = int.from_bytes(bytes(raw[:8]), "little")
    return unsigned - (1 << 64) if unsigned >= (1 << 63) else unsigned
