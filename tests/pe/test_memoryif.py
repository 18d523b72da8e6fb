"""Memory-port adapter tests."""

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.memory import HMC
from repro.pe.counters import PECounters
from repro.pe.memoryif import (
    FlatMemory,
    FullEmptyState,
    LocalVaultMemory,
    as_bytes,
    from_bytes,
)


class TestFullEmptyState:
    def test_store_then_load(self):
        fe = FullEmptyState()
        fe.store(0x100, 42)
        assert fe.is_full(0x100)
        assert fe.try_load(0x100) == 42
        assert not fe.is_full(0x100)

    def test_load_empties(self):
        fe = FullEmptyState()
        fe.store(0x100, 1)
        fe.try_load(0x100)
        assert fe.try_load(0x100) is None

    def test_distinct_addresses(self):
        fe = FullEmptyState()
        fe.store(0x100, 1)
        assert fe.try_load(0x108) is None


class TestFlatMemory:
    def test_latency_and_bandwidth(self):
        mem = FlatMemory(latency_cycles=10, bytes_per_cycle=8)
        done, _ = mem.access(0, 0.0, 0x100, 80, False)
        assert done == pytest.approx(10 + 10)

    def test_bus_serializes(self):
        mem = FlatMemory(latency_cycles=10, bytes_per_cycle=8)
        first, _ = mem.access(0, 0.0, 0x100, 80, False)
        second, _ = mem.access(0, 0.0, 0x200, 80, False)
        assert second > first

    def test_write_then_read(self):
        mem = FlatMemory()
        mem.access(0, 0.0, 0x100, 4, True, np.array([1, 2, 3, 4], np.uint8))
        _, data = mem.access(0, 1.0, 0x100, 4, False)
        assert list(data) == [1, 2, 3, 4]

    def test_fe_deadlock_single_pe(self):
        mem = FlatMemory()
        with pytest.raises(DeadlockError):
            mem.fe_load(0, 0.0, 0x100)

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            FlatMemory().access(0, 0.0, 0x100, -1, False)


class TestLocalVaultMemory:
    def test_local_access_works(self):
        mem = LocalVaultMemory(HMC(), vault=0)
        mem.hmc.store.write_array(0x100, np.arange(4), np.int16)
        done, data = mem.access(0, 0.0, 0x100, 8, False)
        assert done > 0
        assert list(data.view(np.int16)) == [0, 1, 2, 3]

    def test_remote_access_rejected(self):
        hmc = HMC()
        mem = LocalVaultMemory(hmc, vault=0)
        remote = hmc.mapper.vault_base(5)
        with pytest.raises(SimulationError):
            mem.access(0, 0.0, remote, 8, False)

    def test_column_pacing(self):
        """A multi-column load takes longer than a single column."""
        mem = LocalVaultMemory(HMC(), vault=0)
        one, _ = mem.access(0, 0.0, 0, 32, False)
        mem2 = LocalVaultMemory(HMC(), vault=0)
        many, _ = mem2.access(0, 0.0, 0, 256, False)
        assert many > one


class TestRegisterBytes:
    @pytest.mark.parametrize("value", [0, 1, -1, 2**62, -(2**62), 12345])
    def test_roundtrip(self, value):
        assert from_bytes(as_bytes(value)) == value

    def test_little_endian(self):
        assert list(as_bytes(0x0102)) == [2, 1, 0, 0, 0, 0, 0, 0]


class TestCounters:
    def test_merge_sums_fields(self):
        a = PECounters(instructions=3, stall_arc=1.5)
        b = PECounters(instructions=4, stall_arc=0.5, vector_alu_ops=7)
        merged = a.merge(b)
        assert merged.instructions == 7
        assert merged.stall_arc == 2.0
        assert merged.vector_alu_ops == 7

    def test_total_stall(self):
        c = PECounters(stall_arc=1, stall_lsu=2, stall_hazard=3,
                       stall_operand=4, stall_vector_pipe=5, stall_sync=6)
        assert c.total_stall == 21

    def test_dram_bytes(self):
        c = PECounters(dram_bytes_read=10, dram_bytes_written=5)
        assert c.dram_bytes == 15
