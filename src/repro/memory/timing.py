"""DRAM timing and geometry parameters (Table III of the paper).

All times are stored in nanoseconds and converted to 1.25 GHz PE cycles
(tCK = 0.8 ns, so 1 cycle = 1 tCK) by the simulator.  The named alternate
configurations of Figure 5 are exposed as constructors so the memory-sweep
bench and tests share one source of truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.knobs import check_knobs, count, number


class RowPolicy(enum.Enum):
    """DRAM row-buffer management policy (Section III-C)."""

    OPEN_PAGE = "open-page"
    CLOSED_PAGE = "closed-page"


class AddressMapping(enum.Enum):
    """HMC address interleaving scheme.

    ``VAULT_HIGH`` is VIP's scheme (vault in the most significant bits so a
    PE's data stays in its local vault); ``VAULT_LOW`` is the default HMC
    scheme (vault in the low bits, maximal interleave for an external host).
    """

    VAULT_HIGH = "vault-row-bank-col"
    VAULT_LOW = "row-bank-vault-col"


@dataclass(frozen=True)
class DramTiming:
    """Timing parameters, in nanoseconds (Table III)."""

    #: Every time is converted to cycles by dividing by tCK.
    tCK: float = number(0.8, above=0)
    tCL: float = number(13.75, min=0)
    tRCD: float = number(13.75, min=0)
    tRP: float = number(13.75, min=0)
    tRAS: float = number(27.5, min=0)
    tWR: float = number(15.0, min=0)
    tCCD: float = number(5.0, min=0)
    tRFC: float = number(81.5, min=0)
    tREFI: float = number(1950.0, min=0)  # 1.95 us — DDR4 "refresh 4x" mode

    def __post_init__(self):
        check_knobs(self, "memory.timing")

    def scaled_refresh(self, factor: int) -> "DramTiming":
        """Return timing with tREFI and tRFC scaled by ``factor``.

        ``factor=2`` is the paper's "refresh 2x" configuration and
        ``factor=4`` is "refresh 1x" (tREFI = 7.8 us, the standard rate).
        """
        return replace(self, tREFI=self.tREFI * factor, tRFC=self.tRFC * factor)


@dataclass(frozen=True)
class MemoryConfig:
    """Geometry + policy of the HMC-like memory system.

    Defaults reproduce Table III: 32 vaults x 16 banks, 65,536 rows of
    256 B accessed as 32 B columns, open-page, vault-row-bank-col mapping,
    queue depths of 32, 10 GB/s per vault (320 GB/s aggregate).
    """

    vaults: int = count(32, min=1)
    banks_per_vault: int = count(16, min=1)
    rows_per_bank: int = count(65536, min=1)
    row_bytes: int = count(256, min=1)
    column_bytes: int = count(32, min=1)
    vault_data_width_bits: int = count(32, min=1)
    burst_length: int = count(8, min=1)
    command_queue_depth: int = count(32, min=1)
    transaction_queue_depth: int = count(32, min=1)
    row_policy: RowPolicy = RowPolicy.OPEN_PAGE
    address_mapping: AddressMapping = AddressMapping.VAULT_HIGH
    #: Model a controller-side write queue (writes acknowledged at CAS
    #: timing, drained opportunistically, no row-buffer disturbance).
    write_buffering: bool = True
    timing: DramTiming = DramTiming()

    def __post_init__(self):
        check_knobs(self, "memory")
        for name in ("vaults", "banks_per_vault", "rows_per_bank", "row_bytes", "column_bytes"):
            value = getattr(self, name)
            if value & (value - 1):
                raise ConfigError(f"memory.{name}: must be a power of two, got {value}")
        if self.column_bytes > self.row_bytes:
            raise ConfigError(f"memory.column_bytes: must be <= row_bytes "
                              f"({self.row_bytes}), got {self.column_bytes}")

    @property
    def columns_per_row(self) -> int:
        return self.row_bytes // self.column_bytes

    @property
    def bank_bytes(self) -> int:
        return self.rows_per_bank * self.row_bytes

    @property
    def vault_bytes(self) -> int:
        return self.banks_per_vault * self.bank_bytes

    @property
    def total_bytes(self) -> int:
        return self.vaults * self.vault_bytes

    @property
    def burst_bytes(self) -> int:
        """Bytes moved by one DRAM burst (32 B: 8 beats of 32 bits)."""
        return self.vault_data_width_bits // 8 * self.burst_length

    @property
    def burst_ns(self) -> float:
        """Data-bus occupancy of one burst: DDR moves two beats per tCK."""
        return self.burst_length / 2 * self.timing.tCK

    @property
    def peak_vault_bandwidth_gbps(self) -> float:
        """Peak per-vault bandwidth in GB/s (the paper quotes 10 GB/s)."""
        return self.burst_bytes / self.burst_ns

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth (the paper quotes 320 GB/s)."""
        return self.vaults * self.peak_vault_bandwidth_gbps


# ---------------------------------------------------------------------------
# Named configurations for the Figure 5 memory sensitivity sweep.


def baseline_config() -> MemoryConfig:
    """Table III as-is ("open page")."""
    return MemoryConfig()


def closed_page_config() -> MemoryConfig:
    """Table III with a closed-page row-buffer policy."""
    return MemoryConfig(row_policy=RowPolicy.CLOSED_PAGE)


def fewer_ranks_config() -> MemoryConfig:
    """4x fewer banks (the HMC has one bank per rank), same capacity."""
    return MemoryConfig(banks_per_vault=4, rows_per_bank=65536 * 4)


def more_ranks_config() -> MemoryConfig:
    """4x more banks, same capacity."""
    return MemoryConfig(banks_per_vault=64, rows_per_bank=65536 // 4)


def wide_row_config() -> MemoryConfig:
    """4x wider rows (1 KiB), 4x fewer rows."""
    return MemoryConfig(row_bytes=1024, rows_per_bank=65536 // 4)


def narrow_row_config() -> MemoryConfig:
    """4x narrower rows (64 B), 4x more rows."""
    return MemoryConfig(row_bytes=64, rows_per_bank=65536 * 4)


def refresh_2x_config() -> MemoryConfig:
    """tREFI and tRFC doubled (halfway to standard DDR4 refresh)."""
    return MemoryConfig(timing=DramTiming().scaled_refresh(2))


def refresh_1x_config() -> MemoryConfig:
    """Standard DDR4 refresh: tREFI = 7.8 us, tRFC scaled to match."""
    return MemoryConfig(timing=DramTiming().scaled_refresh(4))


#: The eight configurations of Figure 5, keyed by the paper's labels.
FIGURE5_CONFIGS = {
    "open page": baseline_config,
    "closed page": closed_page_config,
    "narrow row": narrow_row_config,
    "wide row": wide_row_config,
    "fewer ranks": fewer_ranks_config,
    "more ranks": more_ranks_config,
    "refresh 2x": refresh_2x_config,
    "refresh 1x": refresh_1x_config,
}
