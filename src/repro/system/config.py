"""Top-level system configuration: 128 PEs + HMC + torus."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.faults.config import NO_FAULTS
from repro.knobs import check_knobs, count
from repro.memory.timing import MemoryConfig
from repro.noc.torus import NoCConfig
from repro.pe.config import PEConfig
from repro.trace.collector import NULL_TRACE, TraceSink


@dataclass(frozen=True)
class VIPConfig:
    """The complete VIP system of the paper.

    Defaults: 32 vaults x 4 PEs = 128 PEs at 1.25 GHz on an 8x4 torus over
    the Table III memory system.
    """

    pe: PEConfig = field(default_factory=PEConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    pes_per_vault: int = count(4, min=1)
    #: Event sink shared by every layer of the system (``repro.trace``).
    #: Propagated into ``pe.trace`` so the PEs see the same collector.
    trace: TraceSink = field(default=NULL_TRACE, compare=False)
    #: Fault injector shared by every layer (``repro.faults``), plumbed
    #: like the trace sink: propagated into ``pe.faults`` and handed to
    #: the memory system and the NoC by :class:`~repro.system.chip.Chip`.
    faults: object = field(default=NO_FAULTS, compare=False)

    def __post_init__(self):
        check_knobs(self, "system")
        if self.trace.enabled and not self.pe.trace.enabled:
            object.__setattr__(self, "pe", replace(self.pe, trace=self.trace))
        if self.faults.enabled and not self.pe.faults.enabled:
            object.__setattr__(self, "pe", replace(self.pe, faults=self.faults))
        if self.noc.num_nodes != self.memory.vaults:
            raise ConfigError(
                f"torus has {self.noc.num_nodes} nodes but memory has "
                f"{self.memory.vaults} vaults"
            )

    @property
    def num_vaults(self) -> int:
        return self.memory.vaults

    @property
    def num_pes(self) -> int:
        return self.num_vaults * self.pes_per_vault

    def vault_of_pe(self, pe_id: int) -> int:
        return pe_id // self.pes_per_vault

    def peak_gops(self, width_bits: int = 16) -> float:
        """Peak vector throughput in GOp/s at the given element width.

        With 16-bit data each PE performs 4 vertical + 4 horizontal
        operations per cycle, giving the paper's 1,280 GOp/s for 128 PEs;
        8-bit data doubles that to 2,560 and 64-bit data divides it to 320.
        """
        ops_per_cycle = 2 * self.pe.lanes(width_bits)
        return self.num_pes * ops_per_cycle * self.pe.clock_ghz

    @property
    def peak_bandwidth_gbps(self) -> float:
        return self.memory.peak_bandwidth_gbps
