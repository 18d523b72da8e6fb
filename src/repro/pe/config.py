"""VIP processing-engine configuration (Sections III-A and III-B)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults.config import NO_FAULTS
from repro.knobs import check_knobs, count, number
from repro.isa.instructions import NUM_REGISTERS, SCRATCHPAD_BYTES
from repro.trace.collector import NULL_TRACE, TraceSink


class HazardMode(enum.Enum):
    """How the simulator treats scratchpad read-before-write timing hazards
    between vector-pipeline instructions.

    VIP exposes vector-pipeline latency to the programmer (Section III-A):
    real hardware has no interlock, and mis-scheduled code reads stale data.
    The paper notes the ARC *could* be extended to interlock the vector
    pipeline at some hardware cost; ``STALL`` models exactly that
    conservative extension and is the default because generated kernels then
    get correct timing without perfect static scheduling.  ``ERROR`` is the
    strict mode used in tests to prove a kernel is validly scheduled.
    """

    STALL = "stall"
    ERROR = "error"


@dataclass(frozen=True)
class PEConfig:
    """Microarchitecture parameters of one VIP PE.

    Defaults reproduce the paper: 1.25 GHz clock, 64-bit vector datapath,
    4 KiB scratchpad with eight banks, single-cycle addition-like vertical
    ops, 4-stage multipliers, a 20-entry ARC, 64 outstanding loads/stores,
    and a 64-entry scalar register file.
    """

    clock_ghz: float = number(1.25, above=0)
    datapath_bits: int = count(64, min=1)
    scratchpad_bytes: int = count(SCRATCHPAD_BYTES, min=1)
    scratchpad_banks: int = count(8, min=1)
    num_registers: int = count(NUM_REGISTERS, min=1)
    vertical_add_latency: int = count(1, min=0)
    vertical_mul_latency: int = count(4, min=0)
    #: Extra pipeline depth of the horizontal (reduction) unit.
    horizontal_latency: int = count(4, min=0)
    arc_entries: int = count(20, min=1)
    max_outstanding_mem: int = count(64, min=1)
    instruction_buffer_entries: int = count(1024, min=1)
    branch_taken_penalty: int = count(1, min=0)
    hazard_mode: HazardMode = HazardMode.STALL
    #: Event sink for the tracing subsystem (``repro.trace``); the default
    #: null sink records nothing and adds no per-event work.
    trace: TraceSink = field(default=NULL_TRACE, compare=False)
    #: Fault injector (``repro.faults``), carried exactly like the trace
    #: sink: the default null object injects nothing and costs one cached
    #: identity check per hook site.
    faults: object = field(default=NO_FAULTS, compare=False)

    def __post_init__(self):
        check_knobs(self, "pe")
        if self.datapath_bits % 8:
            raise ConfigError(f"pe.datapath_bits: must be a whole number of "
                              f"bytes, got {self.datapath_bits}")

    @property
    def datapath_bytes(self) -> int:
        return self.datapath_bits // 8

    def lanes(self, width_bits: int) -> int:
        """Elements processed per cycle at the given element width."""
        return max(1, self.datapath_bits // width_bits)
