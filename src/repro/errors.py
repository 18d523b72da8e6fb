"""Exception hierarchy for the VIP reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.

Simulation failures that stop a full-system run (:class:`DeadlockError`,
and the ``max_steps`` :class:`SimulationError`) carry a structured
:class:`~repro.system.chip.BlockedReport` on their ``report`` attribute —
one entry per unfinished PE with its pc, disassembled instruction, and
blocking cause (full-empty address, ARC region, LSU occupancy, ...)::

    from repro.errors import DeadlockError
    from repro.isa import assemble
    from repro.system import Chip

    chip = Chip(num_pes=2)
    waiter = assemble("mov.imm r2, 0x100000\\nld.fe r3, r2\\nhalt")
    try:
        chip.run([waiter, assemble("halt")])
    except DeadlockError as err:
        print(err)            # message already includes the report text
        for entry in err.report.entries:
            print(entry.pe_id, entry.pc, entry.instruction, entry.cause)
    # -> 0 1 'ld.fe r3, r2' 'full-empty'
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class AssemblerError(ReproError):
    """Raised when VIP assembly text cannot be assembled.

    Carries the 1-based source line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded or decoded."""


class SimulationError(ReproError):
    """Raised when the simulator reaches an invalid state.

    Examples: a vector operation whose operands fall outside the scratchpad,
    a scalar register index out of range, or a program that runs past the
    instruction buffer without ``halt``.
    """


class TimingHazardError(SimulationError):
    """Raised in strict hazard mode when a program reads a scratchpad region
    before the instruction producing it would have completed in hardware.

    VIP exposes vector-pipeline latency to the programmer (Section III-A of
    the paper); correctly scheduled code never triggers this.
    """


class DeadlockError(SimulationError):
    """Raised when the full-system scheduler detects that every processing
    engine is blocked (e.g. on full-empty synchronization) and no memory
    event can unblock any of them.

    ``report`` (when provided by the raiser) is a
    :class:`~repro.system.chip.BlockedReport` naming, for each blocked
    PE, its pc, disassembled instruction, and the exact blocking cause.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class UncorrectableEccError(SimulationError):
    """Raised by the SECDED ECC model (``repro.faults``) when a DRAM read
    observes two or more faulty bits in one 64-bit word and
    ``FaultConfig.ecc_double_bit`` is ``"raise"``."""


class ConfigError(ReproError):
    """Raised for invalid configuration values."""

