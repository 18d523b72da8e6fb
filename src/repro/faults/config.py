"""Fault-injection configuration and the null injector.

A :class:`FaultConfig` is a frozen *specification*: which physical fault
mechanisms are active, at what rates, under which seed.  The mutable
machinery that actually draws and applies faults is
:class:`repro.faults.injector.FaultInjector`; it is carried through
``VIPConfig``/``PEConfig`` exactly like the trace sink, with
:data:`NO_FAULTS` as the zero-cost null-object default.  Hook sites cache
``faults if faults.enabled else None`` so a disabled run performs one
identity check per hook and nothing else — simulated cycles, counters, and
memory contents are byte-identical to a build without the plumbing.

All rates are probabilities per *bit* (per read, per refresh interval, per
write) except the NoC rates, which are per *message traversal*, and the
compute rate, which is per vector result *element*.  A zero rate draws a
binomial with ``p=0`` — no fault ever fires, no timing penalty is ever
added — so a ``(seed, rate=0)`` point of a sweep matches the golden run
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.knobs import check_knobs, choice, count, number


@dataclass(frozen=True)
class FaultConfig:
    """Seeded specification of every pluggable fault mechanism.

    Determinism guarantee: two injectors built from equal configs produce
    identical fault sequences for identical simulations, in the same
    process or across processes (each category draws from its own
    deterministically-seeded stream, so enabling one mechanism never
    shifts another's draws).
    """

    #: Base seed; every category stream and every per-PE/per-page stream
    #: is derived from it.
    seed: int = count(0)

    # -- DRAM (memory/store.py + memory/bank.py refresh timing) --------
    #: Probability per bit per read that a returned bit is flipped
    #: (transient read disturb; the backing store is not modified).
    dram_read_flip_rate: float = number(0.0, min=0, max=1)
    #: Probability per bit per refresh interval that a stored bit decays
    #: (retention failure; persisted to the backing store, page-lazily).
    dram_retention_flip_rate: float = number(0.0, min=0, max=1)
    #: Refresh interval in cycles for the retention model.  ``None`` uses
    #: the bound memory system's tREFI; memories without refresh (e.g.
    #: :class:`~repro.pe.memoryif.FlatMemory`) then disable retention.
    retention_interval_cycles: float | None = number(None, above=0,
                                                     nullable=True)

    # -- PE scratchpad (pe/pe.py writes) -------------------------------
    #: Probability per bit per scratchpad write that the written bit
    #: flips (write noise; applies to DRAM loads and vector results).
    sp_write_flip_rate: float = number(0.0, min=0, max=1)
    #: Probability per bit that a scratchpad cell is stuck at a fixed
    #: value from power-on (manufacturing defects; fixed per PE per seed).
    sp_stuck_cell_rate: float = number(0.0, min=0, max=1)

    # -- NoC (noc/torus.py) --------------------------------------------
    #: Probability per message traversal that a flit is dropped in
    #: flight; detected and re-injected (the message re-traverses its
    #: whole path, re-occupying every link).
    noc_drop_rate: float = number(0.0, min=0, max=1)
    #: Probability per message traversal that a flit is corrupted;
    #: caught by the link-level CRC and re-injected like a drop (counted
    #: separately).
    noc_corrupt_rate: float = number(0.0, min=0, max=1)
    #: Cap on consecutive re-injections of one message.
    noc_max_retries: int = count(8, min=0)

    # -- PE compute (pe/vector_unit.py results) ------------------------
    #: Probability per vector result element that one random bit of the
    #: written element is flipped (transient datapath fault).
    compute_flip_rate: float = number(0.0, min=0, max=1)

    # -- SECDED ECC on DRAM reads --------------------------------------
    #: Model SECDED over 64-bit words: single-bit faults are corrected
    #: (and scrubbed, for retention faults), multi-bit faults follow
    #: ``ecc_double_bit``.
    ecc: bool = False
    #: Extra read latency per corrected word.
    ecc_correction_cycles: float = number(1.0, min=0)
    #: ``"raise"`` aborts the run with UncorrectableEccError;
    #: ``"count"`` delivers the corrupted word and counts it.
    ecc_double_bit: str = choice("raise", ("raise", "count"))

    def __post_init__(self):
        check_knobs(self, "faults")

    @property
    def any_rate_set(self) -> bool:
        """True when at least one fault mechanism can actually fire."""
        return any(
            getattr(self, f) > 0.0
            for f in ("dram_read_flip_rate", "dram_retention_flip_rate",
                      "sp_write_flip_rate", "sp_stuck_cell_rate",
                      "noc_drop_rate", "noc_corrupt_rate",
                      "compute_flip_rate")
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class NullFaultInjector:
    """The no-fault null object — default value of every ``faults`` field.

    ``enabled`` is False; hook sites cache ``faults if faults.enabled else
    None`` so this object is never called on any hot path.
    """

    enabled = False

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return "NO_FAULTS"


#: Shared null injector: the default everywhere a ``faults`` field is
#: carried (``PEConfig``, ``VIPConfig``, memory ports, the NoC).
NO_FAULTS = NullFaultInjector()
