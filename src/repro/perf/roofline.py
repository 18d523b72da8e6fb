"""The roofline model of Figure 3.

Performance is counted the way the paper counts it (Section VI-A): "we
define performance as only the number of 16 bit ALU operations performed by
the vector units, but we include memory accesses by the scalar pipeline
(e.g., for synchronization) when reporting arithmetic intensity."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pe.counters import PECounters
from repro.system.config import VIPConfig


@dataclass(frozen=True)
class Roofline:
    """A peak-compute / peak-bandwidth envelope."""

    peak_gops: float
    peak_bandwidth_gbps: float

    @property
    def knee(self) -> float:
        """Arithmetic intensity (Op/B) where the two roofs meet."""
        return self.peak_gops / self.peak_bandwidth_gbps

    def attainable_gops(self, arithmetic_intensity: float) -> float:
        return min(self.peak_gops, arithmetic_intensity * self.peak_bandwidth_gbps)

    @classmethod
    def for_vip(cls, config: VIPConfig | None = None, width_bits: int = 16,
                num_pes: int | None = None) -> "Roofline":
        """The chip's roof, or the roof of ``num_pes`` PEs.

        Compute scales with the PEs.  Bandwidth scales with the vaults
        they occupy: each vault's data bus is shared by its PEs, so a
        lone PE can stream its whole vault's peak bandwidth.
        """
        config = config or VIPConfig()
        peak = config.peak_gops(width_bits)
        bw = config.peak_bandwidth_gbps
        if num_pes is not None:
            peak *= num_pes / config.num_pes
            vaults = -(-num_pes // config.pes_per_vault)
            bw = vaults * config.memory.peak_vault_bandwidth_gbps
        return cls(peak_gops=peak, peak_bandwidth_gbps=bw)


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's measured position under the roofline."""

    name: str
    arithmetic_intensity: float  # Op / byte
    gops: float

    def efficiency(self, roofline: Roofline) -> float:
        """Fraction of the attainable roof actually achieved."""
        roof = roofline.attainable_gops(self.arithmetic_intensity)
        return self.gops / roof if roof > 0 else 0.0

    def bound(self, roofline: Roofline) -> str:
        return "memory" if self.arithmetic_intensity < roofline.knee else "compute"


def validate_point(point: RooflinePoint, roofline: Roofline,
                   slack: float = 1.01) -> dict:
    """Check a measured point against the physical roof.

    A *simulated* kernel's sustained throughput can never legitimately
    exceed what the modeled hardware attains at its arithmetic
    intensity — a point above the roof means the timing model dropped
    cycles (or the counters double-counted ops), not that the kernel is
    fast.  Returns a JSON-able verdict; ``within_roof`` is the gate
    (``slack`` absorbs counter rounding at the boundary).
    """
    roof = roofline.attainable_gops(point.arithmetic_intensity)
    return {
        "name": point.name,
        "arithmetic_intensity": point.arithmetic_intensity,
        "gops": point.gops,
        "attainable_gops": roof,
        "efficiency": point.efficiency(roofline),
        "bound": point.bound(roofline),
        "within_roof": point.gops <= roof * slack,
    }


def point_from_counters(
    name: str,
    counters: PECounters,
    cycles: float,
    clock_ghz: float = 1.25,
    extra_bytes: int = 0,
    extra_ops: int = 0,
) -> RooflinePoint:
    """Build a roofline point from simulated PE counters.

    ``extra_bytes``/``extra_ops`` let callers account for work outside the
    simulated window (e.g. boundary synchronization traffic that the
    extrapolation model adds analytically).
    """
    ops = counters.vector_alu_ops + extra_ops
    nbytes = counters.dram_bytes + extra_bytes
    seconds = cycles * 1e-9 / clock_ghz
    gops = ops / seconds / 1e9 if seconds > 0 else 0.0
    ai = ops / nbytes if nbytes > 0 else float("inf")
    return RooflinePoint(name=name, arithmetic_intensity=ai, gops=gops)
