"""8x4 2D torus network-on-chip (Section III-C).

Vaults sit on an 8 (columns) x 4 (rows) grid with wrap-around links in both
dimensions; the four PEs of a vault hang off the vault router in a star.
Links are bidirectional, 64 bits wide in each direction; each router+link
hop costs 3 cycles (Section V-A) and a message additionally occupies every
link it crosses for its serialization time (8 bytes per cycle), which is how
contention appears.

Routing is dimension-ordered (X then Y) with shortest-direction wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.knobs import check_knobs, count
from repro.faults.config import NO_FAULTS
from repro.trace.collector import NULL_TRACE, TraceSink


@dataclass(frozen=True)
class NoCConfig:
    """Topology and timing of the on-chip network."""

    cols: int = count(8, min=1)
    rows: int = count(4, min=1)
    hop_cycles: int = count(3, min=0)
    link_bytes_per_cycle: int = count(8, min=1)
    #: PE <-> vault-router star hop (one cycle each way).
    star_cycles: int = count(1, min=0)

    def __post_init__(self):
        check_knobs(self, "noc")

    @property
    def num_nodes(self) -> int:
        return self.cols * self.rows


@dataclass
class NoCStats:
    messages: int = 0
    total_bytes: int = 0
    total_hops: int = 0


class TorusNetwork:
    """Timing model of the vault-to-vault torus."""

    def __init__(self, config: NoCConfig | None = None,
                 trace: TraceSink = NULL_TRACE, faults=NO_FAULTS):
        self.config = config or NoCConfig()
        #: directed link -> time it becomes free; keyed by (node, direction).
        self._link_free: dict[tuple[int, str], float] = {}
        self.stats = NoCStats()
        self.trace = trace
        self._fl = faults if faults.enabled else None

    def coords(self, node: int) -> tuple[int, int]:
        """Node index -> (column, row)."""
        return node % self.config.cols, node // self.config.cols

    def node(self, col: int, row: int) -> int:
        return (row % self.config.rows) * self.config.cols + (col % self.config.cols)

    def _steps(self, src: int, dst: int) -> list[tuple[int, str]]:
        """Dimension-ordered route as a list of (node, direction) link hops."""
        cols, rows = self.config.cols, self.config.rows
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        steps: list[tuple[int, str]] = []
        x, y = sx, sy
        # X dimension, shortest wrap direction.
        delta = (dx - x) % cols
        direction, count = ("+x", delta) if delta <= cols - delta else ("-x", cols - delta)
        for _ in range(count):
            steps.append((self.node(x, y), direction))
            x = (x + 1) % cols if direction == "+x" else (x - 1) % cols
        # Y dimension.
        delta = (dy - y) % rows
        direction, count = ("+y", delta) if delta <= rows - delta else ("-y", rows - delta)
        for _ in range(count):
            steps.append((self.node(x, y), direction))
            y = (y + 1) % rows if direction == "+y" else (y - 1) % rows
        return steps

    def hops(self, src: int, dst: int) -> int:
        """Number of router+link hops between two vaults."""
        return len(self._steps(src, dst))

    def transfer(self, time: float, src: int, dst: int, nbytes: int) -> float:
        """Send ``nbytes`` from vault ``src`` to vault ``dst`` starting at
        ``time``; returns arrival time of the last byte.

        Each traversed directed link is held for the message's serialization
        time; a busy link delays the message (wormhole-like, modeled at
        message granularity).
        """
        ser = max(1.0, nbytes / self.config.link_bytes_per_cycle)
        arrival = time
        steps = self._steps(src, dst)
        traced = self.trace.enabled
        # A dropped or corrupted message is detected at the destination and
        # re-injected from the source, so the whole route is walked again
        # (attempts - 1 extra traversals, each holding every link).
        attempts = 1
        if self._fl is not None:
            attempts += self._fl.noc_retries(time, src, dst, nbytes)
        for _ in range(attempts):
            for link in steps:
                start = max(arrival, self._link_free.get(link, 0.0))
                self._link_free[link] = start + ser
                if traced:
                    self.trace.noc_link(link[0], link[1], start,
                                        self.config.hop_cycles + ser, nbytes,
                                        start - arrival)
                arrival = start + self.config.hop_cycles + ser
        self.stats.messages += 1
        self.stats.total_bytes += nbytes * attempts
        self.stats.total_hops += len(steps) * attempts
        return arrival

    def pe_to_vault(self, time: float, nbytes: int) -> float:
        """Cross the intra-vault star from a PE to its vault router."""
        return time + self.config.star_cycles + max(
            0.0, nbytes / self.config.link_bytes_per_cycle - 1.0
        )
