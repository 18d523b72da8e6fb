"""Image-to-vault tiling for BP-M (Section IV-A).

The image is divided into a square grid of rectangular tiles, with as many
tiles per side as there are vaults (32x32 tiles for the 32-vault HMC).
Tiles are assigned so that

* every row and every column of the tile grid contains tiles of *all*
  vaults (so every vault has work during every directional sweep), and
* adjacent tiles live in vaults that are physical neighbors (so boundary
  message exchange crosses exactly one network link).

Both properties hold for the diagonal assignment ``vault(r, c) =
ring[(r + c) mod V]`` where ``ring`` is a Hamiltonian cycle on the torus:
stepping one tile right or down advances one position along the ring, i.e.
to an immediate physical neighbor.  This is the "ring connecting all the
vaults" the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.noc.torus import NoCConfig, TorusNetwork


def ring_order(noc: NoCConfig | None = None) -> list[int]:
    """A Hamiltonian cycle over the torus: serpentine across rows, closed
    by the row-dimension wrap link.

    Consecutive entries (including last -> first) are physical neighbors;
    requires an even number of rows (the 8x4 HMC grid qualifies).
    """
    noc = noc or NoCConfig()
    if noc.rows % 2:
        raise ConfigError("ring_order needs an even number of torus rows")
    net = TorusNetwork(noc)
    order = []
    for row in range(noc.rows):
        cols = range(noc.cols) if row % 2 == 0 else range(noc.cols - 1, -1, -1)
        for col in cols:
            order.append(net.node(col, row))
    return order


@dataclass
class TileGrid:
    """The tile decomposition of one image."""

    image_rows: int
    image_cols: int
    tiles_per_side: int
    noc: NoCConfig | None = None

    def __post_init__(self):
        if self.noc is None:
            self.noc = NoCConfig()
        if self.tiles_per_side <= 0:
            raise ConfigError("tiles_per_side must be positive")
        self._ring = ring_order(self.noc)
        if self.tiles_per_side % len(self._ring):
            # Assignment still works, each vault just gets unequal counts.
            pass

    @property
    def num_tiles(self) -> int:
        return self.tiles_per_side**2

    def tile_bounds(self, r: int, c: int) -> tuple[int, int, int, int]:
        """(y0, y1, x0, x1) pixel bounds of tile (r, c), half-open."""
        if not (0 <= r < self.tiles_per_side and 0 <= c < self.tiles_per_side):
            raise ConfigError(f"tile ({r}, {c}) out of range")
        y0 = r * self.image_rows // self.tiles_per_side
        y1 = (r + 1) * self.image_rows // self.tiles_per_side
        x0 = c * self.image_cols // self.tiles_per_side
        x1 = (c + 1) * self.image_cols // self.tiles_per_side
        return y0, y1, x0, x1

    def tile_shape(self, r: int, c: int) -> tuple[int, int]:
        y0, y1, x0, x1 = self.tile_bounds(r, c)
        return y1 - y0, x1 - x0

    def max_tile_shape(self) -> tuple[int, int]:
        """Shape of the largest tile (the paper simulates the largest
        independent tile)."""
        n = self.tiles_per_side
        rows = max(self.tile_shape(r, 0)[0] for r in range(n))
        cols = max(self.tile_shape(0, c)[1] for c in range(n))
        return rows, cols

    def vault_of_tile(self, r: int, c: int) -> int:
        """Diagonal ring assignment."""
        return self._ring[(r + c) % len(self._ring)]

    def tiles_of_vault(self, vault: int) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(self.tiles_per_side)
            for c in range(self.tiles_per_side)
            if self.vault_of_tile(r, c) == vault
        ]

    def tiles_per_vault(self) -> int:
        """Tiles each vault processes per sweep (32 for the full system on
        a 32x32 grid)."""
        counts = {}
        for r in range(self.tiles_per_side):
            for c in range(self.tiles_per_side):
                v = self.vault_of_tile(r, c)
                counts[v] = counts.get(v, 0) + 1
        return max(counts.values())


def fullhd_tile_grid() -> TileGrid:
    """The paper's operating point: full-HD over 32x32 tiles (~60x34)."""
    return TileGrid(image_rows=1080, image_cols=1920, tiles_per_side=32)
