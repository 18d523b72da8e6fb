"""CNN feature-map tiling across vaults (Section IV-B).

The paper assigns X-Y tiles of each layer's activations to vaults in the
corresponding X-Y torus locations, shards filters across vaults when they
exceed the 4 KiB scratchpad, and uses only half the vaults for the last
convolution block (14x14 features are too small to split 32 ways).

This module computes, per layer: how many vaults participate, each vault's
tile shape, how many filters fit in a scratchpad at once, and whether
filter sharding (with a partial-sum accumulation pass) is needed — the
trip-count inputs for both the kernel generators and the extrapolation
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.isa.instructions import SCRATCHPAD_BYTES
from repro.noc.torus import NoCConfig
from repro.workloads.cnn.layers import ELEMENT_BYTES, ConvSpec, LayerInstance


@dataclass(frozen=True)
class ConvPlacement:
    """How one convolution layer maps onto the VIP system."""

    layer: str
    vaults_used: int
    grid_cols: int  # vault grid used in the feature X dimension
    grid_rows: int
    tile_height: int
    tile_width: int
    #: filters resident in one scratchpad at a time
    filters_per_load: int
    #: output rows processed per input-column load (kernel strip height)
    strip_rows: int
    #: number of Z shards the filter is split into (1 = no sharding)
    z_shards: int
    #: channels per shard
    shard_channels: int

    @property
    def needs_accumulation(self) -> bool:
        return self.z_shards > 1


def plan_conv(
    layer: LayerInstance,
    noc: NoCConfig | None = None,
    scratchpad_bytes: int = SCRATCHPAD_BYTES,
    pes_per_vault: int = 4,
) -> ConvPlacement:
    """Place one convolution layer (paper Section IV-B).

    Policy, following the paper:

    * features >= 28x28 use all 32 vaults (8x4 grid over X-Y);
    * 14x14 features use half the vaults (4x4 grid);
    * the scratchpad holds as many k*k*z filter shards as fit while
      leaving room for (k+1) input columns of k*z elements;
    * if even one filter's k*k*z footprint exceeds the budget, the filter
      is sharded across vaults in the Z dimension and partial sums are
      accumulated afterwards.
    """
    spec = layer.spec
    if not isinstance(spec, ConvSpec):
        raise ConfigError(f"{layer.name} is not a convolution layer")
    noc = noc or NoCConfig()
    out = layer.out_shape
    k = spec.kernel

    if out.height >= 2 * noc.rows and out.width >= 2 * noc.cols:
        grid_cols, grid_rows = noc.cols, noc.rows
    else:
        # Small feature maps: use half the vaults (paper: "we only use half
        # the vaults in VIP for these layers").
        grid_cols, grid_rows = noc.cols // 2, noc.rows
    vaults = grid_cols * grid_rows

    tile_h = -(-out.height // grid_rows)
    tile_w = -(-out.width // grid_cols)

    # Scratchpad budget: filters + (k+1) input columns of k*z values each.
    z = spec.in_channels
    filter_bytes = k * k * z * ELEMENT_BYTES
    input_bytes = (k + 1) * k * z * ELEMENT_BYTES

    z_shards = 1
    shard_z = z
    while filter_bytes + input_bytes > scratchpad_bytes and shard_z > 1:
        z_shards *= 2
        shard_z = z // z_shards
        filter_bytes = k * k * shard_z * ELEMENT_BYTES
        input_bytes = (k + 1) * k * shard_z * ELEMENT_BYTES

    # Per-resident-filter cost: the k x k x z weights plus the partial,
    # accumulator, and bias slots (one element each); a few bytes remain
    # for the ReLU zero constant.
    per_filter = k * k * shard_z * ELEMENT_BYTES + 3 * ELEMENT_BYTES
    budget = scratchpad_bytes - input_bytes - 8
    filters_per_load = max(1, budget // max(1, per_filter))
    filters_per_load = min(filters_per_load, spec.out_channels)

    # With the filters placed, give the remaining space to the input-column
    # ring: k columns spanning strip_rows + k - 1 feature rows each.  Taller
    # strips amortize ring priming over more output rows.
    pe_rows = max(1, -(-tile_h // pes_per_vault))
    remaining = scratchpad_bytes - filters_per_load * per_filter - 8
    col_budget = remaining // max(1, k * shard_z * ELEMENT_BYTES)
    strip_rows = max(1, min(col_budget - (k - 1), pe_rows, 28))

    return ConvPlacement(
        layer=layer.name,
        vaults_used=vaults,
        grid_cols=grid_cols,
        grid_rows=grid_rows,
        tile_height=tile_h,
        tile_width=tile_w,
        filters_per_load=filters_per_load,
        strip_rows=strip_rows,
        z_shards=z_shards,
        shard_channels=shard_z,
    )


@dataclass(frozen=True)
class FCPlacement:
    """How one fully-connected layer maps onto the system: the weight
    matrix is tiled over all vaults; each vault computes partial products
    for its column stripe and row-side vaults accumulate (Section IV-C)."""

    layer: str
    vaults_used: int
    rows_per_vault: int
    cols_per_vault: int


def plan_fc(out_features: int, in_features: int, name: str,
            noc: NoCConfig | None = None) -> FCPlacement:
    """Tile an FC weight matrix over the vault grid (Section IV-C)."""
    noc = noc or NoCConfig()
    vaults = noc.num_nodes
    # Tile the (out x in) weight matrix on the 8x4 vault grid: rows split
    # over torus rows*2, columns over the rest (any balanced split works;
    # communication is dominated by the input broadcast + partial gather).
    row_split = noc.rows
    col_split = noc.cols
    return FCPlacement(
        layer=name,
        vaults_used=vaults,
        rows_per_vault=-(-out_features // row_split),
        cols_per_vault=-(-in_features // col_split),
    )
