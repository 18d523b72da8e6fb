"""Tables I-IV of the paper.

Tables I-III are descriptive (qualitative platform overview, the ISA
summary, and the memory parameters); Table IV is the measured performance
summary, assembled from the extrapolation models and the baseline models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.gpu import bpm_frame_ms
from repro.baselines.published import (
    EYERISS_VGG16_CONV,
    JETSON_TX2_VGG19,
    MRF_BASELINES,
    TITANX_VGG16,
    VIP_AREA_MM2,
    VIP_POWER_BP_W,
    VIP_POWER_CNN_W,
    VIP_TECH_NM,
    VOLTA_VGG19,
    eyeriss_scaled_time_ms,
)
from repro.isa.instructions import (
    BRANCH_OPS,
    ELEMENTWISE_OPS,
    HORIZONTAL_OPS,
    SCALAR_OPS,
    VERTICAL_OPS,
)
from repro.memory.timing import MemoryConfig
from repro.perf.extrapolate import (
    BPPerformanceModel,
    CNNPerformanceModel,
    HierarchicalBPModel,
    prewarm_cnn_models,
)
from repro.reporting import render_table
from repro.workloads.cnn.vgg import vgg16, vgg19

#: Table I, reproduced verbatim (it is a qualitative judgment table).
TABLE1_ROWS = (
    ("CPU", "Med/High", "Low", "Low", "Very High", "Very High"),
    ("GPU", "High", "Med/High", "High*", "Very High", "Very High"),
    ("FPGA", "Med", "Med", "Med*", "Med", "Med"),
    ("Tile-BP", "Very Low", "Med/High", "N/A", "Very Low", "Very Low"),
    ("Eyeriss", "Very Low", "N/A", "Low", "Very Low", "Very Low"),
    ("TPU", "Med", "N/A", "Very High*", "Low", "Low"),
    ("VIP", "Low/Med", "Very High*", "Med*", "High", "High"),
)

TABLE1_HEADERS = ("Platform", "Power", "PGM tput", "CNN tput",
                  "Programmability (PGM)", "Programmability (CNN)")


def table1() -> str:
    """The paper's qualitative platform-overview table, verbatim."""
    return render_table("Table I: qualitative platform overview",
                        TABLE1_HEADERS, TABLE1_ROWS)


def table2() -> str:
    """The ISA summary, generated from the ISA definition itself."""
    rows = [
        ("Vector/config", "set.{vl,mr}, v.drain (+ set.fx extension)"),
        ("Matrix-vector", "m.v.{%s}.{%s}" % (",".join(VERTICAL_OPS), ",".join(HORIZONTAL_OPS))),
        ("Vector-vector", "v.v.{%s}" % ",".join(ELEMENTWISE_OPS)),
        ("Vector-scalar", "v.s.{%s}" % ",".join(ELEMENTWISE_OPS)),
        ("Scalar ALU", "{%s}" % ",".join(SCALAR_OPS)),
        ("Move", "mov, mov.imm (+ li pseudo)"),
        ("Control", "{%s}, jmp" % ",".join(BRANCH_OPS)),
        ("Load-store", "{ld,st}.sram, {ld,st}.reg, memfence (+ {ld,st}.fe)"),
    ]
    return render_table("Table II: the VIP instruction set", ("Group", "Instructions"), rows)


def table3(config: MemoryConfig | None = None) -> str:
    """Memory simulation parameters, generated from the configuration."""
    cfg = config or MemoryConfig()
    t = cfg.timing
    rows = [
        ("HMC vaults", cfg.vaults), ("Banks per vault", cfg.banks_per_vault),
        ("Vault data width", f"{cfg.vault_data_width_bits} bit"),
        ("Burst length", cfg.burst_length),
        ("Row buffer policy", cfg.row_policy.value),
        ("Address mapping", cfg.address_mapping.value),
        ("Cmd queue depth", cfg.command_queue_depth),
        ("Trans queue depth", cfg.transaction_queue_depth),
        ("tCK", f"{t.tCK} ns"), ("tCL", f"{t.tCL} ns"), ("tRCD", f"{t.tRCD} ns"),
        ("tRP", f"{t.tRP} ns"), ("tRAS", f"{t.tRAS} ns"), ("tWR", f"{t.tWR} ns"),
        ("tCCD", f"{t.tCCD} ns"), ("tRFC", f"{t.tRFC} ns"),
        ("tREFI", f"{t.tREFI / 1000} us"),
        ("Peak bandwidth", f"{cfg.peak_bandwidth_gbps:.0f} GB/s"),
    ]
    return render_table("Table III: memory simulation parameters",
                        ("Parameter", "Value"), rows)


@dataclass
class Table4Row:
    system: str
    workload: str
    detail: str
    time_ms: float
    power_w: float | None
    tech_nm: float | None
    area_mm2: float | None
    source: str  # "simulated" | "published" | "model"


def table4_mrf(bp: BPPerformanceModel,
               hier: HierarchicalBPModel) -> list[Table4Row]:
    """The Markov-random-field block of Table IV."""
    rows = [
        Table4Row(b.system, b.workload, b.note, b.time_ms, b.power_w, b.tech_nm,
                  b.area_mm2, "published")
        for b in MRF_BASELINES
        if b.system != "Pascal Titan X"
    ]
    rows.append(Table4Row("Pascal Titan X", "bp-fhd", "analytic model, 8 iterations",
                          bpm_frame_ms(iterations=8), 250.0, 16, 471.0, "model"))
    result = bp.measure()
    rows.append(Table4Row("VIP (baseline BP-M)", "bp-fhd", "8 iterations, simulated",
                          result.frame_ms(8), VIP_POWER_BP_W, VIP_TECH_NM,
                          VIP_AREA_MM2, "simulated"))
    h = hier.measure()
    rows.append(Table4Row("VIP (hierarchical BP-M)", "bp-fhd", "5 iterations, simulated",
                          h.frame_ms(5, 5), VIP_POWER_BP_W, VIP_TECH_NM,
                          VIP_AREA_MM2, "simulated"))
    return rows


def table4_cnn(models: dict | None = None,
               max_workers: int | None = None) -> list[Table4Row]:
    """The CNN blocks of Table IV.

    ``models`` may supply pre-built CNNPerformanceModel instances keyed by
    (network-name, batch) to avoid re-simulation, and receives the models
    built here.  Models that still need simulating are warmed through one
    flat parallel fan-out over all their layers before the rows are
    assembled.
    """
    if models is None:
        models = {}

    def model(net_factory, batch):
        key = (net_factory().name, batch)
        if key not in models:
            models[key] = CNNPerformanceModel(net_factory(), batch=batch)
        return models[key]

    prewarm_cnn_models(
        [model(vgg16, 3), model(vgg16, 16), model(vgg16, 1), model(vgg19, 1)],
        max_workers=max_workers,
    )
    rows = [
        Table4Row("Eyeriss", "vgg16-conv", "batch 3, published",
                  EYERISS_VGG16_CONV.time_ms, EYERISS_VGG16_CONV.power_w,
                  EYERISS_VGG16_CONV.tech_nm, EYERISS_VGG16_CONV.area_mm2,
                  "published"),
        Table4Row("Eyeriss-scaled", "vgg16-conv",
                  "area/tech/clock normalized to VIP",
                  eyeriss_scaled_time_ms(), None, VIP_TECH_NM, VIP_AREA_MM2,
                  "model"),
        Table4Row("VIP", "vgg16-conv", "batch 3, simulated",
                  model(vgg16, 3).conv_ms(), VIP_POWER_CNN_W, VIP_TECH_NM,
                  VIP_AREA_MM2, "simulated"),
        Table4Row("Pascal Titan X", "vgg16-full", "batch 16, published",
                  TITANX_VGG16.time_ms, TITANX_VGG16.power_w, TITANX_VGG16.tech_nm,
                  TITANX_VGG16.area_mm2, "published"),
        Table4Row("VIP", "vgg16-full", "batch 16, simulated",
                  model(vgg16, 16).network_ms(), VIP_POWER_CNN_W, VIP_TECH_NM,
                  VIP_AREA_MM2, "simulated"),
        Table4Row("VIP", "vgg16-full", "batch 1, simulated",
                  model(vgg16, 1).network_ms(), VIP_POWER_CNN_W, VIP_TECH_NM,
                  VIP_AREA_MM2, "simulated"),
        Table4Row("Volta", "vgg19-full", "batch 1, Tensor cores, published",
                  VOLTA_VGG19.time_ms, VOLTA_VGG19.power_w, VOLTA_VGG19.tech_nm,
                  VOLTA_VGG19.area_mm2, "published"),
        Table4Row("Jetson TX2", "vgg19-full", "batch 1, published",
                  JETSON_TX2_VGG19.time_ms, JETSON_TX2_VGG19.power_w,
                  JETSON_TX2_VGG19.tech_nm, None, "published"),
        Table4Row("VIP", "vgg19-full", "batch 1, simulated",
                  model(vgg19, 1).network_ms(), VIP_POWER_CNN_W, VIP_TECH_NM,
                  VIP_AREA_MM2, "simulated"),
    ]
    return rows


def render_table4(rows: list[Table4Row], title: str) -> str:
    """Render a Table IV block as an aligned text table."""
    return render_table(
        title,
        ("System", "Workload", "Time (ms)", "Power (W)", "Tech (nm)",
         "Area (mm2)", "Source", "Detail"),
        [
            (r.system, r.workload, round(r.time_ms, 1),
             "-" if r.power_w is None else r.power_w,
             "-" if r.tech_nm is None else r.tech_nm,
             "-" if r.area_mm2 is None else r.area_mm2,
             r.source, r.detail)
            for r in rows
        ],
    )
