"""Figure 4: scratchpad + reduction-unit ablation on 64x32-tile vertical
BP-M updates.

Paper shape targets: configurations without the reduction unit are slower
than their +R counterparts, and register-file configurations are slower
than their scratchpad counterparts; SP+R (VIP proper) is fastest.
"""

from repro.baselines import run_figure4
from repro.experiments import render_figure4


def bench_figure4():
    results = run_figure4()
    print("\n" + render_figure4(results))
    t = {r.variant: r.time_ms for r in results}
    assert t["SP+R"] < t["SP-R"], "reduction unit must help the scratchpad machine"
    assert t["RF+R"] < t["RF-R"], "reduction unit must help the RF machine"
    assert t["SP+R"] < t["RF+R"], "scratchpad must beat the register file (+R)"
    assert t["SP-R"] < t["RF-R"], "scratchpad must beat the register file (-R)"
    assert min(t.values()) == t["SP+R"]
