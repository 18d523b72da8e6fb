"""Wall-clock overhead of the null-trace path.

The trace hooks are designed to cost one attribute/identity check when
disabled.  This smoke test times a BP-tile simulation with the stock
(null-trace) ``PE.step`` against a monkeypatched "bare" step with the
trace branch deleted, and asserts the null-collector path adds less
than 5% wall time.  Both steps run the interpreter that serves, so they
must simulate the same thing.

Only ``Chip.run`` is timed, not the staging before it.  The two steps
alternate, each pair in the opposite order to the last, with garbage
collection off inside each timed run (as ``timeit`` does), and their
medians are compared.  On a shared 2-core VM a best-of-5 of this ~20 ms
run swings by tens of percent with the odd fast outlier, and whichever
step runs first in a pair runs slower; the paired medians stay within a
few percent of each other.

Wall-clock measurement is noisy on shared CI runners, so the test only
runs when ``TRACE_PERF=1`` is set (the CI workflow sets it in a
dedicated step; plain tier-1 runs skip it).
"""

import gc
import os
import statistics
import time

import pytest

from repro.errors import SimulationError
from repro.kernels.bp_kernel import BPTileLayout, build_vault_sweep_programs
from repro.pe.pe import PE, PEStatus
from repro.system import Chip
from repro.system.config import VIPConfig
from repro.workloads.bp import stereo_mrf

pytestmark = pytest.mark.skipif(
    os.environ.get("TRACE_PERF") != "1",
    reason="wall-clock perf smoke; set TRACE_PERF=1 to run",
)

REPEATS = 9


def _bare_step(self):
    """PE.step with the trace branch removed: the pre-trace hot path."""
    if self.status is not PEStatus.RUNNING:
        return self.status
    self._version += 1
    pc = self.pc
    dec = self._dec
    if not 0 <= pc < len(dec):
        raise SimulationError(f"ran off the instruction buffer at pc={pc}")
    d = dec[pc]
    d.handler(self, d.instr)
    return self.status


def _timed_run(monkeypatch, step):
    """Stage a BP tile on one vault, then time its ``down`` sweep with
    ``step`` as ``PE.step``."""
    monkeypatch.setattr(PE, "step", step)
    config = VIPConfig()
    chip = Chip(config, num_pes=config.pes_per_vault)
    mrf, _ = stereo_mrf(8, 8, labels=4, seed=3)
    layout = BPTileLayout(base=4096, rows=8, cols=8, labels=4)
    layout.stage(chip.hmc.store, mrf, mrf.zero_messages())
    programs = build_vault_sweep_programs(layout, "down", 4)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = chip.run(programs)
        return time.perf_counter() - t0, result
    finally:
        gc.enable()


def test_null_trace_overhead_under_5_percent(monkeypatch):
    steps = {"hooked": PE.step, "bare": _bare_step}
    # Warm up imports and the program decode caches before timing.
    _timed_run(monkeypatch, steps["hooked"])

    walls = {name: [] for name in steps}
    results = {}
    for i in range(REPEATS):
        order = list(steps) if i % 2 == 0 else list(steps)[::-1]
        for name in order:
            wall, results[name] = _timed_run(monkeypatch, steps[name])
            walls[name].append(wall)

    assert results["hooked"].counters == results["bare"].counters
    with_hooks = statistics.median(walls["hooked"])
    bare = statistics.median(walls["bare"])
    overhead = with_hooks / bare - 1.0
    assert overhead < 0.05, (
        f"null-trace path costs {overhead:.1%} over the bare step "
        f"({with_hooks:.4f}s vs {bare:.4f}s, medians of {REPEATS})"
    )
