"""The PE's shortcuts must be optimizations, never a model change.

Every kernel of :mod:`repro.kernels.harness` is run on
:class:`~repro.pe.pe.PE` and on the straight-line
:class:`~repro.pe.reference.ReferencePE`, and the runs
must agree on *everything observable*: simulated cycles, the PE
counters, DRAM contents, and scratchpad contents.  This is the
correctness gate for the pre-decoded hot loop, the cached issue lower
bound and its kept operand scan, the interval-list scratchpad timing
tracker, the short- and long-vector paths and the chip run-ahead.  A
traced run, with the PEs and the memory system traced, takes the same
interpreter: it must also equal the untraced one, and its events must
rebuild its counters.  A run with scratchpad and compute faults injected
must equal the reference run with the same faults, fault counts
included: the fault hook reads each vector result in the step that
wrote it.
"""

import pytest

from repro.faults import FaultConfig, FaultInjector
from repro.kernels.harness import SIM_BENCHES, run_sim_kernel
from repro.trace import TraceCollector
from repro.trace.crosscheck import assert_counters_match


def _injector():
    return FaultInjector(FaultConfig(seed=3, sp_write_flip_rate=1e-3,
                                     sp_stuck_cell_rate=1e-3,
                                     compute_flip_rate=1e-2))


@pytest.mark.parametrize("variant", ["untraced", "traced", "faults"])
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_pe_matches_reference(name, variant):
    if variant == "faults":
        injected, oracle = _injector(), _injector()
        run = run_sim_kernel(name, quick=True, faults=injected)
        reference = run_sim_kernel(name, reference=True, quick=True,
                                   faults=oracle)
        assert injected.stats == oracle.stats
        assert injected.stats.total_injected > 0
    else:
        reference = run_sim_kernel(name, reference=True, quick=True)
        if variant == "traced":
            tc = TraceCollector()
            run = run_sim_kernel(name, quick=True, trace=tc)
            assert_counters_match(run.counters, tc.events)
            run.assert_equal(run_sim_kernel(name, quick=True),
                             f"{name}[traced vs untraced]")
        else:
            run = run_sim_kernel(name, quick=True)
    # assert_equal raises with a precise message on any divergence.
    run.assert_equal(reference, f"{name}[{variant}]")
    assert run.cycles > 0
    assert run.counters.instructions > 0


def test_bp_tile_full_size_cycles_match():
    """One non-quick macro as a deeper check: the larger tile exercises
    multi-strip sweeps, ARC pressure, and the conservative multi-PE
    scheduler more heavily."""
    run = run_sim_kernel("vault-bp-tile", quick=False)
    reference = run_sim_kernel("vault-bp-tile", reference=True, quick=False)
    run.assert_equal(reference, "vault-bp-tile-full")
