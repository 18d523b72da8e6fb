"""Every harness kernel sits under the roofline of the PEs it ran on.

A simulated kernel cannot sustain more than the modeled hardware
attains at its arithmetic intensity: a point above the roof means the
timing model dropped cycles or the counters double-counted ops.
"""

import pytest

from repro.kernels.harness import SIM_BENCHES, run_sim_kernel
from repro.perf.roofline import Roofline, point_from_counters, validate_point

SIZES = pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])


def _verdict(name, run, cycles):
    # A KernelRun keeps one scratchpad per PE the kernel ran on.
    roof = Roofline.for_vip(num_pes=len(run.scratchpads))
    return validate_point(point_from_counters(name, run.counters, cycles),
                          roof)


@SIZES
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_kernel_within_roof(name, quick):
    run = run_sim_kernel(name, quick=quick)
    verdict = _verdict(name, run, run.cycles)
    assert verdict["within_roof"], verdict


@SIZES
def test_gate_catches_dropped_cycles(quick):
    """``conv-pass`` runs at about 0.8 of its roof, so a timing model
    that dropped half its cycles would put it at about 1.6×."""
    run = run_sim_kernel("conv-pass", quick=quick)
    assert not _verdict("conv-pass", run, run.cycles / 2)["within_roof"]
