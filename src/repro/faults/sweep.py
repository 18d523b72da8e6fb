"""Resilience sweeps: workload quality as a function of fault rate.

Runs the two paper workload families that bracket VIP's sensitivity to
silent data corruption:

* **BP-M on one vault** (``bp``) — iterative message passing over a grid
  MRF; quality is the fraction of labels that agree with the fault-free
  golden run plus the MRF energy ratio (BP tolerates noise that decoding
  absorbs, so energy degrades gracefully).
* **A VGG-geometry convolution pass on one PE** (``conv``) — a feed-
  forward kernel with no redundancy; quality is the output MSE against
  the golden pass, so every delivered flip shows up.

Every point constructs its :class:`~repro.faults.injector.FaultInjector`
*inside the task function* from ``(mechanism, rate, seed)``, so a sweep
is bit-reproducible whether it runs serially or across a process pool,
and the zero-rate point (injector attached, nothing drawn) must match
the golden run exactly — that equality is asserted in CI.

Failed points (e.g. ``UncorrectableEccError`` under ``ecc_double_bit=
"raise"``) are salvaged as ``ok=False`` rows through the hardened
``run_tasks(..., return_errors=True)`` path rather than aborting the
campaign.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.kernels.harness import run_conv_pass
from repro.perf.runner import Task, run_tasks

SCHEMA = "repro.faults.sweep/v1"

#: Sweep mechanism name -> the FaultConfig rate field it drives.
MECHANISMS = {
    "dram": "dram_read_flip_rate",
    "retention": "dram_retention_flip_rate",
    "sp": "sp_write_flip_rate",
    "stuck": "sp_stuck_cell_rate",
    "compute": "compute_flip_rate",
    "noc": "noc_drop_rate",
}

WORKLOADS = ("bp", "conv")

#: Default rate grid: a zero anchor plus three decades.
DEFAULT_RATES = (0.0, 1e-6, 1e-5, 1e-4)

CSV_COLUMNS = (
    "workload", "mechanism", "rate", "seed", "ok", "cycles", "agreement",
    "energy", "energy_ratio", "mse", "max_abs_err", "faults_injected",
    "attempts", "error",
)


def fault_config(mechanism: str, rate: float, seed: int,
                 ecc: bool = False) -> FaultConfig:
    """The FaultConfig for one sweep point."""
    if mechanism not in MECHANISMS:
        raise ConfigError(
            f"unknown fault mechanism {mechanism!r}; "
            f"choose from {sorted(MECHANISMS)}"
        )
    return FaultConfig(seed=seed, ecc=ecc, **{MECHANISMS[mechanism]: rate})


def check_grid(workloads: Sequence[str], rates: Sequence[float],
               seeds: Sequence[int], mechanism: str) -> None:
    """Raise :class:`ConfigError`, naming the ``python -m repro.faults``
    flag that sets it, for an empty workload, rate or seed list, an
    unknown workload or mechanism, or a rate outside ``[0, 1]``."""
    for flag, values in (("--workloads", workloads), ("--rates", rates),
                         ("--seeds", seeds)):
        if not values:
            raise ConfigError(f"{flag}: needs at least one value")
    for workload in workloads:
        if workload not in WORKLOADS:
            raise ConfigError(f"--workloads: unknown workload {workload!r}; "
                              f"choose from {', '.join(WORKLOADS)}")
    try:
        fault_config(mechanism, 0.0, 0)
    except ConfigError as exc:
        raise ConfigError(f"--mechanism: {exc}") from None
    for rate in rates:
        try:
            fault_config(mechanism, rate, 0)
        except ConfigError as exc:
            raise ConfigError(f"--rates: {exc}") from None


# ----------------------------------------------------------------------
# workload runs (module-level: task functions must pickle)


def _bp_run(faults: FaultInjector | None, quick: bool):
    from repro.system.config import VIPConfig
    from repro.workloads.bp import stereo_mrf
    from repro.workloads.bp.runner import run_bpm_on_chip

    rows, cols, labels = (8, 8, 4) if quick else (12, 16, 8)
    iterations = 2 if quick else 4
    mrf, _ = stereo_mrf(rows, cols, labels=labels, seed=7)
    config = VIPConfig() if faults is None else VIPConfig(faults=faults)
    result = run_bpm_on_chip(mrf, iterations=iterations, config=config)
    return mrf, result


#: ``(out_h, out_w, z)`` of the conv pass, quick and full.
_CONV_SIZE = {True: (4, 8, 16), False: (8, 16, 64)}


def _conv_output(run) -> np.ndarray:
    """The output feature map of a conv pass, read from its DRAM image."""
    layout = run.layout
    start = layout.output_base - layout.base
    flat = run.dram[start:start + layout.output_bytes].view(np.int16)
    return flat.reshape(layout.out_h, layout.out_w, layout.num_filters)


def bp_point(*, mechanism: str, rate: float, seed: int, ecc: bool,
             quick: bool, golden_labels: np.ndarray, golden_energy: int,
             golden_cycles: float) -> dict[str, Any]:
    """One BP-M resilience point (runs in a pool worker)."""
    injector = FaultInjector(fault_config(mechanism, rate, seed, ecc))
    mrf, result = _bp_run(injector, quick)
    energy = int(mrf.energy(result.labels))
    return {
        "workload": "bp",
        "mechanism": mechanism,
        "rate": rate,
        "seed": seed,
        "ok": True,
        "cycles": result.cycles,
        "agreement": float(np.mean(result.labels == golden_labels)),
        "energy": energy,
        "energy_ratio": energy / golden_energy if golden_energy else 1.0,
        "cycles_delta": result.cycles - golden_cycles,
        "faults_injected": injector.stats.total_injected,
        "fault_stats": injector.stats.as_dict(),
    }


def conv_point(*, mechanism: str, rate: float, seed: int, ecc: bool,
               quick: bool, golden_output: np.ndarray,
               golden_cycles: float) -> dict[str, Any]:
    """One conv-pass resilience point (runs in a pool worker)."""
    injector = FaultInjector(fault_config(mechanism, rate, seed, ecc))
    run = run_conv_pass(faults=injector, size=_CONV_SIZE[quick])
    err = (_conv_output(run).astype(np.float64)
           - golden_output.astype(np.float64))
    return {
        "workload": "conv",
        "mechanism": mechanism,
        "rate": rate,
        "seed": seed,
        "ok": True,
        "cycles": run.cycles,
        "mse": float(np.mean(err * err)),
        "max_abs_err": float(np.max(np.abs(err))) if err.size else 0.0,
        "cycles_delta": run.cycles - golden_cycles,
        "faults_injected": injector.stats.total_injected,
        "fault_stats": injector.stats.as_dict(),
    }


# ----------------------------------------------------------------------
# the sweep driver


def run_sweep(
    workloads: Sequence[str] = WORKLOADS,
    rates: Iterable[float] = DEFAULT_RATES,
    seeds: Iterable[int] = (0,),
    mechanism: str = "dram",
    ecc: bool = False,
    quick: bool = True,
    max_workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
) -> dict[str, Any]:
    """Run the full (workload x rate x seed) grid and collect one payload.

    Golden runs (no injector attached at all) execute once up front in
    the parent; each grid point then rebuilds its injector from
    ``(mechanism, rate, seed)`` in its worker.  A retry (useful against
    timeouts) replays the same experiment: a point's seed *is* its
    identity.
    ``checkpoint`` journals completed points so a killed sweep resumes
    without recomputing them (failed points are retried on resume).
    """
    rates = [float(r) for r in rates]
    seeds = [int(s) for s in seeds]
    check_grid(workloads, rates, seeds, mechanism)

    tasks: list[Task] = []
    golden: dict[str, Any] = {}
    if "bp" in workloads:
        mrf, result = _bp_run(None, quick)
        golden_energy = int(mrf.energy(result.labels))
        golden["bp"] = {"energy": golden_energy, "cycles": result.cycles}
        for rate in rates:
            for seed in seeds:
                tasks.append(Task(
                    key=f"bp:{mechanism}:{rate:g}:{seed}",
                    fn=bp_point,
                    kwargs=dict(mechanism=mechanism, rate=rate, seed=seed,
                                ecc=ecc, quick=quick,
                                golden_labels=result.labels,
                                golden_energy=golden_energy,
                                golden_cycles=result.cycles),
                ))
    if "conv" in workloads:
        run = run_conv_pass(size=_CONV_SIZE[quick])
        output = _conv_output(run)
        golden["conv"] = {"cycles": run.cycles}
        for rate in rates:
            for seed in seeds:
                tasks.append(Task(
                    key=f"conv:{mechanism}:{rate:g}:{seed}",
                    fn=conv_point,
                    kwargs=dict(mechanism=mechanism, rate=rate, seed=seed,
                                ecc=ecc, quick=quick,
                                golden_output=output,
                                golden_cycles=run.cycles),
                ))

    outcomes = run_tasks(tasks, max_workers=max_workers, timeout=timeout,
                         retries=retries, return_errors=True,
                         checkpoint=checkpoint)
    points: list[dict[str, Any]] = []
    for task, outcome in zip(tasks, outcomes):
        if outcome.ok:
            row = dict(outcome.value)
            row["attempts"] = outcome.attempts
        else:
            workload, _, rate, seed = task.key.split(":")
            row = {
                "workload": workload,
                "mechanism": mechanism,
                "rate": float(rate),
                "seed": int(seed),
                "ok": False,
                "error": outcome.error,
                "attempts": outcome.attempts,
            }
        points.append(row)
    return {
        "schema": SCHEMA,
        "mechanism": mechanism,
        "ecc": ecc,
        "quick": quick,
        "rates": rates,
        "seeds": seeds,
        "golden": golden,
        "points": points,
    }


def write_json(payload: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(payload: dict[str, Any], path: str) -> None:
    """Flatten the sweep points into a fixed-column CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in payload["points"]:
            cells = []
            for col in CSV_COLUMNS:
                value = row.get(col, "")
                if isinstance(value, float):
                    value = f"{value:g}"
                elif isinstance(value, bool):
                    value = str(value).lower()
                value = str(value)
                if "," in value or '"' in value:
                    value = '"' + value.replace('"', '""') + '"'
                cells.append(value)
            fh.write(",".join(cells) + "\n")
