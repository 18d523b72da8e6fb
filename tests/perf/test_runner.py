"""The parallel experiment runner: ordering, seeding, degradation."""

import os

import pytest

from repro.perf.runner import Task, default_workers, run_tasks


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"boom {x}")


def test_results_in_submission_order():
    tasks = [Task(key=f"sq:{i}", fn=_square, args=(i,)) for i in range(20)]
    assert run_tasks(tasks) == [i * i for i in range(20)]
    assert run_tasks(tasks, max_workers=1) == [i * i for i in range(20)]
    assert run_tasks(tasks, max_workers=4) == [i * i for i in range(20)]


def test_failing_task_raises():
    tasks = [Task(key="ok", fn=_square, args=(2,)),
             Task(key="bad", fn=_fail, args=(1,))]
    with pytest.raises(ValueError, match="boom"):
        run_tasks(tasks, max_workers=1)
    with pytest.raises(ValueError, match="boom"):
        run_tasks(tasks, max_workers=2)


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_MAX_WORKERS", "bogus")
    assert default_workers() == (os.cpu_count() or 1)


def test_parallel_equals_serial_bp_measure():
    """The BP model must produce identical results through the pool and
    inline (deterministic per-direction seeding, order-stable collection)."""
    from repro.perf.extrapolate import BPPerformanceModel

    serial = BPPerformanceModel(image_rows=24, image_cols=48, labels=4)
    parallel = BPPerformanceModel(image_rows=24, image_cols=48, labels=4)
    a = serial.measure(max_workers=1)
    b = parallel.measure(max_workers=2)
    assert a.sweep_cycles == b.sweep_cycles
    assert a.sweep_counters == b.sweep_counters
    assert a.iteration_cycles == b.iteration_cycles

