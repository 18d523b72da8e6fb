"""Hardened experiment runner: timeouts, retries, error salvage."""

import time

import pytest

from repro.perf.runner import (
    Task,
    TaskResult,
    TaskTimeoutError,
    run_tasks,
)


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"boom {x}")


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _seed_echo(seed=0):
    return seed


def _fail_on_seed(bad, seed=0):
    if seed == bad:
        raise ValueError(f"bad seed {seed}")
    return seed


_CALL_LOG = []


def _log_and_fail(x):
    _CALL_LOG.append(x)
    raise ValueError(f"boom {x}")


class TestTimeout:
    def test_timeout_raises(self):
        tasks = [Task(key="slow", fn=_sleepy, args=(5.0,))]
        with pytest.raises(TaskTimeoutError):
            run_tasks(tasks, max_workers=1, timeout=0.2)

    def test_timeout_raises_through_pool(self):
        tasks = [Task(key="ok", fn=_square, args=(3,)),
                 Task(key="slow", fn=_sleepy, args=(5.0,))]
        with pytest.raises(TaskTimeoutError):
            run_tasks(tasks, max_workers=2, timeout=0.2)

    def test_timeout_salvaged_with_return_errors(self):
        tasks = [Task(key="ok", fn=_square, args=(3,)),
                 Task(key="slow", fn=_sleepy, args=(5.0,))]
        results = run_tasks(tasks, max_workers=2, timeout=0.2,
                            return_errors=True)
        assert results[0].ok and results[0].value == 9
        assert not results[1].ok
        assert "TaskTimeoutError" in results[1].error

    def test_fast_task_unaffected_by_timeout(self):
        tasks = [Task(key="fast", fn=_square, args=(4,))]
        assert run_tasks(tasks, max_workers=1, timeout=30.0) == [16]


class TestRetries:
    def test_no_reseed_when_disabled(self):
        # A retry replays the same kwargs, so a seed that fails once
        # fails on every attempt.
        tasks = [Task(key="k", fn=_fail_on_seed, args=(5,), kwargs={"seed": 5})]
        results = run_tasks(tasks, max_workers=1, retries=2, backoff=0.0,
                            return_errors=True)
        assert not results[0].ok
        assert results[0].attempts == 3

    def test_retry_count_bounded(self):
        _CALL_LOG.clear()
        tasks = [Task(key="k", fn=_log_and_fail, args=(1,))]
        with pytest.raises(ValueError, match="boom"):
            run_tasks(tasks, max_workers=1, retries=2, backoff=0.0)
        assert len(_CALL_LOG) == 3  # 1 attempt + 2 retries

    def test_backoff_spacing(self):
        _CALL_LOG.clear()
        tasks = [Task(key="k", fn=_log_and_fail, args=(1,))]
        t0 = time.perf_counter()
        run_tasks(tasks, max_workers=1, retries=2, backoff=0.05,
                  return_errors=True)
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.05 + 0.10  # 0.05 * 2**0 + 0.05 * 2**1

    def test_seed_untouched_on_first_attempt(self):
        tasks = [Task(key="k", fn=_seed_echo, kwargs={"seed": 42})]
        assert run_tasks(tasks, max_workers=1, retries=3) == [42]


class TestReturnErrors:
    def test_salvages_partial_campaign(self):
        tasks = [Task(key=f"sq:{i}", fn=_square, args=(i,)) for i in range(3)]
        tasks.insert(1, Task(key="bad", fn=_fail, args=(7,)))
        for workers in (1, 2):
            results = run_tasks(tasks, max_workers=workers, return_errors=True)
            assert [r.ok for r in results] == [True, False, True, True]
            assert [r.value for r in results if r.ok] == [0, 1, 4]
            bad = results[1]
            assert isinstance(bad, TaskResult)
            assert bad.key == "bad"
            assert bad.error == "ValueError: boom 7"
            assert bad.attempts == 1
            assert bad.elapsed >= 0.0

    def test_results_keep_submission_order(self):
        tasks = [Task(key=f"s:{i}", fn=_sleepy, args=(0.2 - 0.05 * i,))
                 for i in range(4)]
        results = run_tasks(tasks, max_workers=4, return_errors=True)
        assert [r.key for r in results] == [f"s:{i}" for i in range(4)]


class TestFailFast:
    def test_original_exception_and_prompt_return(self):
        # One instant failure plus queued slow tasks: fail-fast must
        # cancel the queue instead of draining every slow task.
        tasks = [Task(key="bad", fn=_fail, args=(1,))]
        tasks += [Task(key=f"slow:{i}", fn=_sleepy, args=(0.5,))
                  for i in range(8)]
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="boom"):
            run_tasks(tasks, max_workers=2)
        # Draining all 8 x 0.5s tasks over 2 workers would take >= 2s.
        assert time.perf_counter() - t0 < 1.5
