"""Parallel experiment runner: fan independent simulations across cores.

Every table/figure in the evaluation is a collection of *independent*
simulations — per-layer CNN rows, the four BP sweep directions, the eight
Figure 5 memory points — so they parallelize embarrassingly with a
:class:`concurrent.futures.ProcessPoolExecutor`.  This module is the one
place that owns the fork/submit/collect mechanics, with three guarantees:

* **Deterministic ordering** — results come back in task-submission order
  (never completion order), so parallel and serial runs produce the same
  tables byte for byte.
* **Replayable retries** — a retried task runs with the same arguments,
  so a retry replays the same experiment; any seed is the caller's.
* **Graceful degradation** — with one worker, one task, or when already
  inside a worker process (no nested pools), tasks run inline in the
  calling process, which is also the code path a debugger sees.

Workers are selected by the ``REPRO_MAX_WORKERS`` environment variable
when set, else ``os.cpu_count()``.  Task functions must be module-level
(picklable) and their arguments/results must survive a round trip through
pickle — dataclasses of numbers, numpy arrays, and configs all do.

Long campaigns (e.g. the ``repro.faults`` resilience sweeps) additionally
get *hardening* knobs on :func:`run_tasks`: per-attempt wall-clock
``timeout``, bounded ``retries`` with exponential ``backoff``, and a
``return_errors`` mode that salvages partial campaigns as
:class:`TaskResult` records instead of aborting on the first failure.
All attempts run in the worker that owns the task, so retry/backoff
behaviour is identical inline and through the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(*args, **kwargs)`` in some process."""

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def default_workers() -> int:
    """Worker count: ``REPRO_MAX_WORKERS`` when set, else the CPU count."""
    env = os.environ.get("REPRO_MAX_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


class TaskTimeoutError(TimeoutError):
    """A task attempt exceeded its wall-clock budget."""


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task under ``run_tasks(..., return_errors=True)``.

    ``ok`` tasks carry their ``value``; failed ones carry the final
    attempt's exception as ``"TypeName: message"`` in ``error``.
    ``attempts`` counts executions (1 = no retry needed).
    """

    key: str
    ok: bool
    value: Any = None
    error: str | None = None
    attempts: int = 1
    elapsed: float = 0.0


@dataclass(frozen=True)
class _Policy:
    """Hardening knobs, pickled alongside each task to its worker."""

    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.5
    return_errors: bool = False


@contextmanager
def _alarm(seconds: float | None):
    """Raise :class:`TaskTimeoutError` in the task after ``seconds``.

    Uses ``SIGALRM``, so enforcement needs a main-thread POSIX context
    (true inline and in pool workers); elsewhere the timeout is
    silently unenforced rather than an error.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeoutError(f"task exceeded {seconds}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _call_policy(task: Task, policy: _Policy) -> Any:
    """Run one task under ``policy`` (retries, timeout, salvage).

    Runs in the worker process, so a retried task never crosses the
    pool boundary between attempts and backoff sleeps never block the
    parent's result collection.
    """
    start = time.perf_counter()
    last_error: Exception | None = None
    attempts = 0
    for attempt in range(1, policy.retries + 2):
        attempts = attempt
        if attempt > 1 and policy.backoff > 0:
            time.sleep(policy.backoff * 2 ** (attempt - 2))
        try:
            with _alarm(policy.timeout):
                value = task.fn(*task.args, **task.kwargs)
        except Exception as exc:  # noqa: BLE001 - retried / reported below
            last_error = exc
            continue
        if policy.return_errors:
            return TaskResult(key=task.key, ok=True, value=value,
                              attempts=attempt,
                              elapsed=time.perf_counter() - start)
        return value
    assert last_error is not None
    if policy.return_errors:
        return TaskResult(key=task.key, ok=False,
                          error=f"{type(last_error).__name__}: {last_error}",
                          attempts=attempts,
                          elapsed=time.perf_counter() - start)
    raise last_error


def _execute(tasks: list[Task], policy: _Policy, max_workers: int | None,
             on_result: Callable[[str, Any], None] | None = None) -> list[Any]:
    """Run ``tasks`` under ``policy``, results in submission order.

    ``on_result(key, value)`` fires as each result is *collected* (still
    submission order), which is where checkpoint journaling hooks in.
    """
    if max_workers is None:
        max_workers = default_workers()
    workers = min(max_workers, len(tasks))
    if workers <= 1 or multiprocessing.parent_process() is not None:
        results = []
        for task in tasks:
            value = _call_policy(task, policy)
            if on_result is not None:
                on_result(task.key, value)
            results.append(value)
        return results
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_call_policy, t, policy) for t in tasks]
        results = []
        for task, future in zip(tasks, futures):
            value = future.result()
            if on_result is not None:
                on_result(task.key, value)
            results.append(value)
    except BaseException:
        # Fail fast: drop queued tasks and return without waiting for
        # stragglers; the pool's processes are reaped in the background.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def run_tasks(
    tasks: Iterable[Task],
    max_workers: int | None = None,
    *,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    return_errors: bool = False,
    checkpoint=None,
) -> list[Any]:
    """Run ``tasks``, returning their results in submission order.

    Fans out over a process pool when it can help; otherwise (one task,
    one worker, or already inside a pool worker) runs inline.  A failing
    task re-raises its exception in the caller, as the serial loop would,
    and the pool is shut down promptly with outstanding tasks cancelled.

    Hardening (all attempts happen in the task's worker):

    * ``timeout`` — per-attempt wall-clock seconds; an overrunning
      attempt raises :class:`TaskTimeoutError` and counts as a failure.
    * ``retries``/``backoff`` — a failed attempt is retried up to
      ``retries`` times with the same arguments, sleeping
      ``backoff * 2**(attempt-1)`` seconds first.
    * ``return_errors`` — instead of raising, every task yields a
      :class:`TaskResult`; failures carry their error text so a long
      campaign salvages completed points.
    * ``checkpoint`` — a :class:`~repro.perf.checkpoint.TaskCheckpoint`:
      tasks whose key is already journaled return their cached value
      without running; fresh results are journaled as collected, so a
      killed campaign resumes where it stopped and the merged result
      list is identical to an uninterrupted run's.
    """
    tasks = list(tasks)
    policy = _Policy(timeout=timeout, retries=retries, backoff=backoff,
                     return_errors=return_errors)
    if checkpoint is None:
        return _execute(tasks, policy, max_workers)
    results: list[Any] = [None] * len(tasks)
    todo: list[int] = []
    for i, task in enumerate(tasks):
        hit, value = checkpoint.get(task.key)
        if hit:
            results[i] = value
        else:
            todo.append(i)
    if todo:
        fresh = _execute([tasks[i] for i in todo], policy, max_workers,
                         on_result=checkpoint.put)
        for i, value in zip(todo, fresh):
            results[i] = value
    return results

