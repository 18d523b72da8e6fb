"""Durable job state and the worker that runs scenario jobs.

A *job* is one scenario run owned by the control plane.  Each job gets
a directory under ``<state_dir>/jobs/<job_id>/``:

``job.json``
    The submitted scenario document plus its name — everything needed
    to re-compile the job after a restart (the *document* is durable,
    not the compiled configs, so upgrades re-validate old jobs).
``checkpoint.jsonl``
    The run's :class:`~repro.perf.checkpoint.TaskCheckpoint` journal of
    cost-table measurements, stamped with the same
    :func:`~repro.serve.report.checkpoint_meta` the batch CLI stamps.
``result.json``
    The final report payload, written atomically (tmp + rename) with
    :func:`~repro.serve.report.write_json` — byte-identical to the
    CLI's ``--out`` file for the same scenario.
``error.json`` / ``cancelled``
    Terminal markers for failed and cancelled jobs.

Lifecycle: ``queued → running → done | failed | cancelled``.  Jobs run
one at a time on a single worker thread, in submission order — the
simulation core is CPU-bound and deterministic, so serializing jobs
keeps the service's resource story simple while ``max_workers`` still
parallelizes each job's cost-table measurement via the hardened
``run_tasks`` pool.

Crash recovery: :meth:`JobManager.recover` re-enqueues every job that
has no terminal marker.  Because the checkpoint journal survives and
its meta matches, the re-run replays journaled measurements instead of
re-measuring and converges on a byte-identical ``result.json``.
"""

from __future__ import annotations

import json
import os
import queue
import threading
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.perf.checkpoint import TaskCheckpoint
from repro.serve.report import open_checkpoint, run_report, write_json
from repro.serve.scenario import Scenario, scenario_from_document

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")

TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class JobCancelled(Exception):
    """Raised inside a running job when its cancel flag is set."""


@dataclass
class Job:
    """One job's in-memory record (the directory is the durable copy)."""

    job_id: str
    name: str
    document: dict
    directory: str
    status: str = QUEUED
    error: str | None = None
    #: Latest progress snapshot from the fleet simulator (plus "mix").
    progress: dict | None = None
    snapshots: int = 0
    #: Cost-table entries resolved so far (journal replays + fresh).
    cost_entries: int = 0
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def as_dict(self) -> dict:
        out = {
            "job_id": self.job_id,
            "name": self.name,
            "status": self.status,
            "snapshots": self.snapshots,
            "cost_entries": self.cost_entries,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.progress is not None:
            out["progress"] = self.progress
        return out


class _ObservedCheckpoint:
    """Wrap a job's checkpoint to observe progress and honor cancel.

    ``run_tasks`` consults the checkpoint once per cost-table task
    (``get`` on submit, ``put`` on collection), which makes it a
    convenient, zero-cost place to count cost-phase progress and to
    stop a cancelled job between measurements without touching the
    runner itself.
    """

    def __init__(self, inner: TaskCheckpoint, job: Job):
        self._inner = inner
        self._job = job

    def _check_cancel(self) -> None:
        if self._job.cancel_event.is_set():
            raise JobCancelled(self._job.job_id)

    def get(self, key: str):
        self._check_cancel()
        hit, value = self._inner.get(key)
        if hit:
            self._job.cost_entries += 1
        return hit, value

    def put(self, key: str, value) -> None:
        self._check_cancel()
        self._inner.put(key, value)
        self._job.cost_entries += 1

    def close(self) -> None:
        self._inner.close()


class JobManager:
    """Owns the job store and the worker thread that drains it."""

    def __init__(self, state_dir: str, max_workers: int | None = None):
        self.state_dir = state_dir
        self.jobs_dir = os.path.join(state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.max_workers = max_workers
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._worker: threading.Thread | None = None
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._worker is None:
            self._worker = threading.Thread(
                target=self._drain, name="control-job-worker", daemon=True)
            self._worker.start()

    def stop(self, wait: bool = False) -> None:
        """Stop draining; a running job finishes its current step only
        if ``wait`` (its checkpoint makes interruption safe anyway)."""
        self._stopping.set()
        self._queue.put(None)
        if wait and self._worker is not None:
            self._worker.join()

    def recover(self) -> list:
        """Re-enqueue every non-terminal job directory; returns their ids.

        Jobs with a ``result.json`` register as done, terminal markers
        keep their state, everything else goes back on the queue — the
        surviving checkpoint journal turns the re-run into a replay.
        """
        recovered = []
        for job_id in sorted(os.listdir(self.jobs_dir)):
            directory = os.path.join(self.jobs_dir, job_id)
            meta_path = os.path.join(directory, "job.json")
            if not os.path.isfile(meta_path):
                continue
            try:
                with open(meta_path, encoding="utf-8") as fh:
                    meta = json.load(fh)
            except (OSError, ValueError):
                continue
            job = Job(job_id=job_id, name=meta.get("name", job_id),
                      document=meta.get("scenario", {}),
                      directory=directory)
            if os.path.isfile(os.path.join(directory, "result.json")):
                job.status = DONE
            elif os.path.isfile(os.path.join(directory, "cancelled")):
                job.status = CANCELLED
            elif os.path.isfile(os.path.join(directory, "error.json")):
                job.status = FAILED
                try:
                    with open(os.path.join(directory, "error.json"),
                              encoding="utf-8") as fh:
                        job.error = json.load(fh).get("error")
                except (OSError, ValueError):
                    job.error = "(unreadable error.json)"
            with self._lock:
                self._jobs[job_id] = job
            if job.status == QUEUED:
                self._queue.put(job_id)
                recovered.append(job_id)
        return recovered

    # -- submission and queries ----------------------------------------

    def _next_job_id(self) -> str:
        existing = [
            int(name.split("-", 1)[1])
            for name in os.listdir(self.jobs_dir)
            if name.startswith("job-") and name.split("-", 1)[1].isdigit()
        ]
        return f"job-{max(existing, default=0) + 1:04d}"

    def submit(self, document: dict, name: str | None = None) -> Job:
        """Validate a scenario document and enqueue it as a new job.

        Validation happens *before* the job exists, so a malformed
        document is rejected synchronously with the usual
        :class:`~repro.errors.ConfigError` field path and never
        occupies a job slot.
        """
        scenario = scenario_from_document(document, name=name)
        with self._lock:
            job_id = self._next_job_id()
            directory = os.path.join(self.jobs_dir, job_id)
            os.makedirs(directory)
            job = Job(job_id=job_id, name=scenario.name, document=document,
                      directory=directory)
            self._jobs[job_id] = job
        with open(os.path.join(directory, "job.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"job_id": job_id, "name": scenario.name,
                       "scenario": document}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._queue.put(job_id)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> list:
        with self._lock:
            return [self._jobs[k].as_dict() for k in sorted(self._jobs)]

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id, "result.json")

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation; queued jobs die immediately, running
        jobs stop at the next progress or checkpoint observation."""
        job = self.get(job_id)
        if job is None:
            return None
        if job.status in TERMINAL_STATES:
            return job
        job.cancel_event.set()
        if job.status == QUEUED:
            self._mark_cancelled(job)
        return job

    # -- the worker ----------------------------------------------------

    def _drain(self) -> None:
        while not self._stopping.is_set():
            job_id = self._queue.get()
            if job_id is None:
                continue
            job = self.get(job_id)
            if job is None or job.status != QUEUED:
                continue
            if job.cancel_event.is_set():
                self._mark_cancelled(job)
                continue
            self._run_job(job)

    def _mark_cancelled(self, job: Job) -> None:
        job.status = CANCELLED
        with open(os.path.join(job.directory, "cancelled"), "w",
                  encoding="utf-8") as fh:
            fh.write("cancelled\n")

    def _run_job(self, job: Job) -> None:
        job.status = RUNNING
        try:
            scenario = scenario_from_document(job.document, name=job.name)
            payload = self._execute(job, scenario)
        except JobCancelled:
            self._mark_cancelled(job)
            return
        except ConfigError as exc:
            self._mark_failed(job, f"config: {exc}")
            return
        except Exception as exc:  # noqa: BLE001 — the service must survive
            self._mark_failed(job, f"{type(exc).__name__}: {exc}")
            return
        tmp = os.path.join(job.directory, "result.json.tmp")
        write_json(payload, tmp)
        os.replace(tmp, self.result_path(job.job_id))
        job.status = DONE

    def _mark_failed(self, job: Job, message: str) -> None:
        job.status = FAILED
        job.error = message
        with open(os.path.join(job.directory, "error.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"job_id": job.job_id, "error": message}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")

    def _execute(self, job: Job, scenario: Scenario) -> dict:
        journal = os.path.join(job.directory, "checkpoint.jsonl")
        checkpoint = open_checkpoint(journal, scenario.serve,
                                     scenario.mixes, scenario.quick,
                                     resume=True)

        def on_progress(snapshot: dict) -> None:
            if job.cancel_event.is_set():
                raise JobCancelled(job.job_id)
            job.progress = snapshot
            job.snapshots += 1

        try:
            payload, _ = run_report(
                scenario.workload, scenario.serve, mixes=scenario.mixes,
                quick=scenario.quick, max_workers=self.max_workers,
                checkpoint=_ObservedCheckpoint(checkpoint, job),
                on_progress=on_progress)
        finally:
            checkpoint.close()
        return payload
