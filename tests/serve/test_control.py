"""Control-plane smoke: jobs over HTTP, progress, resume, determinism."""

import json
import os
import shutil
import time
import warnings

import pytest

from repro.errors import ConfigError
from repro.perf.checkpoint import CheckpointWarning
from repro.serve.cli import main as cli_main
from repro.serve.control import (
    ControlClient,
    ControlError,
    ControlServer,
    JobManager,
)

#: A deliberately small scenario so the smoke suite stays fast.
SMALL_DOC = {
    "description": "control-plane smoke",
    "workload": {"mix": "bp", "rate": 150000, "requests": 25},
    "fleet": {"chips": 2},
    "batching": {"max_batch": 3},
}


def _wait_done(manager, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = manager.get(job_id)
        if job.status in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {job.status} after timeout")


def _cli_reference(tmp_path):
    """The batch CLI's artifact for SMALL_DOC, for byte comparisons."""
    scenario = tmp_path / "small-ref.json"
    scenario.write_text(json.dumps(SMALL_DOC))
    out = tmp_path / "cli-ref.json"
    assert cli_main(["--scenario", str(scenario), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    state = tmp_path_factory.mktemp("control-state")
    manager = JobManager(str(state))
    srv = ControlServer(manager, port=0).start()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def client(server):
    return ControlClient(f"http://127.0.0.1:{server.port}")


def test_healthz_and_scenario_library(client):
    health = client.healthz()
    assert health["status"] == "ok"
    names = {entry["name"] for entry in client.scenarios()}
    assert "steady-bp" in names


def test_submit_poll_complete_matches_cli_bytes(client, server, tmp_path):
    job = client.submit(SMALL_DOC, name="small")
    assert job["status"] in ("queued", "running")
    final = client.wait(job["job_id"], timeout=120.0, poll=0.05)
    assert final["status"] == "done"
    # live snapshots streamed while the fleet simulation advanced
    assert final["snapshots"] > 0
    assert final["cost_entries"] > 0
    assert final["progress"]["requests_total"] == 25
    assert final["progress"]["served"] + final["progress"]["shed"] > 0
    code, payload = client.metrics(job["job_id"])
    assert code == 200
    assert payload["schema"] == "repro.serve/v7"
    assert client.metrics_bytes(job["job_id"]) == _cli_reference(tmp_path)


def test_malformed_scenario_rejected_with_field_path(client):
    with pytest.raises(ControlError) as exc:
        client.submit({"workload": {"rate": -5}})
    assert exc.value.status == 400
    assert "config: scenario.workload.rate" in exc.value.message


def test_negative_workload_seed_rejected_at_submit(tmp_path):
    manager = JobManager(str(tmp_path / "state"))
    with pytest.raises(ConfigError,
                       match=r"^scenario\.workload\.seed: must be >= 0"):
        manager.submit({"workload": {"seed": -3}})
    assert manager.list() == []


def test_unknown_job_and_route_are_404(client):
    with pytest.raises(ControlError) as exc:
        client.status("job-9999")
    assert exc.value.status == 404
    with pytest.raises(ControlError) as exc:
        client._request("GET", "/nope")
    assert exc.value.status == 404


def test_kill_and_restart_resumes_byte_identically(tmp_path):
    """The acceptance path: a service dying mid-job leaves a checkpoint
    journal; the restarted service replays it to an identical result."""
    state = tmp_path / "state"
    first = JobManager(str(state))
    job = first.submit(SMALL_DOC, name="small")
    first.start()
    done = _wait_done(first, job.job_id)
    assert done.status == "done"
    first.stop()
    result_path = first.result_path(job.job_id)
    original = open(result_path, "rb").read()

    # Simulate a kill mid-run: the result vanished, the journal survived
    # only partially (the header, and a truncated tail the checkpoint's
    # salvage logic must discard).
    os.remove(result_path)
    journal = os.path.join(str(state), "jobs", job.job_id,
                           "checkpoint.jsonl")
    lines = open(journal, encoding="utf-8").read().splitlines(True)
    assert len(lines) >= 2
    with open(journal, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:1])
        fh.write(lines[1][: len(lines[1]) // 2])

    second = JobManager(str(state))
    recovered = second.recover()
    assert recovered == [job.job_id]
    second.start()
    done = _wait_done(second, job.job_id)
    assert done.status == "done"
    second.stop()
    assert open(result_path, "rb").read() == original


def test_cli_and_control_plane_journals_resume_each_other(tmp_path):
    """Both front ends stamp the same meta, so each replays the other's
    journal without re-measuring: the journal comes back unchanged."""
    scenario = tmp_path / "small.json"
    scenario.write_text(json.dumps(SMALL_DOC))
    cli_journal = tmp_path / "cli.jsonl"
    out = tmp_path / "cli.json"
    assert cli_main(["--scenario", str(scenario), "--checkpoint",
                     str(cli_journal), "--out", str(out)]) == 0
    written = cli_journal.read_bytes()

    manager = JobManager(str(tmp_path / "state"))
    job = manager.submit(SMALL_DOC, name="small")
    journal = os.path.join(job.directory, "checkpoint.jsonl")
    shutil.copyfile(cli_journal, journal)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CheckpointWarning)
        manager.start()
        done = _wait_done(manager, job.job_id)
        manager.stop()
        assert done.status == "done", done.error
        assert open(journal, "rb").read() == written
        assert open(manager.result_path(job.job_id), "rb").read() \
            == out.read_bytes()

        resumed = tmp_path / "resumed.json"
        assert cli_main(["--scenario", str(scenario), "--checkpoint",
                         journal, "--resume", "--out", str(resumed)]) == 0
    assert open(journal, "rb").read() == written
    assert resumed.read_bytes() == out.read_bytes()


def test_cancel_queued_job(tmp_path):
    manager = JobManager(str(tmp_path / "state"))
    job = manager.submit(SMALL_DOC, name="small")
    # cancel before the worker ever starts draining
    manager.cancel(job.job_id)
    manager.start()
    done = _wait_done(manager, job.job_id)
    assert done.status == "cancelled"
    manager.stop()
    assert os.path.exists(os.path.join(job.directory, "cancelled"))


def test_failed_jobs_stay_failed_after_recovery(tmp_path):
    state = tmp_path / "state"
    manager = JobManager(str(state))
    job = manager.submit(SMALL_DOC, name="small")
    manager._mark_failed(job, "config: synthetic")
    fresh = JobManager(str(state))
    assert fresh.recover() == []
    assert fresh.get(job.job_id).status == "failed"
    assert fresh.get(job.job_id).error == "config: synthetic"


def test_an_old_cost_model_journal_fails_the_job(tmp_path):
    """A job whose journal an older build stamped with ``cost_model``
    fails with the structured error instead of re-measuring."""
    manager = JobManager(str(tmp_path / "state"))
    job = manager.submit(SMALL_DOC, name="small")
    journal = os.path.join(job.directory, "checkpoint.jsonl")
    header = {"schema": "repro.perf.checkpoint/v1",
              "meta": {"tool": "repro.serve", "cost_model": "surrogate"}}
    with open(journal, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
    manager.start()
    done = _wait_done(manager, job.job_id)
    manager.stop()
    assert done.status == "failed"
    assert done.error.startswith("config: checkpoint.meta.cost_model: ")
