"""The HTTP shell over :class:`~repro.serve.control.jobs.JobManager`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
third-party web framework, one connection per request
(``Connection: close``), JSON in and out.  All simulation work happens
on the manager's worker thread; the event loop only parses requests
and reads job state, so the service stays responsive while a job runs.

Routes::

    GET    /healthz            service liveness + job counts
    GET    /scenarios          the named scenario library
    GET    /jobs               all jobs (summaries)
    POST   /jobs               submit {"scenario": <name-or-document>}
    GET    /jobs/<id>          one job's status + latest progress
    GET    /jobs/<id>/metrics  live snapshot (202) or final report (200)
    DELETE /jobs/<id>          cancel

``GET /jobs/<id>/metrics`` on a finished job streams the **raw bytes**
of the job's ``result.json`` — not a re-serialization — which is what
makes the HTTP result byte-identical to the batch CLI's ``--out`` file.
Malformed scenario documents answer 400 with the ``config: <field
path>`` message of the CLI's exit-2 convention.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.errors import ConfigError
from repro.serve.control.jobs import TERMINAL_STATES, JobManager
from repro.serve.scenario import list_scenarios, load_scenario

#: Largest accepted request body; scenario documents are tiny.
MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 201: "Created", 202: "Accepted",
            400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ControlServer:
    """The control-plane service; embeddable and CLI-runnable.

    In-process use (tests, notebooks)::

        manager = JobManager(state_dir)
        server = ControlServer(manager, port=0)   # pick a free port
        server.start()                            # background thread
        ... ControlClient(f"http://127.0.0.1:{server.port}") ...
        server.stop()
    """

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 8642):
        self.manager = manager
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    # -- request handling ----------------------------------------------

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, path, _ = request_line.decode("ascii").split(None, 2)
        except ValueError as exc:
            raise _HttpError(400, "malformed request line") from exc
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    def _json_body(self, body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "empty request body")
        try:
            doc = json.loads(body)
        except ValueError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return doc

    def _route(self, method: str, path: str, body: bytes):
        """Dispatch one request; returns (status, payload_bytes, ctype)."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            jobs = self.manager.list()
            counts: dict = {}
            for job in jobs:
                counts[job["status"]] = counts.get(job["status"], 0) + 1
            return 200, {"status": "ok", "jobs": counts}, None
        if path == "/scenarios" and method == "GET":
            return 200, {"scenarios": list_scenarios()}, None
        if path == "/jobs":
            if method == "GET":
                return 200, {"jobs": self.manager.list()}, None
            if method == "POST":
                return self._submit(self._json_body(body))
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            job_id = parts[0]
            job = self.manager.get(job_id)
            if job is None:
                raise _HttpError(404, f"no such job: {job_id}")
            if len(parts) == 1:
                if method == "GET":
                    return 200, job.as_dict(), None
                if method == "DELETE":
                    return 200, self.manager.cancel(job_id).as_dict(), None
                raise _HttpError(405, f"{method} not allowed on {path}")
            if len(parts) == 2 and parts[1] == "metrics" \
                    and method == "GET":
                return self._metrics(job)
        raise _HttpError(404, f"no such route: {method} {path}")

    def _submit(self, doc: dict):
        if "scenario" not in doc:
            raise _HttpError(400, 'body must carry a "scenario" key '
                                  "(library name or inline document)")
        spec = doc["scenario"]
        try:
            if isinstance(spec, str):
                scenario = load_scenario(spec)
                job = self.manager.submit(scenario.document,
                                          name=scenario.name)
            elif isinstance(spec, dict):
                job = self.manager.submit(spec, name=doc.get("name"))
            else:
                raise _HttpError(400, '"scenario" must be a name or a '
                                      "document")
        except ConfigError as exc:
            raise _HttpError(400, f"config: {exc}") from exc
        return 201, job.as_dict(), None

    def _metrics(self, job):
        if job.status == "done":
            with open(self.manager.result_path(job.job_id), "rb") as fh:
                # The journal of record: raw result.json bytes, so the
                # HTTP artifact is byte-identical to the CLI's --out.
                return 200, fh.read(), "application/json"
        if job.status in TERMINAL_STATES:
            raise _HttpError(404, f"job {job.job_id} {job.status}: "
                                  f"{job.error or 'no result'}")
        return 202, job.as_dict(), None

    async def _handle(self, reader, writer):
        status, payload, ctype = 500, {"error": "internal error"}, None
        try:
            request = await self._read_request(reader)
            if request is None:
                writer.close()
                return
            status, payload, ctype = self._route(*request)
        except _HttpError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 — the service must survive
            status = 500
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload, indent=2, sort_keys=True)
                    + "\n").encode("utf-8")
        else:
            body = payload
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype or 'application/json'}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    # -- running -------------------------------------------------------

    async def _serve(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        async with self._server:
            await self._server.serve_forever()

    def _thread_main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve())
        except asyncio.CancelledError:
            pass
        finally:
            self._loop.close()

    def start(self) -> "ControlServer":
        """Serve on a daemon thread; returns once the socket is bound
        (with ``port=0`` the chosen port is then in ``self.port``)."""
        self.manager.start()
        self._thread = threading.Thread(target=self._thread_main,
                                        name="control-http", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("control server failed to bind")
        return self

    def wait(self) -> None:
        """Block until the serving thread exits (Ctrl-C to stop)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        if self._loop is not None and self._server is not None:
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self._shutdown()))
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.manager.stop()

    async def _shutdown(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for task in asyncio.all_tasks():
            task.cancel()
