"""Server-path check of the sweep's traced programs.

The fuzz fleet submits every program it checks to a live analysis server as
well, and requires the served report to be bit-identical to the local one.
The sweep's traced run does the same for its traced programs, against a
separate ``repro serve --jobs 2 --cache-dir <fresh>`` process, and measures
the ``server`` layer on the way: HTTP, queue, wire and supervised workers.

The client is a closed loop: submit one program, wait for its job, fetch
its result, then the next.  The flight-control canary is submitted twice
back to back before either is awaited, so the second copy joins the
running execution (a dedup join).
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from common import (
    FLIGHT_CONTROL_PINS,
    PYTHON,
    ROOT,
    RunResult,
    bounds_pins,
    child_env,
    digest,
    remove_dir,
    work_dir,
)

#: Worker processes of the server under test.
JOBS = 2
#: Ceiling on waiting for one job.
JOB_WAIT = 120.0


class Request:
    """One submission and the client's view of it."""

    def __init__(self, name: str, spec, analysis, expected):
        self.name = name
        self.spec = spec
        self.analysis = analysis
        #: Identity digest the served report must have, or the pins.
        self.expected = expected
        self.job = None
        self.sent = 0.0
        self.submit_s = 0.0
        self.fetch_s = 0.0
        self.latency = 0.0
        self.status = None
        self.result = None
        self.error: Optional[str] = None

    def submit(self, client) -> None:
        self.sent = time.perf_counter()
        try:
            self.job = client.submit(self.spec, self.analysis, retries=0)
        except Exception as exc:  # noqa: BLE001 - recorded as a failed request
            self.error = f"submit: {type(exc).__name__}: {exc}"
        self.submit_s = time.perf_counter() - self.sent

    def collect(self, client) -> None:
        if self.job is None:
            return
        try:
            self.status = client.wait(self.job.id, timeout=JOB_WAIT)
            if self.status.state != "done":
                self.error = f"job ended {self.status.state}"
                return
            started = time.perf_counter()
            self.result = client.result(self.job.id)
            self.fetch_s = time.perf_counter() - started
            self.latency = time.perf_counter() - self.sent
        except Exception as exc:  # noqa: BLE001 - recorded as a failed request
            self.error = f"{type(exc).__name__}: {exc}"


class Server:
    """``repro serve`` with its store and log under ``directory``.

    The server runs in a session of its own.  :meth:`stop` sends SIGTERM,
    on which the server drains and stops its workers; if it has not ended
    in time, the whole session is killed.
    """

    def __init__(self, directory: str):
        self.log = open(os.path.join(directory, "server.log"), "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [PYTHON, "-m", "repro", "serve", "--port", "0", "--jobs", str(JOBS),
             "--cache-dir", os.path.join(directory, "store")],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            start_new_session=True,
        )
        self.url = self._await_url(60.0)

    def _await_url(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        return line.split("listening on ", 1)[1].split()[0]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stragglers of the session
        except OSError:
            pass
        self.proc.communicate()
        self.log.close()


def _problem(request: Request) -> Optional[str]:
    from repro.testing.fuzz import report_identity

    if request.error:
        return f"{request.name}: {request.error}"
    if request.expected == FLIGHT_CONTROL_PINS:
        pins = bounds_pins(request.result.reports)
        return None if pins == FLIGHT_CONTROL_PINS else f"flight-control bounds {pins} off the pins"
    if digest(report_identity(request.result.report)) != request.expected:
        return f"{request.name}: served result differs from the local facade"
    return None


def check(programs: List[Tuple[str, object, object, str]], result: RunResult) -> Dict[str, float]:
    """Serve ``programs`` — ``(name, spec, analysis request, identity
    digest)`` — plus the flight-control canary pair; record wrong responses
    in ``result`` and return the ``server.*`` metrics."""
    from repro.api.service import AnalysisRequest
    from repro.server.client import ServerClient
    from repro.server.wire import ProjectSpec

    requests = [Request(*program) for program in programs]
    canaries = [
        Request("flight-control", ProjectSpec(workload="flight-control"),
                AnalysisRequest(all_modes=True), FLIGHT_CONTROL_PINS)
        for _ in range(2)
    ]

    directory = work_dir("servercheck")
    server = None
    try:
        server = Server(directory)
        client = ServerClient(server.url)
        before = client.healthz()
        for request in requests:
            request.submit(client)
            request.collect(client)
        for request in canaries:
            request.submit(client)
        for request in canaries:
            request.collect(client)
        after = client.healthz()
    finally:
        if server is not None:
            server.stop()
        remove_dir(directory)

    served = []
    for request in requests + canaries:
        result.attempted += 1
        problem = _problem(request)
        if problem:
            result.fail(f"server: {problem}")
        else:
            served.append(request)
    total = sum(request.latency for request in served) or 1.0
    return {
        "server.submit_frac": sum(r.submit_s for r in served) / total,
        "server.queue_wait_frac": sum(
            max(r.status.started - r.status.submitted, 0.0) for r in served
        ) / total,
        "server.exec_frac": sum(
            r.status.finished - max(r.status.started, r.status.submitted) for r in served
        ) / total,
        "server.fetch_frac": sum(r.fetch_s for r in served) / total,
        "server.dedup_joins": after.dedup_hits - before.dedup_hits,
        "server.executions": after.executed - before.executed,
        "server.rejections": after.faults.get("rejections", 0) - before.faults.get("rejections", 0),
        "server.worker_restarts": (
            after.faults.get("worker_restarts", 0) - before.faults.get("worker_restarts", 0)
        ),
    }
