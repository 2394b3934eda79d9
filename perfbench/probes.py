"""Per-layer probes shared by every traced run.

* ``cli.*`` — cold start of the command line: a bare interpreter, the
  ``import repro.api.cli`` wall time, and ``python -X importtime`` self times
  grouped by top-level package.
* ``phase.*`` — the analyzer's own per-phase clock, summed over the reports
  a workload produced.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable

from common import PYTHON, median, run_child, timed_child

#: Analyzer phase name -> per-layer metric name.
PHASE_METRICS = {
    "decoding": "phase.decoding_s",
    "loop/value analysis": "phase.loop-value_s",
    "cache analysis": "phase.cache_s",
    "pipeline analysis": "phase.pipeline_s",
    "path analysis": "phase.path_s",
    "orchestration": "phase.orchestration_s",
}

_IMPORT_WALL = (
    "import time; started = time.perf_counter(); import repro.api.cli; "
    "print(time.perf_counter() - started)"
)


def _checked(proc, what: str):
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed: {proc.stderr.strip()[-400:]}")
    return proc


def import_self_times(stderr: str) -> Dict[str, float]:
    """``-X importtime`` self microseconds summed per top-level package."""
    totals: Dict[str, float] = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        package = fields[2].strip().split(".")[0]
        totals[package] += float(fields[0])
    return totals


def cli_metrics(repeats: int = 3) -> Dict[str, float]:
    bare = []
    wall = []
    heavy = []
    own = []
    for _ in range(repeats):
        seconds, proc = timed_child([PYTHON, "-c", "pass"])
        _checked(proc, "bare interpreter")
        bare.append(seconds)
        proc = _checked(run_child([PYTHON, "-c", _IMPORT_WALL]), "import probe")
        wall.append(float(proc.stdout.split()[-1]))
        proc = _checked(
            run_child([PYTHON, "-X", "importtime", "-c", "import repro.api.cli"]),
            "importtime probe",
        )
        totals = import_self_times(proc.stderr)
        heavy.append(totals.get("scipy", 0.0) + totals.get("numpy", 0.0))
        own.append(totals.get("repro", 0.0))
    return {
        "cli.interpreter_ms": median(bare) * 1000.0,
        "cli.import_ms": median(wall) * 1000.0,
        "cli.import_scipy_numpy_ms": median(heavy) / 1000.0,
        "cli.import_repro_ms": median(own) / 1000.0,
    }


def phase_metrics(phase_seconds: Dict[str, float]) -> Dict[str, float]:
    return {
        metric: phase_seconds.get(phase, 0.0) for phase, metric in PHASE_METRICS.items()
    }


def report_phases(reports: Iterable) -> Dict[str, float]:
    """Per-phase seconds summed over ``WCETReport`` objects."""
    totals: Dict[str, float] = defaultdict(float)
    for report in reports:
        for timing in report.phases:
            totals[timing.phase] += timing.seconds
    return dict(totals)


#: Per-layer metrics of the server check, which only the sweep's traced run
#: makes; other workloads report them as zero (they are shares and counts,
#: never times).
NO_SERVER = {
    "server.submit_frac": 0.0,
    "server.queue_wait_frac": 0.0,
    "server.exec_frac": 0.0,
    "server.fetch_frac": 0.0,
    "server.dedup_joins": 0,
    "server.executions": 0,
    "server.rejections": 0,
    "server.worker_restarts": 0,
}
