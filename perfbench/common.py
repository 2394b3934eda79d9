"""Shared plumbing of the benchmark: paths, statistics, result records.

The benchmark lives outside the package it measures.  It imports ``repro``
from the checkout's ``src/`` directory and keeps every file it writes under
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
PYTHON = sys.executable

#: Flight-control (wcet, bcet) pins per mode; ``None`` is the mode-unaware
#: analysis.  Any response for flight-control must reproduce them.
FLIGHT_CONTROL_PINS = {None: (2514, 87), "air": (2514, 284), "ground": (161, 87)}
#: The four processor models every generated-program workload rotates over.
PROCESSORS = ("simple", "leon2", "mpc5554", "hcs12x")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


def require_source_tree() -> None:
    """Fail fast when the checkout holds no ``src/repro`` package."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(name: str) -> str:
    """A fresh directory under the benchmark's work area."""
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_env() -> Dict[str, str]:
    """Environment of every subprocess the benchmark starts.

    ``REPRO_*`` settings of the caller are dropped so the program runs with
    its defaults.  Bytecode caching is left on, as for an installed package;
    set-up runs one import first so the cache exists before timing.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = SRC
    return env


def run_child(args: Sequence[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run one subprocess to completion (it is killed on timeout)."""
    return subprocess.run(
        list(args),
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def timed_child(args: Sequence[str], timeout: float = 120.0):
    """``(seconds, CompletedProcess)`` for one subprocess."""
    started = time.perf_counter()
    proc = run_child(args, timeout=timeout)
    return time.perf_counter() - started, proc


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def digest(payload) -> str:
    """Short sha256 over a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's waited-for children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Result record
# --------------------------------------------------------------------------- #
@dataclass
class RunResult:
    """What one workload run produced, before it is printed."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable descriptions of wrong outputs (printed to stderr).
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Extra facts for the stderr report (sample counts, digests, ...).
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def latency_metrics(
    result: RunResult, seconds: Sequence[float], tail_percentile: float, busy: float
) -> None:
    """``p50_ms``, ``tail_ms`` (the ``tail_percentile``-th percentile) and
    ``throughput_per_s`` of per-operation scaled seconds, which took ``busy``
    raw seconds; the sample count, the percentile, the samples beyond it and
    the raw throughput go to the notes."""
    tail = percentile(seconds, tail_percentile)
    result.metrics["p50_ms"] = median(seconds) * 1000.0
    result.metrics["tail_ms"] = tail * 1000.0
    result.metrics["throughput_per_s"] = len(seconds) / sum(seconds)
    result.notes["samples"] = len(seconds)
    result.notes["tail_percentile"] = tail_percentile
    result.notes["beyond_tail"] = sum(1 for value in seconds if value > tail)
    result.notes["raw_throughput_per_s"] = len(seconds) / busy


# --------------------------------------------------------------------------- #
# Host-scaled time
# --------------------------------------------------------------------------- #
#: Seconds each reference job takes on the 2-CPU host the benchmark was
#: written on, when that host is quiet.  Scaled times are in these units.
JOB_REFERENCE_S = 0.0035
INTERPRETER_REFERENCE_S = 0.085
#: What the interpreter reference imports: standard-library modules only.
REFERENCE_IMPORTS = "import argparse, dataclasses, decimal, json, logging, typing"


class _Cell:
    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int):
        self.low = low
        self.high = high

    def join(self, other: "_Cell") -> "_Cell":
        return _Cell(min(self.low, other.low), max(self.high, other.high))


def job_seconds() -> float:
    """Time of a fixed pure-Python job (dict probes, small objects, calls,
    a sort), a few milliseconds long: the reference for in-process work."""
    started = time.perf_counter()
    cells = {}
    for i in range(4000):
        key = (i * 7919) & 511
        cell = _Cell(i & 63, (i & 63) + (i & 7))
        old = cells.get(key)
        cells[key] = cell if old is None else old.join(cell)
    sorted(cells.values(), key=lambda c: (c.high - c.low, c.low))
    return time.perf_counter() - started


def interpreter_seconds() -> float:
    """Time of a fresh isolated interpreter importing a few standard-library
    modules: the reference for work in fresh processes."""
    seconds, proc = timed_child([PYTHON, "-I", "-c", REFERENCE_IMPORTS])
    if proc.returncode != 0:
        raise RuntimeError(f"reference interpreter failed: {proc.stderr.strip()[-300:]}")
    return seconds


class HostClock:
    """Times operations in host-scaled seconds.

    The host's speed drifts: on the host the benchmark was written on it
    switched between two speeds about 2x apart every few seconds, so raw
    times of one seed's runs spread by up to a third.  The clock runs a
    reference job right before and right after every operation and scales
    the operation's seconds by ``nominal`` over the mean of the two
    reference times.  The reference jobs do not run the program, so a
    change to the program moves scaled times as it moves raw ones.
    """

    def __init__(self, reference, nominal: float) -> None:
        self._reference = reference
        self._nominal = nominal
        self._last = reference()
        self.references: List[float] = [self._last]

    def time(self, operation, *args):
        """``(raw seconds, scaled seconds, result)`` of ``operation(*args)``."""
        before = self._last
        started = time.perf_counter()
        outcome = operation(*args)
        raw = time.perf_counter() - started
        self._last = self._reference()
        self.references.append(self._last)
        return raw, raw * self._nominal / ((before + self._last) / 2.0), outcome

    def reference_ms(self) -> float:
        return median(self.references) * 1000.0


def job_clock() -> HostClock:
    return HostClock(job_seconds, JOB_REFERENCE_S)


def interpreter_clock() -> HostClock:
    return HostClock(interpreter_seconds, INTERPRETER_REFERENCE_S)


def median_setup(step, repeats: int = 5) -> float:
    """Run the set-up ``step`` ``repeats`` times; median scaled seconds.

    Set-up starts fresh interpreters, so its reference is one too."""
    clock = interpreter_clock()
    return median([clock.time(step)[1] for _ in range(repeats)])


def bounds_pins(reports: Dict[Optional[str], object]) -> Dict[Optional[str], tuple]:
    return {mode: (report.wcet_cycles, report.bcet_cycles) for mode, report in reports.items()}
