"""``oneshot``: fresh ``python -m repro`` processes, one call at a time.

A closed loop with one caller.  Each operation is one command-line call:
the flight-control task in all modes and the message handler, each on the
``simple`` and ``leon2`` models; generated programs written to files during
set-up; and ``repro check examples/problematic.c``.  Almost all of a call is
interpreter start-up and import, so this workload moves with cold-start work
and hardly with the analysis layers.

Every call's output is checked: flight-control on ``simple`` against the
pinned bounds, every analysis against a fresh in-process facade analysis
(bit-identical apart from wall-clock fields), generated programs also
through the differential oracle, and the guideline check against the
in-process checker.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List

from common import (
    FLIGHT_CONTROL_PINS,
    PROCESSORS,
    PYTHON,
    ROOT,
    RunResult,
    bounds_pins,
    children_peak_rss_mb,
    digest,
    interpreter_clock,
    latency_metrics,
    median_setup,
    remove_dir,
    run_child,
    work_dir,
)

#: Generated programs analysed through ``--source`` files.
GENERATED = 4
#: Presets usable from the command line (no analysis-option overrides).
CLI_PRESETS = ("baseline", "recursion", "fnptr", "all")
PROBLEMATIC = os.path.join("examples", "problematic.c")
#: Whole passes over the operations timed at least.
MIN_PASSES = 3
#: Percentile reported as ``tail_ms``: with at least three passes over nine
#: operations (27 calls), ten or more calls lie beyond it.
TAIL_PERCENTILE = 65
#: Ceiling on one command-line call.
CALL_TIMEOUT = 120.0


class Op:
    """One command-line call and what its output must match."""

    def __init__(self, name: str, argv: List[str], kind: str, **facts):
        self.name = name
        self.argv = argv
        self.kind = kind  # "workload" | "generated" | "check"
        self.facts = facts
        self.expected = None


def _write_programs(seed: int, directory: str) -> List[Op]:
    from repro.testing.corpus import annotations_to_text
    from repro.testing.fuzz import default_presets
    from repro.testing.generator import generate_case, render_case

    presets = {preset.name: preset for preset in default_presets()}
    rng = random.Random(f"oneshot:{seed}")
    ops = []
    for index in range(GENERATED):
        preset = presets[CLI_PRESETS[index % len(CLI_PRESETS)]]
        processor = PROCESSORS[index % len(PROCESSORS)]
        case = generate_case(rng.randrange(1, 2**31), mix=preset.mix)
        rendered = render_case(case)
        source = os.path.join(directory, f"gen{index}.c")
        annotations = os.path.join(directory, f"gen{index}.ann")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(rendered.source)
        with open(annotations, "w", encoding="utf-8") as handle:
            handle.write("\n".join(annotations_to_text(rendered.annotations)) + "\n")
        ops.append(
            Op(
                f"gen{index}/{preset.name}/{processor}",
                ["analyze", "--source", source, "--annotations", annotations,
                 "--processor", processor, "--entry", case.entry, "--json"],
                "generated",
                case=case,
                processor=processor,
            )
        )
    return ops


def _operations(seed: int, directory: str) -> List[Op]:
    ops = []
    for processor in ("simple", "leon2"):
        ops.append(
            Op(
                f"flight-control/{processor}",
                ["analyze", "--workload", "flight-control", "--all-modes",
                 "--processor", processor, "--json"],
                "workload",
                workload="flight-control",
                processor=processor,
                all_modes=True,
            )
        )
        ops.append(
            Op(
                f"message-handler/{processor}",
                ["analyze", "--workload", "message-handler",
                 "--processor", processor, "--json"],
                "workload",
                workload="message-handler",
                processor=processor,
                all_modes=False,
            )
        )
    ops.extend(_write_programs(seed, directory))
    ops.append(Op("check/problematic", ["check", PROBLEMATIC, "--json"], "check"))
    random.Random(f"oneshot-order:{seed}").shuffle(ops)
    return ops


def _report_digest(report) -> str:
    from repro.testing.fuzz import report_identity

    return digest(report_identity(report))


def _identity(result) -> Dict[str, str]:
    return {str(mode): _report_digest(report) for mode, report in result.reports.items()}


def _expected(op: Op, store: str):
    """Reference output of ``op`` from the in-process facade/oracle."""
    from repro.api import AnalysisRequest, AnalysisService, Project
    from repro.api.project import PROCESSORS as FACTORIES
    from repro.api.serialize import to_json
    from repro.testing.oracle import DifferentialOracle, OracleConfig

    if op.kind == "check":
        project = Project.from_file(os.path.join(ROOT, PROBLEMATIC), cache="off")
        return to_json(AnalysisService(project).check_guidelines())
    if op.kind == "workload":
        project = Project.from_workload(
            op.facts["workload"], processor=op.facts["processor"], cache="off"
        )
        result = AnalysisService(project).analyze(AnalysisRequest(all_modes=op.facts["all_modes"]))
        return _identity(result)
    oracle = DifferentialOracle(
        OracleConfig(
            processor_factory=FACTORIES[op.facts["processor"]],
            max_input_vectors=4,
            cache_dir=store,
        )
    )
    outcome = oracle.check(op.facts["case"])
    if not outcome.ok or outcome.report is None:
        return None  # unsound: no output can match
    return {"None": _report_digest(outcome.report)}


def _verify(op: Op, stdout: str):
    """``(problem or None, reports)`` for one call's ``--json`` output."""
    from repro.api.service import AnalysisResult

    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"{op.name}: unparsable output", []
    if op.kind == "check":
        return (None if payload == op.expected else f"{op.name}: guideline report differs"), []
    result = AnalysisResult.from_json(payload)
    if op.facts.get("workload") == "flight-control" and op.facts["processor"] == "simple":
        pins = bounds_pins(result.reports)
        if pins != FLIGHT_CONTROL_PINS:
            return f"{op.name}: bounds {pins} off the pins {FLIGHT_CONTROL_PINS}", []
    if op.expected is None:
        return f"{op.name}: unsound in the in-process oracle", []
    if _identity(result) != op.expected:
        return f"{op.name}: result differs from the in-process facade", []
    return None, list(result.reports.values())


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    import probes
    import tracer

    result = RunResult()
    directories = []
    ops_holder: List[Op] = []

    def setup() -> None:
        directory = work_dir("oneshot")
        directories.append(directory)
        # One import writes the bytecode cache before anything is timed.
        proc = run_child([PYTHON, "-c", "import repro.api.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        ops_holder[:] = _operations(seed, directory)

    try:
        result.metrics["setup_s"] = median_setup(setup)
        clock = interpreter_clock()
        ops = ops_holder

        # Timed loop: one fresh process per call, in whole passes over the
        # ops, so every op is timed equally often.
        outputs = []
        latencies = []
        busy = 0.0
        passes = 0
        while busy < seconds or passes < MIN_PASSES:
            for op in ops:
                elapsed, scaled, proc = clock.time(
                    run_child, [PYTHON, "-m", "repro", *op.argv], CALL_TIMEOUT
                )
                busy += elapsed
                latencies.append(scaled)
                outputs.append((op, proc))
            passes += 1
        peak_rss = children_peak_rss_mb()

        # References from the in-process pipeline; traced in a traced run.
        recorder = tracer.Recorder()
        store = work_dir("oneshot-store")
        directories.append(store)
        if trace:
            tracer.install(recorder)
            recorder.enabled = True
        try:
            started = time.perf_counter()
            for op in ops:
                op.expected = _expected(op, store)
            verify_wall = time.perf_counter() - started
        finally:
            recorder.enabled = False
            recorder.restore()

        first_reports = []
        for position, (op, proc) in enumerate(outputs):
            result.attempted += 1
            if proc.returncode != 0:
                result.fail(f"{op.name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            problem, reports = _verify(op, proc.stdout)
            if problem:
                result.fail(problem)
            elif position < len(ops):
                first_reports.extend(reports)
    finally:
        for directory in directories:
            remove_dir(directory)

    if trace:
        result.metrics.update(tracer.layer_metrics(recorder.summary(), verify_wall, result))
        result.metrics.update(probes.phase_metrics(probes.report_phases(first_reports)))
        result.metrics.update(probes.cli_metrics())
        result.metrics.update(probes.NO_SERVER)
        # The wrappers live in this process; the timed calls run in fresh
        # interpreters they cannot reach, so tracing adds nothing to them.
        result.metrics["obs.trace_overhead_frac"] = 0.0
    else:
        latency_metrics(result, latencies, TAIL_PERCENTILE, busy)
        result.metrics["peak_rss_mb"] = peak_rss
        result.notes["passes"] = passes
        result.notes["reference_ms"] = clock.reference_ms()
    return result
