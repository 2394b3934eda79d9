"""``sweep``: the differential oracle over freshly generated programs.

A closed loop with one in-process serial caller.  Each operation checks one
generated mini-C program: compile, analyse, replay four input vectors in the
concrete interpreter and trace timer, and require BCET <= observed <= WCET.
Programs rotate the six fuzz presets over the four processor models; all
share one fresh persistent summary store, so the cache layer writes.

Every program is new to the process when it is timed: the process-global
kernel caches and in-process summaries cannot turn a cold check warm.

A traced run also sends its traced programs through a live server, as the
fuzz fleet does (see :mod:`servercheck`), which measures the server layer.
"""

from __future__ import annotations

import random
import time
from typing import Iterator, List, Tuple

from common import (
    PROCESSORS,
    PYTHON,
    RunResult,
    digest,
    job_clock,
    latency_metrics,
    median,
    median_setup,
    own_peak_rss_mb,
    remove_dir,
    run_child,
    work_dir,
)

#: Percentile reported as ``tail_ms``: a run times 200-260 programs, so
#: 20 or more lie beyond it.
TAIL_PERCENTILE = 90
#: Input vectors replayed per program.
INPUT_VECTORS = 4
#: Programs per rotation: six presets on each of four processor models.
ROTATION = 24
#: Programs (from the start of the deck) whose bounds a second, store-less
#: analysis must reproduce after the timed loop: one of every slot.
RECHECKED = ROTATION
#: Whole rotations timed at least; ``peak_rss_mb`` is read after this many,
#: so it covers the same programs whatever the host's speed.
MIN_ROTATIONS = 4
#: In a traced run, rotations alternate traced/untraced; the per-layer
#: metrics cover the first TRACED_ROTATIONS traced rotations, a fixed set of
#: programs for the seed, so their counts repeat exactly.
TRACED_ROTATIONS = 2


def deck(seed: int) -> Iterator[Tuple[int, object, str, int]]:
    """``(index, preset, processor, generator seed)`` for the seed's programs."""
    from repro.testing.fuzz import default_presets

    presets = default_presets()
    rng = random.Random(f"sweep:{seed}")
    index = 0
    while True:
        preset = presets[index % len(presets)]
        processor = PROCESSORS[(index // len(presets)) % len(PROCESSORS)]
        yield index, preset, processor, rng.randrange(1, 2**31)
        index += 1


def _import_probe() -> None:
    proc = run_child([PYTHON, "-c", "import repro.testing.fuzz, repro.testing.oracle"])
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")


def _facade_identity(case, preset, processor: str) -> str:
    """Identity digest of a fresh, store-less facade analysis of ``case``."""
    from repro.analysis.summaries import SummaryCache
    from repro.api import AnalysisRequest, AnalysisService, Project
    from repro.api.project import PROCESSORS as FACTORIES
    from repro.testing.fuzz import report_identity
    from repro.testing.generator import render_case

    rendered = render_case(case)
    project = Project.from_source(
        rendered.source,
        entry=case.entry,
        annotations=rendered.annotations,
        processor=FACTORIES[processor](),
        cache="off",
        name=case.name,
    )
    request = AnalysisRequest(entry=case.entry)
    if preset.options is not None:
        request.options = preset.options
    report = AnalysisService(project, summary_cache=SummaryCache()).analyze(request).report
    return digest(report_identity(report))


def _served(programs):
    """``(name, wire spec, analysis request, identity)`` for the server check."""
    from repro.api import AnalysisRequest
    from repro.testing.fuzz import _case_spec
    from repro.testing.generator import render_case

    return [
        (
            f"{case.seed}/{preset.name}/{processor}",
            _case_spec(case, render_case(case), processor),
            AnalysisRequest(entry=case.entry, options=preset.options),
            identity,
        )
        for case, preset, processor, identity in programs
    ]


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult()
    # Set-up: a fresh interpreter importing the sweep's modules, five times.
    result.metrics["setup_s"] = median_setup(_import_probe)
    clock = job_clock()

    from repro.api.project import PROCESSORS as FACTORIES
    from repro.testing.fuzz import report_identity
    from repro.testing.generator import generate_case
    from repro.testing.oracle import DifferentialOracle, OracleConfig

    import probes
    import servercheck
    import tracer

    store = work_dir("sweep-store")
    oracles = {}
    recorder = tracer.Recorder()
    if trace:
        tracer.install(recorder)
    latencies: List[float] = []
    rotation_means: List[float] = []
    traced_lat: List[float] = []
    untraced_lat: List[float] = []
    checked: List[Tuple[int, object, str, int, str]] = []
    prefix_reports = []
    prefix_programs = []
    prefix_end = None
    prefix_wall = 0.0
    busy = 0.0
    rotation_scaled = 0.0
    peak_rss = 0.0
    try:
        for index, preset, processor, gen_seed in deck(seed):
            rotation, slot = divmod(index, ROTATION)
            if slot == 0 and rotation > 0:
                # Only whole rotations are timed: each holds every
                # preset/model slot once.
                rotation_means.append(rotation_scaled / ROTATION)
                rotation_scaled = 0.0
                if rotation == MIN_ROTATIONS:
                    peak_rss = own_peak_rss_mb()
                if trace and rotation == 2 * TRACED_ROTATIONS - 1:
                    prefix_end = recorder.mark()
                if busy >= seconds and rotation >= MIN_ROTATIONS and (
                    not trace or prefix_end is not None
                ):
                    break
            key = (preset.name, processor)
            if key not in oracles:
                oracles[key] = DifferentialOracle(
                    OracleConfig(
                        processor_factory=FACTORIES[processor],
                        max_input_vectors=INPUT_VECTORS,
                        analysis_options=preset.options,
                        cache_dir=store,
                    )
                )
            case = generate_case(gen_seed, mix=preset.mix)
            traced = trace and rotation % 2 == 0
            recorder.enabled = traced
            elapsed, scaled, outcome = clock.time(oracles[key].check, case)
            recorder.enabled = False
            busy += elapsed
            rotation_scaled += scaled
            latencies.append(scaled)
            (traced_lat if traced else untraced_lat).append(scaled)
            if traced and rotation < 2 * TRACED_ROTATIONS:
                prefix_wall += elapsed
                if outcome.report is not None:
                    prefix_reports.append(outcome.report)
            result.attempted += 1
            if not outcome.ok or outcome.report is None:
                result.fail(f"seed {gen_seed} [{preset.name}/{processor}]: {outcome.summary()}")
                continue
            # The bounds digest serialises the report; traced, untimed.
            recorder.enabled = traced
            started = time.perf_counter()
            identity = digest(report_identity(outcome.report))
            recorder.enabled = False
            if traced and rotation < 2 * TRACED_ROTATIONS:
                prefix_wall += time.perf_counter() - started
                prefix_programs.append((case, preset, processor, identity))
            checked.append((index, preset, processor, gen_seed, identity))
    finally:
        recorder.restore()
        remove_dir(store)

    # A second, store-less analysis must reproduce the first programs' bounds.
    rechecked = [entry for entry in checked if entry[0] < RECHECKED]
    first = [entry[4] for entry in rechecked]
    second = [
        _facade_identity(generate_case(gen_seed, mix=preset.mix), preset, processor)
        for _, preset, processor, gen_seed, _ in rechecked
    ]
    if first != second:
        result.fail(f"bounds digest {digest(first)} not reproduced ({digest(second)})")
    result.notes["bounds_digest"] = digest(first)

    if trace:
        summary = recorder.summary(0, prefix_end)
        result.metrics.update(tracer.layer_metrics(summary, prefix_wall, result))
        result.metrics.update(probes.phase_metrics(probes.report_phases(prefix_reports)))
        result.metrics.update(probes.cli_metrics())
        result.metrics.update(servercheck.check(_served(prefix_programs), result))
        result.metrics["obs.trace_overhead_frac"] = median(traced_lat) / median(untraced_lat) - 1.0
        result.notes["traced_programs"] = len(traced_lat)
        result.notes["untraced_programs"] = len(untraced_lat)
    else:
        latency_metrics(result, latencies, TAIL_PERCENTILE, busy)
        # The median rotation's mean program time: every rotation holds the
        # same preset/model slots, so this does not jump between the
        # clusters of slow and fast slots as a per-program median can.
        result.metrics["p50_ms"] = median(rotation_means) * 1000.0
        result.metrics["peak_rss_mb"] = peak_rss
        result.notes["rotations"] = len(rotation_means)
        result.notes["p50_program_ms"] = median(latencies) * 1000.0
        result.notes["reference_ms"] = clock.reference_ms()
    return result
