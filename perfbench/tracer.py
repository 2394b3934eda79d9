"""Outside-in per-layer tracing of the in-process pipeline.

The benchmark does not trace inside ``src/``.  Instead :class:`Recorder`
replaces each layer's public entry point (a class method, or a function as
bound in the module that calls it) with a wrapper that records a span —
layer name, start, end, parent span — plus exact work counts taken from the
call's arguments and return value.  Spans are kept in memory; the layer
metrics are computed from them when the run ends.

A layer's *self time* is its spans' time minus the time of their child
spans, so the per-layer self times of one operation never sum to more than
its wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Recorder:
    """Span recorder whose wrappers are inert unless ``enabled`` is set."""

    def __init__(self) -> None:
        #: One span per wrapped call: [layer, start, end, parent, counts].
        self.spans: List[list] = []
        self.enabled = False
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        count: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call; ``count(args, result,
        state)`` turns the call into a dict of exact work counts, where
        ``state`` is what ``before`` returned.
        """
        owned = attr in owner.__dict__
        original = owner.__dict__[attr] if owned else getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            parent = recorder._stack[-1] if recorder._stack else -1
            span = [layer, time.perf_counter(), 0.0, parent, None]
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                recorder._stack.pop()
            if count is not None:
                span[4] = count(args, result, state)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if owned else None))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Position to pass to :meth:`summary` for "spans from here on"."""
        return len(self.spans)

    def summary(self, start: int = 0, end: Optional[int] = None) -> "SpanSummary":
        """Self times and summed counts of the spans in ``[start, end)``."""
        spans = self.spans[start:end]
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span[3] >= start:
                child_time[span[3]] += span[2] - span[1]
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, int] = defaultdict(int)
        for offset, span in enumerate(spans):
            layer = span[0]
            self_time[layer] += (span[2] - span[1]) - child_time.get(start + offset, 0.0)
            calls[layer] += 1
            for key, value in (span[4] or {}).items():
                counts[key] += value
        return SpanSummary(dict(self_time), dict(calls), dict(counts), len(spans))


class SpanSummary:
    def __init__(self, self_time, calls, counts, spans):
        self.self_time = self_time
        self.calls = calls
        self.counts = counts
        self.spans = spans

    def seconds(self, *layers: str) -> float:
        return sum(self.self_time.get(layer, 0.0) for layer in layers)

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


# --------------------------------------------------------------------------- #
# The entry points of each layer
# --------------------------------------------------------------------------- #
def _program_size(program) -> int:
    return sum(len(function) for function in program.functions.values())


def _classification_counts(result) -> Dict[str, int]:
    values = result.classifications.values()
    return {
        "cache_classified": len(result.classifications),
        "cache_nc": sum(1 for value in values if value.value == "NC"),
    }


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point (the wrappers stay inert until the
    recorder is enabled)."""
    from repro.analysis.loopbounds import LoopBoundAnalysis
    from repro.analysis.summaries import SummaryCache
    from repro.analysis.value import ValueAnalysis
    from repro.api import serialize
    from repro.api.project import Project
    from repro.api.service import AnalysisService
    from repro.cache.store import SummaryStore
    from repro.hardware.cache_analysis import DataCacheAnalysis, InstructionCacheAnalysis
    from repro.hardware.pipeline import PipelineModel, TraceTimer
    from repro.ir.interpreter import Interpreter
    from repro.testing.oracle import DifferentialOracle
    from repro.wcet import analyzer as analyzer_module
    from repro.wcet.analyzer import WCETAnalyzer
    from repro.wcet.ipet import IPETBuilder

    wrap = recorder.wrap
    # minic: Project.build memoises, so only first builds count as compiles.
    wrap(
        Project, "build", "minic.compile",
        before=lambda args: args[0]._program is None,
        count=lambda args, program, fresh: (
            {"compiles": 1, "ir_instructions": _program_size(program)} if fresh else {}
        ),
    )
    # cfg: decoding as the analyzer binds it.
    wrap(
        analyzer_module, "reconstruct_program", "cfg.decode",
        count=lambda args, result, _: {"blocks": sum(len(cfg.blocks) for cfg in result[0].values())},
    )
    wrap(analyzer_module, "build_callgraph", "cfg.decode")
    # analysis
    wrap(
        ValueAnalysis, "run", "analysis.value",
        count=lambda args, result, _: {"fixpoint_iterations": result.iterations},
    )
    wrap(LoopBoundAnalysis, "run", "analysis.loopbound")
    # hardware
    for cls in (InstructionCacheAnalysis, DataCacheAnalysis):
        wrap(cls, "run", "hardware.cache", count=lambda args, result, _: _classification_counts(result))
    wrap(PipelineModel, "block_time_bounds", "hardware.pipeline")
    wrap(TraceTimer, "time", "hardware.replay")
    # wcet
    wrap(
        IPETBuilder, "solve_pair", "wcet.ipet",
        count=lambda args, results, _: {
            "simplex_pivots": sum(r.ilp_pivots for r in results),
            "ilp_nodes": sum(r.ilp_nodes for r in results),
        },
    )
    wrap(
        IPETBuilder, "solve", "wcet.ipet",
        count=lambda args, result, _: {
            "simplex_pivots": result.ilp_pivots,
            "ilp_nodes": result.ilp_nodes,
        },
    )
    wrap(WCETAnalyzer, "analyze", "wcet.analyzer")
    # ir
    wrap(Interpreter, "run", "ir.interpret", count=lambda args, result, _: {"steps": result.steps})
    # cache: tier outcomes are read off the cache's own counters.
    wrap(
        SummaryCache, "get", "cache.lookup",
        before=lambda args: (args[0].tier1_hits, args[0].tier2_hits, args[0].tier2_misses),
        count=lambda args, result, state: {
            "tier1_probes": 1,
            "tier1_hits": args[0].tier1_hits - state[0],
            "tier2_probes": (args[0].tier2_hits - state[1]) + (args[0].tier2_misses - state[2]),
            "tier2_hits": args[0].tier2_hits - state[1],
        },
    )
    wrap(SummaryCache, "put", "cache.lookup", count=lambda args, result, _: {"puts": 1})
    for method in ("get", "put", "flush"):
        wrap(SummaryStore, method, "cache.store")
    # testing, api
    wrap(DifferentialOracle, "check", "testing.oracle")
    wrap(AnalysisService, "analyze", "api.service")
    wrap(serialize, "to_json", "api.serialize")


def layer_metrics(summary: SpanSummary, wall: float, result) -> Dict[str, float]:
    """The in-process per-layer metrics of BENCHMARK.json from one summary
    of operations that took ``wall`` seconds.  Self times summing to more
    than ``wall`` would mean mis-parented spans: that fails ``result``."""

    def frac(numerator: str, denominator: str) -> float:
        total = summary.count(denominator)
        return summary.count(numerator) / total if total else 0.0

    attributed = sum(summary.self_time.values())
    if attributed > wall * 1.0001:
        result.fail(
            f"tracer: per-layer self times sum to {attributed:.4f}s, above the "
            f"traced wall time {wall:.4f}s"
        )
    return {
        "minic.compile_s": summary.seconds("minic.compile"),
        "minic.compiles": summary.count("compiles"),
        "minic.ir_instructions": summary.count("ir_instructions"),
        "cfg.decode_s": summary.seconds("cfg.decode"),
        "cfg.blocks": summary.count("blocks"),
        "analysis.value_s": summary.seconds("analysis.value"),
        "analysis.value_runs": summary.calls.get("analysis.value", 0),
        "analysis.fixpoint_iterations": summary.count("fixpoint_iterations"),
        "analysis.loopbound_s": summary.seconds("analysis.loopbound"),
        "hardware.cache_s": summary.seconds("hardware.cache"),
        "hardware.cache_nc_frac": frac("cache_nc", "cache_classified"),
        "hardware.pipeline_s": summary.seconds("hardware.pipeline"),
        "hardware.pipeline_calls": summary.calls.get("hardware.pipeline", 0),
        "hardware.replay_s": summary.seconds("hardware.replay"),
        "wcet.ipet_s": summary.seconds("wcet.ipet"),
        "wcet.simplex_pivots": summary.count("simplex_pivots"),
        "wcet.ilp_nodes": summary.count("ilp_nodes"),
        "wcet.analyzer_self_s": summary.seconds("wcet.analyzer"),
        "ir.interpret_s": summary.seconds("ir.interpret"),
        "ir.steps": summary.count("steps"),
        "cache.tier1_hit_frac": frac("tier1_hits", "tier1_probes"),
        "cache.tier2_hit_frac": frac("tier2_hits", "tier2_probes"),
        "cache.puts": summary.count("puts"),
        "cache.store_s": summary.seconds("cache.store"),
        "testing.oracle_self_s": summary.seconds("testing.oracle"),
        "api.service_self_s": summary.seconds("api.service"),
        "api.serialize_s": summary.seconds("api.serialize"),
        "obs.spans": summary.spans,
        # Share of the operations' wall time outside every traced layer:
        # the benchmark's own glue and the wrappers themselves.
        "obs.unattributed_frac": 1.0 - attributed / wall if wall else 0.0,
    }
