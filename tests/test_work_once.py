"""Each program's work is done once.

A generated program is compiled once per oracle check, even when rendering
has to compile it to place the ``calltargets`` hints, and once per program
in ``repro fuzz``, which hands the oracle the rendering it made for the
server.  Within one analysis,
a function's instruction-cache analysis runs once however many call
contexts re-analyse it, and an IPET LP is solved once per distinct set of
inputs.  Memo hits must hand every report its own mutable parts.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.analysis.summaries import SummaryCache
from repro.analysis.value import ValueAnalysis
from repro.hardware.cache_analysis import InstructionCacheAnalysis
from repro.hardware.processor import leon2_like
from repro.minic import compile_source
from repro.minic.codegen import CodeGenerator
from repro.testing.fuzz import default_presets, run_fuzz
from repro.testing.generator import generate_case, render_case
from repro.testing.oracle import DifferentialOracle, OracleConfig
from repro.wcet import analyzer as analyzer_module
from repro.wcet.analyzer import AnalysisOptions, WCETAnalyzer
from repro.wcet.ipet import IPETBuilder

#: A 51-line function-pointer program with three ``icall`` sites.
FNPTR_SEED = 3
#: A small baseline program whose helpers are analysed in several argument
#: contexts on ``leon2`` (the memos' hits).
CONTEXTS_SEED = 24


def _preset_mix(name: str):
    return next(preset.mix for preset in default_presets() if preset.name == name)


def _count_calls(monkeypatch, owner, attr, key=lambda *args, **kwargs: None):
    """Monkeypatch ``owner.attr`` to record ``key(...)`` per call."""
    calls = []
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def _lp_inputs(ipet, *args, **kwargs):
    """Everything an IPET solve reads, as a comparable value."""
    return (ipet.cfg.function_name, repr(args), repr(sorted(kwargs.items())))


def _contexts_analyzer(options=None) -> WCETAnalyzer:
    rendered = render_case(generate_case(CONTEXTS_SEED))
    return WCETAnalyzer(
        compile_source(rendered.source),
        leon2_like(),
        annotations=rendered.annotations,
        options=options,
        summary_cache=SummaryCache(),
    )


# --------------------------------------------------------------------------- #
# One compile per program
# --------------------------------------------------------------------------- #
class TestOneCompile:
    def test_rendering_keeps_the_compiled_program(self):
        case = generate_case(FNPTR_SEED, mix=_preset_mix("fnptr"))
        rendered = render_case(case)
        assert rendered.annotations.control_flow_hints.indirect_call_targets
        assert rendered.program is not None
        fresh = compile_source(rendered.source, entry=case.entry)
        assert rendered.program.content_digest() == fresh.content_digest()

    def test_no_program_without_function_pointers(self):
        assert render_case(generate_case(CONTEXTS_SEED)).program is None

    @pytest.mark.parametrize(
        "seed, preset", [(FNPTR_SEED, "fnptr"), (CONTEXTS_SEED, "baseline")]
    )
    def test_oracle_check_generates_code_once(self, monkeypatch, seed, preset):
        generated = _count_calls(monkeypatch, CodeGenerator, "generate")
        case = generate_case(seed, mix=_preset_mix(preset))
        result = DifferentialOracle(OracleConfig(max_input_vectors=2)).check(case)
        assert result.ok, result.summary()
        assert len(generated) == 1
        assert result.timings["compile"] > 0.0

    def test_fuzz_generates_code_once_per_program(self, monkeypatch, tmp_path):
        fnptr = _preset_mix("fnptr")
        assert render_case(generate_case(FNPTR_SEED, mix=fnptr)).program
        # The server analyses its own copy in other threads; count only the
        # compiles of this thread, which renders and checks each program.
        main = threading.main_thread()
        generated = _count_calls(
            monkeypatch,
            CodeGenerator,
            "generate",
            key=lambda *args: threading.current_thread() is main,
        )
        summary = run_fuzz(
            programs=2,
            jobs=1,
            base_seed=FNPTR_SEED,
            inputs=1,
            presets=[p for p in default_presets() if p.name == "fnptr"],
            shrink=False,
            save_corpus=False,
            corpus_dir=str(tmp_path),
        )
        assert summary.ok, summary.to_json()
        assert sum(generated) == 2


# --------------------------------------------------------------------------- #
# One I-cache analysis per function, one solve per distinct LP
# --------------------------------------------------------------------------- #
class TestAnalysisMemos:
    def test_program_is_multi_context(self, monkeypatch):
        runs = _count_calls(
            monkeypatch, ValueAnalysis, "run", key=lambda self: self.cfg.function_name
        )
        _contexts_analyzer().analyze()
        assert max(Counter(runs).values()) > 1

    def test_icache_analysis_once_per_function(self, monkeypatch):
        runs = _count_calls(
            monkeypatch,
            InstructionCacheAnalysis,
            "run",
            key=lambda self: self.cfg.function_name,
        )
        report = _contexts_analyzer().analyze()
        assert sorted(runs) == sorted(set(runs)) == sorted(report.functions)

    def test_solve_pair_once_per_distinct_lp(self, monkeypatch):
        solves = _count_calls(monkeypatch, IPETBuilder, "solve_pair", key=_lp_inputs)
        _contexts_analyzer().analyze()
        assert solves and len(solves) == len(set(solves))

    def test_wcet_only_solve_once_per_distinct_lp(self, monkeypatch):
        solves = _count_calls(monkeypatch, IPETBuilder, "solve", key=_lp_inputs)
        _contexts_analyzer(AnalysisOptions(compute_bcet=False)).analyze()
        assert solves and len(solves) == len(set(solves))

    def test_memo_hits_hand_out_own_block_counts(self, monkeypatch):
        reports = _count_calls(
            monkeypatch,
            analyzer_module,
            "FunctionReport",
            key=lambda *args, **kwargs: kwargs,
        )
        solves = _count_calls(monkeypatch, IPETBuilder, "solve_pair")
        _contexts_analyzer().analyze()
        # More reports than solves: some reports came from a memo hit.
        assert len(reports) > len(solves)
        by_function = Counter(fields["name"] for fields in reports)
        assert max(by_function.values()) > 1
        block_counts = [fields["block_counts"] for fields in reports]
        assert len({id(counts) for counts in block_counts}) == len(block_counts)
