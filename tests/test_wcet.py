"""Tests for the ILP solver, the IPET formulation and the WCET analyzer."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotations import AnnotationSet
from repro.errors import (
    CFGError,
    InfeasibleILPError,
    UnboundedILPError,
    UnboundedLoopError,
)
from repro.cfg import find_loops, reconstruct_cfg
from repro.hardware import TraceTimer, leon2_like, simple_scalar
from repro.ir import Interpreter, parse_assembly
from repro.wcet import (
    AnalysisOptions,
    ILPProblem,
    IPETBuilder,
    LinearExpression,
    WCETAnalyzer,
)
from repro.wcet.ipet import ResolvedFlowConstraint

from lp_reference import (
    assert_agrees_with_linprog,
    linprog_reference,
    record_ipet_solves,
    solve_cross_checked,
)


# --------------------------------------------------------------------------- #
# ILP solver
# --------------------------------------------------------------------------- #
def _knapsack_bruteforce(weights, values, capacity):
    best = 0
    n = len(weights)
    for mask in itertools.product([0, 1], repeat=n):
        weight = sum(w * m for w, m in zip(weights, mask))
        if weight <= capacity:
            best = max(best, sum(v * m for v, m in zip(values, mask)))
    return best


def _solve(problem, backend, **kwargs):
    """``"simplex"``: the in-tree solver alone; ``"scipy"``: the same solve,
    cross-checked against scipy's linprog reference."""
    if backend == "scipy":
        return solve_cross_checked(problem, **kwargs)
    return problem.solve(**kwargs)


class TestILP:
    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_simple_maximisation(self, backend):
        problem = ILPProblem("t")
        problem.add_variable("x")
        problem.add_variable("y")
        problem.set_objective_coefficient("x", 3)
        problem.set_objective_coefficient("y", 2)
        problem.add_constraint(LinearExpression({"x": 1, "y": 1}), "<=", 4)
        problem.add_constraint(LinearExpression({"x": 1}), "<=", 2)
        solution = _solve(problem, backend)
        assert solution.objective == pytest.approx(10)
        assert solution.int_value("x") == 2 and solution.int_value("y") == 2

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_equality_constraints(self, backend):
        problem = ILPProblem("t")
        problem.add_variable("a")
        problem.add_variable("b")
        problem.set_objective_coefficient("a", 1)
        problem.set_objective_coefficient("b", 1)
        problem.add_constraint(LinearExpression({"a": 2, "b": 2}), "<=", 5)
        problem.add_constraint(LinearExpression({"a": 1, "b": -1}), "==", 0)
        solution = _solve(problem, backend)
        assert solution.objective == pytest.approx(2)

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_infeasible_detected(self, backend):
        problem = ILPProblem("t")
        problem.add_variable("x")
        problem.set_objective_coefficient("x", 1)
        problem.add_constraint(LinearExpression({"x": 1}), ">=", 5)
        problem.add_constraint(LinearExpression({"x": 1}), "<=", 2)
        with pytest.raises(InfeasibleILPError):
            _solve(problem, backend)

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_unbounded_detected(self, backend):
        problem = ILPProblem("t")
        problem.add_variable("x")
        problem.set_objective_coefficient("x", 1)
        with pytest.raises(UnboundedILPError):
            _solve(problem, backend, integer=False)

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_minimisation(self, backend):
        problem = ILPProblem("t", maximise=False)
        problem.add_variable("x")
        problem.set_objective_coefficient("x", 4)
        problem.add_constraint(LinearExpression({"x": 1}), ">=", 3)
        assert _solve(problem, backend).objective == pytest.approx(12)

    @given(
        weights=st.lists(st.integers(1, 9), min_size=2, max_size=5),
        values=st.lists(st.integers(1, 9), min_size=2, max_size=5),
        capacity=st.integers(1, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_knapsack_matches_bruteforce(self, weights, values, capacity):
        n = min(len(weights), len(values))
        weights, values = weights[:n], values[:n]
        problem = ILPProblem("knapsack")
        expression = LinearExpression()
        for index in range(n):
            name = f"x{index}"
            problem.add_variable(name, upper=1)
            problem.set_objective_coefficient(name, values[index])
            expression.add_term(name, weights[index])
        problem.add_constraint(expression, "<=", capacity)
        solution = solve_cross_checked(problem)
        assert round(solution.objective) == _knapsack_bruteforce(weights, values, capacity)

    def test_backends_agree_on_lp_relaxation(self):
        problem = ILPProblem("t")
        problem.add_variable("x")
        problem.add_variable("y")
        problem.set_objective_coefficient("x", 5)
        problem.set_objective_coefficient("y", 4)
        problem.add_constraint(LinearExpression({"x": 6, "y": 4}), "<=", 24)
        problem.add_constraint(LinearExpression({"x": 1, "y": 2}), "<=", 6)
        status, a = linprog_reference(problem, integer=False)
        b = problem.solve(integer=False).objective
        assert status == "optimal"
        assert a == pytest.approx(b, rel=1e-6)


# --------------------------------------------------------------------------- #
# IPET
# --------------------------------------------------------------------------- #
LOOP_WITH_BRANCH = """
.func main
    mov r4, 0
loop:
    slt r6, r4, 5
    bf r6, cheap
    mov r7, 1
    br join
cheap:
    mov r7, 2
join:
    add r4, r4, 1
    slt r5, r4, 10
    bt r5, loop
    halt
"""


class TestIPET:
    def _build(self):
        program = parse_assembly(LOOP_WITH_BRANCH)
        cfg, _ = reconstruct_cfg(program, "main")
        loops = find_loops(cfg)
        weights = {block: 10 for block in cfg.node_ids()}
        bounds = {loops.loops[0].header: 10}
        return cfg, loops, weights, bounds

    def test_entry_block_executes_once(self):
        cfg, loops, weights, bounds = self._build()
        result = IPETBuilder(cfg, loops).solve(weights, bounds)
        assert result.block_counts[cfg.entry_block] == 1

    def test_loop_header_respects_bound(self):
        cfg, loops, weights, bounds = self._build()
        result = IPETBuilder(cfg, loops).solve(weights, bounds)
        header = loops.loops[0].header
        assert result.block_counts[header] <= 11

    def test_missing_loop_bound_is_unbounded(self):
        cfg, loops, weights, _ = self._build()
        with pytest.raises(UnboundedILPError):
            IPETBuilder(cfg, loops).solve(weights, {})

    def test_infeasible_block_constraint(self):
        cfg, loops, weights, bounds = self._build()
        branch_block = cfg.node_ids()[2]
        with_block = IPETBuilder(cfg, loops).solve(weights, bounds)
        without_block = IPETBuilder(cfg, loops).solve(
            weights, bounds, infeasible_blocks=[branch_block]
        )
        assert without_block.block_counts[branch_block] == 0
        assert without_block.bound_cycles <= with_block.bound_cycles

    def test_flow_constraint_caps_block_count(self):
        cfg, loops, weights, bounds = self._build()
        branch_block = cfg.node_ids()[2]
        constraint = ResolvedFlowConstraint(
            terms=((branch_block, 1),), relation="<=", bound=3, name="cap"
        )
        result = IPETBuilder(cfg, loops).solve(
            weights, bounds, flow_constraints=[constraint]
        )
        assert result.block_counts[branch_block] <= 3

    def test_bcet_minimisation_is_below_wcet(self):
        cfg, loops, weights, bounds = self._build()
        builder = IPETBuilder(cfg, loops)
        wcet = builder.solve(weights, bounds, maximise=True)
        bcet = builder.solve(weights, bounds, maximise=False)
        assert bcet.bound_cycles <= wcet.bound_cycles

    def test_worst_case_path_blocks_have_positive_counts(self):
        cfg, loops, weights, bounds = self._build()
        result = IPETBuilder(cfg, loops).solve(weights, bounds)
        assert cfg.entry_block in result.worst_case_blocks()


# --------------------------------------------------------------------------- #
# WCET analyzer (end to end)
# --------------------------------------------------------------------------- #
class TestWCETAnalyzer:
    def test_bound_is_sound_for_counter_loop(self, counter_loop_program):
        for processor in (simple_scalar(), leon2_like()):
            report = WCETAnalyzer(counter_loop_program, processor).analyze()
            result = Interpreter(counter_loop_program).run()
            observed = TraceTimer(processor, counter_loop_program).time(result.trace)
            assert report.bcet_cycles <= observed.cycles <= report.wcet_cycles

    def test_report_contains_all_reachable_functions(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        assert set(report.functions) == {"main", "scale"}

    def test_loop_bound_appears_in_report(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        loop_reports = report.loop_reports()
        assert loop_reports and loop_reports[0].bound == 8

    def test_phase_timings_cover_figure1(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        phases = {timing.phase for timing in report.phases}
        assert {"decoding", "loop/value analysis", "cache analysis",
                "pipeline analysis", "path analysis"} <= phases

    def test_unbounded_loop_raises_with_annotation_hint(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        with pytest.raises(UnboundedLoopError) as excinfo:
            WCETAnalyzer(program, simple_scalar()).analyze()
        assert "loopbound" in str(excinfo.value)

    def test_loop_bound_annotation_enables_analysis(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_loop_bound("main", "loop", 20)
        report = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert report.wcet_cycles > 0
        assert report.loop_reports()[0].source == "annotation"

    def test_argument_range_annotation_bounds_loop_automatically(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_argument_range("main", "r3", 0, 20)
        report = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert report.loop_reports()[0].source == "analysis"
        assert report.loop_reports()[0].bound == 20

    def test_infeasible_annotation_tightens_bound(self):
        asm = (
            ".data flag 4\n"
            ".func main\n    la r6, flag\n    load r5, [r6 + 0]\n    bf r5, skip\n"
            "expensive:\n    mov r4, 0\nloop:\n    add r4, r4, 1\n    slt r7, r4, 50\n"
            "    bt r7, loop\nskip:\n    halt\n"
        )
        program = parse_assembly(asm)
        plain = WCETAnalyzer(program, simple_scalar()).analyze()
        annotations = AnnotationSet().add_infeasible("main", "expensive")
        excluded = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert excluded.wcet_cycles < plain.wcet_cycles

    def test_recursion_without_annotation_is_rejected(self):
        asm = (
            ".func main\n    call fib\n    halt\n"
            ".func fib\n    call fib\n    ret\n"
        )
        program = parse_assembly(asm)
        with pytest.raises(CFGError):
            WCETAnalyzer(program, simple_scalar()).analyze()

    def test_recursion_with_annotation_scales_with_depth(self):
        asm = (
            ".func main\n    call count\n    halt\n"
            ".func count params=1\n    sub r3, r3, 1\n    sgt r4, r3, 0\n"
            "    bf r4, done\n    call count\ndone:\n    ret\n"
        )
        program = parse_assembly(asm)
        shallow = WCETAnalyzer(
            program, simple_scalar(),
            annotations=AnnotationSet().add_recursion_bound("count", 2),
        ).analyze()
        deep = WCETAnalyzer(
            program, simple_scalar(),
            annotations=AnnotationSet().add_recursion_bound("count", 8),
        ).analyze()
        assert deep.wcet_cycles > shallow.wcet_cycles

    def test_challenges_report_mentions_annotation_sourced_bounds(self):
        asm = (
            ".func main params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    halt\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_loop_bound("main", "loop", 20)
        report = WCETAnalyzer(program, simple_scalar(), annotations=annotations).analyze()
        assert any("annotation" in item for item in report.challenges.tier_two)

    def test_text_report_renders(self, counter_loop_program):
        report = WCETAnalyzer(counter_loop_program, leon2_like()).analyze()
        text = report.format_text()
        assert "WCET bound" in text and "Loop bounds" in text

    def test_context_sensitive_callee_is_cheaper_than_context_free(self):
        asm = (
            ".func main\n    mov r3, 4\n    call work\n    halt\n"
            ".func work params=1\n    mov r4, 0\nloop:\n    add r4, r4, 1\n"
            "    slt r5, r4, r3\n    bt r5, loop\n    ret\n"
        )
        program = parse_assembly(asm)
        annotations = AnnotationSet().add_loop_bound("work", "loop", 1000)
        sensitive = WCETAnalyzer(
            program, simple_scalar(), annotations=annotations,
            options=AnalysisOptions(context_sensitive_calls=True),
        ).analyze()
        insensitive = WCETAnalyzer(
            program, simple_scalar(), annotations=annotations,
            options=AnalysisOptions(context_sensitive_calls=False),
        ).analyze()
        assert sensitive.wcet_cycles < insensitive.wcet_cycles

    def test_ilp_backend_simplex_gives_same_bound(
        self, counter_loop_program, monkeypatch
    ):
        """Every IPET optimum behind a real report matches linprog's."""
        solves = record_ipet_solves(monkeypatch)
        report = WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()
        assert solves
        for problem, solution in solves:
            assert_agrees_with_linprog(problem, solution)
        wcet_main = [s for p, s in solves if p.name == "ipet:main:wcet"]
        assert [round(s.objective) for s in wcet_main] == [report.wcet_cycles]


class TestIPETMatchesLinprog:
    @pytest.mark.parametrize("workload", ["flight-control", "message-handler"])
    def test_workload_optima_match_linprog_on_leon2(self, workload, monkeypatch):
        """WCET and BCET IPET optima of real workloads agree with HiGHS."""
        from repro.api import AnalysisRequest, AnalysisService, Project

        solves = record_ipet_solves(monkeypatch)
        project = Project.from_workload(workload, processor="leon2", cache="off")
        result = AnalysisService(project).analyze(AnalysisRequest(all_modes=True))
        assert result.reports
        assert {p.maximise for p, _ in solves} == {True, False}
        for problem, solution in solves:
            assert_agrees_with_linprog(problem, solution)
        entry = f"ipet:{project.entry}:"
        optima = {
            (p.name, round(s.objective)) for p, s in solves if p.name.startswith(entry)
        }
        for report in result.reports.values():
            assert (entry + "wcet", report.wcet_cycles) in optima
            assert (entry + "bcet", report.bcet_cycles) in optima
