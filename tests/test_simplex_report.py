"""Coverage for the two least-tested wcet modules.

* :mod:`repro.wcet.simplex` — the dependency-free two-phase simplex solver:
  optimal, degenerate, unbounded and infeasible problems, equality handling,
  negative right-hand sides, minimisation, a cross-check against the IPET
  results on a real CFG, and dense-row promotion (same pivots as an all-sparse
  tableau, actually triggered on a wide, filled-in tableau, and bit-identical
  full reports on a 100-program differential sweep).
* :mod:`repro.wcet.report` — report construction and text rendering.
"""

from __future__ import annotations

import pytest

from repro.api import Project
from repro.api.service import AnalysisRequest, AnalysisService
from repro.errors import ReproError
from repro.hardware.processor import simple_scalar
from repro.testing import generate_case, render_case
from repro.testing.fuzz import default_presets, report_identity
from repro.wcet import WCETAnalyzer, simplex
from repro.wcet.analyzer import AnalysisOptions
from repro.wcet.report import (
    ChallengeReport,
    FunctionReport,
    LoopReport,
    PhaseTiming,
    WCETReport,
)
from repro.wcet.simplex import SimplexResult, solve_lp


class TestSimplexOptimal:
    def test_simple_maximisation(self):
        # max x + y  s.t. x + y <= 4, x <= 2  ->  4
        result = solve_lp([1, 1], [[1, 1], [1, 0]], [4, 2], [], [])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(4.0)

    def test_minimisation(self):
        # min x + y  s.t. x + y >= 3 (as -x - y <= -3)  ->  3
        result = solve_lp([1, 1], [[-1, -1]], [-3], [], [], maximise=False)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(3.0)

    def test_equality_constraints(self):
        # max x  s.t. x + y == 3, x <= 2  ->  x = 2, y = 1
        result = solve_lp([1, 0], [[1, 0]], [2], [[1, 1]], [3])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(2.0)
        assert result.values == pytest.approx([2.0, 1.0])

    def test_negative_rhs_equality_is_normalised(self):
        # max x  s.t. -x == -3  ->  x = 3
        result = solve_lp([1], [], [], [[-1]], [-3])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(3.0)

    def test_zero_objective(self):
        result = solve_lp([0, 0], [[1, 0], [0, 1]], [1, 1], [], [])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(0.0)


class TestSimplexDegenerate:
    def test_redundant_constraints(self):
        # The same constraint three times: degenerate pivots must not cycle
        # (Bland's rule) and the optimum is still found.
        result = solve_lp(
            [1, 1],
            [[1, 1], [1, 1], [1, 1], [1, 0], [0, 1]],
            [2, 2, 2, 1, 1],
            [],
            [],
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(2.0)

    def test_degenerate_vertex_zero_rhs(self):
        # A constraint with rhs 0 forces a degenerate basic solution.
        result = solve_lp([2, 1], [[1, -1], [1, 1]], [0, 4], [], [])
        assert result.status == "optimal"
        assert result.objective == pytest.approx(6.0)  # x = y = 2

    def test_classic_cycling_example_terminates(self):
        # Beale's cycling example — terminates only with an anti-cycling rule.
        result = solve_lp(
            [0.75, -150, 0.02, -6],
            [
                [0.25, -60, -1 / 25, 9],
                [0.5, -90, -1 / 50, 3],
                [0, 0, 1, 0],
            ],
            [0, 0, 1],
            [],
            [],
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(0.05)


class TestSimplexUnboundedInfeasible:
    def test_unbounded_problem(self):
        # max x with no constraints at all: x can grow without limit.
        result = solve_lp([1], [], [], [], [])
        assert result.status == "unbounded"

    def test_unbounded_direction_in_one_variable(self):
        # y is bounded but x is free to grow.
        result = solve_lp([1, 1], [[0, 1]], [5], [], [])
        assert result.status == "unbounded"

    def test_infeasible_contradictory_bounds(self):
        # x <= 1 and x >= 2 cannot both hold.
        result = solve_lp([1], [[1], [-1]], [1, -2], [], [])
        assert result.status == "infeasible"

    def test_infeasible_equality(self):
        # x + y == -5 with x, y >= 0 is impossible.
        result = solve_lp([1, 1], [], [], [[1, 1]], [-5])
        assert result.status == "infeasible"

    def test_result_dataclass_defaults(self):
        result = SimplexResult(status="infeasible")
        assert result.objective == 0.0
        assert result.values is None


class TestSimplexCrossCheck:
    def test_paired_solve_matches_single_solve(self, counter_loop_program):
        """The shared-phase-1 WCET/BCET solve gives the single-solve bound."""
        from repro.wcet import AnalysisOptions

        processor = simple_scalar()
        paired = WCETAnalyzer(counter_loop_program, processor).analyze()
        single = WCETAnalyzer(
            counter_loop_program,
            processor,
            options=AnalysisOptions(compute_bcet=False),
        ).analyze()
        assert paired.wcet_cycles == single.wcet_cycles
        assert 0 < paired.bcet_cycles <= paired.wcet_cycles


def _dense_heavy_lp():
    """An LP whose equality rows exceed the densification threshold.

    48 variables, three full-width equality constraints and per-variable
    upper bounds: the equality rows carry ~49 of ~99 columns, so the tableau
    promotes them to dense lists on the first pivot that updates them.
    """
    n = 48
    objective = [1.0 + (i % 5) * 0.25 for i in range(n)]
    a_ub = [{i: 1.0} for i in range(n)]
    b_ub = [3.0] * n
    a_eq = [
        {i: 1.0 for i in range(n)},
        {i: (1.0 if i % 2 == 0 else 2.0) for i in range(n)},
        {i: float(1 + (i % 3)) for i in range(n)},
    ]
    b_eq = [float(n), float(n + n // 2), float(sum(1 + (i % 3) for i in range(n)))]
    return objective, a_ub, b_ub, a_eq, b_eq


class TestDenseTableau:
    def _trace(self, monkeypatch):
        """Solve the dense-heavy LP recording every (row, col) pivot."""
        trace = []
        original = simplex._pivot

        def recording(rows, rhs, basis, col_rows, row, col, *args):
            trace.append((row, col))
            return original(rows, rhs, basis, col_rows, row, col, *args)

        monkeypatch.setattr(simplex, "_pivot", recording)
        objective, a_ub, b_ub, a_eq, b_eq = _dense_heavy_lp()
        result = simplex.solve_sparse_lp(
            objective, a_ub, b_ub, a_eq, b_eq, maximise=True
        )
        return trace, result

    def test_pivot_sequence_matches_all_sparse_tableau(self, monkeypatch):
        with monkeypatch.context() as patch:
            promoted_trace, promoted = self._trace(patch)
        with monkeypatch.context() as patch:
            # Raise the width floor above this LP's 99 columns: no row is
            # ever promoted, so the whole run stays on dict rows.
            patch.setattr(simplex, "_DENSE_MIN_COLUMNS", 1000)
            objective, a_ub, b_ub, a_eq, b_eq = _dense_heavy_lp()
            assert not simplex.prepare_sparse_tableau(
                len(objective), a_ub, b_ub, a_eq, b_eq
            ).dense_rows
            sparse_trace, sparse = self._trace(patch)
        assert promoted_trace == sparse_trace
        assert promoted.status == sparse.status == "optimal"
        assert promoted.objective == sparse.objective
        assert promoted.values == sparse.values
        assert promoted.pivots == sparse.pivots > 0

    def test_filled_rows_are_densified(self):
        objective, a_ub, b_ub, a_eq, b_eq = _dense_heavy_lp()
        prepared = simplex.prepare_sparse_tableau(
            len(objective), a_ub, b_ub, a_eq, b_eq
        )
        assert prepared.dense_rows, "expected dense-row promotion on this LP"
        for r in prepared.dense_rows:
            assert type(prepared.rows[r]) is list
            assert len(prepared.rows[r]) == prepared.total_columns
        # Promoted rows leave the column index; elimination visits them
        # unconditionally instead.
        for members in prepared.col_rows.values():
            assert not members & prepared.dense_rows

    def test_public_solve_promotes_rows(self):
        """Guard the memory win: a wide IPET tableau must not stay all-sparse.

        An all-sparse tableau fills in to one dict entry per touched column;
        on a large IPET system that was a 19.8 MB traced peak against 7.2 MB
        with dense rows.  Promotion needs no option, so the public entry
        point must trigger it.
        """
        objective, a_ub, b_ub, a_eq, b_eq = _dense_heavy_lp()
        result = simplex.solve_sparse_lp(objective, a_ub, b_ub, a_eq, b_eq)
        assert result.status == "optimal"
        prepared = simplex.prepare_sparse_tableau(
            len(objective), a_ub, b_ub, a_eq, b_eq
        )
        assert prepared.dense_rows, "dense-row promotion no longer fires"

    def test_prepared_tableau_reuse_counts_phase1_once(self):
        objective, a_ub, b_ub, a_eq, b_eq = _dense_heavy_lp()
        prepared = simplex.prepare_sparse_tableau(
            len(objective), a_ub, b_ub, a_eq, b_eq
        )
        assert prepared.pivots > 0
        maxi = simplex.optimise_prepared(prepared, objective, maximise=True)
        mini = simplex.optimise_prepared(prepared, objective, maximise=False)
        assert maxi.status == mini.status == "optimal"
        # Phase-2 counters exclude the shared phase-1 work.
        assert maxi.pivots >= 0 and mini.pivots >= 0
        single = simplex.solve_sparse_lp(
            objective, a_ub, b_ub, a_eq, b_eq, maximise=True
        )
        assert single.pivots == prepared.pivots + maxi.pivots
        assert single.objective == maxi.objective


#: The differential sweep: 100 generated programs, rotating through every fuzz
#: preset.  About two thirds of them build an IPET tableau wide and full
#: enough to promote rows, the rest check that small tableaux are untouched.
SWEEP_SEEDS = list(range(1, 101))
PRESETS = default_presets()


class TestDenseRowsSweep:
    """Dense-row promotion must not change any report, not merely its bound."""

    def _identity(self, service, options, monkeypatch):
        """Full-report identity (or the exact failure), plus promotion count."""
        promoted = []
        original = simplex.prepare_sparse_tableau

        def recording(*args, **kwargs):
            prepared = original(*args, **kwargs)
            promoted.append(len(prepared.dense_rows))
            return prepared

        monkeypatch.setattr(simplex, "prepare_sparse_tableau", recording)
        try:
            result = service.analyze(AnalysisRequest(options=options))
        except ReproError as exc:
            return ("error", type(exc).__name__, str(exc)), sum(promoted)
        identity = {
            mode: report_identity(report) for mode, report in result.reports.items()
        }
        return identity, sum(promoted)

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_reports_match_all_sparse_tableau(self, seed, monkeypatch):
        preset = PRESETS[seed % len(PRESETS)]
        case = generate_case(seed, preset.mix)
        rendered = render_case(case)
        project = Project.from_source(
            rendered.source,
            entry=case.entry,
            annotations=rendered.annotations,
            cache="off",
            name=case.name,
        )
        service = AnalysisService(project)
        options = preset.options or AnalysisOptions()
        with monkeypatch.context() as patch:
            dense, _ = self._identity(service, options, patch)
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "_DENSE_MIN_COLUMNS", 1 << 30)
            sparse, sparse_promoted = self._identity(service, options, patch)
        assert sparse_promoted == 0
        assert dense == sparse, (
            f"seed {seed} preset {preset.name}: dense-row promotion changed the report"
        )


class TestReportRendering:
    def _real_report(self, counter_loop_program) -> WCETReport:
        return WCETAnalyzer(counter_loop_program, simple_scalar()).analyze()

    def test_format_text_contains_key_sections(self, counter_loop_program):
        report = self._real_report(counter_loop_program)
        text = report.format_text()
        assert "WCET analysis of task 'main'" in text
        assert f"WCET bound : {report.wcet_cycles} cycles" in text
        assert f"BCET bound : {report.bcet_cycles} cycles" in text
        assert "Analysis phases (Figure 1):" in text
        assert "Per-function bounds:" in text
        assert "main" in text and "scale" in text
        assert "Loop bounds:" in text

    def test_entry_report_and_function_names(self, counter_loop_program):
        report = self._real_report(counter_loop_program)
        assert report.entry_report.name == "main"
        assert report.function_names() == ["main", "scale"]
        assert report.entry_report.wcet_cycles == report.wcet_cycles

    def test_phase_seconds_aggregates_by_phase(self):
        report = WCETReport(
            entry="main",
            processor="p",
            wcet_cycles=10,
            bcet_cycles=5,
            phases=[
                PhaseTiming("decoding", 0.25),
                PhaseTiming("path analysis", 0.5),
                PhaseTiming("path analysis", 0.25, detail="second run"),
            ],
        )
        totals = report.phase_seconds()
        assert totals["decoding"] == pytest.approx(0.25)
        assert totals["path analysis"] == pytest.approx(0.75)

    def test_mode_and_scenario_shown_in_title(self):
        report = WCETReport(
            entry="task",
            processor="leon2-like",
            wcet_cycles=1,
            bcet_cycles=1,
            functions={"task": FunctionReport(name="task", wcet_cycles=1, bcet_cycles=1)},
            mode="ground",
            error_scenario="single_fault",
        )
        text = report.format_text()
        assert "[mode: ground]" in text
        assert "[error scenario: single_fault]" in text

    def test_challenges_render_in_tiers(self):
        challenges = ChallengeReport()
        challenges.add_tier_one("unresolved indirect call")
        challenges.add_tier_two("loop bounded only by annotation")
        assert not challenges.is_clean
        report = WCETReport(
            entry="t",
            processor="p",
            wcet_cycles=0,
            bcet_cycles=0,
            challenges=challenges,
            annotation_summary={"loop_bounds": 1},
        )
        text = report.format_text()
        assert "Tier-one challenges" in text
        assert "unresolved indirect call" in text
        assert "Tier-two challenges" in text
        assert "loop bounded only by annotation" in text
        assert "Annotations used:" in text

    def test_loop_report_str_for_bounded_and_unbounded(self):
        bounded = LoopReport(function="f", header=0x1000, bound=8, source="analysis")
        unbounded = LoopReport(
            function="f", header=0x2000, bound=None, source="unbounded", irreducible=True
        )
        assert "<= 8 iterations" in str(bounded)
        assert "unbounded" in str(unbounded)
        assert "(irreducible)" in str(unbounded)

    def test_function_report_helpers(self):
        function = FunctionReport(
            name="f",
            wcet_cycles=100,
            bcet_cycles=10,
            block_counts={0x1000: 2, 0x1010: 0, 0x1020: 1},
            loop_reports=[
                LoopReport(function="f", header=0x1000, bound=4, source="analysis"),
                LoopReport(function="f", header=0x1010, bound=None, source="unbounded"),
            ],
        )
        assert function.worst_case_blocks() == [0x1000, 0x1020]
        assert function.total_loop_bound_iterations() == 4

    def test_str_summary(self, counter_loop_program):
        report = self._real_report(counter_loop_program)
        summary = str(report)
        assert "main" in summary and str(report.wcet_cycles) in summary
