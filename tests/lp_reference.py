"""scipy's ``linprog`` (HiGHS) as a test-time reference for the in-tree simplex.

The analyzer has exactly one LP solver, :mod:`repro.wcet.simplex`; scipy is
not a runtime dependency.  These helpers restate an
:class:`~repro.wcet.ilp.ILPProblem` for ``linprog`` so tests can cross-check
the simplex's objective and its infeasible/unbounded verdicts against an
independent solver.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from scipy.optimize import linprog

from repro.errors import InfeasibleILPError, UnboundedILPError
from repro.wcet import ipet
from repro.wcet.ilp import ILPProblem, ILPSolution

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def linprog_reference(
    problem: ILPProblem, integer: bool = True
) -> Tuple[str, Optional[float]]:
    """``(status, objective)`` of ``problem`` solved by HiGHS.

    ``status`` is ``"optimal"``, ``"infeasible"`` or ``"unbounded"``;
    ``objective`` (including the objective's constant) is ``None`` unless
    the status is optimal.  ``integer=False`` solves the LP relaxation.
    """
    order = problem.variables
    index = {variable: position for position, variable in enumerate(order)}
    a_ub: List[List[float]] = []
    b_ub: List[float] = []
    a_eq: List[List[float]] = []
    b_eq: List[float] = []
    for constraint in problem.constraints:
        row = [0.0] * len(order)
        for variable, coefficient in constraint.expression.terms.items():
            row[index[variable]] = coefficient
        bound = constraint.bound - constraint.expression.constant
        if constraint.relation == "<=":
            a_ub.append(row)
            b_ub.append(bound)
        elif constraint.relation == ">=":
            a_ub.append([-value for value in row])
            b_ub.append(-bound)
        else:
            a_eq.append(row)
            b_eq.append(bound)
    variables = [problem._variables[variable] for variable in order]
    sign = -1.0 if problem.maximise else 1.0
    objective = [0.0] * len(order)
    for variable, coefficient in problem.objective.terms.items():
        objective[index[variable]] = sign * coefficient
    result = linprog(
        c=objective,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(lower, upper) for lower, upper, _ in variables],
        integrality=[int(integer and is_integer) for _, _, is_integer in variables],
        method="highs",
    )
    status = _STATUS.get(result.status)
    if status is None:
        raise AssertionError(f"linprog failed on {problem.name}: {result.message}")
    if status != "optimal":
        return status, None
    return status, sign * result.fun + problem.objective.constant


def assert_agrees_with_linprog(
    problem: ILPProblem, solution: ILPSolution, integer: bool = True
) -> None:
    """The simplex ``solution`` of ``problem`` has linprog's optimum."""
    status, objective = linprog_reference(problem, integer)
    assert status == "optimal", f"{problem.name}: simplex optimal, linprog {status}"
    assert solution.objective == pytest.approx(objective, rel=1e-9, abs=1e-6)


def solve_cross_checked(problem: ILPProblem, integer: bool = True) -> ILPSolution:
    """Solve with the simplex and assert linprog reaches the same outcome.

    Infeasible/unbounded verdicts are re-raised after linprog confirmed
    them, so callers can still use ``pytest.raises``.
    """
    try:
        solution = problem.solve(integer=integer)
    except InfeasibleILPError:
        assert linprog_reference(problem, integer)[0] == "infeasible"
        raise
    except UnboundedILPError:
        assert linprog_reference(problem, integer)[0] == "unbounded"
        raise
    assert_agrees_with_linprog(problem, solution, integer)
    return solution


def record_ipet_solves(monkeypatch) -> List[Tuple[ILPProblem, ILPSolution]]:
    """Record every IPET ``(problem, solution)`` pair the analyzer solves.

    Patches the paired WCET/BCET solve that :class:`~repro.wcet.ipet.IPETBuilder`
    uses; returns the (growing) list of recorded pairs.
    """
    recorded: List[Tuple[ILPProblem, ILPSolution]] = []
    solve_pair = ipet.solve_ilp_pair

    def recording_solve_pair(first, second):
        solutions = solve_pair(first, second)
        recorded.extend(zip((first, second), solutions))
        return solutions

    monkeypatch.setattr(ipet, "solve_ilp_pair", recording_solve_pair)
    return recorded
