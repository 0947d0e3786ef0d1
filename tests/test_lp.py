"""Two-phase simplex: known optima, statuses, and a brute-force cross-check."""

import math

import numpy as np
import pytest

from lotflow.lp import LpError, LpProblem, LpStatus, lp_solve

from helpers import (random_bounded_lp, random_general_lp, random_infeasible_lp,
                     random_unbounded_lp, vertex_solve)


def test_simple_maximization():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), value 12
    prob = LpProblem(objective=[3.0, 2.0], rows=[[1.0, 1.0], [1.0, 3.0]],
                     sense=[1, 1], rhs=[4.0, 6.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(12.0)
    assert sol.x == pytest.approx([4.0, 0.0])


def test_equality_row():
    # max x + y s.t. x + y = 3, x <= 2 -> value 3
    prob = LpProblem(objective=[1.0, 1.0], rows=[[1.0, 1.0], [1.0, 0.0]],
                     sense=[0, 1], rhs=[3.0, 2.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.x[0] + sol.x[1] == pytest.approx(3.0)


def test_geq_row_and_offset():
    prob = LpProblem(objective=[-1.0], rows=[[1.0]], sense=[-1], rhs=[4.0],
                     objective_offset=10.0)
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(4.0)
    assert sol.objective_value == pytest.approx(6.0)


def test_shifted_lower_bound():
    prob = LpProblem(objective=[-1.0], rows=np.empty((0, 1)), sense=[], rhs=[],
                     lo=[2.5], hi=[7.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(2.5)


def test_free_variable():
    # max -|x| style: minimize x via negative objective with free sign
    prob = LpProblem(objective=[-1.0], rows=[[1.0]], sense=[-1], rhs=[-5.0],
                     lo=[-math.inf], hi=[math.inf])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(-5.0)


def test_infeasible_status():
    prob = LpProblem(objective=[1.0], rows=[[1.0]], sense=[1], rhs=[-2.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.INFEASIBLE


def test_unbounded_status():
    prob = LpProblem(objective=[1.0, 0.0], rows=[[0.0, 1.0]], sense=[1], rhs=[5.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.UNBOUNDED


def test_nan_ratios_are_a_numerical_failure():
    # 1e308 * 1e308 overflows while pivoting; the NaN ratios it leaves tie
    # with no row, which ends the solve as an iteration-limit failure
    prob = LpProblem(objective=[-1.0, 1e308], rows=[[1.0, 1.0], [-1e308, 1e308]],
                     sense=[0, 1], rhs=[1.0, 1e308])
    with np.errstate(all="ignore"):
        sol = lp_solve(prob)
    assert sol.status is LpStatus.NUMERICAL_FAILURE


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex (stresses the anti-cycling
    # fallback pivot rule)
    prob = LpProblem(objective=[1.0, 1.0],
                     rows=[[a, a] for a in (1.0, 2.0, 3.0, 4.0)],
                     sense=[1] * 4, rhs=[0.0] * 4)
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0)


def _two_var_problem(**changes):
    args = dict(objective=[1.0, 2.0], rows=[[1.0, 0.0], [0.0, 1.0]],
                sense=[1, -1], rhs=[4.0, 1.0], lo=[0.0, 0.0], hi=[5.0, 6.0])
    args.update(changes)
    return LpProblem(**args)


@pytest.mark.parametrize("changes", [
    dict(rows=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    dict(rows=[1.0, 0.0]),
    dict(objective=[1.0, 2.0, 3.0]),
    dict(lo=[0.0]),
    dict(hi=[5.0, 6.0, 7.0]),
    dict(sense=[1]),
    dict(rhs=[4.0, 1.0, 0.0]),
    dict(sense=[1, 2]),
    dict(sense=[1, 0.5]),
    dict(rhs=[4.0, math.inf]),
    dict(rhs=[math.nan, 1.0]),
], ids=["rows-width", "rows-not-matrix", "objective-length", "lo-length",
        "hi-length", "sense-length", "rhs-length", "sense-code",
        "sense-fraction", "rhs-inf", "rhs-nan"])
def test_malformed_problem_rejected(changes):
    with pytest.raises(LpError):
        _two_var_problem(**changes)


def test_dump_lists_every_row_and_bound():
    prob = _two_var_problem(rows=[[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]],
                            sense=[1, -1, 0], rhs=[4.0, 1.0, 3.0])
    assert prob.dump().splitlines() == [
        "max 1*x0 + 2*x1",
        "  1*x0 <= 4",
        "  1*x1 >= 1",
        "  2*x0 + -1*x1 = 3",
        "  0 <= x0 <= 5",
        "  0 <= x1 <= 6",
    ]


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(7)
    for _ in range(50):
        prob = random_bounded_lp(rng)
        sol = lp_solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        for coeffs, sense, rhs in zip(prob.rows, prob.sense, prob.rhs):
            lhs = float(np.dot(coeffs, sol.x))
            if sense == 1:
                assert lhs <= rhs + 1e-6
            elif sense == -1:
                assert lhs >= rhs - 1e-6
            else:
                assert lhs == pytest.approx(rhs, abs=1e-6)
        for xj, lo, hi in zip(sol.x, prob.lo, prob.hi):
            assert lo - 1e-9 <= xj <= hi + 1e-9


def test_matches_vertex_enumeration_sample():
    rng = np.random.default_rng(11)
    for _ in range(60):
        prob = random_bounded_lp(rng)
        sol = lp_solve(prob)
        ref, _ = vertex_solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert ref is not None
        assert sol.objective_value == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_general_bounds_match_vertex_enumeration():
    # upper-only and shifted boxes under =/>= rows, and an emptied box
    rng = np.random.default_rng(17)
    for _ in range(60):
        prob = random_general_lp(rng)
        sol = lp_solve(prob)
        ref, _ = vertex_solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert ref is not None
        assert sol.objective_value == pytest.approx(ref, rel=1e-6, abs=1e-6)
        j = int(rng.integers(0, prob.n_vars))
        hi = prob.hi[j]
        prob.lo[j], prob.hi[j] = hi, hi - 1.0
        assert lp_solve(prob).status is LpStatus.INFEASIBLE
        assert vertex_solve(prob) == (None, None)


def test_status_families():
    rng = np.random.default_rng(13)
    for _ in range(25):
        assert lp_solve(random_infeasible_lp(rng)).status is LpStatus.INFEASIBLE
        assert lp_solve(random_unbounded_lp(rng)).status is LpStatus.UNBOUNDED
