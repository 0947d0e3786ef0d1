"""Two-phase simplex: known optima, statuses, and a brute-force cross-check."""

import math

import numpy as np
import pytest

from lotflow import lp
from lotflow.lp import LpError, LpProblem, LpStatus, lp_solve

from helpers import (random_bounded_lp, random_infeasible_lp, random_one_form_lp,
                     random_unbounded_lp, vertex_solve)


def test_simple_maximization():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), value 12
    prob = LpProblem(objective=[3.0, 2.0], rows=[[1.0, 1.0], [1.0, 3.0]],
                     rhs=[4.0, 6.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(12.0)
    assert sol.x == pytest.approx([4.0, 0.0])


def test_equality_row():
    # max x + y s.t. x + y = 3 as the pair x + y <= 3, -x - y <= -3, x <= 2
    prob = LpProblem(objective=[1.0, 1.0],
                     rows=[[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]],
                     rhs=[3.0, -3.0, 2.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.x[0] + sol.x[1] == pytest.approx(3.0)


def test_geq_row_and_offset():
    # x >= 4 is the row -x <= -4, whose negative rhs sends the solve
    # through the dual simplex of phase 1
    prob = LpProblem(objective=[-1.0], rows=[[-1.0]], rhs=[-4.0],
                     objective_offset=10.0)
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(4.0)
    assert sol.objective_value == pytest.approx(6.0)


def test_shifted_lower_bound():
    # 2.5 <= x <= 7 as the row -x <= -2.5 and the box hi = 7
    prob = LpProblem(objective=[-1.0], rows=[[-1.0]], rhs=[-2.5], hi=[7.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(2.5)


def test_infeasible_status():
    prob = LpProblem(objective=[1.0], rows=[[1.0]], rhs=[-2.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.INFEASIBLE


def test_unbounded_status():
    prob = LpProblem(objective=[1.0, 0.0], rows=[[0.0, 1.0]], rhs=[5.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.UNBOUNDED


def test_nan_ratios_are_a_numerical_failure():
    # 1e308 * 1e308 overflows while pivoting; the NaN ratios it leaves tie
    # with no row, which ends the solve as an iteration-limit failure. The
    # first two rows state x0 + x1 = 1.
    prob = LpProblem(objective=[-1.0, 1e308],
                     rows=[[1.0, 1.0], [-1.0, -1.0], [-1e308, 1e308]],
                     rhs=[1.0, -1.0, 1e308])
    with np.errstate(all="ignore"):
        sol = lp_solve(prob)
    assert sol.status is LpStatus.NUMERICAL_FAILURE


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex (stresses the anti-cycling
    # fallback pivot rule)
    prob = LpProblem(objective=[1.0, 1.0],
                     rows=[[a, a] for a in (1.0, 2.0, 3.0, 4.0)],
                     rhs=[0.0] * 4)
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0)


@pytest.mark.parametrize("n, pivots", [(5, 31), (6, 63), (7, 127)])
def test_klee_minty_takes_every_dantzig_pivot(n, pivots):
    # max sum 2^(n-1-j) x_j  s.t.  sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^(i+1):
    # Dantzig's rule visits all 2^n vertices, each step raising the
    # objective, so no step counts as a stall and Bland's rule never starts
    rows = np.eye(n)
    for i in range(n):
        for j in range(i):
            rows[i, j] = 2.0 ** (i - j + 1)
    prob = LpProblem(objective=[2.0 ** (n - 1 - j) for j in range(n)],
                     rows=rows, rhs=[5.0 ** (i + 1) for i in range(n)])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.iterations == pivots
    assert sol.objective_value == 5.0 ** n


def test_ratio_tie_takes_the_largest_pivot():
    # both rows reach zero at x0 = 1, row 0 through a pivot element of 6e-8;
    # columns x0 | s0 | s1 | rhs, with the slacks basic
    tab = np.array([[6e-8, 1.0, 0.0, 6e-8],
                    [1.0, 0.0, 1.0, 1.0],
                    [-1.0, 0.0, 0.0, 0.0]])
    basis = np.array([1, 2])
    status, iters = lp._simplex_phase(tab, basis, np.full(3, math.inf),
                                      np.zeros(3, dtype=bool), 0, 1)
    assert (status, iters) == (LpStatus.OPTIMAL, 1)
    assert basis.tolist() == [1, 0]


def _counting_pivots(monkeypatch):
    pivots = []

    def counted(tab, basis, row, col):
        pivots.append((row, col))
        pivot(tab, basis, row, col)

    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", counted)
    return pivots


def test_entering_column_flips_at_its_bound(monkeypatch):
    # max x0 + x1  s.t.  x0 + x1 <= 10, x0 <= 3: x0 enters and stops at its
    # own bound 3 before the row binds, a flip without a pivot; then x1
    # enters and pivots the row's slack out
    pivots = _counting_pivots(monkeypatch)
    sol = lp_solve(LpProblem(objective=[1.0, 1.0], rows=[[1.0, 1.0]],
                             rhs=[10.0], hi=[3.0, math.inf]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x.tolist() == [3.0, 7.0]
    assert sol.objective_value == 10.0
    assert sol.iterations == 2
    assert pivots == [(0, 1)]


def test_basic_variable_leaves_at_its_bound(monkeypatch):
    # max 2 x0 + x1  s.t.  x0 - x1 <= 1, x1 <= 10, x0 <= 5: x0 enters at 1
    # on row 0; when x1 enters, x0 rises with it and leaves row 0 at its
    # bound 5 at x1 = 4; then the slack s0 enters and x1 climbs on to 10
    pivots = _counting_pivots(monkeypatch)
    sol = lp_solve(LpProblem(objective=[2.0, 1.0],
                             rows=[[1.0, -1.0], [0.0, 1.0]], rhs=[1.0, 10.0],
                             hi=[5.0, math.inf]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x.tolist() == [5.0, 10.0]
    assert sol.objective_value == 20.0
    assert sol.iterations == 3
    # tableau columns x0 | x1 | s0 | s1
    assert pivots == [(0, 0), (0, 1), (1, 2)]


def _two_var_problem(**changes):
    args = dict(objective=[1.0, 2.0], rows=[[1.0, 0.0], [0.0, 1.0]],
                rhs=[4.0, 1.0], hi=[5.0, 6.0])
    args.update(changes)
    return LpProblem(**args)


@pytest.mark.parametrize("changes", [
    dict(rows=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    dict(rows=[1.0, 0.0]),
    dict(objective=[1.0, 2.0, 3.0]),
    dict(hi=[5.0, 6.0, 7.0]),
    dict(rhs=[4.0, 1.0, 0.0]),
    dict(rhs=[4.0, math.inf]),
    dict(rhs=[math.nan, 1.0]),
    dict(hi=[5.0, -math.inf]),
    dict(hi=[math.nan, 6.0]),
], ids=["rows-width", "rows-not-matrix", "objective-length", "hi-length",
        "rhs-length", "rhs-inf", "rhs-nan", "hi-minus-inf", "hi-nan"])
def test_malformed_problem_rejected(changes):
    with pytest.raises(LpError):
        _two_var_problem(**changes)


def test_dump_lists_every_row_and_bound():
    prob = _two_var_problem(rows=[[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
                            rhs=[4.0, -1.0, 3.0], hi=[5.0, math.inf])
    assert prob.dump().splitlines() == [
        "max 1*x0 + 2*x1",
        "  1*x0 <= 4",
        "  -1*x1 <= -1",
        "  0 <= 3",
        "  0 <= x0 <= 5",
        "  0 <= x1 <= inf",
    ]


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(7)
    for _ in range(50):
        prob = random_bounded_lp(rng)
        sol = lp_solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert (prob.rows @ sol.x <= prob.rhs + 1e-6).all()
        assert (-1e-9 <= sol.x).all() and (sol.x <= prob.hi + 1e-9).all()


def test_matches_vertex_enumeration_sample():
    rng = np.random.default_rng(11)
    for _ in range(60):
        prob = random_bounded_lp(rng)
        sol = lp_solve(prob)
        ref, _ = vertex_solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert ref is not None
        assert sol.objective_value == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_one_form_matches_vertex_enumeration():
    # negative-rhs rows, hi = 0 columns, finite and infinite hi side by
    # side, and then a negative hi, which empties its box
    rng = np.random.default_rng(17)
    for _ in range(60):
        prob = random_one_form_lp(rng)
        assert prob.rhs[0] < 0
        sol = lp_solve(prob)
        ref, _ = vertex_solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert ref is not None
        assert sol.objective_value == pytest.approx(ref, rel=1e-6, abs=1e-6)
        j = int(rng.integers(0, prob.n_vars))
        prob.hi[j] = -rng.uniform(0.5, 2.0)
        assert lp_solve(prob).status is LpStatus.INFEASIBLE
        assert vertex_solve(prob) == (None, None)


def test_status_families():
    rng = np.random.default_rng(13)
    for _ in range(25):
        assert lp_solve(random_infeasible_lp(rng)).status is LpStatus.INFEASIBLE
        assert lp_solve(random_unbounded_lp(rng)).status is LpStatus.UNBOUNDED


def _child(prob, rng, root_hi):
    """A child of ``prob``: some right-hand sides lowered, some bound zeroed
    or a zeroed one restored to its bound ``root_hi`` in the first problem."""
    rhs = prob.rhs - np.where(rng.random(prob.rhs.size) < 0.5,
                              rng.uniform(0.0, 3.0, prob.rhs.size), 0.0)
    hi = prob.hi.copy()
    zeroed = np.flatnonzero((hi == 0) & (root_hi > 0))
    if zeroed.size and rng.random() < 0.5:
        j = zeroed[rng.integers(0, zeroed.size)]
        hi[j] = root_hi[j]
    elif rng.random() < 0.5:
        hi[int(rng.integers(0, prob.n_vars))] = 0.0
    return LpProblem(objective=prob.objective, rows=prob.rows, rhs=rhs, hi=hi,
                     objective_offset=prob.objective_offset)


def test_warm_children_match_cold_solves():
    # chains of children, each re-solved from its parent's final tableau,
    # agree with a cold solve of the same child, infeasible ones and ones
    # that free a column their parent pinned included
    rng = np.random.default_rng(23)
    statuses = []
    freed = 0
    for _ in range(60):
        parent = random_one_form_lp(rng)
        parent_sol = lp_solve(parent)
        assert parent_sol.status is LpStatus.OPTIMAL
        root_hi = parent.hi
        for _ in range(4):
            child = _child(parent, rng, root_hi)
            warm = lp_solve(child, warm=parent_sol)
            cold = lp_solve(child)
            statuses.append(cold.status)
            freed += bool((child.hi[parent.hi == 0] > 0).any())
            assert warm.status is cold.status
            if cold.status is not LpStatus.OPTIMAL:
                break
            assert warm.objective_value == pytest.approx(
                cold.objective_value, rel=1e-9, abs=1e-9)
            assert (child.rows @ warm.x <= child.rhs + 1e-9).all()
            assert (0.0 <= warm.x).all() and (warm.x <= child.hi).all()
            parent, parent_sol = child, warm
    assert LpStatus.INFEASIBLE in statuses
    assert statuses.count(LpStatus.OPTIMAL) > 100
    assert freed >= 5


@pytest.mark.parametrize("changes, pivot, x, value", [
    # x0 + x1 <= 2 puts x1 at -1: s1 enters on its row, and x0 falls to 2
    (dict(rhs=[2.0, 3.0]), (0, 3), [2.0, 0.0], 4.0),
    # x1 fixed at 0 stands 1 above its bound: its row is complemented and
    # s0 enters on it, and x0 stays at 3
    (dict(hi=[math.inf, 0.0]), (0, 2), [3.0, 0.0], 6.0),
], ids=["rhs-lowered", "bound-zeroed"])
def test_warm_start_takes_one_dual_pivot(monkeypatch, changes, pivot, x, value):
    # max 2 x0 + x1  s.t.  x0 + x1 <= 4, x0 <= 3: the optimum (3, 1) has x1
    # basic on row 0 and x0 on row 1; tableau columns x0 | x1 | s0 | s1
    args = dict(objective=[2.0, 1.0], rows=[[1.0, 1.0], [1.0, 0.0]],
                rhs=[4.0, 3.0])
    parent = lp_solve(LpProblem(**args))
    assert parent.x.tolist() == [3.0, 1.0]
    pivots = _counting_pivots(monkeypatch)
    sol = lp_solve(LpProblem(**{**args, **changes}), warm=parent)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.iterations == 1
    assert pivots == [pivot]
    assert sol.x.tolist() == x
    assert sol.objective_value == value


@pytest.mark.parametrize("changes", [
    dict(rows=[[1.0, 0.0], [0.0, 2.0]]),
    dict(objective=[1.0, 3.0]),
    dict(hi=[5.0, math.inf]),
], ids=["rows", "objective", "free-at-bound"])
def test_warm_start_rejects_another_problem(changes):
    # x1 ends at its bound 6, so it cannot lose that bound
    parent = lp_solve(_two_var_problem(rhs=[4.0, 8.0]))
    assert parent.x.tolist() == [4.0, 6.0]
    with pytest.raises(LpError):
        lp_solve(_two_var_problem(rhs=[4.0, 8.0], **changes), warm=parent)


def test_warm_start_frees_a_column_its_parent_pinned():
    # x0 pinned at 0 by a cold solve, and x0 pinned by a warm start after it
    # left the basis above its new bound, come back in a child and reach the
    # cold solve's answer; a solve without a tableau cannot start a child
    pinned = lp_solve(_two_var_problem(hi=[0.0, 6.0]))
    assert pinned.x.tolist() == [0.0, 1.0]
    zeroed = lp_solve(_two_var_problem(hi=[0.0, 6.0]),
                      warm=lp_solve(_two_var_problem()))
    assert zeroed.x.tolist() == [0.0, 1.0]
    assert zeroed.tableau.flipped[0]
    for hi in ([5.0, 6.0], [math.inf, 6.0]):
        cold = lp_solve(_two_var_problem(hi=hi))
        assert cold.x.tolist() == [4.0, 1.0]
        for parent in (pinned, zeroed):
            warm = lp_solve(_two_var_problem(hi=hi), warm=parent)
            assert warm.status is LpStatus.OPTIMAL
            assert warm.x.tolist() == cold.x.tolist()
            assert warm.objective_value == cold.objective_value
    infeasible = lp_solve(_two_var_problem(rhs=[-1.0, 1.0]))
    assert infeasible.status is LpStatus.INFEASIBLE
    with pytest.raises(LpError):
        lp_solve(_two_var_problem(), warm=infeasible)


def test_warm_start_without_rows():
    # max x over 0 <= x <= 4: no row, so phase 1 has nothing to pivot
    parent = lp_solve(LpProblem(objective=[1.0], rows=np.zeros((0, 1)),
                                rhs=[], hi=[5.0]))
    assert parent.x.tolist() == [5.0]
    child = LpProblem(objective=[1.0], rows=np.zeros((0, 1)), rhs=[], hi=[4.0])
    cold = lp_solve(child)
    warm = lp_solve(child, warm=parent)
    assert (cold.status, warm.status) == (LpStatus.OPTIMAL, LpStatus.OPTIMAL)
    assert cold.x.tolist() == warm.x.tolist() == [4.0]


def test_warm_start_from_a_parent_that_took_phase_1():
    # x0 + x1 = 2 as the rows x0 + x1 <= 2, -x0 - x1 <= -2: row 1's
    # negative rhs sends the parent's cold solve through phase 1
    args = dict(objective=[1.0, 0.0], rows=[[1.0, 1.0], [-1.0, -1.0]],
                rhs=[2.0, -2.0])
    parent = lp_solve(LpProblem(**args))
    assert parent.x.tolist() == [2.0, 0.0]
    # x0 + x1 <= 1 contradicts x0 + x1 >= 2
    child = LpProblem(**{**args, "rhs": [1.0, -2.0]})
    assert lp_solve(child).status is LpStatus.INFEASIBLE
    assert lp_solve(child, warm=parent).status is LpStatus.INFEASIBLE
    # a child that leaves the rows consistent is solved as before
    child = LpProblem(**{**args, "rhs": [1.5, -1.5]})
    sol = lp_solve(child, warm=parent)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x.tolist() == [1.5, 0.0]


def test_phase_1_adds_no_column():
    # two negative-rhs rows and a column fixed at 0: phase 1 pivots on the
    # slack basis itself, so the tableau stays x | one slack per row | rhs
    prob = LpProblem(objective=[1.0, -1.0, 2.0],
                     rows=[[1.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]],
                     rhs=[4.0, -1.0, -2.0], hi=[math.inf, 0.0, 5.0])
    sol = lp_solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    state = sol.tableau
    assert state.tab.shape[1] == prob.n_vars + len(prob.rhs) + 1
    # the pinned x1 keeps its column but never enters
    assert 1 not in state.basis
    assert sol.x[1] == 0.0
