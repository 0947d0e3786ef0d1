"""Dense linear programming by a bounded-variable simplex in two phases.

One problem form: maximize over ``<=`` rows and boxes ``0 <= x <= hi``.
Problems here are small (tens of variables), so a dense tableau is plenty.
The tableau holds the rows alone. The boxes live in the ratio test, by
Dantzig's upper-bounding technique (Dantzig 1955; Chvátal, *Linear
Programming*, ch. 8): a nonbasic column sits at 0 or at its bound, and one
at its bound is carried complemented, as ``hi_j - x_j``. A step either
pivots or flips a column between its bounds, and
``LpSolution.iterations`` counts both. A column with ``hi == 0`` is pinned
at zero and left out of the tableau.

A solve has two phases. Phase 1 makes a starting basis primal feasible by
a bounded dual simplex (Koberstein 2005); phase 2 is the primal simplex. A
cold solve starts from the slack basis under a zero cost row, for which
every basis is dual feasible, so a negative right-hand side needs no
artificial column. Phase 1 lets each basic variable lie up to ``1e-9``
outside its box. Pivoting uses Dantzig's rule and falls back to Bland's
rule after 50 steps in a row that do not move the objective, so that
degenerate problems cannot cycle.

An optimal solution keeps its final tableau, and ``lp_solve(child,
warm=parent)`` re-solves a child problem from it: one with the parent's
rows and objective, other right-hand sides and bounds (Land & Doig 1960).
The parent's basis stays dual feasible, so phase 1 starts from it and
phase 2 confirms optimality, in a pivot or two where a cold solve takes a
dozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_PIVOT_TOL = 1e-9


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


class LpError(Exception):
    """Malformed problem input."""


class LpNumericalError(Exception):
    """Raised by callers that cannot tolerate a NUMERICAL_FAILURE status."""


@dataclass
class LpProblem:
    """max objective . x + objective_offset  s.t.  rows . x <= rhs, 0 <= x <= hi.

    Every row is a ``<=`` row and every variable is nonnegative; ``hi``
    defaults to ``+inf`` and a finite entry caps its variable; a cap is a
    bound of the simplex, not a row. A negative ``hi`` leaves the box empty,
    which the solve reports as infeasible.
    ``objective_offset`` is a constant added to the reported optimum (handy
    when the modeled objective has an affine constant term).
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    hi: np.ndarray | None = None
    objective_offset: float = 0.0

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.n_vars
        self.hi = np.full(n, math.inf) if self.hi is None else np.asarray(self.hi, dtype=float)
        if self.objective.ndim != 1 or self.hi.shape != (n,):
            raise LpError("objective and hi must be vectors of one length")
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise LpError("rows must be a matrix with one column per variable")
        if self.rhs.shape != (len(self.rows),):
            raise LpError("rhs must have one entry per row")
        if not np.isfinite(self.rhs).all():
            raise LpError("rhs must be finite")
        if not (self.hi > -math.inf).all():
            raise LpError("hi must be a number or +inf")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def dump(self) -> str:
        """Plain-text listing, for debugging failed solves."""
        lines = ["max " + " + ".join(f"{c:g}*x{j}" for j, c in enumerate(self.objective))]
        for coeffs, rhs in zip(self.rows, self.rhs):
            lhs = " + ".join(f"{a:g}*x{j}" for j, a in enumerate(coeffs) if a != 0) or "0"
            lines.append(f"  {lhs} <= {rhs:g}")
        for j, hi in enumerate(self.hi):
            lines.append(f"  0 <= x{j} <= {hi:g}")
        return "\n".join(lines)


@dataclass
class Tableau:
    """The tableau state of a solve; an optimal solution keeps its final
    one, which a child re-solves from.

    ``tab`` has columns x (the problem's ``live`` columns) | one slack per
    row | rhs; its last row is the cost row. Column j stands for
    ``ub[j] - x_j`` where ``flipped[j]``, and only ``allowed`` columns may
    enter the basis.
    """

    prob: LpProblem
    live: np.ndarray
    tab: np.ndarray
    basis: np.ndarray
    ub: np.ndarray
    flipped: np.ndarray
    allowed: np.ndarray

    @property
    def max_iterations(self) -> int:
        return 50 * (len(self.live) + len(self.basis) + 1)


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    # set on an optimal solution: the state a warm start begins from
    tableau: Tableau | None = field(default=None, repr=False, compare=False)


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    tab -= np.outer(colvals, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _complement_row(tab: np.ndarray, ub: np.ndarray, flipped: np.ndarray,
                    row: int, out: int):
    """Swap the basic variable ``out`` of ``row`` for its complement
    ``ub[out] - x_out`` (or back), so that it can leave at its bound."""
    tab[row] *= -1.0
    tab[row, -1] += ub[out]
    tab[row, out] = 1.0
    flipped[out] = not flipped[out]


def _simplex_phase(tab: np.ndarray, basis: np.ndarray, ub: np.ndarray,
                   flipped: np.ndarray, iters: int, max_iters: int,
                   allowed_cols: np.ndarray):
    """Run simplex iterations on a tableau whose last row is the cost row.

    Column j stands for x_j, or for ``ub[j] - x_j`` where ``flipped[j]``;
    either way its variable lies in [0, ub[j]]. An iteration either pivots
    or, when the entering column reaches its own bound first, flips that
    column. Returns (status_str, iterations) with status in
    {"optimal", "unbounded", "iteration_limit"}.
    """
    m = tab.shape[0] - 1
    rhs = tab[:m, -1]
    bounded = np.isfinite(ub)
    # without a finite bound no basic variable can rise to one
    any_bounded = bool(bounded.any())
    bounded_rows = bounded[basis]
    stall = 0
    use_bland = False
    last_obj = tab[-1, -1]
    while True:
        cost = tab[-1, :-1]
        candidates = ((cost < -_PIVOT_TOL) & allowed_cols).nonzero()[0]
        if candidates.size == 0:
            return "optimal", iters
        if iters >= max_iters:
            return "iteration_limit", iters
        if use_bland:
            col = int(candidates[0])
        else:
            col = int(candidates[cost[candidates].argmin()])
        colvec = tab[:m, col]
        # rows whose basic variable falls to 0, then rows whose basic
        # variable rises to its bound
        rows = (colvec > _PIVOT_TOL).nonzero()[0]
        ratios = rhs[rows] / colvec[rows]
        if any_bounded:
            up = ((colvec < -_PIVOT_TOL) & bounded_rows).nonzero()[0]
            if up.size:
                rows = np.concatenate([rows, up])
                ratios = np.concatenate(
                    [ratios, (ub[basis[up]] - rhs[up]) / -colvec[up]])
        step = ub[col]
        best = ratios.min() if rows.size else math.inf
        if step <= best:
            if step == math.inf:
                return "unbounded", iters
            # the entering column reaches its own bound first: flip it
            tab[:, -1] -= step * tab[:, col]
            tab[:, col] *= -1.0
            flipped[col] = not flipped[col]
        else:
            ties = rows[ratios <= best + 1e-12]
            if ties.size == 0:
                # only NaN ratios leave no row to pivot out
                return "iteration_limit", iters
            if use_bland:
                row = int(ties[np.argmin(basis[ties])])
            else:
                # the largest pivot element among tied rows keeps the
                # division from blowing up rounding errors
                row = int(ties[np.argmax(np.abs(colvec[ties]))])
            if colvec[row] < 0:
                # the basic variable leaves at its bound: complement it
                # so that its row pivots like any other
                _complement_row(tab, ub, flipped, row, basis[row])
            _pivot(tab, basis, row, col)
            bounded_rows[row] = bounded[col]
        iters += 1
        obj = tab[-1, -1]
        # the corner holds the objective being raised
        if obj <= last_obj + 1e-12:
            stall += 1
            if stall >= 50:
                use_bland = True
        else:
            stall = 0
        last_obj = obj


def _dual_simplex(tab: np.ndarray, basis: np.ndarray, ub: np.ndarray,
                  flipped: np.ndarray, allowed: np.ndarray, iters: int,
                  max_iters: int):
    """Pivot a dual feasible tableau until its basic variables are in bounds.

    Each step takes the basic variable furthest outside [0, ub] out of the
    basis at the bound it violates; one above its bound has its row
    complemented first, as in :func:`_simplex_phase`. The entering column
    keeps the cost row nonnegative. Dantzig's rule gives way to Bland's
    after 50 steps in a row that leave the cost row where it was. Returns
    (status_str, iterations) with status in {"feasible", "infeasible",
    "iteration_limit"}.
    """
    m = tab.shape[0] - 1
    rhs = tab[:m, -1]
    stall = 0
    use_bland = False
    while True:
        below = -rhs
        above = rhs - ub[basis]
        violation = np.maximum(below, above)
        row = int(violation.argmax())
        worst = violation[row]
        if math.isnan(worst):
            return "iteration_limit", iters
        if worst <= _PIVOT_TOL:
            return "feasible", iters
        if iters >= max_iters:
            return "iteration_limit", iters
        if use_bland:
            out = (violation > _PIVOT_TOL).nonzero()[0]
            row = int(out[np.argmin(basis[out])])
        if above[row] > 0:
            # the basic variable leaves at its bound: complemented, its
            # value turns negative
            _complement_row(tab, ub, flipped, row, basis[row])
        rowvec = tab[row, :-1]
        cols = ((rowvec < -_PIVOT_TOL) & allowed).nonzero()[0]
        if cols.size == 0:
            # no column can raise the basic variable: its row has no
            # solution within the bounds
            return "infeasible", iters
        ratios = tab[-1, cols] / -rowvec[cols]
        best = ratios.min()
        ties = cols[ratios <= best + 1e-12]
        if use_bland:
            col = int(ties[0])
        else:
            col = int(ties[np.argmax(np.abs(rowvec[ties]))])
        _pivot(tab, basis, row, col)
        iters += 1
        # a zero ratio leaves the cost row as it was
        if best <= 1e-12:
            stall += 1
            if stall >= 50:
                use_bland = True
        else:
            stall = 0


def _cold_start(prob: LpProblem):
    """Assemble the slack-basis tableau and make it primal feasible; return
    (state, status, iters)."""
    # a column with hi == 0 stays at zero, so it never enters the tableau
    live = np.flatnonzero(prob.hi > 0)
    A, b = prob.rows[:, live], prob.rhs
    n, m = len(live), len(b)

    # assemble: columns = x | one slack per row | rhs, the slacks basic and
    # the cost row zero
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = np.arange(n, n + m)
    ub = np.full(n + m, math.inf)
    ub[:n] = prob.hi[live]
    flipped = np.zeros(n + m, dtype=bool)
    state = Tableau(prob, live, tab, basis, ub, flipped,
                    np.ones(n + m, dtype=bool))
    # views of the x columns' bounds and of which of them sit complemented
    hi, at_hi = ub[:n], flipped[:n]

    iters = 0
    if (b < 0).any():
        # phase 1: under a zero cost row every basis is dual feasible, so
        # the dual simplex pivots the negative slacks out. Every dual step
        # then has ratio 0, so after 50 steps the stall counter hands the
        # choice to Bland's rule, which cannot cycle.
        status, iters = _dual_simplex(tab, basis, ub, flipped, state.allowed,
                                      iters, state.max_iterations)
        if status != "feasible":
            return state, status, iters

    # phase 2: maximize obj -> minimize -obj; fill in the zero cost row,
    # where a flipped column hi_j - x_j carries +obj_j and adds obj_j hi_j
    c = prob.objective[live]
    tab[-1, :n] = np.where(at_hi, c, -c)
    tab[-1, -1] = c[at_hi] @ hi[at_hi]
    # a basic column is a unit column, so clearing one leaves the others
    for i in (np.abs(tab[-1, basis]) > 0).nonzero()[0]:
        tab[-1] -= tab[-1, basis[i]] * tab[i]
    return state, "feasible", iters


def _warm_start(prob: LpProblem, parent: LpSolution):
    """Move a parent's final tableau to ``prob`` and restore primal
    feasibility; return (state, status, iters)."""
    old = parent.tableau
    if old is None:
        raise LpError("a warm start needs an optimal parent solution")
    if not (np.array_equal(prob.rows, old.prob.rows)
            and np.array_equal(prob.objective, old.prob.objective)):
        raise LpError("a warm start needs the parent's rows and objective")
    if (prob.hi[old.prob.hi == 0] > 0).any():
        raise LpError("a warm start cannot free a column the parent fixed at 0")
    live = old.live
    n, m = len(live), len(prob.rhs)
    hi = prob.hi[live]
    state = Tableau(prob, live, old.tab.copy(), old.basis.copy(),
                    old.ub.copy(), old.flipped.copy(), old.allowed.copy())
    tab, ub, flipped = state.tab, state.ub, state.flipped
    # the slack block holds the basis inverse, so it carries a change of
    # the right-hand sides into the rhs column
    tab[:, -1] += tab[:, n : n + m] @ (prob.rhs - old.prob.rhs)
    # a complemented column ub_j - x_j moves the rhs column with its bound
    moved = flipped[:n] & (hi != ub[:n])
    if moved.any():
        if not np.isfinite(hi[moved]).all():
            raise LpError("a warm start cannot free a column at its bound")
        tab[:, -1] += tab[:, :n][:, moved] @ (hi[moved] - ub[:n][moved])
    ub[:n] = hi
    # a column fixed at 0 never enters
    state.allowed[:n] = hi > 0
    status, iters = _dual_simplex(tab, state.basis, ub, flipped, state.allowed,
                                  0, state.max_iterations)
    return state, status, iters


def lp_solve(prob: LpProblem, warm: LpSolution | None = None) -> LpSolution:
    """Solve an :class:`LpProblem`; never raises for infeasible/unbounded input.

    ``warm`` is an optimal solution of a parent problem with the same rows
    and objective; the solve then starts from its final tableau. The child
    may change any right-hand side and bound, except that a column the
    parent fixed at 0 stays there and one at a finite bound keeps a finite
    bound. Otherwise :class:`LpError` is raised.
    """
    if (prob.hi < 0).any():
        return LpSolution(LpStatus.INFEASIBLE)
    if warm is None:
        state, status, iters = _cold_start(prob)
    else:
        state, status, iters = _warm_start(prob, warm)
    if status == "iteration_limit":
        return LpSolution(LpStatus.NUMERICAL_FAILURE, iterations=iters)
    if status == "infeasible":
        return LpSolution(LpStatus.INFEASIBLE, iterations=iters)
    tab, basis, ub, flipped = state.tab, state.basis, state.ub, state.flipped
    n, m = len(state.live), len(prob.rhs)
    status, iters = _simplex_phase(tab, basis, ub, flipped, iters,
                                   state.max_iterations, state.allowed)
    if status == "iteration_limit":
        return LpSolution(LpStatus.NUMERICAL_FAILURE, iterations=iters)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, iterations=iters)

    values = np.zeros(len(ub))
    values[basis] = tab[:m, -1]
    values = values[:n]
    hi, at_hi = ub[:n], flipped[:n]
    x = np.zeros(prob.n_vars)
    # adding 0.0 turns a -0.0 that pivoting can leave in the rhs into 0.0
    x[state.live] = np.where(at_hi, hi - values, values) + 0.0
    value = float(prob.objective @ x) + prob.objective_offset
    return LpSolution(LpStatus.OPTIMAL, x=x, objective_value=value,
                      iterations=iters, tableau=state)
