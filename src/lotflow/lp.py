"""Dense linear programming by a bounded-variable simplex in two phases.

One problem form: maximize over ``<=`` rows and boxes ``0 <= x <= hi``.
Problems here are small (tens of variables), so a dense tableau is plenty.
The tableau holds the rows alone. The boxes live in the ratio test, by
Dantzig's upper-bounding technique (Dantzig 1955; Chvátal, *Linear
Programming*, ch. 8): a nonbasic column sits at 0 or at its bound, and one
at its bound is carried complemented, as ``hi_j - x_j``. A step either
pivots or flips a column between its bounds, and
``LpSolution.iterations`` counts both. A column with ``hi == 0`` is pinned
at zero: it keeps its place in the tableau but never enters the basis.

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
dozen. A column that the child frees may price in and break that; phase 1
then runs from the parent's basis under a zero cost row, as in a cold solve.
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


@dataclass(eq=False)
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


@dataclass(eq=False)
class Tableau:
    """The tableau state of a solve; an optimal solution keeps its final
    one, which a child re-solves from.

    ``tab`` has columns x | one slack per row | rhs; its last row is the
    cost row. Column j stands for ``ub[j] - x_j`` where ``flipped[j]``, and
    a column with ``ub[j] == 0`` never enters the basis.
    """

    prob: LpProblem
    tab: np.ndarray
    basis: np.ndarray
    ub: np.ndarray
    flipped: np.ndarray

    @property
    def max_iterations(self) -> int:
        return 50 * self.tab.shape[1]


@dataclass(eq=False)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    # set on an optimal solution: the state a warm start begins from
    tableau: Tableau | None = field(default=None, repr=False)


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
                   flipped: np.ndarray, iters: int, max_iters: int):
    """Run simplex iterations on a tableau whose last row is the cost row.

    Column j stands for x_j, or for ``ub[j] - x_j`` where ``flipped[j]``;
    either way its variable lies in [0, ub[j]]. An iteration either pivots
    or, when the entering column reaches its own bound first, flips that
    column. Returns (status, iterations): OPTIMAL, UNBOUNDED, or
    NUMERICAL_FAILURE at the iteration limit or on NaN ratios.
    """
    m = tab.shape[0] - 1
    rhs = tab[:m, -1]
    allowed = ub > 0
    bounded = np.isfinite(ub)
    bounded_rows = bounded[basis]
    stall = 0
    use_bland = False
    last_obj = tab[-1, -1]
    while True:
        cost = tab[-1, :-1]
        candidates = ((cost < -_PIVOT_TOL) & allowed).nonzero()[0]
        if candidates.size == 0:
            return LpStatus.OPTIMAL, iters
        if iters >= max_iters:
            return LpStatus.NUMERICAL_FAILURE, iters
        if use_bland:
            col = int(candidates[0])
        else:
            col = int(candidates[cost[candidates].argmin()])
        colvec = tab[:m, col]
        # rows whose basic variable falls to 0, then rows whose basic
        # variable rises to its bound
        rows = (colvec > _PIVOT_TOL).nonzero()[0]
        ratios = rhs[rows] / colvec[rows]
        up = ((colvec < -_PIVOT_TOL) & bounded_rows).nonzero()[0]
        if up.size:
            rows = np.concatenate([rows, up])
            ratios = np.concatenate(
                [ratios, (ub[basis[up]] - rhs[up]) / -colvec[up]])
        step = ub[col]
        best = ratios.min() if rows.size else math.inf
        if step <= best:
            if step == math.inf:
                return LpStatus.UNBOUNDED, iters
            # the entering column reaches its own bound first: flip it
            tab[:, -1] -= step * tab[:, col]
            tab[:, col] *= -1.0
            flipped[col] = not flipped[col]
        else:
            ties = rows[ratios <= best + 1e-12]
            if ties.size == 0:
                # only NaN ratios leave no row to pivot out
                return LpStatus.NUMERICAL_FAILURE, iters
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
                  flipped: np.ndarray, iters: int, max_iters: int):
    """Pivot a dual feasible tableau until its basic variables are in bounds.

    Each step takes the basic variable furthest outside [0, ub] out of the
    basis at the bound it violates; one above its bound has its row
    complemented first, as in :func:`_simplex_phase`. The entering column
    keeps the cost row nonnegative. Dantzig's rule gives way to Bland's
    after 50 steps in a row that leave the cost row where it was. Returns
    (status, iterations), where status is None once every basic variable is
    in bounds, else INFEASIBLE or NUMERICAL_FAILURE.
    """
    m = tab.shape[0] - 1
    if m == 0:
        # no row, so no basic variable to put in bounds
        return None, iters
    rhs = tab[:m, -1]
    allowed = ub > 0
    stall = 0
    use_bland = False
    while True:
        below = -rhs
        above = rhs - ub[basis]
        violation = np.maximum(below, above)
        row = int(violation.argmax())
        worst = violation[row]
        if math.isnan(worst):
            return LpStatus.NUMERICAL_FAILURE, iters
        if worst <= _PIVOT_TOL:
            return None, iters
        if iters >= max_iters:
            return LpStatus.NUMERICAL_FAILURE, iters
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
            return LpStatus.INFEASIBLE, iters
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


def _cold_start(prob: LpProblem) -> Tableau:
    """The slack-basis tableau of ``prob``, under a zero cost row."""
    n, m = prob.n_vars, len(prob.rhs)
    # columns = x | one slack per row | rhs, the slacks basic
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = prob.rows
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = prob.rhs
    ub = np.full(n + m, math.inf)
    ub[:n] = prob.hi
    return Tableau(prob, tab, np.arange(n, n + m), ub,
                   np.zeros(n + m, dtype=bool))


def _warm_start(prob: LpProblem, parent: LpSolution) -> Tableau:
    """A parent's final tableau, moved to the right-hand sides and bounds
    of ``prob``."""
    old = parent.tableau
    if old is None:
        raise LpError("a warm start needs an optimal parent solution")
    if not (np.array_equal(prob.rows, old.prob.rows)
            and np.array_equal(prob.objective, old.prob.objective)):
        raise LpError("a warm start needs the parent's rows and objective")
    n, m = prob.n_vars, len(prob.rhs)
    hi = prob.hi
    state = Tableau(prob, old.tab.copy(), old.basis.copy(), old.ub.copy(),
                    old.flipped.copy())
    tab, ub, flipped = state.tab, state.ub, state.flipped
    # the slack block holds the basis inverse, so it carries a change of
    # the right-hand sides into the rhs column
    tab[:, -1] += tab[:, n : n + m] @ (prob.rhs - old.prob.rhs)
    # a column pinned at 0 stands for x_j or 0 - x_j alike, so one that the
    # child frees turns back to x_j and stays at 0: its column changes sign,
    # and so does the row it is basic in
    back = np.flatnonzero(flipped[:n] & (ub[:n] == 0) & (hi > 0))
    if back.size:
        tab[:, back] *= -1.0
        tab[:m][np.isin(state.basis, back)] *= -1.0
        flipped[back] = False
    # a complemented column ub_j - x_j moves the rhs column with its bound
    moved = flipped[:n] & (hi != ub[:n])
    if moved.any():
        if not np.isfinite(hi[moved]).all():
            raise LpError("a warm start cannot free a column at its bound")
        tab[:, -1] += tab[:, :n][:, moved] @ (hi[moved] - ub[:n][moved])
    ub[:n] = hi
    return state


def _price(state: Tableau):
    """Fill in the phase-2 cost row over a zero one: maximize obj ->
    minimize -obj, where a flipped column hi_j - x_j carries +obj_j and
    adds obj_j hi_j."""
    tab, basis, n = state.tab, state.basis, state.prob.n_vars
    c, hi, at_hi = state.prob.objective, state.ub[:n], state.flipped[:n]
    tab[-1, :n] = np.where(at_hi, c, -c)
    tab[-1, -1] = c[at_hi] @ hi[at_hi]
    # a basic column is a unit column, so clearing one leaves the others
    for i in (np.abs(tab[-1, basis]) > 0).nonzero()[0]:
        tab[-1] -= tab[-1, basis[i]] * tab[i]


def lp_solve(prob: LpProblem, warm: LpSolution | None = None) -> LpSolution:
    """Solve an :class:`LpProblem`; never raises for infeasible/unbounded input.

    ``warm`` is an optimal solution of a parent problem with the same rows
    and objective; the solve then starts from its final tableau. The child
    may change any right-hand side and bound, except that a column at a
    finite bound keeps a finite bound. Otherwise :class:`LpError` is
    raised. A solve reports NUMERICAL_FAILURE after 50 iterations per
    tableau column, a pinned column included.
    """
    if (prob.hi < 0).any():
        return LpSolution(LpStatus.INFEASIBLE)
    if warm is None:
        state, priced = _cold_start(prob), False
    else:
        state = _warm_start(prob, warm)
        # the parent's cost row stays dual feasible unless a column that
        # the child frees prices in
        priced = not ((state.tab[-1, :-1] < -_PIVOT_TOL) & (state.ub > 0)).any()
    tab, basis, ub, flipped = state.tab, state.basis, state.ub, state.flipped
    if not priced:
        # phase 1 under a zero cost row, for which every basis is dual
        # feasible. Every dual step then has ratio 0, so after 50 steps the
        # stall counter hands the choice to Bland's rule, which cannot cycle.
        tab[-1] = 0.0
    status, iters = _dual_simplex(tab, basis, ub, flipped, 0,
                                  state.max_iterations)
    if status is None:
        if not priced:
            _price(state)
        status, iters = _simplex_phase(tab, basis, ub, flipped, iters,
                                       state.max_iterations)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status, iterations=iters)

    n, m = prob.n_vars, len(prob.rhs)
    values = np.zeros(len(ub))
    values[basis] = tab[:m, -1]
    # adding 0.0 turns a -0.0 that pivoting can leave in the rhs into 0.0
    x = np.where(flipped[:n], ub[:n] - values[:n], values[:n]) + 0.0
    value = float(prob.objective @ x) + prob.objective_offset
    return LpSolution(LpStatus.OPTIMAL, x=x, objective_value=value,
                      iterations=iters, tableau=state)
