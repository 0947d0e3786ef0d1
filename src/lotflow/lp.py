"""Dense linear programming by two-phase primal simplex.

Maximization with mixed <=, =, >= rows and per-variable bounds. Problems
here are small (tens of variables), so a dense tableau is plenty. Pivoting
uses Dantzig's rule and falls back to Bland's rule after a stall so that
degenerate problems cannot cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# primal feasibility residual accepted on an Optimal result
TOL_LP_FEAS = 1e-7

_PIVOT_TOL = 1e-9
# sense code -> row relation: +1 takes a slack, -1 a surplus, 0 (equality) neither
_RELATION = {1: "<=", 0: "=", -1: ">="}


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
    """max objective . x  subject to rows and bounds.

    Row ``i`` reads ``rows[i] . x  R  rhs[i]`` where ``R`` is ``<=``, ``=`` or
    ``>=`` as ``sense[i]`` is +1, 0 or -1. Variable ``j`` lies in
    ``[lo[j], hi[j]]``, by default ``[0, +inf)``. ``objective_offset`` is a
    constant added to the reported optimum (handy when the modeled objective
    has an affine constant term).
    """

    objective: np.ndarray
    rows: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    objective_offset: float = 0.0

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.n_vars
        self.lo = np.zeros(n) if self.lo is None else np.asarray(self.lo, dtype=float)
        self.hi = np.full(n, math.inf) if self.hi is None else np.asarray(self.hi, dtype=float)
        if self.objective.ndim != 1 or self.lo.shape != (n,) or self.hi.shape != (n,):
            raise LpError("objective, lo and hi must be vectors of one length")
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise LpError("rows must be a matrix with one column per variable")
        self.sense = np.asarray(self.sense)
        m = len(self.rows)
        if self.sense.shape != (m,) or self.rhs.shape != (m,):
            raise LpError("sense and rhs must have one entry per row")
        if not ((self.sense == 1) | (self.sense == 0) | (self.sense == -1)).all():
            raise LpError(f"sense codes must be in {tuple(_RELATION)}")
        if not np.isfinite(self.rhs).all():
            raise LpError("rhs must be finite")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def dump(self) -> str:
        """Plain-text listing, for debugging failed solves."""
        lines = ["max " + " + ".join(f"{c:g}*x{j}" for j, c in enumerate(self.objective))]
        for coeffs, sense, rhs in zip(self.rows, self.sense, self.rhs):
            lhs = " + ".join(f"{a:g}*x{j}" for j, a in enumerate(coeffs) if a != 0) or "0"
            lines.append(f"  {lhs} {_RELATION[sense]} {rhs:g}")
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            lines.append(f"  {lo:g} <= x{j} <= {hi:g}")
        return "\n".join(lines)


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0


def _columns(lo: np.ndarray, hi: np.ndarray):
    """Rewrite general bounds into nonnegative standard columns.

    Original variable i is ``const[i] + sum(sign[k] * u[k] for src[k] == i)``
    with every ``u[k] >= 0``. Returns (src, sign, const, capped, cap_rhs):
    each variable in ``capped`` gets the row ``u[first column] <= cap_rhs``,
    which closes a finite box or, for an empty box, cannot be satisfied.
    """
    n = len(lo)
    empty = lo > hi
    shifted = ~empty & np.isfinite(lo)               # x = lo + u
    flipped = ~empty & ~shifted & np.isfinite(hi)    # x = hi - u
    free = ~(empty | shifted | flipped)              # x = u - w
    const = np.where(shifted, lo, np.where(flipped, hi, 0.0))
    src = np.repeat(np.arange(n), np.where(free, 2, 1))
    sign = np.where(flipped[src], -1.0, 1.0)
    sign[1:][src[1:] == src[:-1]] = -1.0             # the w of a free variable
    capped = np.flatnonzero(empty | shifted & np.isfinite(hi))
    cap_rhs = np.where(empty, -1.0, hi - lo)[capped]
    return src, sign, const, capped, cap_rhs


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    tab -= np.outer(colvals, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _simplex_phase(tab: np.ndarray, basis: np.ndarray, iters: int,
                   max_iters: int, allowed_cols: np.ndarray):
    """Run simplex iterations on a tableau whose last row is the cost row.

    Returns (status_str, iterations) with status in
    {"optimal", "unbounded", "iteration_limit"}.
    """
    m = tab.shape[0] - 1
    stall = 0
    use_bland = False
    last_obj = tab[-1, -1]
    while True:
        cost = tab[-1, :-1]
        candidates = np.where((cost < -_PIVOT_TOL) & allowed_cols)[0]
        if candidates.size == 0:
            return "optimal", iters
        if iters >= max_iters:
            return "iteration_limit", iters
        if use_bland:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(cost[candidates])])
        colvec = tab[:m, col]
        positive = np.where(colvec > _PIVOT_TOL)[0]
        if positive.size == 0:
            return "unbounded", iters
        ratios = tab[positive, -1] / colvec[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-12]
        if ties.size == 0:
            # only NaN ratios leave no row to pivot out
            return "iteration_limit", iters
        # among tied rows, pivot out the basic variable of lowest index
        row = int(ties[np.argmin(basis[ties])])
        _pivot(tab, basis, row, col)
        iters += 1
        obj = tab[-1, -1]
        if obj > last_obj - 1e-12:
            stall += 1
            if stall >= 50:
                use_bland = True
        else:
            stall = 0
        last_obj = obj


def lp_solve(prob: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Solve an :class:`LpProblem`; never raises for infeasible/unbounded input."""
    n = prob.n_vars
    src, sign, const, capped, cap_rhs = _columns(prob.lo, prob.hi)
    n_std = len(src)

    # rows: the problem's rows in standard columns, then one cap row per box
    A0 = prob.rows
    m0 = len(A0)
    m = m0 + len(capped)
    b = np.concatenate([prob.rhs - A0 @ const, cap_rhs])
    sense = np.concatenate([prob.sense, np.ones(len(capped), dtype=int)])
    if max_iterations is None:
        max_iterations = 50 * (n_std + m + 1)
    # make every rhs nonnegative, flipping <= and >= on negated rows
    neg = np.flatnonzero(b < 0)
    b[neg] = -b[neg]
    sense[neg] = -sense[neg]

    # assemble: columns = structural | slack/surplus | artificial | rhs
    slack_rows = np.flatnonzero(sense != 0)
    art_rows = np.flatnonzero(sense != 1)
    art_start = n_std + len(slack_rows)
    total = art_start + len(art_rows)
    slack_cols = np.arange(n_std, art_start)
    art_cols = np.arange(art_start, total)
    tab = np.zeros((m + 1, total + 1))
    tab[:m0, :n_std] = A0[:, src] * sign
    tab[m0 + np.arange(len(capped)), np.searchsorted(src, capped)] = 1.0
    tab[neg, :n_std] = -tab[neg, :n_std]
    tab[:m, -1] = b
    tab[slack_rows, slack_cols] = sense[slack_rows]
    tab[art_rows, art_cols] = 1.0
    # <= rows start basic on their slack, = and >= rows on their artificial
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    iters = 0
    allowed = np.ones(total, dtype=bool)
    if len(art_rows):
        # phase 1: minimize sum of artificials
        tab[-1, art_start:total] = 1.0
        for i in art_rows:
            tab[-1] -= tab[i]
        status, iters = _simplex_phase(tab, basis, iters, max_iterations, allowed)
        if status == "iteration_limit":
            return LpSolution(LpStatus.NUMERICAL_FAILURE, iterations=iters)
        phase1 = -tab[-1, -1]
        if phase1 > TOL_LP_FEAS:
            return LpSolution(LpStatus.INFEASIBLE, iterations=iters)
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= art_start:
                pivots = np.where(np.abs(tab[i, :art_start]) > _PIVOT_TOL)[0]
                if pivots.size:
                    _pivot(tab, basis, i, int(pivots[0]))
                    iters += 1
        allowed[art_start:] = False

    # phase 2: maximize obj -> minimize -obj; rebuild the cost row
    tab[-1, :] = 0.0
    tab[-1, :n_std] = -(prob.objective[src] * sign)
    for i in range(m):
        j = basis[i]
        if abs(tab[-1, j]) > 0:
            tab[-1] -= tab[-1, j] * tab[i]
    status, iters = _simplex_phase(tab, basis, iters, max_iterations, allowed)
    if status == "iteration_limit":
        return LpSolution(LpStatus.NUMERICAL_FAILURE, iterations=iters)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, iterations=iters)

    x_std = np.zeros(total)
    x_std[basis] = tab[:m, -1]
    x = const + np.bincount(src, sign * x_std[:n_std], minlength=n)
    value = float(prob.objective @ x) + prob.objective_offset
    return LpSolution(LpStatus.OPTIMAL, x=x, objective_value=value, iterations=iters)
