"""Exact ground-truth solver by branch and bound at small horizons.

Each period carries two binary decisions: the setup, and whether its demand
survives the goodwill shrink. The survival patterns that can occur are listed
up front (infeasible ones are pruned before any LP is built). For each one, a
depth-first branch and bound fixes the setups in period order, and all
patterns share one incumbent. At a node of depth ``k`` the setups of periods
before ``k`` are fixed; later periods may still produce, with their setup
cost dropped. Setup costs are nonnegative, so that LP relaxes every
completion of the node and its optimum bounds them from above. Every LP is
in the production and realized demands (y, v) alone: with the setups and
the survival pattern fixed, effective demand, inventory and capital are
affine in them (``model.demand_affine`` and ``model.capital_affine``), so
every row is a ``<=`` row and no big-M constants appear anywhere. The
goodwill constraints are those of ``model.goodwill_rows``: a constant
effective demand is its ``v``'s bound, and only a dead period adds a
survival row. A pattern's rows and objective are built once: from node to
node only the setup terms of the capital right-hand sides and the ``y``
bounds change. So only a pattern's root LP is solved cold, and every other
node re-solves from its parent's final tableau (``lp_solve(...,
warm=parent)``).

A node is pruned when its LP is infeasible or its bound cannot beat the
incumbent. When no undecided period produces in a node's optimum (has a
setup by ``model.TOL_ZERO``), the completion with those setups off attains
the bound, so that leaf is its only child. Plans come from leaves only,
where every setup is fixed.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .frh import Solution, solve_frh
from .lp import LpProblem, LpStatus, LpNumericalError, lp_solve
from .model import (TOL_ZERO, Instance, Plan, capital_affine,
                    capital_offsets, check_feasibility, demand_affine,
                    evaluate_plan, goodwill_rows)


class OracleGuardError(ValueError):
    """Instance horizon exceeds the oracle's horizon guard."""


# the default horizon guard: the search grows exponentially with T
MAX_T = 8


def _delta_patterns(inst: Instance):
    """All setup-independent survival patterns that could possibly occur.

    delta[t] = 0 needs beta * w[t-1] >= d[t] with w[t-1] <= d[t-1], and a
    dead period leaves no lost sales behind, so a 0 can only follow a 1.
    Period 1 always survives (no prior lost sales), and without goodwill
    loss (beta = 0) every period does: a dead zero-demand period would only
    repeat its surviving copy's feasible set.
    """
    T = inst.T
    free = [t for t in range(1, T)
            if inst.beta > 0 and inst.beta * inst.d[t - 1] >= inst.d[t]]
    patterns = []
    for bits in product((1, 0), repeat=len(free)):
        delta = np.ones(T, dtype=int)
        for t, b in zip(free, bits):
            delta[t] = b
        ok = all(delta[t - 1] == 1 or delta[t] == 1 or inst.d[t] == 0
                 for t in range(1, T))
        if ok:
            patterns.append(delta)
    return patterns


def _pattern_lp(inst: Instance, delta: np.ndarray) -> LpProblem:
    """The root LP over (y, v) of a survival pattern: no setup fixed or paid.

    Effective demand, inventory and capital are affine in (y, v), so every
    row is a ``<=`` row. Every node of the pattern keeps these rows and this
    objective; :func:`_node_lp` changes only the setup terms of the rhs and
    the ``y`` bounds.
    """
    T = inst.T
    Y, V = np.eye(T, 2 * T), np.eye(T, 2 * T, T)
    cap, cap0, need, need0 = capital_affine(inst, 1, Y, V, np.zeros(T, dtype=int),
                                            inst.B0)
    # v <= Ed, and each dead period's shrink does not exceed zero
    good, good0, hi = goodwill_rows(*demand_affine(inst, 1, T, 0.0, delta), delta)
    rows = np.vstack([
        need,                                   # capital sufficiency
        -cap,                                   # B >= 0
        np.cumsum(V - Y, axis=0),               # I >= 0
        good @ V,                               # goodwill
    ])
    rhs = np.concatenate([need0, cap0, np.zeros(T), good0])
    return LpProblem(objective=cap[-1], rows=rows, rhs=rhs,
                     hi=np.concatenate([np.full(T, math.inf), hi]),
                     objective_offset=cap0[-1] - inst.B0)


def _node_lp(root: LpProblem, inst: Instance, x: np.ndarray,
             k: int) -> LpProblem:
    """A search node's LP, from its pattern's root LP.

    The setups of periods before ``k`` are fixed to ``x`` and paid in the
    capital rows, and a period fixed off cannot produce; periods from ``k``
    on may produce without paying their setup cost.
    """
    T = inst.T
    fixed = np.arange(T) < k
    cap0, need0 = capital_offsets(inst, 1, np.where(fixed, x, 0), inst.B0)
    rhs = root.rhs.copy()
    rhs[:T], rhs[T : 2 * T] = need0, cap0
    hi = root.hi.copy()
    hi[:T][fixed & (x == 0)] = 0.0
    return LpProblem(objective=root.objective, rows=root.rows, rhs=rhs, hi=hi,
                     objective_offset=cap0[-1] - inst.B0)


def _beats(bound: float, incumbent: float) -> bool:
    """Whether a node bound can still improve on the incumbent value."""
    if incumbent == -math.inf:
        return True
    return bound > incumbent + 1e-10 * max(1.0, abs(incumbent))


def _setup_on(x: np.ndarray, t: int) -> np.ndarray:
    on = x.copy()
    on[t] = 1
    return on


def solve_exact(inst: Instance, max_T: int = MAX_T) -> Solution:
    """Branch and bound over the setups; return the best feasible plan.

    The search never consults the heuristic, so it can judge the heuristic.
    """
    if inst.T > max_T:
        raise OracleGuardError(
            f"T={inst.T} exceeds the oracle horizon guard max_T={max_T}")
    T = inst.T
    best_val = -math.inf
    best_plan: Plan | None = None
    lp_count = 0
    for delta in _delta_patterns(inst):
        root = _pattern_lp(inst, delta)
        # a node is (depth k, setups of the periods before k, the parent's
        # solution, which its LP re-solves from); the node pushed last is
        # searched first
        stack = [(0, np.zeros(T, dtype=int), None)]
        while stack:
            k, x, parent = stack.pop()
            sol = lp_solve(_node_lp(root, inst, x, k), warm=parent)
            lp_count += 1
            if sol.status is LpStatus.NUMERICAL_FAILURE:
                raise LpNumericalError("oracle sub-LP hit the iteration limit")
            if sol.status is LpStatus.UNBOUNDED:
                # capital caps production and demand caps sales
                raise LpNumericalError("oracle sub-LP unexpectedly unbounded")
            if sol.status is not LpStatus.OPTIMAL:
                continue
            if not math.isfinite(sol.objective_value):
                # overflowing data reaches the rows and the objective
                raise LpNumericalError("oracle sub-LP optimum is not finite")
            if not _beats(sol.objective_value, best_val):
                continue
            y = sol.x[:T]
            if k == T:
                best_val = sol.objective_value
                best_plan = Plan(y.copy(), sol.x[T : 2 * T].copy())
                continue
            # a period produces where evaluate_plan would give it a setup
            producing = np.flatnonzero(y[k:] > TOL_ZERO)
            if producing.size == 0:
                # the completion with the undecided setups off attains this
                # bound, so it is the only child worth a look
                stack.append((T, x, sol))
                continue
            # Up to the first producing period j, the x_t = 0 children keep
            # this optimum, so they are descended without an LP of their
            # own and only their x_t = 1 siblings are queued. Period j then
            # branches with its setup on first.
            j = k + int(producing[0])
            for t in range(k, j):
                stack.append((t + 1, _setup_on(x, t), sol))
            stack.append((j + 1, x, sol))
            stack.append((j + 1, _setup_on(x, j), sol))
    if best_plan is None:
        # nothing feasible, not even idling: report the null plan
        traj = evaluate_plan(inst, Plan.null(T))
        return Solution(trajectory=traj, objective=traj.objective,
                        lp_count=lp_count, degenerate=True)
    # re-evaluate through the forward dynamics to get a clean trajectory
    traj = evaluate_plan(inst, best_plan)
    if not check_feasibility(inst, traj).feasible:
        # a simplex pivot on a tiny element can leave the LP point off its
        # own rows; such a plan is no optimum of the model
        raise LpNumericalError("oracle optimum fails the feasibility check")
    return Solution(trajectory=traj, objective=traj.objective, lp_count=lp_count)


def deviation(inst: Instance, max_T: int = MAX_T) -> float:
    """Relative shortfall of the heuristic against the exact optimum."""
    exact = solve_exact(inst, max_T)
    return relative_gap(exact.objective, solve_frh(inst).objective)


def relative_gap(exact: float, heuristic: float) -> float:
    """Relative shortfall of a heuristic objective below the exact one, >= 0."""
    return max(0.0, (exact - heuristic) / max(abs(exact), 1e-12))
