"""Production-round sub-LPs.

A production round spans periods ``m..n`` and consists of one or more
production cycles, each starting and ending with zero inventory. Given the
capital and lost-sales state entering the round, the best capital increment
``BB(m, n)`` is found by a cascade of three linear programs over the realized
demands ``v_t``:

* the first LP assumes every period's demand survives the goodwill shrink,
* if that is infeasible the assumption is dropped, the relaxation is solved,
  the surviving-demand flags are inferred from its solution, and
* a final LP re-solves with those flags fixed.

Everything (effective demand, inventory, capital) is affine in ``v``, so each
model is a single dense LP. The first and the final LP are one build over
survival flags, all ones for the first, with the goodwill constraints of
:func:`model.goodwill_rows`; the relaxation bounds each ``v`` by its demand
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LpProblem, LpSolution, LpStatus, LpNumericalError, lp_solve
from .model import (Instance, capital_affine, demand_affine, effective_demand,
                    goodwill_rows)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RoundSpec:
    """One production round: window, cycle launch periods and entry state.

    Periods are 1-based; the round spans ``m = cycle_starts[0]`` through
    ``n``. ``B_in`` and ``w_in`` are the end-of-period capital and lost
    sales of period ``m - 1`` along the committed plan prefix.
    """

    n: int
    cycle_starts: tuple
    B_in: float
    w_in: float = 0.0

    def __post_init__(self):
        starts = tuple(int(t) for t in self.cycle_starts)
        object.__setattr__(self, "cycle_starts", starts)
        if (not starts or starts[0] < 1 or starts[-1] > self.n
                or list(starts) != sorted(set(starts))):
            raise ValueError("cycle starts must be increasing within [1, n]")
        if self.B_in < 0 or self.w_in < 0:
            raise ValueError("entry capital and lost sales must be nonnegative")

    @property
    def m(self) -> int:
        return self.cycle_starts[0]


@dataclass(eq=False)
class RoundSolution:
    status: str
    BB: float
    v: np.ndarray
    y: np.ndarray
    which_model: str  # "sub1" | "sub2+sub3" | "none"
    lp_solves: int = 0


def _cycle_bounds(spec: RoundSpec):
    """Local [start, end) index pairs for each cycle."""
    starts = [t - spec.m for t in spec.cycle_starts]
    ends = starts[1:] + [spec.n - spec.m + 1]
    return list(zip(starts, ends))


def _round_lp(inst: Instance, spec: RoundSpec, deltas=None,
              w_cap: float | None = None) -> LpProblem:
    """Assemble a round LP over the survival flags ``deltas``.

    Decision variables are v_t for t in [m, n] (local index 0..L-1); every
    row is a ``<=`` row. With flags, the goodwill constraints are those of
    :func:`model.goodwill_rows`; without, ``v <= d`` relaxes them.
    """
    L = spec.n - spec.m + 1
    d = inst.d[spec.m - 1 : spec.n]
    # a cycle launched at a makes every unit its periods a..b-1 realize
    Y, V, x = np.zeros((L, L)), np.eye(L), np.zeros(L, dtype=int)
    for a, b in _cycle_bounds(spec):
        Y[a, a:b], x[a] = 1.0, 1
    launch = np.flatnonzero(x)
    cap, cap0, need, need0 = capital_affine(inst, spec.m, Y, V, x, spec.B_in)

    blocks = [
        # per-cycle capital sufficiency at each launch period
        (need[launch], need0[launch]),
        # end-of-period capital stays nonnegative
        (-cap, cap0),
    ]
    hi = d.copy()
    if deltas is not None:
        affine = demand_affine(inst, spec.m, spec.n, spec.w_in, deltas)
        good, good0, hi = goodwill_rows(*affine, deltas)
        blocks.append((good, good0))
        if w_cap is not None:
            # lost sales of period n: Ed_n - v_n <= w_cap
            ed, ed0 = affine[:2]
            blocks.append(((ed[-1] - V[-1])[None], [w_cap - ed0[-1]]))

    rhs = np.concatenate([b for _, b in blocks])
    return LpProblem(objective=cap[-1], rows=np.vstack([r for r, _ in blocks]),
                     rhs=rhs, hi=hi,
                     objective_offset=cap0[-1] - spec.B_in)


def build_psub1(inst: Instance, spec: RoundSpec, w_cap: float | None = None) -> LpProblem:
    # every period survives
    deltas = np.ones(spec.n - spec.m + 1, dtype=int)
    return _round_lp(inst, spec, deltas, w_cap=w_cap)


def build_psub2(inst: Instance, spec: RoundSpec) -> LpProblem:
    return _round_lp(inst, spec)


def build_psub3(inst: Instance, spec: RoundSpec, deltas,
                w_cap: float | None = None) -> LpProblem:
    deltas = np.asarray(deltas, dtype=int)
    if deltas.shape != (spec.n - spec.m + 1,):
        raise ValueError("deltas must cover the round window")
    return _round_lp(inst, spec, deltas, w_cap=w_cap)


def infer_deltas(inst: Instance, spec: RoundSpec, v) -> np.ndarray:
    """Which periods keep positive effective demand under realized demands v."""
    v = np.asarray(v, dtype=float)
    L = spec.n - spec.m + 1
    deltas = np.ones(L, dtype=int)
    w_prev = spec.w_in
    for k in range(L):
        t = spec.m - 1 + k
        if inst.d[t] - inst.beta * w_prev < 0:
            deltas[k] = 0
        ed = effective_demand(inst.d[t], w_prev, inst.beta)
        w_prev = ed - v[k]
    return deltas


def _reconstruct(spec: RoundSpec, v_raw: np.ndarray, bb: float, which: str,
                 lp_solves: int) -> RoundSolution:
    L = spec.n - spec.m + 1
    v = np.maximum(np.asarray(v_raw, dtype=float), 0.0)
    y = np.zeros(L)
    for a, b in _cycle_bounds(spec):
        total = 0.0
        for k in range(a, b):
            total += v[k]
        y[a] = total
        # snap the last positive entry so sequential inventory hits exact zero
        if b - a > 1:
            resid = total
            for k in range(a, b - 1):
                resid -= v[k]
            v[b - 1] = max(resid, 0.0)
    return RoundSolution(status=FEASIBLE, BB=bb, v=v, y=y, which_model=which,
                         lp_solves=lp_solves)


def _infeasible(spec: RoundSpec, lp_solves: int) -> RoundSolution:
    L = spec.n - spec.m + 1
    return RoundSolution(status=INFEASIBLE, BB=-math.inf, v=np.zeros(L),
                         y=np.zeros(L), which_model="none", lp_solves=lp_solves)


def _solve(prob: LpProblem) -> LpSolution:
    sol = lp_solve(prob)
    if sol.status is LpStatus.NUMERICAL_FAILURE:
        raise LpNumericalError("simplex iteration limit exceeded:\n" + prob.dump())
    if sol.status is LpStatus.UNBOUNDED:
        raise LpNumericalError("round sub-LP unexpectedly unbounded:\n" + prob.dump())
    return sol


def solve_round(inst: Instance, spec: RoundSpec,
                w_cap: float | None = None) -> RoundSolution:
    """Compute BB(m, n) through the three-model cascade."""
    which, count = "sub1", 1
    sol = _solve(build_psub1(inst, spec, w_cap=w_cap))
    # without goodwill loss the relaxation coincides with the first model
    if sol.status is not LpStatus.OPTIMAL and inst.beta > 0:
        which, count = "sub2+sub3", 2
        sol = _solve(build_psub2(inst, spec))
        if sol.status is LpStatus.OPTIMAL:
            deltas = infer_deltas(inst, spec, sol.x)
            count = 3
            sol = _solve(build_psub3(inst, spec, deltas, w_cap=w_cap))
    if sol.status is not LpStatus.OPTIMAL:
        return _infeasible(spec, count)
    return _reconstruct(spec, sol.x, sol.objective_value, which, count)
