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
model is a single dense LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LpProblem, LpSolution, LpStatus, LpNumericalError, lp_solve
from .model import Instance, effective_demand

# closes the strict inequality used when a period's demand is flagged dead
TOL_STRICT = 1e-9

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RoundSpec:
    """One production round: window, cycle launch periods and entry state.

    Periods are 1-based; ``cycle_starts[0] == m``. ``B_in`` and ``w_in`` are
    the end-of-period capital and lost sales of period ``m - 1`` along the
    committed plan prefix.
    """

    m: int
    n: int
    cycle_starts: tuple
    B_in: float
    w_in: float = 0.0

    def __post_init__(self):
        starts = tuple(int(t) for t in self.cycle_starts)
        object.__setattr__(self, "cycle_starts", starts)
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if not starts or starts[0] != self.m:
            raise ValueError("first cycle must start at m")
        if list(starts) != sorted(set(starts)) or starts[-1] > self.n:
            raise ValueError("cycle starts must be increasing within [m, n]")
        if self.B_in < 0 or self.w_in < 0:
            raise ValueError("entry capital and lost sales must be nonnegative")


@dataclass
class RoundSolution:
    status: str
    BB: float
    v: np.ndarray
    y: np.ndarray
    w_out: float
    B_out: float
    which_model: str  # "sub1" | "sub2+sub3" | "none"
    lp_solves: int = 0


class _Affine:
    """const + coef . v over the round's local variables."""

    __slots__ = ("const", "coef")

    def __init__(self, const: float, coef: np.ndarray):
        self.const = const
        self.coef = coef

    @classmethod
    def constant(cls, L: int, value: float) -> "_Affine":
        return cls(value, np.zeros(L))


def _cycle_bounds(spec: RoundSpec):
    """Local [start, end) index pairs for each cycle."""
    starts = [t - spec.m for t in spec.cycle_starts]
    ends = starts[1:] + [spec.n - spec.m + 1]
    return list(zip(starts, ends))


def _ed_affine(inst: Instance, spec: RoundSpec, deltas=None) -> list:
    """Effective demand per period as affine functions of v.

    Without ``deltas`` every period uses the surviving-demand recursion;
    with ``deltas`` the flagged-dead periods are pinned to zero.
    """
    L = spec.n - spec.m + 1
    beta = inst.beta
    ed: list[_Affine] = []
    first = effective_demand(inst.d[spec.m - 1], spec.w_in, beta)
    ed.append(_Affine.constant(L, first))
    for k in range(1, L):
        t = spec.m - 1 + k  # 0-based absolute period
        if deltas is not None and deltas[k] == 0:
            ed.append(_Affine.constant(L, 0.0))
            continue
        prev = ed[k - 1]
        coef = -beta * prev.coef.copy()
        coef[k - 1] += beta
        ed.append(_Affine(inst.d[t] - beta * prev.const, coef))
    return ed


def _round_lp(inst: Instance, spec: RoundSpec, model: str,
              deltas=None, w_cap: float | None = None) -> LpProblem:
    """Assemble the LP for one of the three round models.

    Decision variables are v_t for t in [m, n] (local index 0..L-1).
    """
    L = spec.n - spec.m + 1
    cycles = _cycle_bounds(spec)

    ed = None
    if model in ("sub1", "sub3"):
        ed = _ed_affine(inst, spec, deltas if model == "sub3" else None)

    # inventory: within a cycle, stock after period t serves the rest of it
    inv: list[_Affine] = []
    for a, b in cycles:
        for k in range(a, b):
            coef = np.zeros(L)
            coef[k + 1 : b] = 1.0
            inv.append(_Affine(0.0, coef))

    # capital: forward accumulation from B_in
    cap: list[_Affine] = []
    run = _Affine.constant(L, spec.B_in)
    cycle_start_set = {a for a, _ in cycles}
    for k in range(L):
        t = spec.m - 1 + k
        coef = run.coef.copy()
        const = run.const
        coef[k] += inst.p[t]
        const -= inst.h[t] * inv[k].const
        coef -= inst.h[t] * inv[k].coef
        if k in cycle_start_set:
            a, b = next(cyc for cyc in cycles if cyc[0] == k)
            const -= inst.s[t]
            coef[a:b] -= inst.c[t]
        if inst.BL > 0 and t + 1 == inst.TL:
            const -= inst.repayment
        run = _Affine(const, coef)
        cap.append(run)

    prob = LpProblem(n_vars=L,
                     objective=cap[-1].coef.copy(),
                     objective_offset=cap[-1].const - spec.B_in)

    bounds: list[tuple[float, float]] = []
    for k in range(L):
        if model == "sub1":
            hi = ed[k].const if not ed[k].coef.any() else math.inf
        else:
            hi = float(inst.d[spec.m - 1 + k])
        bounds.append((0.0, hi))
    prob.bounds = bounds

    # per-cycle capital sufficiency at each launch period
    for a, b in cycles:
        t = spec.m - 1 + a
        coef = np.zeros(L)
        coef[a:b] = inst.c[t]
        rhs = -inst.s[t]
        if a == 0:
            rhs += spec.B_in
        else:
            rhs += cap[a - 1].const
            coef -= cap[a - 1].coef
        prob.add_row(coef, "<=", rhs)

    # end-of-period capital stays nonnegative
    for k in range(L):
        prob.add_row(-cap[k].coef, "<=", cap[k].const)

    if ed is not None:
        for k in range(L):
            if ed[k].coef.any():
                coef = -ed[k].coef.copy()
                coef[k] += 1.0
                prob.add_row(coef, "<=", ed[k].const)
            else:
                prob.add_row(_unit(L, k), "<=", ed[k].const)
        if model == "sub3":
            beta = inst.beta
            for k in range(1, L):
                if deltas[k] == 0:
                    # demand must actually fall below the goodwill shrink
                    prev = ed[k - 1]
                    coef = -beta * prev.coef.copy()
                    coef[k - 1] += beta
                    const = inst.d[spec.m - 1 + k] - beta * prev.const
                    prob.add_row(coef, "<=", -TOL_STRICT - const)
        if w_cap is not None:
            coef = ed[-1].coef.copy()
            coef[-1] -= 1.0
            prob.add_row(coef, "<=", w_cap - ed[-1].const)

    return prob


def _unit(L: int, k: int) -> np.ndarray:
    e = np.zeros(L)
    e[k] = 1.0
    return e


def build_psub1(inst: Instance, spec: RoundSpec, w_cap: float | None = None) -> LpProblem:
    return _round_lp(inst, spec, "sub1", w_cap=w_cap)


def build_psub2(inst: Instance, spec: RoundSpec) -> LpProblem:
    return _round_lp(inst, spec, "sub2")


def build_psub3(inst: Instance, spec: RoundSpec, deltas,
                w_cap: float | None = None) -> LpProblem:
    deltas = np.asarray(deltas, dtype=int)
    if deltas.shape != (spec.n - spec.m + 1,):
        raise ValueError("deltas must cover the round window")
    return _round_lp(inst, spec, "sub3", deltas=deltas, w_cap=w_cap)


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


def _reconstruct(inst: Instance, spec: RoundSpec, v_raw: np.ndarray,
                 bb: float, which: str, lp_solves: int) -> RoundSolution:
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
    w_prev = spec.w_in
    for k in range(L):
        t = spec.m - 1 + k
        w_prev = effective_demand(inst.d[t], w_prev, inst.beta) - v[k]
    return RoundSolution(status=FEASIBLE, BB=bb, v=v, y=y, w_out=float(w_prev),
                         B_out=spec.B_in + bb, which_model=which, lp_solves=lp_solves)


def _infeasible(spec: RoundSpec, lp_solves: int) -> RoundSolution:
    L = spec.n - spec.m + 1
    return RoundSolution(status=INFEASIBLE, BB=-math.inf, v=np.zeros(L),
                         y=np.zeros(L), w_out=spec.w_in, B_out=spec.B_in,
                         which_model="none", lp_solves=lp_solves)


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
    count = 1
    sol1 = _solve(build_psub1(inst, spec, w_cap=w_cap))
    if sol1.status is LpStatus.OPTIMAL:
        return _reconstruct(inst, spec, sol1.x, sol1.objective_value, "sub1", count)
    if inst.beta == 0:
        # the relaxation coincides with the first model, no point retrying
        return _infeasible(spec, count)
    count += 1
    sol2 = _solve(build_psub2(inst, spec))
    if sol2.status is not LpStatus.OPTIMAL:
        return _infeasible(spec, count)
    deltas = infer_deltas(inst, spec, sol2.x)
    count += 1
    sol3 = _solve(build_psub3(inst, spec, deltas, w_cap=w_cap))
    if sol3.status is not LpStatus.OPTIMAL:
        return _infeasible(spec, count)
    return _reconstruct(inst, spec, sol3.x, sol3.objective_value, "sub2+sub3", count)


def round_spec(inst: Instance, m: int, n: int,
               prev_cycle: int | None = None, entry=None) -> RoundSpec:
    """The round layout for a new cycle starting at period m.

    With zero goodwill loss a round is always the single cycle [m, n]. With
    goodwill loss, a round joins the nearest previous production cycle (when
    one exists) with the new cycle, so the prior cycle's realized demands can
    be re-optimized against the lost-sales carryover.

    ``entry`` maps a round start period t0 to the (capital, lost sales) state
    at the end of period t0 - 1 along the committed plan; without it the
    round enters with ``(inst.B0, 0.0)``.
    """
    if not 1 <= m <= n <= inst.T:
        raise ValueError("need 1 <= m <= n <= T")
    starts = (m,)
    if inst.beta != 0 and prev_cycle is not None:
        if not 1 <= prev_cycle < m:
            raise ValueError("prev_cycle must precede m")
        starts = (prev_cycle, m)
    B_in, w_in = entry(starts[0]) if entry is not None else (inst.B0, 0.0)
    return RoundSpec(m=starts[0], n=n, cycle_starts=starts, B_in=B_in, w_in=w_in)
