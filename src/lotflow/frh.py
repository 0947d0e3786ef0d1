"""Forward-recursive heuristic over production rounds.

The planning horizon is swept forward; for each period ``n`` the best
attainable end-of-period capital is the maximum over extending the committed
plan with a new production round ending at ``n`` (or with an idle period).
With goodwill loss, two per-period plan adjustments try alternative cycle
layouts for the last round, and a final backward pass shifts production into
earlier, cheaper cycles when spare capital allows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (Instance, Plan, Trajectory, TOL_ZERO, TOL_FEAS,
                    evaluate_plan, check_feasibility)
from .rounds import RoundSpec, RoundSolution, FEASIBLE, solve_round

_TIE_TOL = 1e-9


@dataclass
class Solution:
    """Solver output: the evaluated plan plus diagnostics."""

    trajectory: Trajectory
    objective: float
    lp_count: int = 0
    adjustments: list = field(default_factory=list)
    degenerate: bool = False

    def diagnostics(self) -> dict:
        return {
            "objective": self.objective,
            "lp_count": self.lp_count,
            "adjustments": [[kind, list(periods)] for kind, periods in self.adjustments],
            "degenerate": self.degenerate,
        }


class _Prefix(NamedTuple):
    """Committed plan through some period, with its trajectory to period T.

    The plan is zero after that period. A round m..n replaces a base prefix
    from period m on, so the new prefix's trajectory copies the base's
    before m and is evaluated, and checked, from m. Several periods may
    share one prefix.
    """

    traj: Trajectory
    last_round: tuple | None  # (cycle_starts tuple, end period)


def _spec(traj: Trajectory, starts: tuple, n: int) -> RoundSpec:
    """The round with cycles launched at ``starts`` through period n.

    It enters with the capital and lost sales of period ``starts[0] - 1``
    along ``traj``.
    """
    t0 = starts[0]
    # clamp away sub-tolerance float noise from the evaluated prefix
    b = max(0.0, float(traj.B[t0 - 1]))
    w = max(0.0, float(traj.w[t0 - 2])) if t0 >= 2 else 0.0
    return RoundSpec(n=n, cycle_starts=starts, B_in=b, w_in=w)


def _splice(base: _Prefix, round_sol: RoundSolution, spec: RoundSpec):
    """The base plan before the round, then the round."""
    y = base.traj.plan.y.copy()
    v = base.traj.plan.v.copy()
    y[spec.m - 1 : spec.n] = round_sol.y
    v[spec.m - 1 : spec.n] = round_sol.v
    return y, v


class _Frh:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.prefixes: list[_Prefix] = [
            _Prefix(evaluate_plan(inst, Plan.null(inst.T)), None)
        ]
        self.lp_count = 0
        self.adjustments: list = []
        # periods committed without a candidate that passes its check
        self.degenerate: set[int] = set()

    def _round_candidate(self, base: _Prefix, spec: RoundSpec, n: int,
                         w_cap: float | None = None):
        """Solve the round and splice it onto ``base``.

        Returns the new prefix, or None when the round is infeasible or the
        spliced plan fails its check through n.
        """
        sol = solve_round(self.inst, spec, w_cap=w_cap)
        self.lp_count += sol.lp_solves
        if sol.status != FEASIBLE:
            return None
        y, v = _splice(base, sol, spec)
        traj = evaluate_plan(self.inst, Plan(y, v), base.traj, spec.m)
        if not check_feasibility(self.inst, traj, up_to=n,
                                 start=spec.m).feasible:
            return None
        return _Prefix(traj, (spec.cycle_starts, n))

    def step(self, n: int):
        """Commit the best plan through period n (recursion Steps 1-2)."""
        inst = self.inst
        candidates: list[tuple[float, float, _Prefix]] = []

        prev = self.prefixes[n - 1]
        if check_feasibility(inst, prev.traj, up_to=n, start=n).feasible:
            # idle period: demand in n is fully lost, capital carries over
            candidates.append((float(prev.traj.B[n]), math.inf, prev))

        for m in range(1, n + 1):
            if m - 1 in self.degenerate:
                # every candidate on this base copies its capital shortfall
                continue
            base = self.prefixes[m - 1]
            # with goodwill loss a round re-optimizes the base's last cycle
            # together with the new one against the lost-sales carryover
            starts = ((base.last_round[0][-1], m)
                      if inst.beta != 0 and base.last_round else (m,))
            pref = self._round_candidate(base, _spec(base.traj, starts, n), n)
            if pref is not None:
                candidates.append((float(pref.traj.B[n]), float(m), pref))

        if not candidates:
            # even idling violates capital nonnegativity (loan repayment due);
            # commit the idle plan anyway, unchecked through n, and flag the
            # run degenerate
            self.degenerate.add(n)
            self.prefixes.append(prev)
            return

        best = max(candidates, key=lambda cand: (cand[0], cand[1]))
        # ties: later round starts (and the idle extension) win
        top = [cand for cand in candidates if cand[0] >= best[0] - _TIE_TOL]
        chosen = max(top, key=lambda cand: cand[1])
        self.prefixes.append(chosen[2])

    def adjust(self, n: int):
        """Try the two cycle-layout adjustments on the round ending at n."""
        inst = self.inst
        if inst.beta == 0:
            return
        cur = self.prefixes[n]
        if cur.last_round is None:
            return
        cycles, end = cur.last_round
        if end != n:
            return  # round already adjusted when it was committed

        w_cap = float(cur.traj.w[n - 1])
        m = cycles[0]
        families: list[tuple[str, list[RoundSpec]]] = []

        # (a) split the round's first cycle with an extra launch
        first_end = cycles[1] - 1 if len(cycles) >= 2 else n
        if first_end > m:
            families.append(("Adj1", [_spec(cur.traj, (m, u) + cycles[1:], n)
                                      for u in range(m + 1, first_end + 1)]))

        # (b) insert a cycle in the idle stretch before the round
        if m > 1 and not cur.traj.x[: m - 1].any():
            families.append(("Adj2", [_spec(cur.traj, (u, m), n)
                                      for u in range(1, m)]))

        for kind, specs in families:
            # splicing onto the current prefix keeps its plan before the
            # round's start and replaces everything from there on
            cur = self.prefixes[n]
            best_key = (float(cur.traj.B[n]), -float(cur.traj.w[n - 1]))
            best = None
            for spec in specs:
                pref = self._round_candidate(cur, spec, n, w_cap=w_cap)
                if pref is None:
                    continue
                key = (float(pref.traj.B[n]), -float(pref.traj.w[n - 1]))
                if key[0] > best_key[0] + _TIE_TOL or (
                        abs(key[0] - best_key[0]) <= _TIE_TOL
                        and key[1] > best_key[1] + _TIE_TOL):
                    best_key = key
                    best = (pref, spec.cycle_starts)
            if best is not None:
                self.prefixes[n] = best[0]
                self.adjustments.append((kind, best[1]))

    def solution(self) -> Solution:
        """The committed plan through the last processed period."""
        traj = self.prefixes[-1].traj
        return Solution(trajectory=traj, objective=traj.objective,
                        lp_count=self.lp_count,
                        adjustments=list(self.adjustments),
                        degenerate=bool(self.degenerate))


def recurse(inst: Instance) -> Solution:
    """Plain forward recursion (no per-period adjustments, no post-pass)."""
    runner = _Frh(inst)
    for n in range(1, inst.T + 1):
        runner.step(n)
    return runner.solution()


def corollary2_postpass(inst: Instance, sol: Solution) -> Solution:
    """Shift production backward into cheaper cycles with spare capital.

    For consecutive launch periods t1 < t2, when producing a unit at t1 and
    holding it to t2 is cheaper than producing it at t2, move as much of
    y[t2] as entry capital at t1 (and capital nonnegativity in between)
    allows. Realized demands are untouched, so goodwill is unaffected.
    """
    y = sol.trajectory.plan.y.copy()
    v = sol.trajectory.plan.v.copy()
    traj = sol.trajectory
    adjustments = list(sol.adjustments)
    changed = True
    guard = 0
    while changed and guard < 4 * inst.T:
        changed = False
        guard += 1
        starts = [t for t in range(inst.T) if traj.x[t] == 1]
        for idx in range(len(starts) - 1, 0, -1):
            t2 = starts[idx]
            t1 = starts[idx - 1]
            hold = float(np.sum(inst.h[t1:t2]))
            if inst.c[t1] + hold >= inst.c[t2] - 1e-12:
                continue
            slack = float(traj.B[t1]) - inst.s[t1] - inst.c[t1] * y[t1]
            if slack <= TOL_FEAS:
                continue
            dy = min(slack / inst.c[t1], float(y[t2]))
            # keep end-of-period capital nonnegative while the extra stock
            # is carried from t1 to t2
            for t in range(t1, t2):
                denom = inst.c[t1] + float(np.sum(inst.h[t1 : t + 1]))
                dy = min(dy, float(traj.B[t + 1]) / denom)
            if dy <= TOL_ZERO:
                continue
            y[t1] += dy
            y[t2] = y[t2] - dy if y[t2] - dy > TOL_ZERO else 0.0
            traj = evaluate_plan(inst, Plan(y.copy(), v.copy()))
            adjustments.append(("Cor2", (t1 + 1, t2 + 1)))
            changed = True
            break
    return Solution(trajectory=traj, objective=traj.objective,
                    lp_count=sol.lp_count, adjustments=adjustments,
                    degenerate=sol.degenerate)


def solve_frh(inst: Instance) -> Solution:
    """Run the full solver: recursion, per-period adjustments, post-pass."""
    runner = _Frh(inst)
    for n in range(1, inst.T + 1):
        runner.step(n)
        runner.adjust(n)
    return corollary2_postpass(inst, runner.solution())
