"""Test-side reference implementations and random problem factories.

``vertex_solve`` brute-forces small LPs by enumerating basic solutions
(every n-subset of the tight constraint candidates), giving an independent
optimum to check the simplex implementation against.

``enumerate_solve`` is the exact oracle without the search: one LP per
setup pattern and survival pattern, 2^T x |patterns| in all, as a reference
for the branch and bound in ``lotflow.oracle``. Its LP, ``equality_lp``,
states the model in its own 6T columns (y, v, w, Ed, I, B) with equality
rows for the recursions, each stated as a pair of ``<=`` rows, so it shares
no row with the oracle's node LP in (y, v).

``milp_solve`` states the whole lot-sizing model as one mixed-integer
program and hands it to ``scipy.optimize.milp`` (HiGHS), giving an optimum
that shares no code with the heuristic or the exact oracle. scipy is a
test-only dependency; import this helper's callers behind
``pytest.importorskip("scipy.optimize")``.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from lotflow.frh import Solution
from lotflow.lp import LpNumericalError, LpProblem, LpStatus, lp_solve
from lotflow.model import Instance, Plan, evaluate_plan
from lotflow.oracle import MAX_T, OracleGuardError, _delta_patterns

VERTEX_FEAS_TOL = 1e-7


def _halfspaces(prob: LpProblem):
    """All constraints as A x <= b rows: the problem's rows, then the boxes."""
    n = prob.n_vars
    capped = np.flatnonzero(prob.hi < math.inf)
    A = np.vstack([prob.rows, -np.eye(n), np.eye(n)[capped]])
    b = np.concatenate([prob.rhs, np.zeros(n), prob.hi[capped]])
    return A, b


def vertex_solve(prob: LpProblem):
    """Return (best objective incl. offset, argmax) or (None, None).

    The optimum must be finite (all test factories guarantee that); an
    unbounded problem is out of scope here.
    """
    A, b = _halfspaces(prob)
    n = prob.n_vars
    m = len(A)
    c = np.asarray(prob.objective, dtype=float)
    best, arg = None, None
    for subset in combinations(range(m), n):
        sub_A = A[list(subset)]
        sub_b = b[list(subset)]
        if abs(np.linalg.det(sub_A)) < 1e-10:
            continue
        x = np.linalg.solve(sub_A, sub_b)
        if np.all(A @ x <= b + VERTEX_FEAS_TOL):
            val = float(c @ x) + prob.objective_offset
            if best is None or val > best:
                best, arg = val, x
    return best, arg


def equality_lp(inst: Instance, x: np.ndarray, delta: np.ndarray,
                k: int) -> LpProblem:
    """LP over (y, v, w, Ed, I, B) for a survival pattern and a search node.

    The setups of periods before ``k`` are fixed to ``x``; periods from ``k``
    on may produce without paying their setup cost.
    """
    T = inst.T
    t = np.arange(T)
    x = np.where(t < k, x, 0)
    # variable layout
    Y, V, W, E, Iv, Bv = (t + i * T for i in range(6))
    n = 6 * T
    obj = np.zeros(n)
    obj[Bv[T - 1]] = 1.0
    hi = np.full(n, math.inf)
    hi[Y[(t < k) & (x == 0)]] = 0.0

    # seven rows per period, by kind 0..6; periods 2..T (``later``) also
    # refer to the columns of periods 1..T-1 (``prev``)
    A = np.zeros((T, 7, n))
    rhs = np.zeros((T, 7))
    equality = np.tile([False, True, True, False, True, True, False], (T, 1))
    later, prev = t[1:], t[:-1]
    b_prev_rhs = np.where(t == 0, inst.B0, 0.0) - inst.s * x
    # 0: capital sufficiency
    A[t, 0, Y] = inst.c
    A[later, 0, Bv[prev]] = -1.0
    rhs[:, 0] = b_prev_rhs
    # 1: inventory balance
    A[t, 1, Iv] = 1.0
    A[later, 1, Iv[prev]] = -1.0
    A[t, 1, Y] = -1.0
    A[t, 1, V] = 1.0
    # 2: realized demand identity
    A[t, 2, V] = 1.0
    A[t, 2, W] = 1.0
    A[t, 2, E] = -1.0
    # 3: lost sales within effective demand
    A[t, 3, W] = 1.0
    A[t, 3, E] = -1.0
    # 4: capital balance with one-time repayment
    A[t, 4, Bv] = 1.0
    A[later, 4, Bv[prev]] = -1.0
    A[t, 4, V] = -inst.p
    A[t, 4, Iv] = inst.h
    A[t, 4, Y] = inst.c
    rhs[:, 4] = b_prev_rhs
    if inst.BL > 0:
        rhs[inst.TL - 1, 4] -= inst.repayment
    # 5: effective demand per the survival flag
    alive = delta == 1
    A[t, 5, E] = 1.0
    A[later, 5, W[prev]] = inst.beta * alive[later]
    rhs[:, 5] = np.where(alive, inst.d, 0.0)
    # 6: a surviving period's shrink stays positive, a dead one's does not
    side = np.where(alive, 1.0, -1.0)
    A[later, 6, W[prev]] = side[later] * inst.beta
    rhs[:, 6] = side * inst.d
    # no lost sales precede period 1, so a surviving period 1 has no row 6
    keep = np.ones((T, 7), dtype=bool)
    keep[0, 6] = not alive[0]
    # each equality row a x = b is the <= pair a x <= b, -a x <= -b
    eq = equality[keep]
    rows, rhs = A[keep], rhs[keep]
    return LpProblem(objective=obj, rows=np.vstack([rows, -rows[eq]]),
                     rhs=np.concatenate([rhs, -rhs[eq]]), hi=hi,
                     objective_offset=-inst.B0)


def enumerate_solve(inst: Instance, max_T: int = MAX_T) -> Solution:
    """Solve every setup and survival pattern; return the best feasible plan."""
    if inst.T > max_T:
        raise OracleGuardError(
            f"T={inst.T} exceeds the enumeration guard max_T={max_T}")
    T = inst.T
    deltas = _delta_patterns(inst)
    best_val = -math.inf
    best_plan: Plan | None = None
    lp_count = 0
    for xbits in product((0, 1), repeat=T):
        x = np.array(xbits, dtype=int)
        for delta in deltas:
            prob = equality_lp(inst, x, delta, T)
            lp_count += 1
            sol = lp_solve(prob)
            if sol.status is LpStatus.NUMERICAL_FAILURE:
                raise LpNumericalError("oracle sub-LP hit the iteration limit")
            if sol.status is not LpStatus.OPTIMAL:
                continue
            if sol.objective_value > best_val + 1e-12:
                best_val = sol.objective_value
                best_plan = Plan(sol.x[:T].copy(), sol.x[T : 2 * T].copy())
    if best_plan is None:
        traj = evaluate_plan(inst, Plan.null(T))
        return Solution(trajectory=traj, objective=traj.objective,
                        lp_count=lp_count, degenerate=True)
    traj = evaluate_plan(inst, best_plan)
    return Solution(trajectory=traj, objective=traj.objective, lp_count=lp_count)


def milp_solve(inst: Instance):
    """Return (optimal objective, optimal Plan) of the full MIP via HiGHS.

    Per period ``t`` the columns are ``y, v, Ed, w, I, B`` (continuous, >= 0)
    and the binaries ``x`` (setup) and ``z`` (effective demand dies). The
    goodwill recursion ``Ed_t = max(0, d_t - beta*w_{t-1})`` is linearised as

        Ed_t >= d_t - beta*w_{t-1}
        Ed_t <= d_t - beta*w_{t-1} + M_t*z_t,    M_t = beta*max(d) + d_t
        Ed_t <= d_t*(1 - z_t)

    ``M_t`` must cover ``beta*w_{t-1} - d_t`` for every reachable ``w``
    (``w <= Ed <= max d``); ``M_t = d_t`` would cut feasible plans. After the
    MIP, the binaries are rounded and pinned and the LP is re-solved, so big-M
    leakage within HiGHS's integrality tolerance cannot shift the objective.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    T, beta = inst.T, inst.beta
    d, p, c, h, s = inst.d, inst.p, inst.c, inst.h, inst.s
    Y, V, ED, W, I, B, X, Z = (k * T for k in range(8))
    n = 8 * T
    rows, lo, hi = [], [], []

    def row(terms, lower, upper):
        a = np.zeros(n)
        for col, coef in terms:
            a[col] += coef
        rows.append(a)
        lo.append(lower)
        hi.append(upper)

    M = beta * float(d.max()) + d
    # capital never exceeds B0 plus all revenue, so neither does c_t*y_t
    U = (inst.B0 + float(p @ d)) / c
    for t in range(T):
        w_prev = [(W + t - 1, beta)] if t > 0 else []
        row([(ED + t, 1.0)] + w_prev, d[t], math.inf)
        row([(ED + t, 1.0), (Z + t, -M[t])] + w_prev, -math.inf, d[t])
        row([(ED + t, 1.0), (Z + t, d[t])], -math.inf, d[t])
        row([(W + t, 1.0), (ED + t, -1.0), (V + t, 1.0)], 0.0, 0.0)
        I_prev = [(I + t - 1, -1.0)] if t > 0 else []
        row([(I + t, 1.0), (Y + t, -1.0), (V + t, 1.0)] + I_prev, 0.0, 0.0)
        # B_{t-1} is a column from period 2 on, the constant B0 before that
        B_prev, start = ([(B + t - 1, -1.0)], 0.0) if t > 0 else ([], inst.B0)
        # capital balance: B_t = B_{t-1} + p v - h I - s x - c y - repayment
        due = inst.repayment if inst.BL > 0 and t + 1 == inst.TL else 0.0
        row([(B + t, 1.0), (V + t, -p[t]), (I + t, h[t]), (X + t, s[t]),
             (Y + t, c[t])] + B_prev, start - due, start - due)
        # capital sufficiency: s x + c y <= B_{t-1}
        row([(X + t, s[t]), (Y + t, c[t])] + B_prev, -math.inf, start)
        row([(Y + t, 1.0), (X + t, -U[t])], -math.inf, 0.0)

    cost = np.zeros(n)
    cost[B + T - 1] = -1.0
    cons = LinearConstraint(np.array(rows), lo, hi)
    upper = np.full(n, math.inf)
    upper[X:] = 1.0
    integrality = np.zeros(n)
    integrality[X:] = 1

    res = milp(cost, constraints=cons, integrality=integrality,
               bounds=Bounds(np.zeros(n), upper),
               options={"mip_rel_gap": 1e-9})
    if res.status != 0:
        raise RuntimeError(f"MILP failed: {res.message}")
    pinned = np.round(res.x[X:])
    lower = np.zeros(n)
    lower[X:] = upper[X:] = pinned
    res = milp(cost, constraints=cons, bounds=Bounds(lower, upper))
    if res.status != 0:
        raise RuntimeError(f"LP with pinned binaries failed: {res.message}")
    plan = Plan(np.maximum(res.x[Y:Y + T], 0.0), np.maximum(res.x[V:V + T], 0.0))
    return float(res.x[B + T - 1] - inst.B0), plan


def random_bounded_lp(rng: np.random.Generator) -> LpProblem:
    """Feasible LP with finite box bounds (hence a bounded optimum)."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    obj = rng.uniform(-3.0, 3.0, n)
    offset = float(rng.uniform(-5.0, 5.0))
    ub = rng.uniform(1.0, 10.0, n)
    x0 = rng.uniform(0.0, 1.0, n) * ub  # guaranteed-feasible anchor
    rows, rhs = np.empty((m, n)), np.empty(m)
    for i in range(m):
        rows[i] = rng.uniform(-2.0, 2.0, n)
        rhs[i] = rows[i] @ x0 + rng.uniform(0.0, 4.0)
    return LpProblem(objective=obj, rows=rows, rhs=rhs, hi=ub,
                     objective_offset=offset)


def random_one_form_lp(rng: np.random.Generator) -> LpProblem:
    """Feasible LP with a finite optimum over every case of the one form.

    Each variable gets ``hi = 0`` (a fixed-off column), a finite ``hi`` or
    ``hi = inf``; an uncapped variable has a negative objective coefficient,
    so the optimum stays finite. The first row is a covering row with a
    negative rhs, which starts the slack basis infeasible, so phase 1's dual
    simplex must pivot it feasible; the other rows pass through a feasible
    anchor point.
    """
    n = int(rng.integers(2, 5))
    obj = rng.uniform(-3.0, 3.0, n)
    offset = float(rng.uniform(-5.0, 5.0))
    kind = rng.permutation(np.resize([0, 1, 2], n))   # 0 fixed, 1 finite, 2 inf
    hi = np.where(kind == 0, 0.0, np.where(kind == 1, rng.uniform(1.0, 10.0, n),
                                           math.inf))
    obj[kind == 2] = -np.abs(obj[kind == 2]) - 0.1
    x0 = np.where(kind == 1, rng.uniform(0.5, 1.0, n) * hi,
                  np.where(kind == 2, rng.uniform(1.0, 5.0, n), 0.0))
    # cover @ x0 >= 0.25, so the covering row's rhs stays below -0.05
    cover = np.where(kind == 0, 0.0, rng.uniform(0.5, 2.0, n))
    m = int(rng.integers(0, 3))
    rows = np.vstack([-cover, rng.uniform(-2.0, 2.0, (m, n))])
    slack = np.concatenate([rng.uniform(0.0, 0.2, 1), rng.uniform(0.0, 3.0, m)])
    rhs = rows @ x0 + slack
    return LpProblem(objective=obj, rows=rows, rhs=rhs, hi=hi,
                     objective_offset=offset)


def random_infeasible_lp(rng: np.random.Generator) -> LpProblem:
    """Bounded LP plus a row that contradicts the nonnegativity bounds."""
    prob = random_bounded_lp(rng)
    n = prob.n_vars
    e = np.zeros(n)
    e[int(rng.integers(0, n))] = 1.0
    rhs = -1.0 - rng.uniform(0.0, 3.0)
    return LpProblem(objective=prob.objective, rows=np.vstack([prob.rows, e]),
                     rhs=np.append(prob.rhs, rhs), hi=prob.hi,
                     objective_offset=prob.objective_offset)


def random_unbounded_lp(rng: np.random.Generator) -> LpProblem:
    """LP with a guaranteed improving ray along the first variable."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    obj = rng.uniform(-2.0, 2.0, n)
    obj[0] = float(rng.uniform(0.5, 3.0))  # pays to push x1 up
    rows, rhs = np.empty((m, n)), np.empty(m)
    for i in range(m):
        rows[i] = rng.uniform(-2.0, 2.0, n)
        rows[i, 0] = -abs(rows[i, 0])  # the ray x1 -> inf never tightens rows
        rhs[i] = rng.uniform(0.0, 5.0)  # origin stays feasible
    return LpProblem(objective=obj, rows=rows, rhs=rhs)
