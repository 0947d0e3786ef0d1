"""Domain types and plan evaluation for the capital-flow lot sizing problem.

An :class:`Instance` bundles all exogenous data (horizon, demand, prices,
costs, starting capital, loan terms, goodwill rate). A :class:`Plan` is the
pair of decision vectors (production ``y``, realized demand ``v``); everything
else (setups, effective demand, lost sales, inventory, capital) is derived by
:func:`evaluate_plan` and validated by :func:`check_feasibility`.

Conventions: periods are 1-based in the public surface; internally vectors of
length ``T`` are 0-indexed while inventory/capital trajectories have length
``T + 1`` with slot 0 holding the initial state.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

# y below this is treated as "no setup"
TOL_ZERO = 1e-7
# absolute tolerance for constraint checks
TOL_FEAS = 1e-6


class InputError(ValueError):
    """Raised for malformed instances, plans or operation arguments."""


def _as_number(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a number, got {value!r}") from exc


def _as_int(name: str, value) -> int:
    number = _as_number(name, value)
    if not number.is_integer():
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _as_vector(name: str, values, T: int) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a vector of numbers: {exc}") from exc
    if arr.shape != (T,):
        raise InputError(f"{name} must have exactly {T} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Instance:
    """All exogenous data of one problem instance.

    ``TL`` and ``r`` are ignored when ``BL == 0``. ``outflow`` is derived:
    the cash paid out at the end of each period besides production, which is
    the loan repayment in period ``TL`` and zero elsewhere.

    Like every dataclass here that holds an array, an instance is ``==``
    only to itself; compare ``to_dict()`` outputs to compare values.
    """

    T: int
    d: np.ndarray
    p: np.ndarray
    c: np.ndarray
    h: np.ndarray
    s: np.ndarray
    Bc: float
    BL: float = 0.0
    TL: int = 0
    r: float = 0.0
    beta: float = 0.0
    outflow: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "T", _as_int("T", self.T))
        if self.T < 1:
            raise InputError("T must be >= 1")
        for name in ("d", "p", "c", "h", "s"):
            vec = _as_vector(name, getattr(self, name), self.T)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        for name in ("Bc", "BL", "r", "beta"):
            object.__setattr__(self, name, _as_number(name, getattr(self, name)))
        object.__setattr__(self, "TL", _as_int("TL", self.TL))
        if not all(map(math.isfinite, (self.Bc, self.BL, self.r))):
            raise InputError("Bc, BL, r must be finite")
        if np.any(self.d < 0) or np.any(self.p < 0) or np.any(self.h < 0) or np.any(self.s < 0):
            raise InputError("d, p, h, s must be nonnegative")
        if np.any(self.c <= 0):
            raise InputError("c must be strictly positive")
        if self.Bc < 0 or self.BL < 0 or self.r < 0:
            raise InputError("Bc, BL, r must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise InputError("beta must lie in [0, 1]")
        if self.BL > 0 and not 1 <= self.TL <= self.T:
            raise InputError("with BL > 0, TL must satisfy 1 <= TL <= T")
        try:
            finite = math.isfinite(self.B0) and math.isfinite(self.repayment)
        except OverflowError:
            finite = False
        if not finite:
            raise InputError("Bc + BL and the loan repayment must be finite")
        outflow = np.where(np.arange(1, self.T + 1) == self.TL, self.repayment, 0.0)
        outflow.setflags(write=False)
        object.__setattr__(self, "outflow", outflow)

    @property
    def B0(self) -> float:
        """Total capital available at the start of period 1."""
        return self.Bc + self.BL

    @property
    def repayment(self) -> float:
        """Principal plus interest due at the end of period TL (0 without loan)."""
        if self.BL <= 0:
            return 0.0
        return self.BL * (1.0 + self.r) ** self.TL

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in values.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        """Missing optional fields take the dataclass defaults."""
        try:
            return cls(**{f.name: data[f.name] for f in fields(cls)
                          if f.init and (f.name in data or f.default is MISSING)})
        except KeyError as exc:
            raise InputError(f"missing instance field {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid instance JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("instance JSON must be an object")
        return cls.from_dict(data)


@dataclass(frozen=True, eq=False)
class Plan:
    """Decision vectors: production quantity and realized demand per period."""

    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if y.ndim != 1 or y.shape != v.shape:
            raise InputError("y and v must be 1-d vectors of equal length")
        y.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "v", v)

    @classmethod
    def null(cls, T: int) -> "Plan":
        return cls(np.zeros(T), np.zeros(T))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A fully evaluated plan: derived setups, flows and the objective.

    ``I`` and ``B`` have length ``T + 1`` (index 0 = initial state); the
    remaining vectors have length ``T``.
    """

    plan: Plan
    x: np.ndarray
    Ed: np.ndarray
    w: np.ndarray
    I: np.ndarray
    B: np.ndarray
    objective: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple = ()


def effective_demand(d_t: float, w_prev: float, beta: float) -> float:
    """Demand left after goodwill shrink from last period's lost sales."""
    return max(0.0, d_t - beta * w_prev)


def evaluate_plan(inst: Instance, plan: Plan, base: Trajectory | None = None,
                  start: int = 1) -> Trajectory:
    """Roll a plan forward through demand, inventory and capital dynamics.

    The trajectory is computed even if the plan is infeasible; use
    :func:`check_feasibility` to detect violations.

    With ``base``, the plan must equal ``base.plan`` in periods
    1..start-1: those periods are copied from ``base`` and the recursion
    resumes at period ``start`` from its state. Every period is computed by
    the same float operations in the same order either way, so the result
    is the same to the last bit as a full evaluation.
    """
    T = inst.T
    if plan.y.shape != (T,):
        raise InputError(f"plan vectors must have length {T}")
    lo = 0 if base is None else min(max(start, 1), T + 1) - 1
    x = (plan.y > TOL_ZERO).astype(int)
    Ed = np.empty(T)
    w = np.empty(T)
    I = np.empty(T + 1)
    B = np.empty(T + 1)
    if lo == 0:
        I[0], B[0] = 0.0, inst.B0
        w_prev = 0.0
    else:
        Ed[:lo], w[:lo] = base.Ed[:lo], base.w[:lo]
        I[: lo + 1], B[: lo + 1] = base.I[: lo + 1], base.B[: lo + 1]
        w_prev = float(w[lo - 1])
    # the recursion runs on Python floats, which round like float64 scalars
    i_t, b_t = float(I[lo]), float(B[lo])
    beta = inst.beta
    ed_new, w_new, i_new, b_new = [], [], [], []
    for d_t, p_t, h_t, s_t, c_t, o_t, x_t, y_t, v_t in zip(
            inst.d[lo:].tolist(), inst.p[lo:].tolist(), inst.h[lo:].tolist(),
            inst.s[lo:].tolist(), inst.c[lo:].tolist(), inst.outflow[lo:].tolist(),
            x[lo:].tolist(), plan.y[lo:].tolist(), plan.v[lo:].tolist()):
        ed_t = effective_demand(d_t, w_prev, beta)
        w_prev = ed_t - v_t
        i_t = i_t + y_t - v_t
        b_t = b_t + p_t * v_t - h_t * i_t - s_t * x_t - c_t * y_t - o_t
        ed_new.append(ed_t)
        w_new.append(w_prev)
        i_new.append(i_t)
        b_new.append(b_t)
    Ed[lo:], w[lo:], I[lo + 1:], B[lo + 1:] = ed_new, w_new, i_new, b_new
    for arr in (x, Ed, w, I, B):
        arr.setflags(write=False)
    return Trajectory(plan=plan, x=x, Ed=Ed, w=w, I=I, B=B,
                      objective=float(B[T] - inst.B0))


def demand_affine(inst: Instance, m: int, n: int, w_in: float, deltas):
    """Effective demand of periods m..n as ``ed @ v + ed0``, and the shrink.

    ``v`` holds the realized demands of the window (local index 0..n-m) and
    ``w_in`` the lost sales of period m - 1. The shrink ``shrink @ v +
    shrink0`` is ``d_t - beta * w_{t-1}``, the effective demand of a
    surviving period (row 0, period m, is left zero). The periods that
    ``deltas`` flags dead have effective demand zero. Without goodwill loss
    (beta = 0) both are the constant ``d`` whatever the flags, so a period
    flagged dead can only die where its demand is zero.
    """
    L = n - m + 1
    beta = inst.beta
    d = inst.d[m - 1 : n]
    if beta == 0:
        zero = np.zeros((L, L))
        return zero, d, zero, d
    ed, shrink = np.zeros((L, L)), np.zeros((L, L))
    ed0, shrink0 = np.zeros(L), np.zeros(L)
    ed0[0] = effective_demand(d[0], w_in, beta)
    for k in range(1, L):
        # lost sales w_{k-1} = ed_{k-1} - v_{k-1}
        shrink[k] = -beta * ed[k - 1]
        shrink[k, k - 1] += beta
        shrink0[k] = d[k] - beta * ed0[k - 1]
        if deltas[k] != 0:
            ed[k], ed0[k] = shrink[k], shrink0[k]
    return ed, ed0, shrink, shrink0


def goodwill_rows(ed, ed0, shrink, shrink0, deltas):
    """The goodwill constraints over ``v`` as ``rows @ v <= rhs`` and ``v <= hi``.

    Takes the output of :func:`demand_affine`. ``v <= Ed`` is a row where
    the effective demand depends on ``v`` and the bound ``hi`` where it is a
    constant (Dantzig's upper-bounding rule). A period that ``deltas`` flags
    dead adds the row ``shrink <= 0``: at a zero shrink the effective
    demand ``max(0, shrink)`` is zero as well. A surviving one adds none,
    since ``0 <= v <= Ed`` already keeps its shrink nonnegative.
    """
    live = ed.any(axis=1)
    dead = np.flatnonzero(deltas[1:] == 0) + 1
    rows = np.vstack([(np.eye(len(ed)) - ed)[live], shrink[dead]])
    rhs = np.concatenate([ed0[live], -shrink0[dead]])
    return rows, rhs, np.where(live, math.inf, ed0)


def capital_affine(inst: Instance, m: int, Y: np.ndarray, V: np.ndarray,
                   x, B_in: float):
    """End-of-period capital from period m on as ``cap @ z + cap0``.

    Local period k (period m + k) produces ``Y[k] @ z``, realizes demand
    ``V[k] @ z`` and has setup ``x[k]``; ``B_in`` is the capital at the end
    of period m - 1 and inventory starts from zero. This is the recursion of
    :func:`evaluate_plan`. Also returns the capital-sufficiency rows
    ``need @ z <= need0``: setup and production of period m + k are paid
    from the capital at the end of period m + k - 1.
    """
    L = len(Y)
    p, h, c = (a[m - 1 : m - 1 + L] for a in (inst.p, inst.h, inst.c))
    make = c[:, None] * Y
    # row k holds the capital at the end of local period k - 1; the stock
    # is cumsum(Y - V), and cumsum adds in period order
    cap = np.zeros((L + 1, Y.shape[1]))
    np.cumsum(p[:, None] * V - h[:, None] * np.cumsum(Y - V, axis=0) - make,
              axis=0, out=cap[1:])
    cap0, need0 = capital_offsets(inst, m, x, B_in)
    return cap[1:], cap0, make - cap[:-1], need0


def capital_offsets(inst: Instance, m: int, x, B_in: float):
    """The constant terms ``cap0`` and ``need0`` of :func:`capital_affine`,
    the only ones its setups ``x`` enter."""
    L = len(x)
    setup = inst.s[m - 1 : m - 1 + L] * x
    cap0 = np.empty(L + 1)
    cap0[0] = b = B_in
    # setup, then outflow: evaluate_plan's subtractions in its order
    for k, (s_k, o_k) in enumerate(zip(setup.tolist(),
                                       inst.outflow[m - 1 : m - 1 + L].tolist())):
        cap0[k + 1] = b = b - s_k - o_k
    return cap0[1:], cap0[:-1] - setup


# the per-period constraint rows of check_feasibility, in reporting order
_CHECK_IDS = ("C3", "C4", "C4", "C5", "C6", "C8", "C9", "C14",
              "C15", "C15", "C15", "C15")


def check_feasibility(inst: Instance, traj: Trajectory, tol: float = TOL_FEAS,
                      up_to: int | None = None, start: int = 1) -> FeasibilityReport:
    """Check a trajectory against every model constraint.

    Only periods ``start``..``up_to`` are checked; the initial state (period
    0) is checked when ``start`` is 1. A plan prefix that is extended round
    by round passes ``up_to`` = its last period and ``start`` = the first
    period that changed since its last passing check.

    Violation entries are ``(constraint id, period, magnitude)``, ordered by
    period and, within a period, as C7, C14 (period 0 only), then C3, C4
    (capital sufficiency), C4 (end capital), C5, C6, C8, C9, C14, C15 (y, v,
    w, Ed).
    """
    T = inst.T if up_to is None else min(up_to, inst.T)
    lo = max(start, 1) - 1
    bad: list[tuple[str, int, float]] = []
    if lo == 0:
        for cid, magnitude in (("C7", abs(traj.B[0] - inst.B0)),
                               ("C14", abs(traj.I[0]))):
            if magnitude > tol:
                bad.append((cid, 0, float(magnitude)))
    if T <= lo:
        return FeasibilityReport(feasible=not bad, violations=tuple(bad))
    y, v, x = traj.plan.y[lo:T], traj.plan.v[lo:T], traj.x[lo:T]
    Ed, w = traj.Ed[lo:T], traj.w[lo:T]
    I_in, I_out = traj.I[lo:T], traj.I[lo + 1 : T + 1]
    B_in, B_out = traj.B[lo:T], traj.B[lo + 1 : T + 1]
    w_prev = traj.w[lo - 1 : T - 1] if lo else np.append(0.0, w[:-1])
    setup, make = inst.s[lo:T] * x, inst.c[lo:T] * y
    # one row per constraint, in reporting order; a row holds each period's
    # violation magnitude, and NaN where the constraint does not apply
    magnitudes = np.empty((len(_CHECK_IDS), T - lo))
    # C3: no production without a setup
    magnitudes[0] = np.where(x == 0, y, np.nan)
    # C4: capital sufficiency, then end-of-period capital nonnegativity
    np.subtract(setup + make, B_in, out=magnitudes[1])
    np.negative(B_out, out=magnitudes[2])
    # C5: lost sales cannot exceed effective demand
    np.subtract(w, Ed, out=magnitudes[3])
    # C6: inventory flow balance
    np.abs(I_out - (I_in + y - v), out=magnitudes[4])
    # C8: capital flow balance, with the outflow (the loan repayment)
    b_expect = (B_in + inst.p[lo:T] * v - inst.h[lo:T] * I_out - setup - make
                - inst.outflow[lo:T])
    np.abs(B_out - b_expect, out=magnitudes[5])
    # C9: effective demand recursion; fmax clamps like effective_demand up
    # to the sign of a zero, which the magnitude drops
    ed_expect = np.fmax(inst.d[lo:T] - inst.beta * w_prev, 0.0)
    np.abs(Ed - ed_expect, out=magnitudes[6])
    # C14/C15: nonnegativity of I, y, v, w and Ed
    for row, arr in enumerate((I_out, y, v, w, Ed), start=7):
        np.negative(arr, out=magnitudes[row])
    # transposed, nonzero lists the hits period by period
    periods, kinds = np.nonzero((magnitudes > tol).T)
    bad.extend((_CHECK_IDS[k], lo + t + 1, float(magnitudes[k, t]))
               for t, k in zip(periods.tolist(), kinds.tolist()))
    return FeasibilityReport(feasible=not bad, violations=tuple(bad))


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory as CSV: header t,x,y,v,Ed,w,I,B plus objective."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["t", "x", "y", "v", "Ed", "w", "I", "B"])
    T = len(traj.plan.y)
    for t in range(T):
        writer.writerow([
            t + 1, int(traj.x[t]),
            repr(float(traj.plan.y[t])), repr(float(traj.plan.v[t])),
            repr(float(traj.Ed[t])), repr(float(traj.w[t])),
            repr(float(traj.I[t + 1])), repr(float(traj.B[t + 1])),
        ])
    writer.writerow(["objective", repr(float(traj.objective))])
    return buf.getvalue()
