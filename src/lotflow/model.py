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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Instance:
    """All exogenous data of one problem instance.

    ``TL`` and ``r`` are ignored when ``BL == 0``.
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
        return {
            "T": self.T,
            "d": list(map(float, self.d)),
            "p": list(map(float, self.p)),
            "c": list(map(float, self.c)),
            "h": list(map(float, self.h)),
            "s": list(map(float, self.s)),
            "Bc": self.Bc,
            "BL": self.BL,
            "TL": self.TL,
            "r": self.r,
            "beta": self.beta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        try:
            return cls(
                T=data["T"], d=data["d"], p=data["p"], c=data["c"], h=data["h"],
                s=data["s"], Bc=data["Bc"], BL=data.get("BL", 0.0),
                TL=data.get("TL", 0), r=data.get("r", 0.0), beta=data.get("beta", 0.0),
            )
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def evaluate_plan(inst: Instance, plan: Plan) -> Trajectory:
    """Roll a plan forward through demand, inventory and capital dynamics.

    The trajectory is computed even if the plan is infeasible; use
    :func:`check_feasibility` to detect violations.
    """
    T = inst.T
    if plan.y.shape != (T,):
        raise InputError(f"plan vectors must have length {T}")
    y, v = plan.y, plan.v
    x = (y > TOL_ZERO).astype(int)
    Ed = np.zeros(T)
    w = np.zeros(T)
    I = np.zeros(T + 1)
    B = np.zeros(T + 1)
    B[0] = inst.B0
    w_prev = 0.0
    for t in range(T):
        Ed[t] = effective_demand(inst.d[t], w_prev, inst.beta)
        w[t] = Ed[t] - v[t]
        I[t + 1] = I[t] + y[t] - v[t]
        B[t + 1] = (B[t] + inst.p[t] * v[t] - inst.h[t] * I[t + 1]
                    - inst.s[t] * x[t] - inst.c[t] * y[t])
        if inst.BL > 0 and t + 1 == inst.TL:
            B[t + 1] -= inst.repayment
        w_prev = w[t]
    for arr in (x, Ed, w, I, B):
        arr.setflags(write=False)
    return Trajectory(plan=plan, x=x, Ed=Ed, w=w, I=I, B=B,
                      objective=float(B[T] - inst.B0))


def check_feasibility(inst: Instance, traj: Trajectory,
                      tol: float = TOL_FEAS, up_to: int | None = None) -> FeasibilityReport:
    """Check a trajectory against every model constraint.

    ``up_to`` restricts the check to periods 1..up_to (used while a plan
    prefix is still being extended). Violation entries are
    ``(constraint id, period, magnitude)``.
    """
    T = inst.T if up_to is None else min(up_to, inst.T)
    y, v = traj.plan.y, traj.plan.v
    bad: list[tuple[str, int, float]] = []

    def _check(cid: str, t: int, magnitude: float):
        if magnitude > tol:
            bad.append((cid, t, float(magnitude)))

    _check("C7", 0, abs(traj.B[0] - inst.B0))
    _check("C14", 0, abs(traj.I[0]))
    w_prev = 0.0
    for t in range(T):
        k = t + 1  # 1-based period for reporting
        # C3: no production without a setup
        if traj.x[t] == 0:
            _check("C3", k, y[t])
        # C4: capital sufficiency, plus end-of-period capital nonnegativity
        _check("C4", k, inst.s[t] * traj.x[t] + inst.c[t] * y[t] - traj.B[t])
        _check("C4", k, -traj.B[t + 1])
        # C5: lost sales cannot exceed effective demand
        _check("C5", k, traj.w[t] - traj.Ed[t])
        # C6: inventory flow balance
        _check("C6", k, abs(traj.I[t + 1] - (traj.I[t] + y[t] - v[t])))
        # C8: capital flow balance, with the one-time loan repayment
        b_expect = (traj.B[t] + inst.p[t] * v[t] - inst.h[t] * traj.I[t + 1]
                    - inst.s[t] * traj.x[t] - inst.c[t] * y[t])
        if inst.BL > 0 and k == inst.TL:
            b_expect -= inst.repayment
        _check("C8", k, abs(traj.B[t + 1] - b_expect))
        # C9: effective demand recursion (closed form)
        _check("C9", k, abs(traj.Ed[t] - effective_demand(inst.d[t], w_prev, inst.beta)))
        # C14/C15: nonnegativity
        _check("C14", k, -traj.I[t + 1])
        _check("C15", k, -y[t])
        _check("C15", k, -v[t])
        _check("C15", k, -traj.w[t])
        _check("C15", k, -traj.Ed[t])
        w_prev = traj.w[t]
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
