"""Domain model: instance validation, plan evaluation, feasibility checks."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lotflow import (Instance, InputError, LpProblem, Plan, RoundSpec, TOL_FEAS,
                     check_feasibility, effective_demand, evaluate_plan,
                     lp_solve, solve_frh, solve_round, trajectory_to_csv)
from lotflow.model import capital_affine, demand_affine


def make_instance(**overrides):
    base = dict(T=3, d=[30, 40, 20], p=[21, 21, 21], c=[5, 5, 5],
                h=[1, 1, 1], s=[100, 100, 100], Bc=500.0)
    base.update(overrides)
    return Instance(**base)


class TestInstanceValidation:
    def test_roundtrip_json(self):
        inst = make_instance(BL=300.0, TL=2, r=0.05, beta=0.5)
        again = Instance.from_json(inst.to_json())
        assert again.to_dict() == inst.to_dict()

    def test_vector_length_mismatch(self):
        with pytest.raises(InputError):
            make_instance(d=[30, 40])

    def test_negative_demand_rejected(self):
        with pytest.raises(InputError):
            make_instance(d=[30, -1, 20])

    def test_zero_unit_cost_rejected(self):
        with pytest.raises(InputError):
            make_instance(c=[5, 0, 5])

    def test_beta_out_of_range(self):
        with pytest.raises(InputError):
            make_instance(beta=1.5)

    def test_loan_needs_valid_term(self):
        with pytest.raises(InputError):
            make_instance(BL=100.0, TL=0)
        with pytest.raises(InputError):
            make_instance(BL=100.0, TL=4)

    def test_missing_json_field(self):
        data = make_instance().to_dict()
        del data["d"]
        with pytest.raises(InputError, match="missing instance field 'd'"):
            Instance.from_dict(data)
        # the first missing field in field order is named
        del data["T"]
        with pytest.raises(InputError, match="missing instance field 'T'"):
            Instance.from_dict(data)
        # the optional fields take the dataclass defaults
        full = make_instance(BL=300.0, TL=2, r=0.05, beta=0.5).to_dict()
        required = {k: full[k] for k in ("T", "d", "p", "c", "h", "s", "Bc")}
        inst = Instance.from_dict(required)
        assert (inst.BL, inst.TL, inst.r, inst.beta) == (0.0, 0, 0.0, 0.0)
        assert inst.to_dict() == {**full, "BL": 0.0, "TL": 0, "r": 0.0, "beta": 0.0}

    def test_malformed_json(self):
        with pytest.raises(InputError):
            Instance.from_json("{not json")

    def test_loan_repayment_compounds(self):
        inst = make_instance(BL=300.0, TL=3, r=0.10)
        assert inst.repayment == pytest.approx(300.0 * 1.1**3)
        assert inst.B0 == pytest.approx(800.0)

    def test_no_loan_repayment_zero(self):
        assert make_instance().repayment == 0.0

    def test_outflow_is_the_repayment_in_period_TL(self):
        inst = make_instance(BL=300.0, TL=2, r=0.10)
        assert inst.outflow.tolist() == [0.0, inst.repayment, 0.0]
        assert not inst.outflow.flags.writeable
        assert make_instance().outflow.tolist() == [0.0, 0.0, 0.0]
        # replace derives it again from the new fields
        later = dataclasses.replace(inst, TL=3)
        assert later.outflow.tolist() == [0.0, 0.0, later.repayment]
        assert not dataclasses.replace(inst, BL=0.0).outflow.any()
        # derived, so not part of the JSON schema
        assert "outflow" not in inst.to_dict()


def _lp():
    return LpProblem(objective=[1.0, 1.0], rows=[[1.0, 2.0]], rhs=[4.0],
                     hi=[3.0, 3.0])


# each makes a fresh value of a dataclass that holds a numpy array,
# directly or, for Solution, in its trajectory
_ARRAY_HOLDERS = {
    "Instance": make_instance,
    "Plan": lambda: Plan([30.0, 0.0, 20.0], [30.0, 0.0, 20.0]),
    "Trajectory": lambda: evaluate_plan(make_instance(), Plan.null(3)),
    "LpProblem": _lp,
    "LpSolution": lambda: lp_solve(_lp()),
    "Tableau": lambda: lp_solve(_lp()).tableau,
    "RoundSolution": lambda: solve_round(
        make_instance(), RoundSpec(n=2, cycle_starts=(1,), B_in=500.0)),
    "Solution": lambda: solve_frh(make_instance()),
}


@pytest.mark.parametrize("make", _ARRAY_HOLDERS.values(), ids=_ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(make):
    # == compares by identity, where comparing the arrays inside would ask
    # numpy for the truth value of an array
    one, other = make(), make()
    assert one == one
    assert one != other


class TestEffectiveDemand:
    def test_no_goodwill_loss(self):
        assert effective_demand(50.0, 30.0, 0.0) == 50.0

    def test_shrink(self):
        assert effective_demand(50.0, 30.0, 0.5) == 35.0

    def test_clamped_at_zero(self):
        assert effective_demand(10.0, 30.0, 0.5) == 0.0

    @given(st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 1))
    def test_bounds(self, d, w, beta):
        ed = effective_demand(d, w, beta)
        assert 0.0 <= ed <= d

    @given(st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 1e4),
           st.floats(0, 1))
    def test_monotone_in_lost_sales(self, d, w1, w2, beta):
        lo, hi = sorted((w1, w2))
        assert effective_demand(d, hi, beta) <= effective_demand(d, lo, beta)


class TestEvaluatePlan:
    def test_single_period_hand_example(self):
        inst = Instance(T=1, d=[30], p=[21], c=[5], h=[3], s=[100], Bc=250.0)
        traj = evaluate_plan(inst, Plan([30.0], [30.0]))
        # revenue 630, setup 100, production 150, no inventory held
        assert traj.objective == pytest.approx(380.0)
        assert traj.B[1] == pytest.approx(630.0)
        assert check_feasibility(inst, traj).feasible

    def test_inventory_carry_and_holding_cost(self):
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([70.0, 0.0, 20.0], [30.0, 40.0, 20.0]))
        assert traj.I[1] == pytest.approx(40.0)
        assert traj.I[2] == pytest.approx(0.0)
        assert list(traj.x) == [1, 0, 1]
        # period 1: 630 revenue - 100 setup - 350 production - 40 holding
        assert traj.B[1] == pytest.approx(500.0 + 630 - 100 - 350 - 40)
        assert check_feasibility(inst, traj).feasible

    def test_lost_sales_shrink_later_demand(self):
        inst = make_instance(beta=0.5)
        traj = evaluate_plan(inst, Plan.null(3))
        assert traj.Ed[0] == 30.0
        assert traj.w[0] == 30.0
        assert traj.Ed[1] == pytest.approx(40.0 - 15.0)
        assert traj.objective == 0.0

    def test_loan_repaid_once_at_term(self):
        inst = make_instance(BL=300.0, TL=2, r=0.10)
        traj = evaluate_plan(inst, Plan.null(3))
        due = 300.0 * 1.1**2
        assert traj.B[1] == pytest.approx(800.0)
        assert traj.B[2] == pytest.approx(800.0 - due)
        assert traj.B[3] == pytest.approx(800.0 - due)
        assert traj.objective == pytest.approx(-due)

    def test_lost_sales_is_effective_demand_minus_realized(self):
        inst = make_instance(beta=0.5)
        traj = evaluate_plan(inst, Plan([10.0, 0, 0], [10.0, 0, 0]))
        assert np.allclose(traj.w, traj.Ed - traj.plan.v)


class TestCheckFeasibility:
    def test_capital_insufficiency_detected(self):
        inst = make_instance(Bc=100.0)  # setup alone exhausts capital
        traj = evaluate_plan(inst, Plan([30.0, 0, 0], [30.0, 0, 0]))
        report = check_feasibility(inst, traj)
        assert not report.feasible
        assert any(cid == "C4" for cid, _, _ in report.violations)

    def test_overselling_detected(self):
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([50.0, 0, 0], [50.0, 0, 0]))
        report = check_feasibility(inst, traj)
        assert not report.feasible  # v > d means negative lost sales
        assert any(cid == "C15" for cid, _, _ in report.violations)

    def test_negative_inventory_detected(self):
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([10.0, 0, 0], [10.0, 5.0, 0]))
        report = check_feasibility(inst, traj)
        assert any(cid == "C14" for cid, _, _ in report.violations)

    def test_prefix_check_ignores_later_periods(self):
        inst = make_instance(Bc=100.0, BL=500.0, TL=3, r=1.0)
        traj = evaluate_plan(inst, Plan.null(3))
        assert check_feasibility(inst, traj, up_to=2).feasible
        assert not check_feasibility(inst, traj).feasible

    def test_tolerance_is_respected(self):
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([30.0 + 0.5 * TOL_FEAS, 0, 0],
                                        [30.0, 0, 0]))
        assert check_feasibility(inst, traj).feasible


class TestTrajectoryCsv:
    def test_header_rows_and_objective_line(self):
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([30.0, 0, 0], [30.0, 0, 0]))
        text = trajectory_to_csv(traj)
        lines = text.strip().splitlines()
        assert lines[0] == "t,x,y,v,Ed,w,I,B"
        assert len(lines) == 1 + inst.T + 1
        assert lines[-1].startswith("objective,")
        assert float(lines[-1].split(",")[1]) == pytest.approx(traj.objective)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_evaluate_plan_objective_identity(T, seed):
    """Objective always equals final capital minus initial capital."""
    rng = np.random.default_rng(seed)
    inst = Instance(T=T, d=rng.uniform(0, 50, T), p=rng.uniform(0, 30, T),
                    c=rng.uniform(1, 20, T), h=rng.uniform(0, 5, T),
                    s=rng.uniform(0, 200, T), Bc=float(rng.uniform(0, 1000)),
                    beta=float(rng.uniform(0, 1)))
    y = rng.uniform(0, 50, T)
    v = np.minimum(y, inst.d)
    traj = evaluate_plan(inst, Plan(y, v))
    assert traj.objective == pytest.approx(float(traj.B[T] - inst.B0))
    assert math.isfinite(traj.objective)


def _random_instance(rng, T, with_loan):
    loan = dict(BL=float(rng.uniform(0, 300)), TL=int(rng.integers(1, T + 1)),
                r=float(rng.uniform(0, 0.5))) if with_loan else {}
    return Instance(T=T, d=rng.uniform(0, 50, T), p=rng.uniform(0, 30, T),
                    c=rng.uniform(1, 20, T), h=rng.uniform(0, 5, T),
                    s=rng.uniform(0, 200, T), Bc=float(rng.uniform(0, 1000)),
                    beta=float(rng.choice([0.0, 0.5, rng.uniform(0, 1)])), **loan)


def _random_plan(rng, inst):
    # idle periods and launches; sales may exceed demand or stock
    T = inst.T
    y = rng.uniform(0, 80, T) * (rng.random(T) < 0.6)
    v = rng.uniform(0, 60, T) * (rng.random(T) < 0.9)
    return Plan(y, v)


def _assert_same_trajectory(traj, ref):
    for name in ("x", "Ed", "w", "I", "B"):
        got, want = getattr(traj, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable
    assert repr(traj.objective) == repr(ref.objective)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_evaluation_from_a_base_equals_full_evaluation(T, seed, with_loan):
    """A plan that equals a base before period m, evaluated from m on the
    base's state, is bit for bit its full evaluation."""
    rng = np.random.default_rng(seed)
    inst = _random_instance(rng, T, with_loan)
    base = evaluate_plan(inst, _random_plan(rng, inst))
    m = int(rng.integers(1, T + 2))
    tail = _random_plan(rng, inst)
    plan = Plan(np.concatenate((base.plan.y[: m - 1], tail.y[m - 1:])),
                np.concatenate((base.plan.v[: m - 1], tail.v[m - 1:])))
    traj = evaluate_plan(inst, plan, base, m)
    _assert_same_trajectory(traj, evaluate_plan(inst, plan))
    assert traj.x.dtype.kind == "i"


@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_check_from_a_passing_period_equals_full_check(T, seed, with_loan):
    """On a trajectory whose periods 1..m-1 pass, checking from m gives the
    full check's verdict and violations."""
    rng = np.random.default_rng(seed)
    inst = _random_instance(rng, T, with_loan)
    traj = evaluate_plan(inst, _random_plan(rng, inst))
    # every period before the first violation passes
    first_bad = min((k for _, k, _ in check_feasibility(inst, traj).violations),
                    default=T + 1)
    m = int(rng.integers(1, max(first_bad, 1) + 1))
    up_to = int(rng.integers(max(m - 1, 0), T + 1))
    full = check_feasibility(inst, traj, up_to=up_to)
    report = check_feasibility(inst, traj, up_to=up_to, start=m)
    assert report.feasible == full.feasible
    assert report.violations == full.violations


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-9,
                               atol=1e-9 * max(1.0, float(np.abs(want).max())))


def _goodwill_loan_instance(rng, T):
    return dataclasses.replace(_random_instance(rng, T, with_loan=True),
                               beta=float(rng.uniform(0.1, 1.0)))


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_affine_model_reproduces_evaluation(T, seed):
    """Over the whole horizon in (y, v), the affine capital and demand
    models give evaluate_plan's capital, inventory and effective demand."""
    rng = np.random.default_rng(seed)
    inst = _goodwill_loan_instance(rng, T)
    traj = evaluate_plan(inst, _random_plan(rng, inst))
    z = np.concatenate((traj.plan.y, traj.plan.v))
    Y, V = np.eye(T, 2 * T), np.eye(T, 2 * T, T)
    cap, cap0, _, _ = capital_affine(inst, 1, Y, V, traj.x, inst.B0)
    _assert_close(cap @ z + cap0, traj.B[1:])
    _assert_close(np.cumsum(Y - V, axis=0) @ z, traj.I[1:])
    # the plan's own survival pattern: a period dies when the shrink is < 0
    w_prev = np.append(0.0, traj.w[:-1])
    delta = (inst.d - inst.beta * w_prev >= 0).astype(int)
    ed, ed0, _, _ = demand_affine(inst, 1, T, 0.0, delta)
    _assert_close(ed @ traj.plan.v + ed0, traj.Ed)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_affine_capital_reproduces_a_round_window(T, seed):
    """In a round's layout, where each cycle's launch makes all the units
    its periods realize, the affine capital over the window in v gives
    evaluate_plan's capital, whether the loan is repaid at the window's
    first or last period, before it or after it."""
    rng = np.random.default_rng(seed)
    inst = _goodwill_loan_instance(rng, T)
    m, n = sorted(int(t) for t in rng.integers(1, T + 1, size=2))
    L = n - m + 1
    starts = sorted({0} | set(rng.integers(0, L, size=2).tolist()))
    v = rng.uniform(0.1, 60.0, L)
    Y = np.zeros((L, L))
    for a, b in zip(starts, starts[1:] + [L]):
        Y[a, a:b] = 1.0
    x = np.zeros(L, dtype=int)
    x[starts] = 1
    # the window enters without stock: each earlier period makes its sales
    v_all = _random_plan(rng, inst).v.copy()
    y_all = v_all.copy()
    y_all[m - 1 : n], v_all[m - 1 : n] = Y @ v, v
    before, after = range(1, m), range(n + 1, T + 1)
    for TL in [m, n] + [int(rng.choice(r)) for r in (before, after) if r]:
        loan = dataclasses.replace(inst, TL=TL)
        traj = evaluate_plan(loan, Plan(y_all, v_all))
        assert list(traj.x[m - 1 : n]) == list(x)
        cap, cap0, _, _ = capital_affine(loan, m, Y, np.eye(L), x, traj.B[m - 1])
        _assert_close(cap @ v + cap0, traj.B[m : n + 1])


class TestViolations:
    """Each constraint kind is reported on its own, and in a fixed order."""

    PLAN = Plan([70.0, 0.0, 20.0], [30.0, 40.0, 20.0])  # feasible, see above

    def _violations(self, inst, traj):
        return check_feasibility(inst, traj).violations

    def _broken(self, inst=None, **arrays):
        """The feasible plan's trajectory with some arrays bumped by +1."""
        inst = inst or make_instance()
        traj = evaluate_plan(inst, self.PLAN)
        assert check_feasibility(inst, traj).feasible
        bumped = {}
        for name, index in arrays.items():
            arr = np.array(getattr(traj, name), dtype=float)
            arr[index] += 1.0
            bumped[name] = arr
        return inst, dataclasses.replace(traj, **bumped)

    def test_c3_production_without_setup(self):
        # period 3 launches, but its setup flag is cleared; a free setup there
        # leaves the capital rows unchanged
        inst = make_instance(s=[100, 100, 0])
        traj = evaluate_plan(inst, self.PLAN)
        broken = dataclasses.replace(traj, x=np.array([1, 0, 0]))
        assert self._violations(inst, broken) == (("C3", 3, 20.0),)

    def test_c4_capital_sufficiency(self):
        # the launch costs 100 + 5 * 70 = 450 against 400 on hand; same-period
        # sales keep the end capital positive
        inst = make_instance(Bc=400.0)
        traj = evaluate_plan(inst, self.PLAN)
        assert self._violations(inst, traj) == (("C4", 1, 50.0),)

    def test_c4_end_capital(self):
        # 500 * 2**3 = 4000 falls due at the end of period 3, capital is 600
        inst = make_instance(Bc=100.0, BL=500.0, TL=3, r=1.0)
        traj = evaluate_plan(inst, Plan.null(3))
        assert self._violations(inst, traj) == (("C4", 3, 3400.0),)

    def test_c5_lost_sales_above_effective_demand(self):
        # 41 units lost against Ed = 40; without goodwill loss, lost sales
        # feed no later period
        inst = make_instance()
        traj = evaluate_plan(inst, self.PLAN)
        broken = dataclasses.replace(traj, w=traj.w + [0.0, 41.0, 0.0])
        assert self._violations(inst, broken) == (("C5", 2, 1.0),)

    def test_c6_inventory_balance(self):
        # final stock carries no holding cost, so only the balance breaks
        inst, traj = self._broken(make_instance(h=[1, 1, 0]), I=3)
        assert self._violations(inst, traj) == (("C6", 3, 1.0),)

    def test_c7_initial_capital(self):
        inst = make_instance()
        traj = evaluate_plan(inst, self.PLAN)
        poorer = dataclasses.replace(inst, Bc=499.0)
        assert self._violations(poorer, traj) == (("C7", 0, 1.0),)

    def test_c8_capital_balance(self):
        inst, traj = self._broken(B=3)
        assert self._violations(inst, traj) == (("C8", 3, 1.0),)

    def test_c9_effective_demand(self):
        inst, traj = self._broken(Ed=1)
        assert self._violations(inst, traj) == (("C9", 2, 1.0),)

    def test_c9_accepts_demand_shrunk_to_zero(self):
        # 30 units lost in period 1 wipe out period 2's demand of 10
        inst = make_instance(d=[30, 10, 20], beta=1.0)
        traj = evaluate_plan(inst, Plan.null(3))
        assert list(traj.Ed) == [30.0, 0.0, 20.0]
        assert self._violations(inst, traj) == ()
        broken = dataclasses.replace(traj, Ed=np.array([30.0, -1.0, 20.0]))
        assert self._violations(inst, broken) == (
            ("C5", 2, 1.0), ("C9", 2, 1.0), ("C15", 2, 1.0))

    def test_c14_negative_inventory(self):
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([10.0, 0, 0], [10.0, 5.0, 0]))
        assert self._violations(inst, traj) == (("C14", 2, 5.0), ("C14", 3, 5.0))

    def test_c15_negative_lost_sales(self):
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([50.0, 0, 0], [50.0, 0, 0]))
        assert self._violations(inst, traj) == (("C15", 1, 20.0),)

    def test_c14_initial_inventory(self):
        # one unit of stock throughout; free holding keeps capital balanced
        inst = make_instance(h=[0, 0, 0])
        traj = evaluate_plan(inst, self.PLAN)
        shifted = dataclasses.replace(traj, I=traj.I + 1.0)
        assert self._violations(inst, shifted) == (("C14", 0, 1.0),)

    def test_c15_negative_production(self):
        # one unit "unmade" in period 2 after one extra in period 1
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([71.0, -1.0, 20.0], [30.0, 40.0, 20.0]))
        assert self._violations(inst, traj) == (("C15", 2, 1.0),)

    def test_c15_negative_sales(self):
        # selling -1 books the unit as lost sales beyond demand (C5) unless
        # w is kept at the demand; nothing else ties w to v
        inst = make_instance()
        traj = evaluate_plan(inst, Plan([30.0, 0.0, 20.0], [30.0, -1.0, 20.0]))
        traj = dataclasses.replace(traj, w=np.array([0.0, 40.0, 0.0]))
        assert self._violations(inst, traj) == (("C15", 2, 1.0),)

    def test_order_across_kinds_and_periods(self):
        """Period 1: the launch costs 100 + 150 = 250 against B0 = 150 (C4).
        Period 2: 10 sold from no stock (C14, I = -10); Ed is bumped by 2
        (C9). Period 3: 25 sold against Ed = 20 (C15 on w = -5) from stock
        -10 (C14, I = -35)."""
        inst = make_instance(Bc=100.0, BL=50.0, TL=2, r=1.0)
        traj = evaluate_plan(inst, Plan([30.0, 0, 0], [30.0, 10.0, 25.0]))
        traj = dataclasses.replace(traj, Ed=traj.Ed + [0.0, 2.0, 0.0])
        assert self._violations(inst, traj) == (
            ("C4", 1, 100.0), ("C9", 2, 2.0), ("C14", 2, 10.0),
            ("C14", 3, 35.0), ("C15", 3, 5.0))
        # from period 2 on, only the later ones; period 1 is not looked at
        assert check_feasibility(inst, traj, start=2).violations == (
            ("C9", 2, 2.0), ("C14", 2, 10.0), ("C14", 3, 35.0), ("C15", 3, 5.0))
