"""Domain model: instance validation, plan evaluation, feasibility checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lotflow import (Instance, InputError, Plan, TOL_FEAS, check_feasibility,
                     effective_demand, evaluate_plan, trajectory_to_csv)


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
        with pytest.raises(InputError):
            Instance.from_dict(data)

    def test_malformed_json(self):
        with pytest.raises(InputError):
            Instance.from_json("{not json")

    def test_loan_repayment_compounds(self):
        inst = make_instance(BL=300.0, TL=3, r=0.10)
        assert inst.repayment == pytest.approx(300.0 * 1.1**3)
        assert inst.B0 == pytest.approx(800.0)

    def test_no_loan_repayment_zero(self):
        assert make_instance().repayment == 0.0


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
