"""Forward-recursive heuristic: recursion, adjustments, and the post-pass."""

import numpy as np
import pytest

import lotflow.frh as frh
from lotflow import (Instance, Plan, check_feasibility, evaluate_plan,
                     gen_random_small, gen_table1, recurse, solve_exact,
                     solve_frh)
from lotflow.frh import Solution, _Frh, corollary2_postpass
from lotflow.rounds import solve_round


class TestRecursion:
    def test_single_period(self):
        inst = Instance(T=1, d=[30], p=[21], c=[5], h=[1], s=[100], Bc=250.0)
        sol = recurse(inst)
        assert sol.trajectory.B[1] == pytest.approx(630.0)
        assert sol.objective == pytest.approx(380.0)

    def test_unprofitable_period_stays_idle(self):
        inst = Instance(T=1, d=[30], p=[2], c=[5], h=[1], s=[100], Bc=250.0)
        sol = recurse(inst)
        assert sol.objective == 0.0
        assert not sol.trajectory.x.any()

    def test_b_star_is_monotone(self):
        # idling is always available, so best capital never decreases
        inst = gen_table1(Bc=200)
        runner = _Frh(inst)
        for n in range(1, inst.T + 1):
            runner.step(n)
        best = [float(pref.traj.B[n]) for n, pref in enumerate(runner.prefixes)]
        assert np.all(np.diff(best) >= -1e-9)

    def test_committed_plans_always_feasible(self):
        for seed in range(40, 50):
            inst = gen_random_small(seed=seed, T=5, beta=0.5)
            sol = solve_frh(inst)
            assert check_feasibility(inst, sol.trajectory).feasible


class TestAdjustments:
    def test_adjustments_never_hurt(self):
        for seed in range(60, 90):
            inst = gen_random_small(seed=seed, T=5, beta=0.5)
            plain = recurse(inst)
            full = solve_frh(inst)
            assert full.objective >= plain.objective - 1e-9

    def test_zero_beta_never_adjusts(self):
        inst = gen_random_small(seed=3, T=6, beta=0.0, constant_c=True)
        sol = solve_frh(inst)
        assert all(kind == "Cor2" for kind, _ in sol.adjustments)

    def test_first_cycle_split_recovers_capital_bound_plan(self):
        # one launch cannot afford both periods, two launches can; the plain
        # recursion already commits a round with cycles starting in periods
        # 1 and 2, so no adjustment fires
        inst = Instance(T=2, d=[100, 100], p=[20, 20], c=[10, 10],
                        h=[1, 1], s=[100, 100], Bc=1200.0, beta=0.5)
        sol = solve_frh(inst)
        exact = solve_exact(inst)
        assert sol.objective == pytest.approx(exact.objective, rel=1e-9)
        assert list(sol.trajectory.x) == [1, 1]
        assert sol.adjustments == []

    @pytest.mark.parametrize("seed, adjustments, plain, full", [
        (5041, [("Adj1", (1, 2, 3))], 553.2104, 595.1424),
        (5131, [("Adj2", (1, 2))], 1132.3527, 1757.2020),
    ])
    def test_each_family_improves_a_plan(self, seed, adjustments, plain, full):
        # Adj1 splits the first cycle of the round 1..3; Adj2 inserts a
        # period-1 cycle before the round that starts in period 2
        inst = gen_random_small(seed=seed, T=3, beta=0.5)
        sol = solve_frh(inst)
        assert sol.adjustments == adjustments
        assert sol.objective == pytest.approx(full, abs=1e-4)
        assert recurse(inst).objective == pytest.approx(plain, abs=1e-4)

    @pytest.mark.parametrize("inst, objective, lp_count, adjustments, x", [
        pytest.param(gen_table1(Bc=200), 1891.3076923076924, 83,
                     [("Adj1", (4, 8, 9)), ("Adj1", (9, 10, 11))],
                     [1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1], id="desk-Bc200"),
        pytest.param(gen_table1(Bc=300), 2354.6153846153848, 83,
                     [("Adj1", (4, 8, 9)), ("Adj1", (9, 10, 11))],
                     [1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1], id="desk-Bc300"),
        pytest.param(gen_table1(Bc=200, BL=300, TL=3, r=0.1),
                     1970.6999999999998, 85,
                     [("Adj1", (4, 8, 9)), ("Adj1", (9, 10, 11))],
                     [1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1], id="desk-loan"),
        pytest.param(gen_random_small(seed=11, T=8, beta=0.0),
                     12218.180894050343, 36, [],
                     [1, 1, 0, 1, 0, 1, 1, 0], id="random-beta0"),
        # far below the exact optimum 1177.71 (README, "Accuracy and cost")
        pytest.param(gen_random_small(seed=9182, T=6, beta=1.0, with_loan=True),
                     658.7772360696672, 26, [("Adj2", (2, 3))],
                     [0, 1, 1, 0, 1, 0], id="random-9182-loan"),
    ])
    def test_desk_instance_path(self, inst, objective, lp_count, adjustments,
                                x):
        # pins the round cascade, the accepted adjustments and the setups
        sol = solve_frh(inst)
        assert sol.objective == objective
        assert sol.lp_count == lp_count
        assert sol.adjustments == adjustments
        assert sol.trajectory.x.tolist() == x


class TestCorollary2Postpass:
    def test_hand_example_moves_ten_units(self):
        # moving dy units from the second launch to the first one gains
        # (c2 - c1 - h1) per unit; slack capital at t1 allows exactly 10
        inst = Instance(T=2, d=[20, 15], p=[30, 30], c=[5, 13], h=[1, 1],
                        s=[100, 100], Bc=250.0, beta=0.0)
        plan = Plan([20.0, 15.0], [20.0, 15.0])
        traj = evaluate_plan(inst, plan)
        assert check_feasibility(inst, traj).feasible
        base = Solution(trajectory=traj, objective=traj.objective)
        improved = corollary2_postpass(inst, base)
        # slack at t1: 250 - 100 - 5*20 = 50 -> dy = min(50/5, 15) = 10
        assert improved.trajectory.plan.y[0] == pytest.approx(30.0)
        assert improved.trajectory.plan.y[1] == pytest.approx(5.0)
        assert improved.objective == pytest.approx(traj.objective + 70.0)
        assert ("Cor2", (1, 2)) in improved.adjustments

    def test_no_move_when_later_cycle_cheaper(self):
        inst = Instance(T=2, d=[20, 15], p=[30, 30], c=[13, 5], h=[1, 1],
                        s=[100, 100], Bc=500.0, beta=0.0)
        plan = Plan([20.0, 15.0], [20.0, 15.0])
        base = Solution(trajectory=evaluate_plan(inst, plan),
                        objective=evaluate_plan(inst, plan).objective)
        improved = corollary2_postpass(inst, base)
        assert improved.objective == pytest.approx(base.objective)

    def test_realized_demand_untouched(self):
        inst = Instance(T=2, d=[20, 15], p=[30, 30], c=[5, 13], h=[1, 1],
                        s=[100, 100], Bc=250.0, beta=0.0)
        plan = Plan([20.0, 15.0], [20.0, 15.0])
        base = Solution(trajectory=evaluate_plan(inst, plan),
                        objective=evaluate_plan(inst, plan).objective)
        improved = corollary2_postpass(inst, base)
        assert improved.trajectory.plan.v == pytest.approx(plan.v)


class TestDegenerateRuns:
    def test_unpayable_loan_flags_degenerate(self):
        # repayment exceeds all attainable capital, so even idling violates
        # capital nonnegativity; the solver still returns a plan but says so
        inst = Instance(T=2, d=[1, 1], p=[1, 1], c=[1, 1], h=[1, 1],
                        s=[100, 100], Bc=0.0, BL=100.0, TL=1, r=10.0)
        sol = solve_frh(inst)
        assert sol.degenerate
        assert not check_feasibility(inst, sol.trajectory).feasible

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_rounds_after_a_degenerate_period_are_rejected(self, beta,
                                                            monkeypatch):
        """B0 = 100 and 100 * 2**2 = 400 falls due at the end of period 2.
        Period 1 sells 10 units made there: B1 = 100 + 100 - 5 - 10 = 185.
        No plan reaches 400 by period 2 (at best 100 - 25 + 200 = 275), so
        period 2 is committed degenerate with B2 = -215, and every later
        candidate inherits the shortfall. A round on a slot committed
        degenerate would copy it, so none is built there. The plan stays
        the period-1 round: objective -215 - 100 = -315."""
        inst = Instance(T=4, d=[10] * 4, p=[10] * 4, c=[1] * 4, h=[0] * 4,
                        s=[5] * 4, Bc=0.0, BL=100.0, TL=2, r=1.0, beta=beta)
        sent = []

        def recording(inst, spec, w_cap=None):
            sent.append(spec)
            return solve_round(inst, spec, w_cap=w_cap)

        monkeypatch.setattr(frh, "solve_round", recording)
        sol = solve_frh(inst)
        # a round on slot m - 1 launches its newest cycle at m; slots 2 and
        # 3 are committed degenerate, so only rounds on slots 0 and 1 remain
        assert sorted({(spec.cycle_starts[-1], spec.n) for spec in sent}) == [
            (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)]
        assert sol.degenerate
        assert sol.objective == -315.0
        assert list(sol.trajectory.plan.y) == [10.0, 0.0, 0.0, 0.0]
        assert check_feasibility(inst, sol.trajectory).violations == (
            ("C4", 2, 215.0), ("C4", 3, 215.0), ("C4", 3, 215.0),
            ("C4", 4, 215.0), ("C4", 4, 215.0))


class TestAgainstOracle:
    def test_optimal_on_constant_cost_no_goodwill(self):
        for seed in range(10):
            inst = gen_random_small(seed=seed, T=5, beta=0.0, constant_c=True)
            sol = solve_frh(inst)
            exact = solve_exact(inst)
            rel = abs(exact.objective - sol.objective) / max(1.0, abs(exact.objective))
            assert rel <= 1e-6

    def test_never_beats_the_oracle(self):
        for seed in range(30):
            inst = gen_random_small(seed=200 + seed, T=4,
                                    beta=float((seed % 3) * 0.25))
            sol = solve_frh(inst)
            exact = solve_exact(inst)
            assert sol.objective <= exact.objective + 1e-6


class TestLpBudget:
    def test_budgets_hold(self):
        for seed in range(20):
            T = 3 + seed % 4
            beta = 0.0 if seed % 2 == 0 else 0.5
            inst = gen_random_small(seed=700 + seed, T=T, beta=beta)
            sol = solve_frh(inst)
            # a round solves at most 3 LPs (1 without goodwill loss); see
            # criterion 7 for the 6n - 3 bound per period with goodwill loss
            cap = T * (T + 1) // 2 if beta == 0 else 6 * T * (T + 1) // 2
            assert sol.lp_count <= cap

    def test_diagnostics_roundtrip(self):
        inst = gen_table1(Bc=200)
        sol = solve_frh(inst)
        diag = sol.diagnostics()
        assert diag["objective"] == pytest.approx(sol.objective)
        assert diag["lp_count"] == sol.lp_count
        assert isinstance(diag["adjustments"], list)
