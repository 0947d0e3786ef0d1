"""Exact oracle: guards, hand-checked optima, structure, references."""

import dataclasses
from itertools import count

import numpy as np
import pytest

from lotflow import (Instance, OracleGuardError, oracle,
                     check_feasibility, evaluate_plan, gen_random_small,
                     gen_table1, solve_exact, solve_frh)
from lotflow.lp import LpStatus, lp_solve
from lotflow.oracle import _delta_patterns, _node_lp, _pattern_lp, deviation

from helpers import enumerate_solve, equality_lp, milp_solve
from test_acceptance import CAPITAL_POINTS


def two_period_instance(Bc=500.0):
    return Instance(T=2, d=[30, 40], p=[21, 21], c=[5, 5], h=[1, 1],
                    s=[100, 100], Bc=Bc, beta=0.0)


class TestGuard:
    def test_horizon_guard(self):
        with pytest.raises(OracleGuardError):
            solve_exact(gen_table1(Bc=200))

    def test_guard_is_configurable(self):
        sol = solve_exact(gen_table1(Bc=200), max_T=12)
        assert sol.objective == pytest.approx(1891.3076923, rel=1e-6)


class TestHandExamples:
    def test_two_period_single_launch_wins(self):
        # producing 70 in period 1 saves one setup: 16*70 - 100 - 40 = 980
        # versus two launches at 16*70 - 200 = 920
        sol = solve_exact(two_period_instance(Bc=500.0))
        assert sol.objective == pytest.approx(980.0)
        assert list(sol.trajectory.x) == [1, 0]

    def test_tight_capital_forces_two_launches(self):
        # 400 affords at most 60 units up front, worth 15*60 - 70 = 830;
        # relaunching in period 2 serves everything for 16*70 - 200 = 920
        sol = solve_exact(two_period_instance(Bc=400.0))
        assert list(sol.trajectory.x) == [1, 1]
        assert sol.objective == pytest.approx(920.0)

    def test_nothing_profitable_returns_null_plan(self):
        inst = Instance(T=2, d=[10, 10], p=[1, 1], c=[5, 5], h=[1, 1],
                        s=[100, 100], Bc=500.0)
        sol = solve_exact(inst)
        assert sol.objective == 0.0
        assert not sol.trajectory.x.any()


class TestDeltaPatterns:
    def test_no_goodwill_single_pattern(self):
        # without goodwill loss a zero-demand period cannot die either
        zero_demand = Instance(T=4, d=[10, 0, 10, 0], p=[20] * 4, c=[5] * 4,
                               h=[1] * 4, s=[100] * 4, Bc=500.0, beta=0.0)
        for inst in (two_period_instance(), zero_demand):
            patterns = _delta_patterns(inst)
            assert len(patterns) == 1
            assert list(patterns[0]) == [1] * inst.T

    def test_goodwill_allows_dead_period(self):
        inst = Instance(T=2, d=[100, 10], p=[20, 20], c=[5, 5], h=[1, 1],
                        s=[100, 100], Bc=500.0, beta=1.0)
        patterns = {tuple(p) for p in _delta_patterns(inst)}
        assert patterns == {(1, 1), (1, 0)}

    def test_first_period_always_survives(self):
        inst = Instance(T=3, d=[50, 10, 10], p=[20] * 3, c=[5] * 3,
                        h=[1] * 3, s=[100] * 3, Bc=500.0, beta=1.0)
        for pattern in _delta_patterns(inst):
            assert pattern[0] == 1


class TestStructure:
    def test_objective_monotone_in_capital(self):
        values = [solve_exact(two_period_instance(Bc=bc)).objective
                  for bc in (100.0, 250.0, 400.0, 550.0)]
        assert values == sorted(values)

    def test_zero_inventory_ordering_constant_cost(self):
        for seed in range(10):
            inst = gen_random_small(seed=300 + seed, T=4, beta=0.0,
                                    constant_c=True)
            sol = solve_exact(inst)
            traj = sol.trajectory
            for t in range(inst.T - 1):
                assert traj.I[t + 1] * traj.plan.y[t + 1] <= 1e-7

    def test_solutions_always_feasible(self):
        for seed in range(15):
            inst = gen_random_small(seed=400 + seed, T=4,
                                    beta=float((seed % 3) * 0.25),
                                    with_loan=(seed % 2 == 0))
            sol = solve_exact(inst)
            assert check_feasibility(inst, sol.trajectory).feasible


class TestDeviation:
    def test_deviation_nonnegative_and_clamped(self):
        inst = gen_random_small(seed=12, T=4, beta=0.5)
        dev = deviation(inst)
        assert dev >= 0.0

    def test_deviation_zero_when_heuristic_optimal(self):
        inst = gen_random_small(seed=13, T=4, beta=0.0, constant_c=True)
        assert deviation(inst) <= 1e-9


BB_BETAS = (0.0, 0.5, 0.9, 1.0)


def _first_dying_draw(beta, T=5, seed=2100):
    """First seeded draw with a period whose demand can die."""
    for k in count(seed):
        inst = gen_random_small(seed=k, T=T, beta=beta, with_loan=k % 2 == 0)
        if len(_delta_patterns(inst)) > 1:
            return inst


# Every T in 2..8 and every beta appears with and without a loan. The
# reference costs 2^T x |patterns| LPs, so each (T, beta) pair is drawn once.
BB_DRAWS = [gen_random_small(seed=2000 + i, T=2 + i % 7, beta=BB_BETAS[i % 4],
                             with_loan=i >= 7) for i in range(14)]
BB_DRAWS += [_first_dying_draw(beta) for beta in BB_BETAS[1:]]
BB_IDS = [f"{i}-T{inst.T}-b{inst.beta:g}-{'loan' if inst.BL > 0 else 'noloan'}"
          for i, inst in enumerate(BB_DRAWS)]


class TestBranchAndBound:
    """The search returns the optimum that solving every pattern finds."""

    def test_draws_cover_horizons_betas_loans_and_dying_demand(self):
        cells = {(inst.T, inst.beta, inst.BL > 0) for inst in BB_DRAWS}
        for loan in (False, True):
            assert {T for T, _, L in cells if L == loan} == set(range(2, 9))
            assert {b for _, b, L in cells if L == loan} == set(BB_BETAS)
        dying = {inst.beta for inst in BB_DRAWS
                 if len(_delta_patterns(inst)) > 1}
        assert dying == set(BB_BETAS[1:])

    @pytest.mark.parametrize("inst", BB_DRAWS, ids=BB_IDS)
    def test_matches_enumeration(self, inst):
        ref = enumerate_solve(inst)
        sol = solve_exact(inst)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
        assert sol.degenerate == ref.degenerate
        assert check_feasibility(inst, sol.trajectory).feasible

    def test_setup_where_the_relaxation_idles(self):
        # without setup costs, period 2's cheap units serve its demand, so
        # the root LP idles in period 1; with them, producing early wins:
        # 200 - 10 - 5*10 - 1*10 = 130 against 200 - 100 - 1*10 = 90
        inst = Instance(T=2, d=[0, 10], p=[0, 20], c=[5, 1], h=[1, 1],
                        s=[10, 100], Bc=500.0)
        sol = solve_exact(inst)
        assert sol.objective == pytest.approx(130.0)
        assert list(sol.trajectory.x) == [1, 0]
        assert sol.objective == pytest.approx(enumerate_solve(inst).objective,
                                              rel=1e-9, abs=1e-9)

    def test_nothing_feasible_matches_enumeration(self):
        # the repayment of 150 after period 1 exceeds all 100 of capital,
        # so even idling is infeasible
        inst = Instance(T=2, d=[10, 10], p=[1, 1], c=[5, 5], h=[1, 1],
                        s=[100, 100], Bc=0.0, BL=100.0, TL=1, r=0.5)
        for sol in (enumerate_solve(inst), solve_exact(inst)):
            assert sol.objective == pytest.approx(-150.0)
            assert sol.degenerate

    @pytest.mark.parametrize("inst", BB_DRAWS, ids=BB_IDS)
    def test_one_cold_solve_per_pattern(self, inst, monkeypatch):
        # every node below a pattern's root re-solves from its parent's
        # tableau; a node solved cold again would show here
        solves = []

        def counted(prob, warm=None):
            solves.append(warm is None)
            return lp_solve(prob, warm=warm)

        monkeypatch.setattr(oracle, "lp_solve", counted)
        sol = solve_exact(inst)
        assert sum(solves) == len(_delta_patterns(inst))
        assert len(solves) == sol.lp_count

    def test_solves_fewer_lps_than_enumeration(self):
        inst = next(inst for inst in BB_DRAWS if inst.T == 8)
        sol = solve_exact(inst)
        assert sol.lp_count < 2 ** inst.T * len(_delta_patterns(inst))


def node_lp(inst, x, delta, k):
    """The LP of the search node (``k``, ``x``) of the survival pattern ``delta``."""
    return _node_lp(_pattern_lp(inst, delta), inst, x, k)


class TestNodeLp:
    """The oracle's node LP in (y, v) and the equality-form LP over
    (y, v, w, Ed, I, B) of the reference agree node for node."""

    @pytest.mark.parametrize("index", range(len(BB_DRAWS)), ids=BB_IDS)
    def test_matches_the_equality_form(self, index):
        inst = BB_DRAWS[index]
        T = inst.T
        rng = np.random.default_rng(index)
        for delta in _delta_patterns(inst):
            # the root, the all-off and all-on leaves, and random nodes
            nodes = [(0, np.zeros(T, dtype=int)), (T, np.zeros(T, dtype=int)),
                     (T, np.ones(T, dtype=int))]
            nodes += [(int(rng.integers(1, T + 1)), rng.integers(0, 2, T))
                      for _ in range(5)]
            for k, x in nodes:
                ours = lp_solve(node_lp(inst, x, delta, k))
                ref = lp_solve(equality_lp(inst, x, delta, k))
                assert ours.status is ref.status, (k, x, delta)
                if ref.status is LpStatus.OPTIMAL:
                    assert ours.objective_value == pytest.approx(
                        ref.objective_value, rel=1e-9, abs=1e-9), (k, x, delta)

    def test_node_simplex_path(self):
        # pinned from a solve of a leaf with y2 fixed off (hi = 0) and two
        # negative-rhs rows, so the dual simplex of phase 1 runs: a change
        # to the tableau or the pivot order shows here even where the
        # optimum stays the same
        inst = BB_DRAWS[7]
        assert BB_IDS[7] == "7-T2-b1-loan"
        sol = lp_solve(node_lp(inst, np.array([1, 0]), np.array([1, 1]), 2))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations == 5
        assert sol.x.tolist() == [float.fromhex(h) for h in (
            "0x1.c35dae95d528ap+7", "0x0.0p+0", "0x1.940f6047c1aa6p+7",
            "0x1.7a7272709bf1cp+4")]
        assert sol.objective_value == float.fromhex("0x1.c99ceb9630808p+10")

    def test_has_only_le_rows_over_two_columns_per_period(self):
        # per period: capital sufficiency, B >= 0, I >= 0, and v <= Ed as
        # a row where Ed depends on v; Ed1 and a dead period's Ed are
        # constants, so v's bounds, and a dead period adds its survival row
        draw = next(inst for inst in BB_DRAWS if inst.T == 8)
        assert len(_delta_patterns(draw)) > 1
        for beta in (0.0, draw.beta):
            inst = dataclasses.replace(draw, beta=beta)
            for delta in _delta_patterns(inst):
                prob = node_lp(inst, np.zeros(8, dtype=int), delta, 0)
                assert prob.n_vars == 16
                n_rows = 3 * 8 if beta == 0 else 4 * 8 - 1
                assert prob.rows.shape == (n_rows, 16)
                if beta == 0:
                    hi_v = inst.d
                else:
                    hi_v = np.where(delta == 1, np.inf, 0.0)
                    hi_v[0] = inst.d[0]
                np.testing.assert_array_equal(prob.hi[:8], np.inf)
                np.testing.assert_array_equal(prob.hi[8:], hi_v)


class TestMilpReference:
    """An independent big-M MILP (scipy/HiGHS) as a second exact reference."""

    def test_agrees_with_enumeration_oracle(self):
        pytest.importorskip("scipy.optimize")
        for seed in range(24):
            inst = gen_random_small(seed=700 + seed, T=2 + seed % 5,
                                    beta=(0.0, 0.5, 1.0)[seed % 3],
                                    with_loan=(seed % 4 == 0))
            value, _ = milp_solve(inst)
            assert value == pytest.approx(solve_exact(inst).objective,
                                          rel=1e-6, abs=1e-6)

    def test_big_m_admits_goodwill_wipeout(self):
        # 300 affords 40 of period 1's 100 units, worth 15*40 - 100 = 500;
        # the 60 lost units wipe out period 2's demand of 10, which
        # M_t = d_t would forbid, leaving the MILP with no feasible plan
        pytest.importorskip("scipy.optimize")
        inst = Instance(T=2, d=[100, 10], p=[20, 20], c=[5, 5], h=[1, 1],
                        s=[100, 100], Bc=300.0, beta=1.0)
        value, _ = milp_solve(inst)
        assert value == pytest.approx(500.0)
        assert value == pytest.approx(solve_exact(inst).objective)

    def test_capital_sweep_matches_milp(self):
        pytest.importorskip("scipy.optimize")
        for bc, expected in CAPITAL_POINTS:
            inst = gen_table1(Bc=bc)
            value, plan = milp_solve(inst)
            traj = evaluate_plan(inst, plan)
            assert check_feasibility(inst, traj).feasible
            assert abs(traj.objective - value) <= 1e-6
            assert abs(value - expected) <= 1.0, f"Bc={bc}: MILP {value}"
            if bc == 300:
                assert abs(value - solve_frh(inst).objective) <= 1e-6
