"""Production-round sub-LP cascade and round layouts."""

from dataclasses import replace

import numpy as np
import pytest

import lotflow.frh as frh
from lotflow import Instance, Plan, evaluate_plan, gen_random_small, gen_table1
from lotflow.lp import LpStatus, lp_solve
from lotflow.model import demand_affine
from lotflow.oracle import _delta_patterns, _pattern_lp
from lotflow.rounds import (FEASIBLE, INFEASIBLE, RoundSpec, build_psub1,
                            build_psub2, build_psub3, infer_deltas,
                            solve_round)


def single_period_instance():
    return Instance(T=1, d=[30], p=[21], c=[5], h=[1], s=[100], Bc=250.0)


def goodwill_instance():
    """Tight capital makes the all-demand-survives model infeasible."""
    return Instance(T=2, d=[100, 10], p=[30, 30], c=[1, 1], h=[1, 1],
                    s=[10, 10], Bc=60.0, beta=1.0)


class TestHandExamples:
    def test_single_cycle_bb(self):
        # sell 30 units at margin 16 minus one setup of 100
        spec = RoundSpec(n=1, cycle_starts=(1,), B_in=250.0)
        inst = single_period_instance()
        sol = solve_round(inst, spec)
        assert sol.status == FEASIBLE
        assert sol.BB == pytest.approx(380.0)
        assert sol.which_model == "sub1"
        assert sol.v == pytest.approx([30.0])
        assert sol.y == pytest.approx([30.0])
        assert evaluate_plan(inst, Plan(sol.y, sol.v)).B[1] == pytest.approx(630.0)

    def test_capital_caps_production(self):
        spec = RoundSpec(n=1, cycle_starts=(1,), B_in=200.0)
        sol = solve_round(single_period_instance(), spec)
        # only (200 - 100) / 5 = 20 units affordable
        assert sol.v == pytest.approx([20.0])
        assert sol.BB == pytest.approx(20 * 16 - 100)

    def test_setup_unaffordable_is_infeasible(self):
        spec = RoundSpec(n=1, cycle_starts=(1,), B_in=50.0)
        sol = solve_round(single_period_instance(), spec)
        # producing nothing still pays the setup, ending below zero capital
        assert sol.status == INFEASIBLE


class TestCascade:
    def test_sub1_infeasible_triggers_relaxation(self):
        inst = goodwill_instance()
        spec = RoundSpec(n=2, cycle_starts=(1,), B_in=60.0)
        assert lp_solve(build_psub1(inst, spec)).status is LpStatus.INFEASIBLE
        sol = solve_round(inst, spec)
        assert sol.status == FEASIBLE
        assert sol.which_model == "sub2+sub3"
        # capital affords 50 units in period 1; period 2's demand dies
        assert sol.v == pytest.approx([50.0, 0.0])

    def test_infer_deltas_flags_dead_period(self):
        inst = goodwill_instance()
        spec = RoundSpec(n=2, cycle_starts=(1,), B_in=60.0)
        assert list(infer_deltas(inst, spec, [50.0, 0.0])) == [1, 0]
        # serving everything keeps both periods alive
        assert list(infer_deltas(inst, spec, [100.0, 10.0])) == [1, 1]

    def test_sub3_matches_inferred_flags(self):
        inst = goodwill_instance()
        spec = RoundSpec(n=2, cycle_starts=(1,), B_in=60.0)
        sol2 = lp_solve(build_psub2(inst, spec))
        assert sol2.status is LpStatus.OPTIMAL
        deltas = infer_deltas(inst, spec, sol2.x)
        sol3 = lp_solve(build_psub3(inst, spec, deltas))
        assert sol3.status is LpStatus.OPTIMAL
        # the relaxation can only overestimate the pinned model
        assert sol3.objective_value <= sol2.objective_value + 1e-9

    def test_zero_beta_skips_relaxation(self):
        inst = Instance(T=2, d=[30, 40], p=[21, 21], c=[5, 5], h=[1, 1],
                        s=[100, 100], Bc=500.0, beta=0.0)
        spec = RoundSpec(n=2, cycle_starts=(1,), B_in=500.0)
        sol = solve_round(inst, spec)
        assert sol.status == FEASIBLE
        assert sol.lp_solves == 1


class TestRoundSolutionShape:
    def test_two_cycle_production_sums(self):
        inst = Instance(T=3, d=[30, 40, 20], p=[21, 21, 21], c=[5, 5, 5],
                        h=[1, 1, 1], s=[100, 100, 100], Bc=900.0, beta=0.5)
        spec = RoundSpec(n=3, cycle_starts=(1, 2), B_in=900.0)
        sol = solve_round(inst, spec)
        assert sol.status == FEASIBLE
        # production happens only at cycle launches, covering the cycle
        assert sol.y[0] == pytest.approx(sol.v[0])
        assert sol.y[1] == pytest.approx(sol.v[1] + sol.v[2])
        assert sol.y[2] == 0.0
        traj = evaluate_plan(inst, Plan(sol.y, sol.v))
        assert traj.B[3] == pytest.approx(spec.B_in + sol.BB)

    def test_spliced_plan_is_consistent(self):
        inst = Instance(T=3, d=[30, 40, 20], p=[21, 21, 21], c=[5, 5, 5],
                        h=[1, 1, 1], s=[100, 100, 100], Bc=900.0, beta=0.5)
        spec = RoundSpec(n=3, cycle_starts=(1, 2), B_in=900.0)
        sol = solve_round(inst, spec)
        traj = evaluate_plan(inst, Plan(sol.y, sol.v))
        assert traj.B[3] == pytest.approx(spec.B_in + sol.BB)
        # zero inventory at each cycle boundary
        assert abs(traj.I[1]) <= 1e-9
        assert abs(traj.I[3]) <= 1e-9

    def test_w_cap_constrains_exit_lost_sales(self):
        inst = Instance(T=2, d=[30, 40], p=[21, 21], c=[5, 5], h=[1, 1],
                        s=[100, 100], Bc=600.0, beta=0.5)
        spec = RoundSpec(n=2, cycle_starts=(1, 2), B_in=600.0)
        free = solve_round(inst, spec)
        capped = solve_round(inst, spec, w_cap=0.0)
        assert capped.status == FEASIBLE
        assert evaluate_plan(inst, Plan(capped.y, capped.v)).w[1] <= 1e-9
        assert capped.BB <= free.BB + 1e-9


class TestRoundLpLayout:
    """The round LPs written out by hand for one two-cycle round.

    Periods 1 | 2-3 form two cycles and the loan (BL=100, r=0.5) repays 225
    at the end of period 2. Capital after each period, in v = (v1, v2, v3):

        B1 = 1000 - 100 + (21 - 5) v1           = 900 + 16 v1
        B2 = B1 - 110 + 22 v2 - 6 (v2 + v3) - 2 v3 - 225
           = 565 + 16 v1 + 16 v2 - 8 v3
        B3 = B2 + 23 v3

    With beta = 0.5 and no lost sales entering, the effective demands are
    Ed1 = 30, Ed2 = 40 - 0.5 (30 - v1) = 25 + 0.5 v1 and
    Ed3 = 20 - 0.5 (Ed2 - v2) = 7.5 - 0.25 v1 + 0.5 v2.
    """

    inst = Instance(T=3, d=[30, 40, 20], p=[21, 22, 23], c=[5, 6, 7],
                    h=[1, 2, 3], s=[100, 110, 120], Bc=900.0, BL=100.0,
                    TL=2, r=0.5, beta=0.5)
    spec = RoundSpec(n=3, cycle_starts=(1, 2), B_in=1000.0)

    def test_psub1(self):
        prob = build_psub1(self.inst, self.spec)
        np.testing.assert_array_equal(prob.rows, [
            [5, 0, 0],         # launch 1: 5 v1 <= 1000 - 100
            [-16, 6, 6],       # launch 2: 6 (v2 + v3) <= B1 - 110
            [-16, 0, 0],       # B1 >= 0
            [-16, -16, 8],     # B2 >= 0
            [-16, -16, -15],   # B3 >= 0
            [-0.5, 1, 0],      # v2 <= Ed2
            [0.25, -0.5, 1],   # v3 <= Ed3
        ])
        np.testing.assert_array_equal(prob.rhs,
                                      [900, 790, 900, 565, 565, 25, 7.5])
        # only Ed1 is a constant, so v1 <= Ed1 is v1's bound and not a row
        np.testing.assert_array_equal(prob.hi, [30, np.inf, np.inf])
        np.testing.assert_array_equal(prob.objective, [16, 16, 15])
        assert prob.objective_offset == 565 - 1000

    def test_psub1_without_goodwill(self):
        # at beta = 0 every effective demand and every shrink is the
        # constant d, whatever the flags and the lost sales entering
        inst = replace(self.inst, beta=0.0)
        ed, ed0, shrink, shrink0 = demand_affine(inst, 1, 3, 12.0, [1, 0, 1])
        assert not ed.any() and not shrink.any()
        np.testing.assert_array_equal(ed0, inst.d)
        np.testing.assert_array_equal(shrink0, inst.d)
        # so every v <= Ed is a bound: L capital rows and one row per
        # launch remain
        prob = build_psub1(inst, self.spec)
        np.testing.assert_array_equal(prob.rows, [
            [5, 0, 0],
            [-16, 6, 6],
            [-16, 0, 0],
            [-16, -16, 8],
            [-16, -16, -15],
        ])
        np.testing.assert_array_equal(prob.rhs, [900, 790, 900, 565, 565])
        np.testing.assert_array_equal(prob.hi, inst.d)

    def test_psub1_simplex_path(self):
        # pinned from a solve: a change to the tableau or the pivot order
        # shows here even where the optimum stays the same
        sol = lp_solve(build_psub1(self.inst, self.spec))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations == 3
        assert sol.x.tolist() == [30.0, 40.0, 20.0]
        assert sol.objective_value == 985.0

    def test_psub3_dead_period(self):
        prob = build_psub3(self.inst, self.spec, [1, 1, 0])
        assert len(prob.rows) == 7
        np.testing.assert_array_equal(prob.rows[-2:], [
            [-0.5, 1, 0],      # v2 <= Ed2
            [-0.25, 0.5, 0],   # 20 - 0.5 w2 = 7.5 - 0.25 v1 + 0.5 v2 <= 0
        ])
        np.testing.assert_array_equal(prob.rhs[-2:], [25, -7.5])
        # a dead period's effective demand is zero: v3's bound, not a row
        np.testing.assert_array_equal(prob.hi, [30, np.inf, 0])

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("w_cap", [None, 3.0])
    def test_psub1_is_psub3_with_every_period_surviving(self, beta, w_cap):
        inst = replace(self.inst, beta=beta)
        for spec in (self.spec, RoundSpec(n=3, cycle_starts=(2,), B_in=400.0,
                                          w_in=12.0)):
            one = build_psub1(inst, spec, w_cap=w_cap)
            three = build_psub3(inst, spec, np.ones(spec.n - spec.m + 1),
                                w_cap=w_cap)
            for name in ("objective", "rows", "rhs", "hi"):
                np.testing.assert_array_equal(getattr(one, name),
                                              getattr(three, name))
            assert one.objective_offset == three.objective_offset


class TestGoodwillRowsMatchTheOracle:
    def test_window_from_period_one(self):
        # a round over the whole horizon, with no lost sales entering,
        # states the same goodwill rows, rhs and v bounds as the oracle's
        # pattern LP for every survival pattern the oracle lists
        T = 6
        for seed in range(300):
            inst = gen_random_small(seed, T, 0.9)
            spec = RoundSpec(n=T, cycle_starts=(1,), B_in=inst.B0)
            for delta in _delta_patterns(inst):
                rnd = build_psub3(inst, spec, delta)
                orc = _pattern_lp(inst, delta)
                # after the launch's capital row and the T capital rows of
                # the round; after capital sufficiency, capital and stock
                # rows of the oracle, which reads v from column T on
                np.testing.assert_array_equal(rnd.rows[1 + T:],
                                              orc.rows[3 * T:, T:])
                assert not orc.rows[3 * T:, :T].any()
                np.testing.assert_array_equal(rnd.rhs[1 + T:], orc.rhs[3 * T:])
                np.testing.assert_array_equal(rnd.hi, orc.hi[T:])


class TestEnumerateRoundSpecs:
    """The round layouts and entry states the FRH sends to ``solve_round``."""

    @staticmethod
    def sent_specs(inst, monkeypatch):
        """Run the FRH's recursion and adjustments, recording every spec.

        Returns ``(n, m, spec, base)`` per round: ``m`` is the new cycle's
        start in a recursion round and None in an adjust round, and ``base``
        the prefix the spec was built from.
        """
        sent = []

        def recording(inst, spec, w_cap=None):
            sent.append(spec)
            return solve_round(inst, spec, w_cap=w_cap)

        monkeypatch.setattr(frh, "solve_round", recording)
        runner = frh._Frh(inst)
        calls = []
        for n in range(1, inst.T + 1):
            bases = list(runner.prefixes)
            runner.step(n)
            # the recursion tries every round start m = 1..n in turn
            assert len(sent) == n
            calls += [(n, m, spec, bases[m - 1])
                      for m, spec in enumerate(sent, start=1)]
            sent.clear()
            cur = runner.prefixes[n]
            runner.adjust(n)
            calls += [(n, None, spec, cur) for spec in sent]
            sent.clear()
        for n, _, spec, base in calls:
            assert spec.n == n
            # the clamped capital and lost sales of the base before the round
            t0 = spec.cycle_starts[0]
            assert spec.B_in == max(0.0, float(base.traj.B[t0 - 1]))
            w_in = max(0.0, float(base.traj.w[t0 - 2])) if t0 >= 2 else 0.0
            assert spec.w_in == w_in
        return calls

    def test_zero_beta_single_cycle(self, monkeypatch):
        inst = gen_random_small(seed=11, T=8, beta=0.0)
        calls = self.sent_specs(inst, monkeypatch)
        assert len(calls) == inst.T * (inst.T + 1) // 2
        assert all(spec.cycle_starts == (m,) for _, m, spec, _ in calls)

    def test_goodwill_joins_nearest_previous_cycle(self, monkeypatch):
        calls = self.sent_specs(gen_table1(Bc=200), monkeypatch)
        joined = [(m, spec, base.last_round[0][-1])
                  for _, m, spec, base in calls
                  if m is not None and base.last_round is not None]
        assert joined
        # the base prefix's last launch, then the new cycle
        assert all(spec.cycle_starts == (last, m) for m, spec, last in joined)
        assert any(m is None for _, m, _, _ in calls)

    def test_goodwill_without_previous_cycle(self, monkeypatch):
        calls = self.sent_specs(gen_table1(Bc=200), monkeypatch)
        fresh = [(m, spec) for _, m, spec, base in calls
                 if m is not None and base.last_round is None]
        assert fresh
        assert all(spec.cycle_starts == (m,) for m, spec in fresh)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            RoundSpec(n=2, cycle_starts=(3,), B_in=100.0)


class TestSpecValidation:
    def test_negative_entry_state_rejected(self):
        with pytest.raises(ValueError):
            RoundSpec(n=2, cycle_starts=(1,), B_in=-1.0)


def test_relaxation_ordering_on_random_specs():
    """The v <= d relaxation never undershoots the all-survive model."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        T = int(rng.integers(2, 5))
        inst = Instance(T=T, d=rng.uniform(10, 60, T), p=rng.uniform(15, 25, T),
                        c=rng.uniform(4, 8, T), h=rng.uniform(0.5, 2, T),
                        s=rng.uniform(20, 80, T),
                        Bc=float(rng.uniform(200, 800)),
                        beta=float(rng.choice([0.1, 0.5, 1.0])))
        spec = RoundSpec(n=T, cycle_starts=(1,), B_in=inst.Bc)
        sol1 = lp_solve(build_psub1(inst, spec))
        sol2 = lp_solve(build_psub2(inst, spec))
        if sol1.status is LpStatus.OPTIMAL:
            assert sol2.status is LpStatus.OPTIMAL
            assert sol2.objective_value >= sol1.objective_value - 1e-7
