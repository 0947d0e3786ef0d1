"""Tests of the benchmark's own code: generation, span arithmetic, checks."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lotflow.frh import Solution, solve_frh  # noqa: E402
from lotflow.generators import gen_random_small  # noqa: E402
from lotflow.model import Plan, evaluate_plan  # noqa: E402

REFERENCES = HERE / "references.json"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_repeats_for_a_seed(workload):
    first = workloads.make_cases(workload, 11)
    again = workloads.make_cases(workload, 11)
    other = workloads.make_cases(workload, 12)
    assert [c.name for c in first] == [c.name for c in again]
    assert ([workloads.digest(c.inst) for c in first]
            == [workloads.digest(c.inst) for c in again])
    assert ([workloads.digest(c.inst) for c in first]
            != [workloads.digest(c.inst) for c in other])
    assert (workloads.digest(workloads.make_warmup(workload, 11))
            == workloads.digest(workloads.make_warmup(workload, 11)))


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("frh.solve_frh", 0, 100, -1, 0),
        ("rounds.solve_round", 10, 40, 0, 0),
        ("lp.lp_solve", 15, 25, 1, 0),
        ("model.evaluate_plan", 50, 70, 0, 0),
        # overlapping siblings: the covered time is their union, 50..80
        ("model.check_feasibility", 60, 80, 0, 0),
        ("model.check_feasibility", 52, 58, 0, 0),
        ("frh.corollary2_postpass", 85, 95, 0, 0),
        ("model.evaluate_plan", 88, 90, 6, 0),
    ]
    assert tracer.self_times(spans) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 6, 8, 2]
    layers = tracer.layer_metrics(spans, Counter({"lp.calls": 1}))
    assert layers["lp.self_s"] == pytest.approx(10e-9)
    assert layers["rounds.self_s"] == pytest.approx(20e-9)
    assert layers["model.evaluate_s"] == pytest.approx(22e-9)
    assert layers["frh.self_s"] == pytest.approx(38e-9)
    assert layers["frh.postpass_s"] == pytest.approx(8e-9)
    assert layers["lp.us_per_call"] == pytest.approx(10e-3)


def _case():
    return workloads.Case("small", gen_random_small(5, 6, 0.5, with_loan=True))


def _infeasible_solver(inst):
    # produce far more than the starting capital pays for
    y = np.zeros(inst.T)
    y[0] = 10 * inst.B0 / inst.c[0]
    traj = evaluate_plan(inst, Plan(y, np.zeros(inst.T)))
    return Solution(trajectory=traj, objective=traj.objective)


def _raising_solver(inst):
    raise RuntimeError("injected")


def _wrong_objective_solver(inst):
    sol = solve_frh(inst)
    return Solution(trajectory=sol.trajectory, objective=sol.objective + 1.0)


@pytest.mark.parametrize("solver, reason", [
    (_raising_solver, "raised RuntimeError"),
    (_infeasible_solver, "infeasible plan"),
    (_wrong_objective_solver, "objective does not match"),
])
def test_bad_solvers_count_as_failed(solver, reason):
    case = _case()
    records = harness.run_pass(solver, [case, case], {})
    assert [r.failure is not None for r in records] == [True, True]
    assert reason in records[0].failure
    assert harness.end_to_end([records])["solves_per_s"] == 0.0


def test_reference_mismatch_counts_as_failed():
    case = _case()
    good = harness.run_pass(solve_frh, [case], {})[0]
    assert good.failure is None
    bad = harness.run_pass(solve_frh, [case], {"small": good.objective + 1e-3})
    assert "differs from reference" in bad[0].failure
    changed = harness.run_pass(solve_frh, [case], {"small": "changed"})
    assert "differs from the one" in changed[0].failure


def test_traced_pass_counts_match_the_solver():
    case = workloads.Case("small", gen_random_small(3, 6, 0.5))
    run = harness.traced_passes(solve_frh, "frh", [case], {}, seconds=0.0)
    layers, repeated = harness.per_layer(run)
    sol = solve_frh(case.inst)
    assert repeated
    assert layers["frh.lp_count"] == layers["lp.calls"] == sol.lp_count
    assert layers["rounds.build_calls"] == layers["lp.calls"]
    assert layers["oracle.lp_calls"] == 0
    # the layer self times add up to the solve's wall time
    spans = run.spans[0]
    root = spans[0]
    assert root[0] == "frh.solve_frh" and root[3] == -1
    total = sum(layers[name] for name, unit in tracer.LAYER_UNITS.items()
                if unit == "s" and name not in ("rounds.build_s", "frh.postpass_s"))
    assert total == pytest.approx((root[2] - root[1]) * 1e-9, rel=1e-6)
    # the wrappers are gone once the traced pass is over
    import lotflow.frh
    import lotflow.rounds
    assert lotflow.frh.solve_round is lotflow.rounds.solve_round


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_held_out_seed_runs_clean(workload):
    cases = workloads.make_cases(workload, harness.HELD_OUT_SEED)
    expected = harness.load_references(REFERENCES, workload,
                                       harness.HELD_OUT_SEED, cases)
    assert sorted(expected) == sorted(c.name for c in cases)
    wl = workloads.WORKLOADS[workload]
    # one replicate keeps the test short; a benchmark run checks them all
    cases = cases[:len(wl.specs)]
    records = harness.run_pass(wl.solver(), cases, expected)
    assert [r.failure for r in records] == [None] * len(cases)
