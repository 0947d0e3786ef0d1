"""Command-line interface: artifacts, exit codes, report aggregation."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from lotflow import (Instance, Plan, check_feasibility, evaluate_plan,
                     gen_table1, oracle)
from lotflow.cli import main
from lotflow.lp import LpStatus


# a three-period instance with a loan, as read from an instance file
LOAN_INSTANCE = {"T": 3, "d": [30, 40, 20], "p": [21, 21, 21], "c": [5, 5, 5],
                 "h": [1, 1, 1], "s": [100, 100, 100], "Bc": 200.0,
                 "BL": 300.0, "TL": 2, "r": 0.05, "beta": 0.5}


# found by the exit-code property test below: one unit of demand in period 2
# and a holding cost of 2**-24 in period 5
TINY_HOLDING_COST = {"T": 5, "d": [0, 1, 0, 0, 0], "p": [0, 3, 0, 0, 0],
                     "c": [1] * 5, "h": [0, 0, 0, 0, 2.0**-24], "s": [0] * 5,
                     "Bc": 402.0}


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(inst.to_json(), encoding="utf-8")
    return path


class TestSolve:
    def test_frh_writes_artifacts(self, tmp_path):
        path = write_instance(tmp_path, gen_table1(Bc=200))
        out = tmp_path / "out"
        code = main(["solve", "--engine", "frh", "--in", str(path),
                     "--out", str(out)])
        assert code == 0
        traj_csv = out / "inst_frh_trajectory.csv"
        diag_json = out / "inst_frh_diagnostics.json"
        assert traj_csv.exists() and diag_json.exists()
        diag = json.loads(diag_json.read_text(encoding="utf-8"))
        assert diag["objective"] == pytest.approx(1891.3076923, rel=1e-6)
        lines = traj_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,x,y,v,Ed,w,I,B"
        assert lines[-1].startswith("objective,")

    def test_oracle_guard_exit_code(self, tmp_path):
        path = write_instance(tmp_path, gen_table1(Bc=200))
        code = main(["solve", "--engine", "oracle", "--in", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_malformed_instance_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        code = main(["solve", "--engine", "frh", "--in", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("fields", [
        {"T": "x"},
        {"d": ["a", 40, 20]},
        {"Bc": math.nan},
        {"Bc": math.inf},
        {"r": 1e308},
        {"Bc": 1e308, "BL": 1e308},
        {"T": 3.7},
        {"TL": 1.9},
    ], ids=repr)
    def test_invalid_field_exit_code(self, tmp_path, fields):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**LOAN_INSTANCE, **fields}), encoding="utf-8")
        code = main(["solve", "--engine", "frh", "--in", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("field, engine", [
        ("p", "frh"), ("p", "oracle"), ("h", "oracle")])
    def test_overflowing_input_exit_code(self, tmp_path, field, engine):
        # vectors of 1e308 overflow the LP rows: a nonfinite rhs is an input
        # error, NaN pivots a numerical failure, never an uncaught exception
        inst = {"T": 3, "d": [30, 40, 50], "p": [21] * 3, "c": [5] * 3,
                "h": [1] * 3, "s": [100] * 3, "Bc": 500.0, field: [1e308] * 3}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst), encoding="utf-8")
        with np.errstate(all="ignore"):
            code = main(["solve", "--engine", engine, "--in", str(path),
                         "--out", str(tmp_path / "out")])
        assert code in (2, 4)

    def test_oracle_solves_the_tiny_holding_cost_instance(self, tmp_path):
        # h = 2**-24 once drew a phase-1 pivot that left an equality-form
        # node LP's point 1e-6 off its inventory row; the optimum is the
        # heuristic's 2.0, with a plan that passes the feasibility check
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(TINY_HOLDING_COST), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["solve", "--engine", "oracle", "--in", str(path),
                     "--out", str(out)])
        assert code == 0
        inst = Instance.from_dict(TINY_HOLDING_COST)
        plan, objective = _load_plan(out / "inst_oracle_trajectory.csv")
        traj = evaluate_plan(inst, plan)
        assert objective == traj.objective == pytest.approx(2.0, rel=1e-12)
        assert check_feasibility(inst, traj).feasible

    def test_oracle_plan_off_its_rows_exit_code(self, tmp_path, monkeypatch):
        # an LP point 1e-5 off its own rows re-evaluates to a plan that
        # fails the feasibility check: no optimum of the model, exit 4
        solve = oracle.lp_solve

        def off_rows(*args, **kwargs):
            sol = solve(*args, **kwargs)
            if sol.status is LpStatus.OPTIMAL:
                sol.x[TINY_HOLDING_COST["T"] + 1] += 1e-5  # v of period 2
            return sol

        monkeypatch.setattr(oracle, "lp_solve", off_rows)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(TINY_HOLDING_COST), encoding="utf-8")
        code = main(["solve", "--engine", "oracle", "--in", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 4

    def test_integral_float_horizon_accepted(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**LOAN_INSTANCE, "T": 3.0}), encoding="utf-8")
        code = main(["solve", "--engine", "frh", "--in", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_missing_file_exit_code(self, tmp_path):
        code = main(["solve", "--engine", "frh",
                     "--in", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2


class TestSweep:
    def test_capital_sweep_layout(self, tmp_path):
        out = tmp_path / "capital.csv"
        assert main(["sweep", "--kind", "capital", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open(encoding="utf-8")))
        assert [float(r["x"]) for r in rows] == [50, 150, 200, 250, 300, 350, 400]
        objs = [float(r["objective"]) for r in rows]
        assert objs == sorted(objs)  # more capital never hurts
        assert objs[2] == pytest.approx(1891.3076923, rel=1e-6)

    def test_interest_sweep_layout(self, tmp_path):
        out = tmp_path / "interest.csv"
        assert main(["sweep", "--kind", "interest", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open(encoding="utf-8")))
        assert [float(r["x"]) for r in rows] == [
            0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
        objs = [float(r["objective"]) for r in rows]
        assert all(a > b for a, b in zip(objs, objs[1:]))
        ref = {float(r["no_loan_objective"]) for r in rows}
        assert len(ref) == 1
        assert ref.pop() == pytest.approx(1891.3076923, rel=1e-6)


class TestGen:
    def test_table1_roundtrip(self, tmp_path):
        out = tmp_path / "inst"
        assert main(["gen", "--scheme", "table1", "--seed", "1",
                     "--bc", "200", "--out", str(out)]) == 0
        files = list(out.glob("*.json"))
        assert len(files) == 1
        from lotflow import Instance
        inst = Instance.from_json(files[0].read_text(encoding="utf-8"))
        assert inst.to_dict() == gen_table1(Bc=200).to_dict()

    def test_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["gen", "--scheme", "table2", "--seed", "9",
                         "--index", "5", "--out", str(out)]) == 0
        [fa] = sorted(out_a.glob("*.json"))
        [fb] = sorted(out_b.glob("*.json"))
        assert fa.name == fb.name
        assert fa.read_bytes() == fb.read_bytes()

    def test_grid_file_count(self, tmp_path):
        out = tmp_path / "grid"
        assert main(["gen", "--scheme", "table5", "--seed", "3",
                     "--index", "17", "--out", str(out)]) == 0
        files = list(out.glob("table5-0017-*.json"))
        assert len(files) == 1


    @pytest.mark.parametrize("index", ["5000", "-1"])
    def test_index_outside_grid_rejected(self, tmp_path, index):
        out = tmp_path / "inst"
        assert main(["gen", "--scheme", "table2", "--seed", "1",
                     "--index", index, "--out", str(out)]) == 2
        assert not list(out.glob("*.json"))


class TestBench:
    def test_small_benchmark_report(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--scheme", "table2", "--seed", "4",
                     "--max-cases", "6", "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "report.csv").open(encoding="utf-8")))
        assert len(rows) == 6
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["scheme"] == "table2"
        assert summary["cases"] == 6
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("max_cases", ["0", "-3"])
    def test_max_cases_below_one_rejected(self, tmp_path, max_cases):
        out = tmp_path / "bench"
        assert main(["bench", "--scheme", "table2", "--seed", "4",
                     "--max-cases", max_cases, "--out", str(out)]) == 2
        assert not out.exists()

    def test_oracle_skipped_beyond_guard(self, tmp_path):
        # the bundled grids use T >= 12, above the default enumeration cap,
        # so the oracle column stays empty instead of stalling the run
        out = tmp_path / "bench"
        assert main(["bench", "--scheme", "table5", "--seed", "4",
                     "--max-cases", "2", "--oracle", "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "report.csv").open(encoding="utf-8")))
        assert all(r["oracle_objective"] in ("", None) for r in rows)
        # a table5 row carries its factor levels, and the summary pivots on them
        from lotflow.cli import RunReport
        from lotflow.generators import TABLE5_FACTORS
        assert list(rows[0]) == list(RunReport.ROW_FIELDS + TABLE5_FACTORS)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        cases = dict.fromkeys(TABLE5_FACTORS, 0)
        for cell in summary["pivot"]:
            cases[cell["group"].split("=")[0]] += cell["cases"]
        assert cases == dict.fromkeys(TABLE5_FACTORS, len(rows))

    def test_bench_row_includes_oracle_when_small(self):
        from lotflow import gen_random_small
        from lotflow.cli import _bench_one
        inst = gen_random_small(seed=8, T=4, beta=0.5)
        row = _bench_one(0, inst, {}, True, 8)
        assert row["oracle_objective"] is not None
        assert row["deviation"] >= 0.0
        assert row["error"] is None

    def test_bench_row_records_lp_input_error(self):
        from lotflow.cli import _bench_one
        inst = Instance(T=3, d=[30, 40, 50], p=[1e308] * 3, c=[5] * 3,
                        h=[1] * 3, s=[100] * 3, Bc=500.0)
        with np.errstate(all="ignore"):
            row = _bench_one(0, inst, {}, False, 8)
        assert row["error"].startswith("LpError")

    def test_aggregates_match_rows(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--scheme", "table2", "--seed", "4",
                     "--max-cases", "9", "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "report.csv").open(encoding="utf-8")))
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        total = sum(cell["cases"] for cell in summary["pivot"])
        assert total == len(rows)
        degenerate = sum(row["degenerate"] == "True" for row in rows)
        assert sum(cell["degenerate"] for cell in summary["pivot"]) == degenerate
        with (out / "summary.csv").open(encoding="utf-8") as fh:
            fields = csv.DictReader(fh).fieldnames
        assert {"degenerate", "mean_oracle_time"} <= set(fields)

        assert sum(cell["errors"] for cell in summary["pivot"]) == 0
        # without --oracle no row has an oracle time, and no group a mean
        assert all(row["oracle_time"] == "" for row in rows)
        assert all(cell["mean_oracle_time"] is None for cell in summary["pivot"])

        # a run whose loan cannot be repaid and one whose LP input overflows
        # are each counted in their group; only the first runs the oracle
        from lotflow import gen_random_small
        from lotflow.cli import RunReport, _bench_one
        unpayable = Instance(T=2, d=[1, 1], p=[1, 1], c=[1, 1], h=[1, 1],
                             s=[100, 100], Bc=0.0, BL=100.0, TL=1, r=10.0)
        overflowing = Instance(T=2, d=[30, 40], p=[1e308] * 2, c=[5] * 2,
                               h=[1] * 2, s=[100] * 2, Bc=500.0)
        report = RunReport(scheme="table2")
        with np.errstate(all="ignore"):
            for idx, inst in enumerate([unpayable, overflowing,
                                        gen_random_small(seed=3, T=2, beta=0.0)]):
                report.add(**_bench_one(idx, inst, {}, idx == 0, 8))
        assert [row["degenerate"] for row in report.rows] == [True, None, False]
        oracle_time = report.rows[0]["oracle_time"]
        assert oracle_time > 0.0
        assert [row["oracle_time"] for row in report.rows[1:]] == [None, None]
        [cell] = report.summaries()
        assert (cell["group"], cell["cases"], cell["degenerate"],
                cell["errors"]) == ("T=2", 3, 1, 1)
        # the failed solve has no time; the mean covers the other two
        ok = [report.rows[0]["frh_time"], report.rows[2]["frh_time"]]
        assert cell["mean_frh_time"] == pytest.approx(sum(ok) / 2)
        # the oracle's mean covers the one row that ran it
        assert cell["mean_oracle_time"] == oracle_time
        out = tmp_path / "failed"
        report.write(out)
        text = (out / "summary.json").read_text(encoding="utf-8")

        def no_constant(name):
            raise ValueError(f"summary.json holds {name}")

        assert json.loads(text, parse_constant=no_constant)["pivot"][0]["errors"] == 1
        with (out / "summary.csv").open(encoding="utf-8") as fh:
            assert [row["errors"] for row in csv.DictReader(fh)] == ["1"]

        # with no successful solve in a group the mean time is null
        failed = RunReport(scheme="table2")
        failed.add(**report.rows[1])
        assert failed.summaries()[0]["mean_frh_time"] is None
        assert failed.summaries()[0]["mean_oracle_time"] is None


# field values that no instance accepts, mixed in with valid small ones
_JUNK = st.sampled_from(["x", "", None, math.nan, math.inf, -math.inf, -1.0,
                         -1e308, 1e308, 1e300, [], {}, [1.0], True])


def _valid_vector(T, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=T, max_size=T)


@st.composite
def _instance_objects(draw):
    T = draw(st.integers(1, 6))
    valid = {
        "d": _valid_vector(T, 0.0, 100.0), "p": _valid_vector(T, 0.0, 40.0),
        "c": _valid_vector(T, 0.5, 20.0), "h": _valid_vector(T, 0.0, 5.0),
        "s": _valid_vector(T, 0.0, 300.0), "Bc": st.floats(0.0, 2000.0),
        "BL": st.floats(0.0, 500.0), "TL": st.integers(1, T),
        "r": st.floats(0.0, 0.5), "beta": st.floats(0.0, 1.0),
    }
    broken = draw(st.sets(st.sampled_from(["T", *valid]), max_size=3))
    obj = {"T": draw(_JUNK) if "T" in broken else T}
    for name, strategy in valid.items():
        kind = draw(st.sampled_from(("junk", "length", "missing"))) \
            if name in broken else "valid"
        if kind == "valid":
            obj[name] = draw(strategy)
        elif kind == "junk":
            obj[name] = draw(_JUNK)
        elif kind == "length":
            obj[name] = draw(st.lists(st.floats(0.0, 100.0), max_size=T + 2))
    return obj


def _load_plan(path):
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    y = [float(row[2]) for row in rows[:-1]]
    v = [float(row[3]) for row in rows[:-1]]
    return Plan(y, v), float(rows[-1][1])


@settings(max_examples=150, deadline=None)
@given(_instance_objects(), st.sampled_from(("frh", "oracle")), st.integers(4, 8))
def test_any_instance_object_keeps_the_exit_code_contract(obj, engine, max_T):
    """Any JSON object exits 0, 2, 3 or 4, and every plan written with exit 0
    re-evaluates to its objective and passes the feasibility check unless
    the run says it is degenerate."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out = Path(tmp) / "out"
        with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--engine", engine, "--in", str(path),
                         "--out", str(out), "--max-T", str(max_T)])
        assert code in (0, 2, 3, 4)
        event(f"exit {code}")
        if code != 0:
            return
        inst = Instance.from_dict(obj)
        plan, objective = _load_plan(out / f"inst_{engine}_trajectory.csv")
        traj = evaluate_plan(inst, plan)
        assert traj.objective == objective
        diag = json.loads((out / f"inst_{engine}_diagnostics.json").read_text(encoding="utf-8"))
        if not diag["degenerate"]:
            assert check_feasibility(inst, traj).feasible
