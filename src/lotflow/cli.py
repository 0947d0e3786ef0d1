"""Command-line front end: solve, sweep, bench, gen.

Exit codes: 0 success, 2 input/parse error, 3 oracle horizon guard error,
4 numerical failure inside the LP solver.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .frh import Solution, solve_frh
from .generators import (TABLE5_FACTORS, gen_table1, gen_table2, gen_table5,
                         grid_table2, grid_table5, instance_filename)
from .lp import LpError, LpNumericalError
from .model import Instance, InputError, trajectory_to_csv
from .oracle import MAX_T, OracleGuardError, relative_gap, solve_exact

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_NUMERICAL = 4

CAPITAL_SWEEP_BC = (50, 150, 200, 250, 300, 350, 400)
INTEREST_SWEEP_R = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
# the config grid and the instance generator of each benchmark scheme
SCHEMES = {"table2": (grid_table2, gen_table2),
           "table5": (grid_table5, gen_table5)}

_DEV_TOL = 1e-6


@dataclass
class RunReport:
    """Per-instance rows plus recomputable aggregate statistics."""

    scheme: str
    rows: list = field(default_factory=list)

    ROW_FIELDS = ("instance_id", "T", "beta", "frh_objective", "oracle_objective",
                  "deviation", "frh_time", "oracle_time", "lp_count", "degenerate",
                  "error")

    def add(self, **kwargs):
        """Keep the row fields of ``kwargs``; a table5 row also keeps its levels."""
        fields = self.ROW_FIELDS + (TABLE5_FACTORS if self.scheme == "table5" else ())
        self.rows.append({k: kwargs.get(k) for k in fields})

    def aggregate(self, group_key) -> list:
        groups: dict = {}
        for row in self.rows:
            groups.setdefault(group_key(row), []).append(row)
        out = []
        for key in sorted(groups):
            rows = groups[key]
            devs = [r["deviation"] for r in rows if r["deviation"] is not None]
            times = [r["frh_time"] for r in rows if r["error"] is None]
            oracle_times = [r["oracle_time"] for r in rows
                            if r["oracle_time"] is not None and r["error"] is None]
            out.append({
                "group": key,
                "cases": len(rows),
                "degenerate": sum(1 for r in rows if r["degenerate"]),
                "errors": sum(1 for r in rows if r["error"] is not None),
                "non_optimal": sum(1 for dv in devs if dv > _DEV_TOL),
                "mean_deviation": float(np.mean(devs)) if devs else None,
                "max_deviation": float(np.max(devs)) if devs else None,
                "mean_frh_time": float(np.mean(times)) if times else None,
                "mean_oracle_time": (float(np.mean(oracle_times))
                                     if oracle_times else None),
            })
        return out

    def summaries(self) -> list:
        if self.scheme == "table2":
            return self.aggregate(lambda r: f"T={r['T']}")
        # table5: pivot per parameter level
        return [agg for param in TABLE5_FACTORS
                for agg in self.aggregate(lambda r, p=param: f"{p}={r[p]}")]

    def write(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(self.rows[0].keys()))
            writer.writeheader()
            writer.writerows(self.rows)
        summary = {"scheme": self.scheme, "cases": len(self.rows),
                   "pivot": self.summaries()}
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2), encoding="utf-8")
        with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(summary["pivot"][0]))
            writer.writeheader()
            writer.writerows(summary["pivot"])


def _solution_files(sol: Solution, out_dir: Path, stem: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}_trajectory.csv").write_text(
        trajectory_to_csv(sol.trajectory), encoding="utf-8")
    (out_dir / f"{stem}_diagnostics.json").write_text(
        json.dumps(sol.diagnostics(), indent=2), encoding="utf-8")


def cmd_solve(args) -> int:
    path = Path(args.infile)
    inst = Instance.from_json(path.read_text(encoding="utf-8"))
    if args.engine == "frh":
        sol = solve_frh(inst)
    else:
        sol = solve_exact(inst, max_T=args.max_T)
    _solution_files(sol, Path(args.out), path.stem + f"_{args.engine}")
    print(f"objective={sol.objective:.6f} lp_count={sol.lp_count}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if args.kind == "capital":
            writer.writerow(["x", "objective"])
            for bc in CAPITAL_SWEEP_BC:
                sol = solve_frh(gen_table1(Bc=bc))
                writer.writerow([bc, repr(float(sol.objective))])
        else:
            no_loan = solve_frh(gen_table1(Bc=200)).objective
            writer.writerow(["x", "objective", "no_loan_objective"])
            for r in INTEREST_SWEEP_R:
                sol = solve_frh(gen_table1(Bc=200, BL=300, TL=3, r=r))
                writer.writerow([r, repr(float(sol.objective)),
                                 repr(float(no_loan))])
    print(f"wrote {out}")
    return EXIT_OK


def _bench_one(idx: int, inst: Instance, cfg_fields: dict, run_oracle: bool,
               oracle_max_t: int) -> dict:
    row = {**cfg_fields, **dict.fromkeys(RunReport.ROW_FIELDS), "instance_id": idx,
           "T": inst.T, "beta": inst.beta, "frh_time": float("nan")}
    try:
        start = time.perf_counter()
        sol = solve_frh(inst)
        row["frh_time"] = time.perf_counter() - start
        row["frh_objective"] = sol.objective
        row["lp_count"] = sol.lp_count
        row["degenerate"] = sol.degenerate
        if run_oracle and inst.T <= oracle_max_t:
            start = time.perf_counter()
            exact = solve_exact(inst, max_T=oracle_max_t)
            row["oracle_time"] = time.perf_counter() - start
            row["oracle_objective"] = exact.objective
            row["deviation"] = relative_gap(exact.objective, sol.objective)
    except (LpNumericalError, LpError, InputError, OracleGuardError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_bench(args) -> int:
    if args.max_cases is not None and args.max_cases < 1:
        raise InputError(f"--max-cases must be >= 1, got {args.max_cases}")
    make_grid, gen = SCHEMES[args.scheme]
    configs = make_grid(args.seed)
    if args.max_cases is not None:
        configs = configs[: args.max_cases]
    report = RunReport(scheme=args.scheme)
    for idx, cfg in enumerate(configs):
        report.add(**_bench_one(idx, gen(cfg), dict(cfg.__dict__), args.oracle,
                                args.oracle_max_T))
    report.write(Path(args.out))
    print(f"benchmarked {len(report.rows)} instances -> {args.out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if args.scheme == "table1":
        inst = gen_table1(Bc=args.bc, BL=args.bl, TL=args.tl, r=args.rate)
        name = instance_filename("table1", 0, args.seed)
        (out / name).write_text(inst.to_json(), encoding="utf-8")
        written.append(name)
    else:
        make_grid, gen = SCHEMES[args.scheme]
        grid = make_grid(args.seed)
        if not args.grid:
            if not 0 <= args.index < len(grid):
                raise InputError(f"--index must lie in 0..{len(grid) - 1}, "
                                 f"got {args.index}")
            grid = grid[args.index : args.index + 1]
            offset = args.index
        else:
            offset = 0
        for i, cfg in enumerate(grid):
            inst = gen(cfg)
            name = instance_filename(args.scheme, offset + i, cfg.seed)
            (out / name).write_text(inst.to_json(), encoding="utf-8")
            written.append(name)
    print(f"wrote {len(written)} instance file(s) to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotflow",
        description="Capital-flow constrained lot sizing solver and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one instance file")
    sp.add_argument("--engine", choices=("frh", "oracle"), required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-T", dest="max_T", type=int, default=MAX_T)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="run the desk-instance parameter sweeps")
    sp.add_argument("--kind", choices=("capital", "interest"), required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bench", help="run a benchmark grid")
    sp.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--oracle-max-T", dest="oracle_max_T", type=int,
                    default=MAX_T)
    sp.add_argument("--max-cases", dest="max_cases", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen", help="emit instance JSON files")
    sp.add_argument("--scheme", choices=("table1", *SCHEMES), required=True)
    sp.add_argument("--grid", action="store_true")
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--bc", type=float, default=200.0)
    sp.add_argument("--bl", type=float, default=0.0)
    sp.add_argument("--tl", type=int, default=0)
    sp.add_argument("--rate", type=float, default=0.0)
    sp.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, LpError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except LpNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
