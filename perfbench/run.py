#!/usr/bin/env python3
"""Benchmark of the lotflow solver, end to end or layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload frh-goodwill --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole passes over the workload and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics. Either way every answer is checked, a run record goes to
``perfbench/results/`` and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

import os
import sys

# One process, one thread per process: pin the BLAS/OpenMP pools before numpy
# is imported, so a run never uses more than one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("frh-goodwill", "frh-nogoodwill", "oracle-enum")
# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3

E2E_UNITS = {
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "cpu_s_per_solve": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _commit():
    """The checkout's commit, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lotflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lotflow" / "__init__.py").is_file():
        print(f"error: no lotflow sources under {SRC}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}

    import_start = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import lotflow
    import harness
    import workloads
    import_s = perf_counter() - import_start
    if Path(lotflow.__file__).resolve().parent != SRC / "lotflow":
        print(f"error: lotflow imported from {lotflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    record["environment"]["numpy"] = numpy.__version__

    workload = workloads.WORKLOADS[args.workload]
    solve = workload.solver()
    setup_runs, warmups = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cases = workloads.make_cases(args.workload, args.seed)
        expected = harness.load_references(REFERENCES, args.workload,
                                           args.seed, cases)
        warm = workloads.Case("warmup", workloads.make_warmup(args.workload, args.seed))
        warmups.append(harness.solve_once(solve, warm, {}))
        setup_runs.append(perf_counter() - start)
    record["reference"] = "committed" if expected else "first answer of this run"
    record["setup_runs_s"] = setup_runs
    record["import_s"] = import_s

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        run = harness.traced_passes(solve, workload.engine, cases, expected,
                                    args.seconds)
        passes = run.passes
        metrics, repeated = harness.per_layer(run)
        units = harness.LAYER_UNITS
        record["traced_passes"] = len(run.layers)
        record["layers_per_pass"] = run.layers
        record["counts_repeated"] = repeated
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        harness.write_spans(spans_path, run)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        passes = harness.timed_passes(solve, cases, expected, args.seconds)
        metrics = harness.end_to_end(passes)
        repeated = True
        units = E2E_UNITS

    records = warmups + [r for one_pass in passes for r in one_pass]
    attempted = len(records)
    failed = sum(r.failure is not None for r in records)
    if not args.trace:
        metrics["setup_s"] = import_s + statistics.median(setup_runs)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
        metrics["correct_frac"] = (attempted - failed) / attempted
        record["timed_passes"] = len(passes)
        record["solve_s_p50_samples"] = sum(len(p) for p in passes)
    record["solves"] = [vars(r) for r in records]
    record["failures"] = sorted({f"{r.case}: {r.failure}" for r in records
                                 if r.failure is not None})
    result = {"correct": failed == 0 and repeated, "attempted": attempted,
              "failed": failed, "metrics": _metrics(metrics, units)}
    record["result"] = result

    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    if not repeated:
        print("FAILED traced counts differ between traced passes", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{name:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
