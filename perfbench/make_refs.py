#!/usr/bin/env python3
"""Record reference objectives for the benchmark's instances.

Run from the root of a source checkout at the commit whose answers become the
reference:

    python3 perfbench/make_refs.py 0-31 20231

Each argument is a seed or an inclusive seed range. Every instance of every
workload is solved once; a solution must pass the benchmark's own checks
before its objective is stored, keyed by workload, seed and case, together
with the instance digest. Existing entries for other seeds are kept.
"""

import json
import sys

import run  # pins the thread pools and locates the sources

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
import numpy  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(items) -> list:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def reference_entry(workload: str, seed: int) -> dict:
    solve = workloads.WORKLOADS[workload].solver()
    entry = {}
    for case in workloads.make_cases(workload, seed):
        sol = solve(case.inst)
        failure = harness.check_solution(case.inst, sol, None)
        if failure is not None:
            raise SystemExit(f"{workload} seed {seed} {case.name}: {failure}")
        entry[case.name] = {"digest": workloads.digest(case.inst),
                            "objective": sol.objective}
    return entry


def main(argv) -> int:
    seeds = parse_seeds(argv) or [harness.DEFAULT_SEED, harness.HELD_OUT_SEED]
    if run.REFERENCES.exists():
        table = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    else:
        table = {"workloads": {}}
    table["generated_at"] = dict(run.environment(), numpy=numpy.__version__)
    for workload in run.WORKLOAD_NAMES:
        by_seed = table["workloads"].setdefault(workload, {})
        for seed in seeds:
            by_seed[str(seed)] = reference_entry(workload, seed)
            print(f"{workload} seed {seed}: done", flush=True)
        table["workloads"][workload] = dict(sorted(by_seed.items(),
                                                   key=lambda kv: int(kv[0])))
    run.REFERENCES.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
