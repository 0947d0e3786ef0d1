#!/usr/bin/env python3
"""Print the solver's answers as one line per solve, then their digest.

Solves every case of the three benchmark workloads (``perfbench/workloads.py``)
at each seed, and ``--draws`` random small instances: the heuristic on every
draw, and the exact oracle on those with T <= ``MAX_T``. A line holds the
solve's name, the objective ``repr``, the LP count, a hash of the plan's
``y`` and ``v`` bytes, the accepted adjustments and the degenerate flag. The
last line is a hash of all the others. Two checkouts give the same answers
when their outputs are equal:

    PYTHONPATH=src python3 scripts/answer_digest.py > answers.txt
    diff answers.txt other-answers.txt
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from lotflow import MAX_T, gen_random_small, solve_exact, solve_frh  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

# the random draws cycle through these goodwill rates and horizons
BETAS = (0.0, 0.1, 0.3, 0.5, 0.9, 1.0)
HORIZONS = range(2, 13)
DRAW_SEED = 6000


def seed_list(text: str) -> list:
    return [int(seed) for seed in text.split(",") if seed.strip()]


def answer_line(name: str, sol) -> str:
    plan = sol.trajectory.plan
    plan_hash = hashlib.sha256(plan.y.tobytes() + plan.v.tobytes()).hexdigest()
    adjustments = json.dumps(sol.diagnostics()["adjustments"], separators=(",", ":"))
    return (f"{name} {sol.objective!r} {sol.lp_count} {plan_hash[:16]} "
            f"{adjustments} {int(sol.degenerate)}")


def solves(seeds, draws):
    """(name, solve, instance) of every solve, in print order."""
    for workload, wl in WORKLOADS.items():
        for seed in seeds:
            for case in make_cases(workload, seed):
                yield f"{workload}/{seed}/{case.name}", wl.solver(), case.inst
    for i in range(draws):
        seed, T = DRAW_SEED + i, HORIZONS[i % len(HORIZONS)]
        inst = gen_random_small(seed, T, BETAS[i % len(BETAS)],
                                with_loan=i % 2 == 0)
        yield f"random/{seed}/T{T}/frh", solve_frh, inst
        if T <= MAX_T:
            yield f"random/{seed}/T{T}/oracle", solve_exact, inst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default="1,20231",
                        help="comma-separated workload seeds; empty for none")
    parser.add_argument("--draws", type=int, default=300)
    args = parser.parse_args()

    digest = hashlib.sha256()
    for name, solve, inst in solves(args.seeds, args.draws):
        line = answer_line(name, solve(inst))
        digest.update(line.encode() + b"\n")
        print(line, flush=True)
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
