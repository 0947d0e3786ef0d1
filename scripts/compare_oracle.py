#!/usr/bin/env python3
"""Deviation study: heuristic vs exact branch-and-bound oracle.

On random small instances, prints per-beta deviation statistics (mean / max
relative gap) so the heuristic's accuracy can be inspected beyond the
acceptance thresholds.
"""

import argparse
import sys
import time

import numpy as np

from lotflow import deviation, gen_random_small


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=150)
    parser.add_argument("--seed", type=int, default=9000)
    parser.add_argument("--max-T", type=int, default=6)
    args = parser.parse_args()
    if args.cases < 1:
        parser.error(f"--cases must be at least 1, got {args.cases}")
    if args.max_T < 2:
        parser.error(f"--max-T must be at least 2, got {args.max_T}")

    betas = (0.0, 0.1, 0.5)
    devs: dict = {b: [] for b in betas}
    start = time.perf_counter()
    for i in range(args.cases):
        T = 2 + i % (args.max_T - 1)
        beta = betas[i % 3]
        inst = gen_random_small(seed=args.seed + i, T=T, beta=beta,
                                constant_c=(i % 2 == 0),
                                with_loan=(i % 4 == 0))
        devs[beta].append(deviation(inst, max_T=args.max_T))
    elapsed = time.perf_counter() - start

    print(f"{args.cases} instances in {elapsed:.1f}s")
    print(f"{'beta':>6} {'cases':>6} {'mean dev %':>11} {'max dev %':>10}")
    for beta in betas:
        if not devs[beta]:
            continue
        arr = np.array(devs[beta])
        print(f"{beta:>6} {len(arr):>6} {100 * arr.mean():>11.3f} "
              f"{100 * arr.max():>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
