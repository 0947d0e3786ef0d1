"""Benchmark workloads: which instances each one solves, and with which engine.

Every instance is generated from the workload seed through the public
generators of ``lotflow.generators``; the solver only ever sees the resulting
``Instance`` objects. A case's generator seed is derived from
``(workload seed, workload index, case index, attempt)``, so adding a case
or a workload never reshuffles the draws of another.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from lotflow.frh import solve_frh
from lotflow.generators import Table2Config, gen_random_small, gen_table2
from lotflow.model import Instance
from lotflow.oracle import solve_exact


@dataclass(frozen=True)
class Case:
    name: str
    inst: Instance


@dataclass(frozen=True)
class Workload:
    engine: str          # "frh" or "oracle"
    specs: tuple         # per-case generator arguments, see _make
    replicates: int      # independent draws of every spec in one pass
    warmup: dict         # generator arguments of the warm-up instance

    def solver(self):
        return solve_frh if self.engine == "frh" else solve_exact


# Why each workload exists is documented in README.md. The case order is also
# the solve order within a pass; the cases of each pass are chosen so that the
# median solve time falls inside one horizon's cluster, never between two.
# Replicates average out how much the work of a single draw varies with the
# seed; a pass takes about 20-30 s on a 2-core x86 box.
WORKLOADS = {
    "frh-goodwill": Workload(
        engine="frh",
        specs=(
            ("g24-exp-none", dict(T=24, demand="exponential", loan="none", beta=0.5)),
            ("g24-exp-loan", dict(T=24, demand="exponential", loan="loan", beta=0.5)),
            ("g24-uni-none", dict(T=24, demand="uniform", loan="none", beta=0.5)),
            ("g24-uni-loan", dict(T=24, demand="uniform", loan="loan", beta=0.5)),
            ("g48-uni-none", dict(T=48, demand="uniform", loan="none", beta=0.5)),
            ("g48-uni-loan", dict(T=48, demand="uniform", loan="loan", beta=0.5)),
        ),
        replicates=3,
        warmup=dict(T=12, demand="exponential", loan="loan", beta=0.5),
    ),
    "frh-nogoodwill": Workload(
        engine="frh",
        specs=(
            ("n48-none", dict(T=48, demand="normal", loan="none", beta=0.0)),
            ("n48-loan", dict(T=48, demand="normal", loan="loan", beta=0.0)),
            ("n72-none", dict(T=72, demand="normal", loan="none", beta=0.0)),
        ),
        replicates=2,
        warmup=dict(T=12, demand="normal", loan="loan", beta=0.0),
    ),
    # The enumeration solves one LP per setup pattern and demand-survival
    # pattern, and each period whose demand can die doubles the survival
    # patterns. Cases are redrawn until they have exactly ``dying`` such
    # periods, so every replicate enumerates 4 x 256 + 2 x 512 combinations.
    "oracle-enum": Workload(
        engine="oracle",
        specs=(
            ("o-b0-none", dict(T=8, beta=0.0, with_loan=False, dying=0)),
            ("o-b0-loan", dict(T=8, beta=0.0, with_loan=True, dying=0)),
            ("o-b01-none", dict(T=8, beta=0.1, with_loan=False, dying=0)),
            ("o-b01-loan", dict(T=8, beta=0.1, with_loan=True, dying=0)),
            ("o-b05-none", dict(T=8, beta=0.5, with_loan=False, dying=1)),
            ("o-b05-loan", dict(T=8, beta=0.5, with_loan=True, dying=1)),
        ),
        replicates=3,
        # a shorter horizon exercises the same phase-1 LP path at 1/8 the cost
        warmup=dict(T=5, beta=0.5, with_loan=True, dying=1),
    ),
}

_WORKLOAD_INDEX = {name: i for i, name in enumerate(WORKLOADS)}
_WARMUP_INDEX = 1000


def case_seed(seed: int, workload: str, index: int, attempt: int) -> int:
    """Generator seed of one draw of a case, independent of every other."""
    if seed < 0:
        raise ValueError("the workload seed must be nonnegative")
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(_WORKLOAD_INDEX[workload], index, attempt))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def dying_periods(inst: Instance) -> int:
    """Periods t >= 2 whose demand goodwill loss can cancel: beta*d[t-1] >= d[t]."""
    return int(np.sum(inst.beta * inst.d[:-1] >= inst.d[1:]))


def _make(workload: Workload, seed: int, args: dict) -> Instance:
    if workload.engine == "oracle":
        return gen_random_small(seed, args["T"], args["beta"],
                                with_loan=args["with_loan"])
    return gen_table2(Table2Config(
        T=args["T"], demand_mode=args["demand"], cost_mode="seasonal",
        price_mode="seasonal", capital_mode="two_periods",
        loan_mode=args["loan"], beta=args["beta"], seed=seed))


def _draw(workload: str, seed: int, index: int, args: dict) -> Instance:
    wl = WORKLOADS[workload]
    for attempt in itertools.count():
        inst = _make(wl, case_seed(seed, workload, index, attempt), args)
        if dying_periods(inst) == args.get("dying", dying_periods(inst)):
            return inst


def make_cases(workload: str, seed: int) -> list:
    """The cases of one pass: every spec once per replicate, in spec order."""
    wl = WORKLOADS[workload]
    cases = []
    for rep in range(wl.replicates):
        for k, (name, args) in enumerate(wl.specs):
            index = rep * len(wl.specs) + k
            cases.append(Case(f"{name}.{rep}", _draw(workload, seed, index, args)))
    return cases


def make_warmup(workload: str, seed: int) -> Instance:
    return _draw(workload, seed, _WARMUP_INDEX, WORKLOADS[workload].warmup)


def digest(inst: Instance) -> str:
    """Short content hash of an instance, to detect changed generation."""
    return hashlib.sha256(inst.to_json().encode()).hexdigest()[:16]
