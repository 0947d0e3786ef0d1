"""No LP the product builds states a bound or nothing as a row.

A constant effective demand is its ``v``'s bound, and a survival flag adds
a row only for a period it marks dead, so no round or node LP holds an
all-zero row or a unit row ``e_k`` (such as ``v_1 <= d_1`` or ``v_k <= 0``).
"""

import numpy as np
import pytest

from lotflow import gen_random_small
from lotflow.lp import LpStatus, lp_solve
from lotflow.oracle import _delta_patterns, _pattern_lp
from lotflow.rounds import (RoundSpec, build_psub1, build_psub2, build_psub3,
                            infer_deltas)

BETAS = (0.0, 0.5, 0.9, 1.0)


def bound_rows(prob, deltas, beta, offset=0):
    """The rows of ``prob`` that are all zero or a unit row.

    A period k flagged dead right after a constant effective demand has the
    survival row ``beta * v_{k-1} <= ...`` over one column, which is
    ``e_{k-1}`` when beta is 1; such a row is a dead flag's, not ``v <= Ed``,
    and is left out. ``offset`` is the column of the first ``v``.
    """
    nonzero = prob.rows != 0
    bad = []
    for i in np.flatnonzero(nonzero.sum(axis=1) <= 1):
        cols = np.flatnonzero(nonzero[i])
        if cols.size == 0:
            bad.append(i)
        elif prob.rows[i, cols[0]] == 1.0:
            k = cols[0] - offset + 1
            dead_after_constant = (beta == 1.0 and 1 <= k < len(deltas)
                                   and deltas[k] == 0
                                   and (k == 1 or deltas[k - 1] == 0))
            if not dead_after_constant:
                bad.append(i)
    return bad


def random_specs(rng, inst, count):
    for _ in range(count):
        m, n = sorted(int(t) for t in rng.integers(1, inst.T + 1, size=2))
        starts = sorted({m} | set(rng.integers(m, n + 1, size=2).tolist()))
        w_in = float(rng.uniform(0, 60)) if m > 1 else 0.0
        yield RoundSpec(n=n, cycle_starts=starts,
                        B_in=float(inst.Bc * rng.uniform(0.3, 2.0)), w_in=w_in)


@pytest.mark.parametrize("beta", BETAS)
def test_round_lps_hold_no_bound_row(beta):
    rng = np.random.default_rng(31)
    built = 0
    for seed in range(12):
        inst = gen_random_small(seed=400 + seed, T=int(rng.integers(2, 9)),
                                beta=beta, with_loan=seed % 2 == 0)
        for spec in random_specs(rng, inst, 10):
            L = spec.n - spec.m + 1
            flags = [np.ones(L, dtype=int)]
            if beta > 0:
                # without goodwill loss no period can die (d_t - 0 >= 0),
                # and a dead flag is a violated constant
                flags.append(rng.integers(0, 2, L))
            sub2 = build_psub2(inst, spec)
            sol2 = lp_solve(sub2)
            if sol2.status is LpStatus.OPTIMAL:
                flags.append(infer_deltas(inst, spec, sol2.x))
            ones = np.ones(L, dtype=int)
            assert bound_rows(build_psub1(inst, spec), ones, beta) == []
            assert bound_rows(build_psub1(inst, spec, w_cap=5.0), ones, beta) == []
            assert bound_rows(sub2, ones, beta) == []
            for deltas in flags:
                deltas[0] = 1
                assert bound_rows(build_psub3(inst, spec, deltas), deltas,
                                  beta) == [], (spec, deltas)
                built += 1
    assert built >= 120


@pytest.mark.parametrize("beta", BETAS)
def test_pattern_lps_hold_no_bound_row(beta):
    for seed in range(12):
        inst = gen_random_small(seed=500 + seed, T=2 + seed % 7, beta=beta,
                                with_loan=seed % 2 == 1)
        for delta in _delta_patterns(inst):
            prob = _pattern_lp(inst, delta)
            assert bound_rows(prob, delta, beta, offset=inst.T) == [], delta
