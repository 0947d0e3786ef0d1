"""Layer spans and counters, recorded from outside the solver.

The solver modules import their collaborators by name (``from .rounds import
solve_round``), so a function is traced by replacing it at the binding its
caller looks up, never at its home module. ``Tracer.installed()`` swaps the
wrappers in for the duration of a ``with`` block and restores the originals
afterwards; nothing under ``src/`` changes.

A span is ``(name, start_ns, end_ns, parent index, solve id)``. Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter_ns

import lotflow.frh as frh_mod
import lotflow.oracle as oracle_mod
import lotflow.rounds as rounds_mod
from lotflow.lp import LpStatus
from lotflow.rounds import FEASIBLE

# The root span of a solve; the harness wraps the engine entry point itself.
ROOT_SPAN = {"frh": "frh.solve_frh", "oracle": "oracle.solve_exact"}


def _count_lp(counts, args, kwargs, sol):
    prob = args[0]
    counts["lp.calls"] += 1
    counts["lp.pivots"] += sol.iterations
    counts["lp.rows"] += len(prob.rows)
    counts["lp.vars"] += prob.n_vars
    counts["lp.infeasible"] += sol.status is LpStatus.INFEASIBLE
    counts["lp.numerical_failures"] += sol.status is LpStatus.NUMERICAL_FAILURE


def _count_oracle_lp(counts, args, kwargs, sol):
    _count_lp(counts, args, kwargs, sol)
    counts["oracle.lp_calls"] += 1
    counts["oracle.optimal"] += sol.status is LpStatus.OPTIMAL


def _count_round(counts, args, kwargs, sol):
    counts["rounds.calls"] += 1
    counts["rounds.feasible"] += sol.status == FEASIBLE
    counts["rounds.path_" + sol.which_model.replace("+", "_")] += 1
    w_cap = kwargs.get("w_cap", args[2] if len(args) > 2 else None)
    counts["frh.adjust_round_calls"] += w_cap is not None


def _count_build(counts, args, kwargs, prob):
    counts["rounds.build_calls"] += 1


def _count_evaluate(counts, args, kwargs, traj):
    counts["model.evaluate_calls"] += 1


def _count_check(counts, args, kwargs, report):
    counts["model.check_calls"] += 1
    counts["model.check_rejects"] += not report.feasible


def _count_frh_solution(counts, args, kwargs, sol):
    counts["frh.lp_count"] += sol.lp_count
    counts["frh.degenerate"] += sol.degenerate
    for kind, _periods in sol.adjustments:
        counts["frh.accepted_" + kind] += 1


# (module, attribute at the caller's binding, span name, counter)
BINDINGS = (
    (frh_mod, "solve_round", "rounds.solve_round", _count_round),
    (frh_mod, "evaluate_plan", "model.evaluate_plan", _count_evaluate),
    (frh_mod, "check_feasibility", "model.check_feasibility", _count_check),
    (frh_mod, "corollary2_postpass", "frh.corollary2_postpass", None),
    (rounds_mod, "lp_solve", "lp.lp_solve", _count_lp),
    (rounds_mod, "build_psub1", "rounds.build_psub1", _count_build),
    (rounds_mod, "build_psub2", "rounds.build_psub2", _count_build),
    (rounds_mod, "build_psub3", "rounds.build_psub3", _count_build),
    (oracle_mod, "lp_solve", "lp.lp_solve", _count_oracle_lp),
    (oracle_mod, "evaluate_plan", "model.evaluate_plan", _count_evaluate),
)

# span name -> the per-layer time metrics its self time adds to
SPAN_LAYERS = {
    "lp.lp_solve": ("lp.self_s",),
    "rounds.solve_round": ("rounds.self_s",),
    "rounds.build_psub1": ("rounds.self_s", "rounds.build_s"),
    "rounds.build_psub2": ("rounds.self_s", "rounds.build_s"),
    "rounds.build_psub3": ("rounds.self_s", "rounds.build_s"),
    "model.evaluate_plan": ("model.evaluate_s",),
    "model.check_feasibility": ("model.check_s",),
    "frh.solve_frh": ("frh.self_s",),
    "frh.corollary2_postpass": ("frh.self_s", "frh.postpass_s"),
    "oracle.solve_exact": ("oracle.self_s",),
}

# every per-layer metric a traced pass reports, with its unit
LAYER_UNITS = {
    "lp.calls": "count", "lp.self_s": "s", "lp.us_per_call": "us",
    "lp.pivots": "count", "lp.pivots_per_call": "pivots/call",
    "lp.infeasible_frac": "frac", "lp.numerical_failures": "count",
    "lp.rows_mean": "rows", "lp.vars_mean": "vars",
    "rounds.calls": "count", "rounds.self_s": "s",
    "rounds.build_calls": "count", "rounds.build_s": "s",
    "rounds.path_sub1": "count", "rounds.path_sub2_sub3": "count",
    "rounds.path_none": "count", "rounds.feasible_frac": "frac",
    "model.evaluate_calls": "count", "model.evaluate_s": "s",
    "model.check_calls": "count", "model.check_s": "s",
    "model.check_reject_frac": "frac",
    "frh.self_s": "s", "frh.postpass_s": "s",
    "frh.adjust_round_calls": "count",
    "frh.accepted_Adj1": "count", "frh.accepted_Adj2": "count",
    "frh.accepted_Adj3": "count", "frh.accepted_Cor2": "count",
    "frh.lp_count": "count", "frh.degenerate": "count",
    "oracle.self_s": "s", "oracle.lp_calls": "count",
    "oracle.optimal_frac": "frac",
    "trace.overhead_frac": "frac",
}

# the metrics that are exact counts and must repeat between runs
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items()
                      if unit == "count")


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.solve_id = -1
        self._stack: list = []

    def wrap(self, fn, name: str, count=None):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve_id)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def wrap_solver(self, solve, engine: str):
        """The engine entry point as the root span of each solve."""
        count = _count_frh_solution if engine == "frh" else None
        return self.wrap(solve, ROOT_SPAN[engine], count)

    @contextlib.contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in BINDINGS]
        try:
            for mod, attr, name, count in BINDINGS:
                setattr(mod, attr, self.wrap(getattr(mod, attr), name, count))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for _name, start, end, parent, _solve in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _solve) in enumerate(spans):
        # children sorted by start; count each one's part beyond those before
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric of one traced pass except the overhead."""
    seconds = Counter()
    for span, self_ns in zip(spans, self_times(spans)):
        for metric in SPAN_LAYERS.get(span[0], ()):
            seconds[metric] += self_ns * 1e-9
    out = {name: counts[name] for name in COUNT_METRICS}
    out.update((name, seconds[name]) for name, unit in LAYER_UNITS.items()
               if unit == "s")
    lp_calls = counts["lp.calls"]
    out["lp.us_per_call"] = _ratio(seconds["lp.self_s"] * 1e6, lp_calls)
    out["lp.pivots_per_call"] = _ratio(counts["lp.pivots"], lp_calls)
    out["lp.infeasible_frac"] = _ratio(counts["lp.infeasible"], lp_calls)
    out["lp.rows_mean"] = _ratio(counts["lp.rows"], lp_calls)
    out["lp.vars_mean"] = _ratio(counts["lp.vars"], lp_calls)
    out["rounds.feasible_frac"] = _ratio(counts["rounds.feasible"],
                                         counts["rounds.calls"])
    out["model.check_reject_frac"] = _ratio(counts["model.check_rejects"],
                                            counts["model.check_calls"])
    out["oracle.optimal_frac"] = _ratio(counts["oracle.optimal"],
                                        counts["oracle.lp_calls"])
    return {name: out[name] for name in LAYER_UNITS if name in out}
