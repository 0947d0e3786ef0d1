"""Timed and traced passes over a workload, with every answer checked.

A pass solves each case of the workload once, in a fixed order. Only the
solver call is timed; checking happens between solves. The timed phase runs
whole passes until its time is up, so every pass weighs the cases alike.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from lotflow.model import check_feasibility, evaluate_plan

from tracer import COUNT_METRICS, LAYER_UNITS, Tracer, layer_metrics
from workloads import digest

# the objective must match the reference to this relative tolerance
REL_TOL = 1e-9
# every returned plan must pass check_feasibility at this tolerance
FEAS_TOL = 1e-6
# references.json holds these seeds, among others; the held-out one was never
# used while the benchmark was tuned
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231


@dataclass
class SolveRecord:
    case: str
    wall_s: float
    cpu_s: float
    objective: float | None
    failure: str | None


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def load_references(path: Path, workload: str, seed: int, cases) -> dict:
    """Reference objective per case name, for the seeds that have one.

    A case whose instance no longer hashes to the recorded digest gets the
    string ``"changed"`` in place of an objective, which fails every solve of
    it: the inputs are no longer those the reference was computed for.
    """
    table = json.loads(path.read_text(encoding="utf-8"))
    entry = table["workloads"].get(workload, {}).get(str(seed))
    if entry is None:
        return {}
    refs = {}
    for case in cases:
        ref = entry[case.name]
        refs[case.name] = (ref["objective"] if ref["digest"] == digest(case.inst)
                           else "changed")
    return refs


def check_solution(inst, sol, expected) -> str | None:
    """Why a returned solution is wrong, or None when it passes every check."""
    if expected == "changed":
        return "instance differs from the one the reference was computed for"
    traj = sol.trajectory
    report = check_feasibility(inst, traj, tol=FEAS_TOL)
    if not report.feasible:
        return f"infeasible plan, first violations {list(report.violations[:3])}"
    if not _close(sol.objective, evaluate_plan(inst, traj.plan).objective):
        return "objective does not match the returned plan"
    if expected is not None and not _close(sol.objective, expected):
        return f"objective {sol.objective!r} differs from reference {expected!r}"
    return None


def solve_once(solve, case, expected: dict) -> SolveRecord:
    """Time one solve and check its answer.

    Without a committed reference, the first correct answer for a case
    becomes the reference for the rest of the run, so repeats must agree.
    """
    cpu0, wall0 = process_time(), perf_counter()
    try:
        sol = solve(case.inst)
    except Exception as exc:  # a raising solver is a failed solve, not a crash
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        return SolveRecord(case.name, wall, cpu, None,
                           f"raised {type(exc).__name__}: {exc}")
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    failure = check_solution(case.inst, sol, expected.get(case.name))
    if failure is None:
        expected.setdefault(case.name, sol.objective)
    return SolveRecord(case.name, wall, cpu, sol.objective, failure)


def run_pass(solve, cases, expected: dict) -> list:
    return [solve_once(solve, case, expected) for case in cases]


def _another(start: float, done: int, seconds: float) -> bool:
    """Whether one more unit of work ends nearer to ``seconds`` than stopping.

    Stopping only at whole passes, a run ends within half a pass of its
    budget. At least one unit always runs.
    """
    if done == 0:
        return True
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def timed_passes(solve, cases, expected: dict, seconds: float) -> list:
    """Whole passes for about ``seconds``."""
    passes = []
    start = perf_counter()
    while _another(start, len(passes), seconds):
        passes.append(run_pass(solve, cases, expected))
    return passes


def end_to_end(passes) -> dict:
    """The timed-phase metrics; medians over passes resist a slow stretch."""
    rates, cpu_per_solve = [], []
    for records in passes:
        correct = sum(r.failure is None for r in records)
        rates.append(correct / sum(r.wall_s for r in records))
        cpu_per_solve.append(sum(r.cpu_s for r in records) / len(records))
    walls = [r.wall_s for records in passes for r in records]
    return {
        "solves_per_s": statistics.median(rates),
        "solve_s_p50": statistics.median(walls),
        "cpu_s_per_solve": statistics.median(cpu_per_solve),
    }


@dataclass
class TracedRun:
    passes: list          # every pass, untraced and traced, in run order
    layers: list          # layer_metrics() of each traced pass
    spans: list           # spans of each traced pass
    overhead: list        # traced / untraced wall of each adjacent pair


def traced_passes(solve, engine: str, cases, expected: dict,
                  seconds: float) -> TracedRun:
    """Alternate untraced and traced passes for about ``seconds``.

    Each traced pass is the same fixed work, so its counts must repeat
    exactly; the adjacent untraced pass is the base of the overhead.
    """
    tracer = Tracer()
    traced_solve = tracer.wrap_solver(solve, engine)
    run = TracedRun([], [], [], [])
    start = perf_counter()
    while _another(start, len(run.layers), seconds):
        plain = run_pass(solve, cases, expected)
        traced = []
        with tracer.installed():
            for case in cases:
                tracer.solve_id = len(run.layers) * len(cases) + len(traced)
                traced.append(solve_once(traced_solve, case, expected))
        spans, counts = tracer.take()
        run.passes += [plain, traced]
        run.layers.append(layer_metrics(spans, counts))
        run.spans.append(spans)
        run.overhead.append(sum(r.wall_s for r in traced)
                            / sum(r.wall_s for r in plain))
    return run


def per_layer(run: TracedRun) -> tuple:
    """Per-layer metrics of a traced run, and whether its counts repeated.

    Counts come from the first traced pass; times are medians over the
    traced passes.
    """
    first = run.layers[0]
    repeated = all(layers[name] == first[name] for layers in run.layers
                   for name in COUNT_METRICS)
    out = dict(first)
    for name in first:
        if LAYER_UNITS[name] in ("s", "us"):
            out[name] = statistics.median(layers[name] for layers in run.layers)
    out["trace.overhead_frac"] = statistics.median(run.overhead) - 1.0
    return {name: out[name] for name in LAYER_UNITS}, repeated


def write_spans(path: Path, run: TracedRun):
    """One JSON array per span: pass, name, start_ns, end_ns, parent, solve."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, spans in enumerate(run.spans):
            for name, start, end, parent, solve_id in spans:
                fh.write(json.dumps([index, name, start, end, parent, solve_id]))
                fh.write("\n")
