"""Capital-flow constrained single-item lot sizing.

Public surface: the domain model, the forward-recursive heuristic solver,
the exact branch-and-bound oracle, instance generators and the benchmark CLI.
"""

from .model import (Instance, Plan, Trajectory, FeasibilityReport, InputError,
                    effective_demand, evaluate_plan, check_feasibility,
                    trajectory_to_csv, TOL_ZERO, TOL_FEAS)
from .lp import LpProblem, LpSolution, LpStatus, LpNumericalError, lp_solve
from .rounds import (RoundSpec, RoundSolution, build_psub1, build_psub2,
                     build_psub3, infer_deltas, solve_round)
from .frh import Solution, recurse, corollary2_postpass, solve_frh
from .oracle import MAX_T, OracleGuardError, solve_exact, deviation
from .generators import (Table2Config, Table5Config, gen_table1, gen_table2,
                         gen_table5, grid_table2, grid_table5, gen_random_small)

__all__ = [name for name in dir() if not name.startswith("_")]
