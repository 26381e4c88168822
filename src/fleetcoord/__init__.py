"""Multi-vehicle trajectory coordination via consensus ADMM MPC."""

from .admm import (AdmmConfig, AdmmResult, AdmmState, ResidualReport, adapt_rho,
                   admm_solve, init_admm_state)
from .bench import (BenchmarkRecord, BenchSummary, generate_crossing_scenario,
                    generate_scaled_scenario, run_benchmark, summarize_bench)
from .dynamics import (CondensedPrediction, HorizonTrajectory, LinearModel,
                       condense, linearize, rollout, step_nonlinear)
from .errors import (DegenerateSeedError, NumericalFailureError, ParameterError,
                     ScenarioError)
from .graph import ConstraintGraph, build_constraint_graph, neighbors
from .qp import (INFEASIBLE, MAX_ITER, OPTIMAL, BlockDiagonal, DenseQp, QpSolution,
                 kkt_residual, solve_qp)
from .scenario import (Bounds, Scenario, ScenarioConfig, VehicleSpec, VehicleState,
                       dump_scenario, load_scenario, load_scenario_file, parse_scenario,
                       wrap_angle)
from .simulation import (CENTRALIZED, PARALLEL_ADMM, CycleRecord, SimulationRun,
                         convexify_cycle, lateral_deviation, make_seed,
                         path_progress, reference_window, run_simulation)
from .subproblems import (CentralizedQp, CostWeights, EdgeProblem, Halfspace,
                          LocalProblem, build_centralized, build_edge, build_local,
                          fleet_objective, linearize_collision, make_edge_problem,
                          make_local_problem, tracking_objective)

__version__ = "0.1.0"
