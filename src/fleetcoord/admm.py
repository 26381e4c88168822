"""Three-step consensus ADMM over the fleet decomposition.

Every iteration: (1) all vehicle tracking problems and all edge separation
problems are solved, each depending only on the previous consensus and duals,
so they may run concurrently in any order; (2) each vehicle averages its own
copy and the incident edge copies into a new consensus value; (3) scaled
duals absorb the remaining disagreement.  Stopping uses primal/dual residual
norms against absolute-plus-relative tolerances, and the penalty rho adapts
by factor 2 whenever one residual exceeds five times the other.

Tracking nodes are solved by ``solve_local`` in closed form from an
eigendecomposition of their fixed Hessian, made once per cycle, so rho
changes never refactor; a node whose position rows bind hands its QP to
``solve_qp``.  Edge nodes are solved exactly by ``solve_edge`` through their
dual box QP, warm started from the edge's previous row multipliers.  No
per-iteration QP is assembled on either path.  Every node solution's status
is checked: non-optimal solutions and local and edge fallbacks are counted in
the ``ResidualReport`` along with the worst node KKT residual, the
interior-point iterations the fallbacks took and how many fallbacks each
``solve_qp`` path answered, and a warning is logged whenever a non-optimal
solution enters consensus.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalFailureError, ParameterError
# build_edge, build_local and solve_qp are not called here; they stay
# importable from this module for span tracers that wrap them by name.
from .qp import OPTIMAL, solve_qp  # noqa: F401
from .subproblems import build_edge, build_local, solve_edge, solve_local  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass
class AdmmConfig:
    rho0: float = 1.0
    eps_abs: float = 0.01
    eps_rel: float = 0.01
    max_iters: int = 200
    adapt_rho: bool = True
    rho_scale: float = 2.0       # tau_incr = tau_decr
    rho_ratio: float = 5.0       # mu
    workers: int = 1
    degree_weighted: bool = False


@dataclass
class AdmmState:
    """All iterates: per-vehicle copies/consensus/duals and per-edge copies."""

    u: dict
    z: dict
    lam: dict
    u_edge: dict                 # edge -> {endpoint: (Np,)}
    lam_edge: dict
    rho: float
    iteration: int = 0
    z_prev: dict | None = None


@dataclass
class ResidualReport:
    r_norm: float
    s_norm: float
    eps_pri: float
    eps_dual: float
    converged: bool
    iterations_used: int
    per_node_solve_times: dict = field(default_factory=dict)
    slack_max: float = 0.0
    parallel_time: float = 0.0   # sum over iterations of max node solve time
    wall_time: float = 0.0
    nonoptimal_nodes: int = 0    # node solutions with status != optimal, all iterations
    edge_fallbacks: int = 0      # solve_edge calls that handed over to solve_qp
    local_fallbacks: int = 0     # solve_local calls that handed over to solve_qp
    kkt_max: float = 0.0         # worst node KKT residual, all iterations
    local_fallback_ipm_iters: int = 0   # IPM iterations of the local fallbacks
    edge_fallback_ipm_iters: int = 0    # IPM iterations of the edge fallbacks
    fallback_paths: dict = field(default_factory=dict)  # solve_qp path -> fallbacks


@dataclass
class AdmmResult:
    consensus: dict
    report: ResidualReport
    state: AdmmState
    trace: list


def init_admm_state(seeds: dict, edges, rho0: float) -> AdmmState:
    """Warm start at the seed steering: all copies equal, duals zero."""
    if rho0 <= 0:
        raise ParameterError("rho0 must be positive")
    u = {v: np.asarray(s, dtype=float).copy() for v, s in seeds.items()}
    z = {v: arr.copy() for v, arr in u.items()}
    lam = {v: np.zeros_like(arr) for v, arr in u.items()}
    u_edge = {tuple(e): {v: u[v].copy() for v in e} for e in edges}
    lam_edge = {tuple(e): {v: np.zeros_like(u[v]) for v in e} for e in edges}
    return AdmmState(u=u, z=z, lam=lam, u_edge=u_edge, lam_edge=lam_edge, rho=rho0)


def incident_edges(vehicles, edges) -> dict:
    """Each vehicle's incident edges, in sorted order."""
    incident = {v: [] for v in vehicles}
    for e in sorted(edges):
        for v in e:
            incident[v].append(e)
    return incident


def update_consensus(state: AdmmState, incident: dict | None = None) -> dict:
    """Per-vehicle average of the local copy and all incident edge copies.

    ``incident`` (from ``incident_edges``) may be passed by callers that
    update the same graph repeatedly; it is derived from the state otherwise.
    """
    if incident is None:
        incident = incident_edges(state.u, state.u_edge)
    rho = state.rho
    z_new = {}
    for v in sorted(state.u):
        total = state.u[v] + state.lam[v] / rho
        for e in incident[v]:
            total = total + state.u_edge[e][v] + state.lam_edge[e][v] / rho
        z_new[v] = total / (1 + len(incident[v]))
    return z_new


def update_duals(state: AdmmState, z_new: dict) -> tuple[dict, dict]:
    """Scaled dual ascent: each copy's dual absorbs its consensus gap."""
    lam = {v: state.lam[v] + (state.u[v] - z_new[v]) for v in state.lam}
    lam_edge = {e: {v: state.lam_edge[e][v] + (state.u_edge[e][v] - z_new[v])
                    for v in state.lam_edge[e]}
                for e in state.lam_edge}
    return lam, lam_edge


def _stack(state: AdmmState, per_vehicle: dict, per_edge=None) -> np.ndarray:
    """Deterministic stacking: vehicles sorted, then edges sorted, endpoints sorted."""
    parts = [per_vehicle[v] for v in sorted(per_vehicle)]
    for e in sorted(state.u_edge):
        for v in sorted(e):
            parts.append(per_edge[e][v] if per_edge is not None else per_vehicle[v])
    return np.concatenate(parts) if parts else np.zeros(0)


def residuals(state: AdmmState, z_prev: dict, eps_abs: float, eps_rel: float) -> ResidualReport:
    """Primal/dual residual norms and tolerances over the full copy stack.

    The stack holds one entry per consensus constraint (one local copy per
    vehicle plus two endpoint copies per edge: (N + 2M) Np scalars), and the
    consensus/dual vectors are stacked the same way so the dimension factor
    sqrt((N + 2M) Np) matches the residual space.
    """
    u_stack = _stack(state, state.u, state.u_edge)
    z_stack = _stack(state, state.z)
    z_prev_stack = _stack(state, z_prev)
    lam_stack = _stack(state, state.lam, state.lam_edge)

    r_norm = float(np.linalg.norm(u_stack - z_stack))
    s_norm = float(state.rho * np.linalg.norm(z_stack - z_prev_stack))
    n_vehicles = len(state.u)
    n_edges = len(state.u_edge)
    np_steps = len(next(iter(state.u.values())))
    dim = math.sqrt((n_vehicles + 2 * n_edges) * np_steps)
    eps_pri = eps_abs * dim + eps_rel * max(float(np.linalg.norm(u_stack)),
                                            float(np.linalg.norm(z_stack)))
    eps_dual = eps_abs * dim + eps_rel * float(np.linalg.norm(lam_stack)) / state.rho
    converged = (r_norm <= eps_pri) and (s_norm <= eps_dual)
    return ResidualReport(r_norm=r_norm, s_norm=s_norm, eps_pri=eps_pri,
                          eps_dual=eps_dual, converged=converged,
                          iterations_used=state.iteration)


def adapt_rho(rho: float, r_norm: float, s_norm: float,
              scale: float = 2.0, ratio: float = 5.0) -> float:
    """Double rho when primal lags dual by the ratio, halve in the mirror case."""
    if r_norm > ratio * s_norm:
        return rho * scale
    if s_norm > ratio * r_norm:
        return rho / scale
    return rho


def apply_rho_update(state: AdmmState, new_rho: float) -> None:
    """Install a new penalty, rescaling scaled duals so rho*lam is continuous."""
    if new_rho == state.rho:
        return
    factor = state.rho / new_rho
    for v in state.lam:
        state.lam[v] = state.lam[v] * factor
    for e in state.lam_edge:
        for v in state.lam_edge[e]:
            state.lam_edge[e][v] = state.lam_edge[e][v] * factor
    state.rho = new_rho


def admm_solve(local_problems: dict, edge_problems: dict, config: AdmmConfig,
               seeds: dict | None = None, init: AdmmState | None = None,
               collect_trace: bool = False) -> AdmmResult:
    """Run consensus ADMM until the stopping criterion or the iteration cap.

    ``local_problems`` maps vehicle id to LocalProblem; ``edge_problems`` maps
    (i, j) to EdgeProblem.  The result is independent of subproblem execution
    order within a step: every solve reads only the previous barrier's state.
    """
    if init is None:
        if seeds is None:
            seeds = {v: np.zeros(lp.horizon) for v, lp in local_problems.items()}
        state = init_admm_state(seeds, edge_problems.keys(), config.rho0)
    else:
        state = init

    if config.max_iters < 1:
        raise ParameterError("max_iters must be at least 1")
    np_steps = local_problems[next(iter(local_problems))].horizon
    vids = sorted(local_problems)
    ekeys = sorted(edge_problems)
    jobs = [("local", v) for v in vids] + [("edge", e) for e in ekeys]
    names = {("local", v): f"local/{v}" for v in vids}
    names.update({("edge", e): f"edge/{e[0]}-{e[1]}" for e in ekeys})
    total_node_time = {names[j]: 0.0 for j in jobs}
    warm: dict = {}
    incident = incident_edges(state.u, state.u_edge)

    executor = ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    t_start = time.perf_counter()
    trace = []
    report = None
    slack_max = 0.0
    parallel_time = 0.0
    nonoptimal = 0
    fallbacks = {"local": 0, "edge": 0}
    fallback_iters = {"local": 0, "edge": 0}
    fallback_paths: dict = {}
    kkt_max = 0.0
    try:
        for k in range(1, config.max_iters + 1):
            rho = state.rho

            def solve_node(job):
                t0 = time.perf_counter()
                kind, key = job
                prev = warm.get(job)
                if kind == "local":
                    sol = solve_local(local_problems[key], state.z[key], state.lam[key],
                                      rho, warm=prev, degree_weighted=config.degree_weighted)
                else:
                    i, j = key
                    sol = solve_edge(edge_problems[key], state.z[i], state.z[j],
                                     state.lam_edge[key][i], state.lam_edge[key][j], rho,
                                     warm_mu=None if prev is None else prev.multipliers[:np_steps])
                return job, sol, time.perf_counter() - t0

            # Step 1: all local and edge solves, mutually independent
            if executor is not None:
                results = list(executor.map(solve_node, jobs))
            else:
                results = [solve_node(job) for job in jobs]

            iter_slack = 0.0
            max_node_time = 0.0
            flagged = []
            for job, sol, dt in results:
                if not np.all(np.isfinite(sol.u_star)):
                    raise NumericalFailureError(
                        f"non-finite iterate from {names[job]} at iteration {k}", iteration=k)
                if sol.status != OPTIMAL:
                    flagged.append(f"{names[job]} ({sol.status}, kkt {sol.kkt_residual:.2e})")
                kind, key = job
                if sol.fallback:
                    fallbacks[kind] += 1
                    fallback_iters[kind] += sol.iterations
                    fallback_paths[sol.path] = fallback_paths.get(sol.path, 0) + 1
                kkt_max = max(kkt_max, sol.kkt_residual)
                warm[job] = sol
                total_node_time[names[job]] += dt
                max_node_time = max(max_node_time, dt)
                if kind == "local":
                    state.u[key] = sol.u_star.copy()
                else:
                    i, j = key
                    state.u_edge[key][i] = sol.u_star[:np_steps].copy()
                    state.u_edge[key][j] = sol.u_star[np_steps:2 * np_steps].copy()
                    iter_slack = max(iter_slack, float(np.max(sol.u_star[2 * np_steps:])))
            slack_max = iter_slack
            parallel_time += max_node_time
            if flagged:
                nonoptimal += len(flagged)
                logger.warning("ADMM iteration %d: non-optimal node solution(s) enter "
                               "consensus: %s", k, ", ".join(flagged))

            # Step 2: consensus averaging
            z_prev = state.z
            z_new = update_consensus(state, incident)

            # Step 3: dual ascent
            state.lam, state.lam_edge = update_duals(state, z_new)
            state.z = z_new
            state.z_prev = z_prev
            state.iteration = k

            report = residuals(state, z_prev, config.eps_abs, config.eps_rel)
            if collect_trace or logger.isEnabledFor(logging.DEBUG):
                logger.debug("admm k=%d r=%.6e s=%.6e rho=%.3e tmax=%.6e",
                             k, report.r_norm, report.s_norm, rho, max_node_time)
            if collect_trace:
                trace.append({"k": k, "r_norm": report.r_norm, "s_norm": report.s_norm,
                              "rho": rho, "max_node_time": max_node_time})
            if report.converged:
                break

            if config.adapt_rho:
                apply_rho_update(state, adapt_rho(state.rho, report.r_norm, report.s_norm,
                                                  config.rho_scale, config.rho_ratio))
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    if report is not None and not report.converged:
        logger.warning("ADMM hit the iteration cap (%d) without converging: "
                       "r=%.3e (eps=%.3e) s=%.3e (eps=%.3e); using last consensus iterate",
                       state.iteration, report.r_norm, report.eps_pri,
                       report.s_norm, report.eps_dual)
    report = replace(report, per_node_solve_times=dict(total_node_time),
                     slack_max=slack_max, parallel_time=parallel_time,
                     wall_time=time.perf_counter() - t_start,
                     nonoptimal_nodes=nonoptimal, edge_fallbacks=fallbacks["edge"],
                     local_fallbacks=fallbacks["local"], kkt_max=kkt_max,
                     local_fallback_ipm_iters=fallback_iters["local"],
                     edge_fallback_ipm_iters=fallback_iters["edge"],
                     fallback_paths=fallback_paths)
    consensus = {v: state.z[v].copy() for v in state.z}
    return AdmmResult(consensus=consensus, report=report, state=state, trace=trace)
