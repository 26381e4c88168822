"""Three-step consensus ADMM over the fleet decomposition.

Every iteration: (1) all vehicle tracking problems and all edge separation
problems are solved, each depending only on the previous consensus and duals,
so they may run concurrently in any order; (2) each vehicle averages its own
copy and the incident edge copies into a new consensus value; (3) scaled
duals absorb the remaining disagreement.  Stopping uses primal/dual residual
norms against absolute-plus-relative tolerances, and the penalty rho adapts
by factor 2 whenever one residual exceeds five times the other.

A receding-horizon caller warm starts each MPC cycle from the last one's
final state (``init_admm_state(..., previous=state)``): copies and consensus
start at the new seeds, rho is the last final rho (rho0 when the last cycle
had no edge), each edge that persists keeps its scaled duals shifted one
step, and a new edge starts at zero.  A vehicle's own dual is not carried
but set to minus the sum of its edge duals.  The consensus average and the
dual step keep every vehicle's scaled duals (local copy plus incident edge
copies) summing to zero; a carried vehicle dual would break that sum
whenever an edge leaves the graph.

Tracking nodes are solved by ``solve_local`` in closed form from an
eigendecomposition of their fixed Hessian, made once per cycle, so rho
changes never refactor; a node whose position rows bind hands its QP to
``solve_qp``.  Edge nodes are solved exactly by ``solve_edge`` through their
dual box QP, warm started from the edge's previous row multipliers.  No
per-iteration QP is assembled on either path.

``admm_solve`` runs step 1 as one batched pass over the fleet
(``FleetNodes``): ``LocalBatch`` makes the cycle's eigendecompositions in one
stacked ``eigh`` and answers every vehicle that pins no steering bound,
``EdgeBatch`` answers every edge whose coupled rows are inactive, and only
the remaining nodes go to ``solve_local``/``solve_edge``, which stay the
reference: the batched answers equal theirs bit for bit.  Steps 2 and 3 and
the residuals run over one (N + 2E, Np) array of copies (``_CopyStack``),
with the float operations of ``update_consensus``, ``update_duals``,
``residuals`` and ``apply_rho_update`` in their order, so those dict
functions give the same bits and stay as the reference.  The returned state's
dicts are row views into the final arrays.  Accounted time charges each node
an equal share of its batched pass, plus its own per-node solve when it was
handed over.

Every node solution's status is checked: non-optimal solutions and local and
edge fallbacks are counted in the ``ResidualReport`` along with the worst
node KKT residual, the interior-point iterations the fallbacks took and how
many fallbacks each ``solve_qp`` path answered, and a warning is logged
whenever a non-optimal solution enters consensus.
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
from .qp import OPTIMAL, QpSolution, solve_qp  # noqa: F401
from .subproblems import (EdgeBatch, LocalBatch, build_edge, build_local,  # noqa: F401
                          solve_edge, solve_local)

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


def _shift(x: np.ndarray) -> np.ndarray:
    """One step of the receding horizon: drop the first entry, repeat the last."""
    return np.concatenate([x[1:], x[-1:]])


def init_admm_state(seeds: dict, edges, rho0: float,
                    previous: AdmmState | None = None) -> AdmmState:
    """Start at the seed steering: all copies and the consensus equal the seeds.

    With no ``previous`` state every dual is zero and rho is ``rho0``.  With
    the final state of the previous MPC cycle, rho is its final rho (the scaled
    duals were stored at it) when that cycle had an edge, and ``rho0`` when it
    had none: with no edge the primal residual is zero, so an uncoupled cycle
    only ever halves rho and says nothing about the coupling to come.  Each
    edge still in ``edges`` keeps its two scaled duals shifted one step, and a
    new edge starts at zero.  Each vehicle's own dual is then the negated sum
    of its edge duals, so a vehicle's scaled duals sum to zero, as every ADMM
    iteration leaves them; a vehicle without edges starts at zero.
    """
    rho = rho0 if previous is None or not previous.lam_edge else previous.rho
    if rho <= 0:
        raise ParameterError("rho0 must be positive")
    u = {v: np.asarray(s, dtype=float).copy() for v, s in seeds.items()}
    z = {v: arr.copy() for v, arr in u.items()}
    u_edge = {tuple(e): {v: u[v].copy() for v in e} for e in edges}
    carried = {} if previous is None else previous.lam_edge
    lam_edge = {e: ({v: _shift(carried[e][v]) for v in e} if e in carried
                    else {v: np.zeros_like(u[v]) for v in e})
                for e in u_edge}
    lam = {v: np.zeros_like(arr) for v, arr in u.items()}
    for e in sorted(lam_edge):
        for v in e:
            lam[v] -= lam_edge[e][v]
    return AdmmState(u=u, z=z, lam=lam, u_edge=u_edge, lam_edge=lam_edge, rho=rho)


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


class _CopyStack:
    """The ADMM iterates as arrays, rows in ``_stack``'s order.

    ``C`` and ``L`` (N + 2E, Np) hold every copy and its scaled dual: the N
    local copies (vehicles sorted), then each edge's two endpoint copies
    (edges sorted, endpoints sorted).  ``Z`` (N, Np) is the consensus and
    ``owner`` maps a row to its vehicle's consensus row; ``ri``/``rj`` are the
    rows of each edge's endpoints e[0] and e[1].  The consensus average, the
    dual step and the residuals repeat the float operations of
    ``update_consensus``, ``update_duals`` and ``residuals`` in their order, so
    they equal the dict functions bit for bit.
    """

    def __init__(self, state: AdmmState, vids: list, ekeys: list):
        n, n_edges = len(vids), len(ekeys)
        row = {v: k for k, v in enumerate(vids)}
        ends = np.array([(row[i], row[j]) for i, j in ekeys], dtype=int).reshape(n_edges, 2)
        self.vi, self.vj = ends[:, 0], ends[:, 1]
        swap = (self.vi > self.vj).astype(int)
        self.ri = n + 2 * np.arange(n_edges) + swap
        self.rj = n + 2 * np.arange(n_edges) + 1 - swap
        self.owner = np.concatenate([np.arange(n), np.sort(ends, axis=1).ravel()])
        # each vehicle's copy rows in edge order: round r adds the r-th one
        # of every vehicle that has one
        vehicle = ends.ravel()
        rows = np.stack([self.ri, self.rj], axis=1).ravel()
        degree = np.bincount(vehicle, minlength=n)
        by_vehicle = np.argsort(vehicle, kind="stable")
        rank = np.arange(len(vehicle)) - np.repeat(np.cumsum(degree) - degree, degree)
        self.rounds = [(vehicle[by_vehicle[rank == r]], rows[by_vehicle[rank == r]])
                       for r in range(int(degree.max(initial=0)))]
        self.count = (1 + degree)[:, None]
        np_steps = len(state.u[vids[0]])
        self.C = np.empty((n + 2 * n_edges, np_steps))
        self.L = np.empty_like(self.C)
        self.C[:n] = [state.u[v] for v in vids]
        self.L[:n] = [state.lam[v] for v in vids]
        if n_edges:
            self.C[rows] = [state.u_edge[e][w] for e in ekeys for w in e]
            self.L[rows] = [state.lam_edge[e][w] for e in ekeys for w in e]
        self.Z = np.array([state.z[v] for v in vids], dtype=float).reshape(n, np_steps)

    def consensus(self, rho: float) -> np.ndarray:
        """``update_consensus``: each vehicle's average of its copies plus scaled duals."""
        scaled = self.L / rho
        n = len(self.Z)
        total = self.C[:n] + scaled[:n]
        for vehicles, rows in self.rounds:
            total[vehicles] = total[vehicles] + self.C[rows] + scaled[rows]
        return total / self.count

    def update(self, z_new: np.ndarray) -> None:
        """``update_duals`` with the new consensus, which then replaces ``Z``."""
        self.L = self.L + (self.C - z_new[self.owner])
        self.Z = z_new

    def residuals(self, z_prev: np.ndarray, rho: float, eps_abs: float,
                  eps_rel: float, iteration: int) -> ResidualReport:
        """``residuals`` over the stack."""
        z_stack = self.Z[self.owner]
        r_norm = float(np.linalg.norm(self.C - z_stack))
        s_norm = float(rho * np.linalg.norm(z_stack - z_prev[self.owner]))
        dim = math.sqrt(self.C.size)
        eps_pri = eps_abs * dim + eps_rel * max(float(np.linalg.norm(self.C)),
                                                float(np.linalg.norm(z_stack)))
        eps_dual = eps_abs * dim + eps_rel * float(np.linalg.norm(self.L)) / rho
        converged = (r_norm <= eps_pri) and (s_norm <= eps_dual)
        return ResidualReport(r_norm=r_norm, s_norm=s_norm, eps_pri=eps_pri,
                              eps_dual=eps_dual, converged=converged,
                              iterations_used=iteration)

    def rescale(self, rho: float, new_rho: float) -> None:
        """``apply_rho_update``'s rescaling of every scaled dual."""
        if new_rho != rho:
            self.L = self.L * (rho / new_rho)

    def views(self, rows: np.ndarray, vids: list, ekeys: list) -> tuple[dict, dict]:
        """Per-vehicle and per-edge dicts of row views into ``rows``."""
        per_vehicle = {v: rows[k] for k, v in enumerate(vids)}
        per_edge = {e: {e[0]: rows[self.ri[k]], e[1]: rows[self.rj[k]]}
                    for k, e in enumerate(ekeys)}
        return per_vehicle, per_edge


@dataclass(eq=False)
class NodeStep:
    """One iteration's node solutions: vehicles sorted, then edges sorted.

    ``handed`` maps the index of every node that the batched pass left to
    ``solve_local``/``solve_edge`` to that solve's ``QpSolution``; every other
    node is ``optimal`` and no fallback.  ``times`` is each node's accounted
    time: an equal share of its batched pass, plus its own solve if handed.
    """

    u: np.ndarray            # (N, Np) local copies
    x_edge: np.ndarray       # (E, 2Np) edge copies (u_i, u_j)
    slack: np.ndarray        # (E, Np)
    status: list             # N + E solution statuses
    kkt: np.ndarray          # (N + E,) node KKT residuals
    handed: dict
    times: np.ndarray        # (N + E,) seconds


class FleetNodes:
    """A cycle's node problems, solved as one batched pass per ADMM iteration.

    ``LocalBatch`` and ``EdgeBatch`` answer every vehicle that pins no
    steering bound and every edge whose coupled rows are inactive; the nodes
    they leave go to ``solve_local``/``solve_edge`` (on ``executor`` when
    given), warm started from the node's previous answer as in a per-node
    loop.  Construction (the stacked ``eigh`` and the edge stacks) is charged
    to the first iteration's nodes.
    """

    def __init__(self, local_problems: list, edge_problems: list, executor=None):
        t0 = time.perf_counter()
        self.local = LocalBatch(local_problems)
        t1 = time.perf_counter()
        self.edge = EdgeBatch(edge_problems, self.local.f0.shape[1])
        self.setup_times = (t1 - t0, time.perf_counter() - t1)
        self.local_problems = local_problems
        self.edge_problems = edge_problems
        self.executor = executor
        self.last_u = None            # last iteration's local copies
        self.last_handed: dict = {}   # last iteration's solve_local answers
        self.warm_mu = None           # (E, Np) every edge's last row multipliers

    def _warm_local(self, i: int, np_steps: int):
        """The previous answer of vehicle row i, as ``solve_local`` takes it."""
        if i in self.last_handed or self.last_u is None:
            return self.last_handed.get(i)
        # the batched closed form's answer, whose multipliers are all zero;
        # a warm start reads only u_star and multipliers
        m = self.local_problems[i].G.shape[0]
        return QpSolution(u_star=self.last_u[i], objective=float("nan"), status=OPTIMAL,
                          kkt_residual=float("nan"), multipliers=np.zeros(m + 2 * np_steps))

    def solve(self, stack: _CopyStack, rho: float) -> NodeStep:
        """All node solutions for the consensus and duals in ``stack``."""
        n, n_edges = len(self.local_problems), len(self.edge_problems)
        Z, L = stack.Z, stack.L
        np_steps = Z.shape[1]
        t0 = time.perf_counter()
        u, kkt_local, done_local = self.local.solve(Z, L[:n], rho)
        t1 = time.perf_counter()
        v = np.concatenate([Z[stack.vi] - L[stack.ri], Z[stack.vj] - L[stack.rj]], axis=1)
        x_edge, slack, mu, kkt_edge, done_edge = self.edge.solve(v, rho, self.warm_mu)
        t2 = time.perf_counter()
        setup_local, setup_edge = self.setup_times
        self.setup_times = (0.0, 0.0)
        times = np.concatenate([np.full(n, (t1 - t0 + setup_local) / n),
                                np.full(n_edges, (t2 - t1 + setup_edge) / max(n_edges, 1))])

        def solve_node(i):
            t = time.perf_counter()
            if i < n:
                sol = solve_local(self.local_problems[i], Z[i], L[i], rho,
                                  warm=self._warm_local(i, np_steps))
            else:
                k = i - n
                sol = solve_edge(self.edge_problems[k], Z[stack.vi[k]], Z[stack.vj[k]],
                                 L[stack.ri[k]], L[stack.rj[k]], rho,
                                 warm_mu=None if self.warm_mu is None else self.warm_mu[k])
            return i, sol, time.perf_counter() - t

        slow = np.flatnonzero(~done_local).tolist() + (n + np.flatnonzero(~done_edge)).tolist()
        if self.executor is not None and len(slow) > 1:
            results = list(self.executor.map(solve_node, slow))
        else:
            results = [solve_node(i) for i in slow]
        status = [OPTIMAL] * (n + n_edges)
        kkt = np.concatenate([kkt_local, kkt_edge])
        handed = {}
        for i, sol, dt in results:
            handed[i] = sol
            status[i] = sol.status
            kkt[i] = sol.kkt_residual
            times[i] += dt
            if i < n:
                u[i] = sol.u_star
            else:
                x_edge[i - n] = sol.u_star[:2 * np_steps]
                slack[i - n] = sol.u_star[2 * np_steps:]
                mu[i - n] = sol.multipliers[:np_steps]
        self.last_u = u
        self.last_handed = {i: sol for i, sol in handed.items() if i < n}
        self.warm_mu = mu
        return NodeStep(u=u, x_edge=x_edge, slack=slack, status=status, kkt=kkt,
                        handed=handed, times=times)


def admm_solve(local_problems: dict, edge_problems: dict, config: AdmmConfig,
               seeds: dict | None = None, init: AdmmState | None = None,
               collect_trace: bool = False) -> AdmmResult:
    """Run consensus ADMM until the stopping criterion or the iteration cap.

    ``local_problems`` maps vehicle id to LocalProblem; ``edge_problems`` maps
    (i, j) to EdgeProblem.  The result is independent of subproblem execution
    order within a step: every solve reads only the previous barrier's state.
    Each iteration solves all nodes with ``FleetNodes`` and updates the
    iterates as arrays (``_CopyStack``); the returned state's dicts are row
    views into the final arrays.
    """
    if init is None:
        if seeds is None:
            seeds = {v: np.zeros(lp.horizon) for v, lp in local_problems.items()}
        state = init_admm_state(seeds, edge_problems.keys(), config.rho0)
    else:
        state = init

    if config.max_iters < 1:
        raise ParameterError("max_iters must be at least 1")
    vids = sorted(local_problems)
    ekeys = sorted(edge_problems)
    if sorted(state.u) != vids or sorted(state.u_edge) != ekeys:
        raise ParameterError("the ADMM state must hold the problems' vehicles and edges")
    n = len(vids)
    names = [f"local/{v}" for v in vids] + [f"edge/{e[0]}-{e[1]}" for e in ekeys]
    total_node_time = np.zeros(len(names))

    executor = ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    t_start = time.perf_counter()
    stack = _CopyStack(state, vids, ekeys)
    nodes = FleetNodes([local_problems[v] for v in vids], [edge_problems[e] for e in ekeys],
                       executor)
    np_steps = stack.Z.shape[1]
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

            # Step 1: all local and edge solves, mutually independent
            step = nodes.solve(stack, rho)
            finite = np.concatenate([np.all(np.isfinite(step.u), axis=1),
                                     np.all(np.isfinite(step.x_edge), axis=1)
                                     & np.all(np.isfinite(step.slack), axis=1)])
            if not finite.all():
                raise NumericalFailureError(
                    f"non-finite iterate from {names[int(np.argmin(finite))]} at iteration {k}",
                    iteration=k)
            for i in sorted(step.handed):
                sol = step.handed[i]
                if sol.fallback:
                    kind = "local" if i < n else "edge"
                    fallbacks[kind] += 1
                    fallback_iters[kind] += sol.iterations
                    fallback_paths[sol.path] = fallback_paths.get(sol.path, 0) + 1
            flagged = [f"{names[i]} ({status}, kkt {step.kkt[i]:.2e})"
                       for i, status in enumerate(step.status) if status != OPTIMAL]
            kkt_max = max(kkt_max, float(np.fmax.reduce(step.kkt)))
            total_node_time += step.times
            max_node_time = float(np.max(step.times))
            parallel_time += max_node_time
            slack_max = float(np.max(step.slack, initial=0.0))
            if flagged:
                nonoptimal += len(flagged)
                logger.warning("ADMM iteration %d: non-optimal node solution(s) enter "
                               "consensus: %s", k, ", ".join(flagged))
            stack.C[:n] = step.u
            stack.C[stack.ri] = step.x_edge[:, :np_steps]
            stack.C[stack.rj] = step.x_edge[:, np_steps:]

            # Step 2: consensus averaging; step 3: dual ascent
            z_prev = stack.Z
            stack.update(stack.consensus(rho))
            state.iteration = k

            report = stack.residuals(z_prev, rho, config.eps_abs, config.eps_rel, k)
            if collect_trace or logger.isEnabledFor(logging.DEBUG):
                logger.debug("admm k=%d r=%.6e s=%.6e rho=%.3e tmax=%.6e",
                             k, report.r_norm, report.s_norm, rho, max_node_time)
            if collect_trace:
                trace.append({"k": k, "r_norm": report.r_norm, "s_norm": report.s_norm,
                              "rho": rho, "max_node_time": max_node_time})
            if report.converged:
                break

            if config.adapt_rho:
                new_rho = adapt_rho(rho, report.r_norm, report.s_norm,
                                    config.rho_scale, config.rho_ratio)
                stack.rescale(rho, new_rho)
                state.rho = new_rho
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    state.u, state.u_edge = stack.views(stack.C, vids, ekeys)
    state.lam, state.lam_edge = stack.views(stack.L, vids, ekeys)
    state.z = dict(zip(vids, stack.Z))
    state.z_prev = dict(zip(vids, z_prev))
    if not report.converged:
        logger.warning("ADMM hit the iteration cap (%d) without converging: "
                       "r=%.3e (eps=%.3e) s=%.3e (eps=%.3e); using last consensus iterate",
                       state.iteration, report.r_norm, report.eps_pri,
                       report.s_norm, report.eps_dual)
    report = replace(report, per_node_solve_times=dict(zip(names, total_node_time.tolist())),
                     slack_max=slack_max, parallel_time=parallel_time,
                     wall_time=time.perf_counter() - t_start,
                     nonoptimal_nodes=nonoptimal, edge_fallbacks=fallbacks["edge"],
                     local_fallbacks=fallbacks["local"], kkt_max=kkt_max,
                     local_fallback_ipm_iters=fallback_iters["local"],
                     edge_fallback_ipm_iters=fallback_iters["edge"],
                     fallback_paths=fallback_paths)
    consensus = {v: state.z[v].copy() for v in state.z}
    return AdmmResult(consensus=consensus, report=report, state=state, trace=trace)
