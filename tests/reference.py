"""The ADMM steps written over per-vehicle and per-edge dicts.

``fleetcoord.admm.AdmmState`` keeps the iterates as arrays and carries out
the consensus average, the dual step, the residuals and the rho rescaling as
its methods.  The functions here are the same steps written the plain way,
one dict entry per vehicle copy and per edge endpoint copy, and serve as the
reference those methods are tested against bit for bit.  ``to_dicts`` and
``to_arrays`` convert between the two forms.

``solve_local`` and ``solve_edge`` solve one node through its batch's
``solve_node`` and give the answer in ``solve_qp``'s layout, so that it can
be checked against the built primal QP and the enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fleetcoord import AdmmState, ParameterError, QpSolution, ResidualReport
from fleetcoord.qp import MAX_ITER, OPTIMAL
from fleetcoord.subproblems import EdgeBatch, EdgeProblems, LocalBatch, LocalProblems


@dataclass
class DictState:
    """All iterates: per-vehicle copies/consensus/duals and per-edge copies."""

    u: dict
    z: dict
    lam: dict
    u_edge: dict                 # edge -> {endpoint: (Np,)}
    lam_edge: dict
    rho: float
    iteration: int = 0
    z_prev: dict | None = None


def to_dicts(state: AdmmState) -> DictState:
    """Copies of the array state's rows, keyed by vehicle and by edge endpoint."""
    def per_vehicle(rows):
        return {v: rows[k].copy() for k, v in enumerate(state.vids)}

    def per_edge(rows):
        return {e: {e[0]: rows[state.ri[k]].copy(), e[1]: rows[state.rj[k]].copy()}
                for k, e in enumerate(state.ekeys)}

    return DictState(u=per_vehicle(state.C), z=per_vehicle(state.Z),
                     lam=per_vehicle(state.L), u_edge=per_edge(state.C),
                     lam_edge=per_edge(state.L), rho=state.rho, iteration=state.iteration,
                     z_prev=None if state.Z_prev is None else per_vehicle(state.Z_prev))


def to_arrays(ds: DictState) -> AdmmState:
    """The array state holding the dict state's entries."""
    vids, ekeys = sorted(ds.u), sorted(ds.u_edge)

    def rows(per_vehicle):
        return np.array([per_vehicle[v] for v in vids], dtype=float).reshape(len(vids), -1)

    state = AdmmState(vids, ekeys, rows(ds.z), ds.rho)
    state.C[:len(vids)] = rows(ds.u)
    state.L[:len(vids)] = rows(ds.lam)
    for k, e in enumerate(ekeys):
        state.C[state.ri[k]], state.C[state.rj[k]] = ds.u_edge[e][e[0]], ds.u_edge[e][e[1]]
        state.L[state.ri[k]], state.L[state.rj[k]] = ds.lam_edge[e][e[0]], ds.lam_edge[e][e[1]]
    state.iteration = ds.iteration
    state.Z_prev = None if ds.z_prev is None else rows(ds.z_prev)
    return state


def _shift(x: np.ndarray) -> np.ndarray:
    """One step of the receding horizon: drop the first entry, repeat the last."""
    return np.concatenate([x[1:], x[-1:]])


def init_dict_state(seeds: dict, edges, rho0: float,
                    previous: DictState | None = None) -> DictState:
    """``init_admm_state`` over dicts: copies and consensus at the seeds.

    rho is ``rho0``, or the previous final rho when the previous cycle had an
    edge; each edge still in ``edges`` keeps its scaled duals shifted one
    step, a new edge starts at zero, and each vehicle's own dual is the
    negated sum of its edge duals.
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
    return DictState(u=u, z=z, lam=lam, u_edge=u_edge, lam_edge=lam_edge, rho=rho)


def incident_edges(vehicles, edges) -> dict:
    """Each vehicle's incident edges, in sorted order."""
    incident = {v: [] for v in vehicles}
    for e in sorted(edges):
        for v in e:
            incident[v].append(e)
    return incident


def update_consensus(state: DictState) -> dict:
    """Per-vehicle average of the local copy and all incident edge copies."""
    incident = incident_edges(state.u, state.u_edge)
    rho = state.rho
    z_new = {}
    for v in sorted(state.u):
        total = state.u[v] + state.lam[v] / rho
        for e in incident[v]:
            total = total + state.u_edge[e][v] + state.lam_edge[e][v] / rho
        z_new[v] = total / (1 + len(incident[v]))
    return z_new


def update_duals(state: DictState, z_new: dict) -> tuple[dict, dict]:
    """Scaled dual ascent: each copy's dual absorbs its consensus gap."""
    lam = {v: state.lam[v] + (state.u[v] - z_new[v]) for v in state.lam}
    lam_edge = {e: {v: state.lam_edge[e][v] + (state.u_edge[e][v] - z_new[v])
                    for v in state.lam_edge[e]}
                for e in state.lam_edge}
    return lam, lam_edge


def _stack(state: DictState, per_vehicle: dict, per_edge=None) -> np.ndarray:
    """Deterministic stacking: vehicles sorted, then edges sorted, endpoints sorted."""
    parts = [per_vehicle[v] for v in sorted(per_vehicle)]
    for e in sorted(state.u_edge):
        for v in sorted(e):
            parts.append(per_edge[e][v] if per_edge is not None else per_vehicle[v])
    return np.concatenate(parts) if parts else np.zeros(0)


def residuals(state: DictState, z_prev: dict, eps_abs: float, eps_rel: float) -> ResidualReport:
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


def apply_rho_update(state: DictState, new_rho: float) -> None:
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


def node_status(kkt: float) -> str:
    """A node answer's status as ``solve_qp`` names it: optimal at KKT residual <= 1e-8."""
    return OPTIMAL if kkt <= 1e-8 else MAX_ITER


def solve_local(problem, z, lam, rho: float, warm_mult=None) -> QpSolution:
    """``build_local(problem, z, lam, rho)`` solved by ``LocalBatch.solve_node``.

    The objective is the built QP's, 1/2 x'(H0 + rho I) x + f'x with
    f = f0 + rho (lam - z), formed here without building the QP; status is
    ``optimal`` when the KKT residual is at most 1e-8.
    """
    np_steps = problem.horizon
    z = np.asarray(z, dtype=float).reshape(np_steps)
    lam = np.asarray(lam, dtype=float).reshape(np_steps)
    x, kkt, mult = LocalBatch(LocalProblems.stack({0: problem})).solve_node(0, z, lam, rho,
                                                                           warm_mult)
    f = problem.f0 + rho * (lam - z)
    grad = 0.5 * (problem.H0 + problem.H0.T) @ x + rho * x + f
    return QpSolution(u_star=x, objective=float(0.5 * x @ (grad + f)), status=node_status(kkt),
                      kkt_residual=float(kkt), multipliers=mult)


def solve_edge(problem, z_i, z_j, lam_i, lam_j, rho: float, warm_mu=None) -> QpSolution:
    """``build_edge(problem, ...)`` solved by ``EdgeBatch.solve_node``.

    u_star = [u_i, u_j, s] and multipliers [mu, w, y] with w = c - mu on the
    slacks and zero elsewhere, as ``solve_qp`` lays out the primal; the
    objective is the built QP's, formed here without building it.
    """
    n = problem.horizon
    v = np.concatenate([np.asarray(z_i, dtype=float) - np.asarray(lam_i, dtype=float),
                        np.asarray(z_j, dtype=float) - np.asarray(lam_j, dtype=float)])
    edge = EdgeProblems.stack({(0, 1): problem}, (0, 1))
    x, s, mu, kkt = EdgeBatch(edge, n).solve_node(0, v, rho, warm_mu)
    c = problem.slack_penalty
    objective = float(0.5 * rho * (x @ x) + -rho * v @ x + c * np.sum(s))
    return QpSolution(u_star=np.concatenate([x, s]), objective=objective, status=node_status(kkt),
                      kkt_residual=float(kkt),
                      multipliers=np.concatenate([mu, np.zeros(2 * n), c - mu, np.zeros(3 * n)]))
