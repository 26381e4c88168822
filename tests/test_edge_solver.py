"""EdgeBatch.solve_node, the edge QP solved on ``qp._BoxDual``'s dual, against the primal.

``solve_edge`` of ``reference.py`` solves one edge with it and lays the
answer out as ``solve_qp`` would.  The kernel's box QP solver,
``qp._box_active_set``, is checked on its own against enumeration.

Instances come from real condensed predictions of two vehicles, so the first
separation row has no steering dependence; hypothesis adds rank-deficient
steering blocks (duplicated rows), infeasible seeds (pairs closer than d_safe,
where the slack penalty binds and mu = c) and penalties rho over six decades.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fleetcoord import (build_edge, condense, kkt_residual, linearize, make_edge_problem,
                        rollout, solve_qp)
from fleetcoord.qp import OPTIMAL, _kkt_measure
from fleetcoord.scenario import VehicleState
from fleetcoord.subproblems import EdgeProblem, _edge_kkt

from oracles import enumerate_qp
from reference import solve_edge

TS, L = 0.1, 2.4
D_SAFE = 5.0

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _prediction(x0, v, np_steps, controls):
    seed = rollout(x0, controls, v, L, TS)
    return seed, condense(linearize(seed, v, L, TS), x0)


def edge_instance(seed, np_steps, gap, slack_penalty, duplicate):
    """Two vehicles ``gap`` metres apart laterally, converging headings.

    ``duplicate`` copies one row of the steering block onto another (with a
    slightly looser right-hand side), so G loses rank.
    """
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(-0.3, 0.3))
    x_i = VehicleState(float(rng.uniform(-1, 1)), gap / 2, theta - 0.05)
    x_j = VehicleState(float(rng.uniform(-1, 1)), -gap / 2, theta + 0.05)
    seed_i, cond_i = _prediction(x_i, float(rng.uniform(10, 14)), np_steps,
                                 rng.uniform(-0.1, 0.1, np_steps))
    seed_j, cond_j = _prediction(x_j, float(rng.uniform(10, 14)), np_steps,
                                 rng.uniform(-0.1, 0.1, np_steps))
    ep = make_edge_problem((1, 2), cond_i, cond_j, seed_i.positions()[1:],
                           seed_j.positions()[1:], D_SAFE, slack_penalty)
    if duplicate and np_steps >= 3:
        src, dst = (int(k) for k in rng.choice(np.arange(1, np_steps), 2, replace=False))
        G, h = ep.G.copy(), ep.h.copy()
        G[dst] = G[src]
        h[dst] = h[src] + float(rng.uniform(0.0, 1.0))
        ep = dataclasses.replace(ep, G=G, h=h)
    z_i, z_j, lam_i, lam_j = rng.uniform(-0.3, 0.3, size=(4, np_steps))
    return ep, (z_i, z_j, lam_i, lam_j)


instances = st.builds(
    lambda seed, np_steps, gap, log_c, duplicate, log_rho: (
        edge_instance(seed, np_steps, gap, 10.0 ** log_c, duplicate), 10.0 ** log_rho),
    seed=st.integers(0, 2 ** 32 - 1),
    np_steps=st.integers(2, 8),
    gap=st.floats(1.0, 12.0),                # below D_SAFE: infeasible seed
    log_c=st.sampled_from([-2.0, 0.0, 2.0, 4.0]),
    duplicate=st.booleans(),
    log_rho=st.floats(-3.0, 3.0),
)


def _check_exact(ep, args, rho, sol):
    qp = build_edge(ep, *args, rho)
    assert sol.status == OPTIMAL
    assert sol.kkt_residual <= 1e-8
    # equal up to round-off: the two sum the stationarity terms in other orders
    assert kkt_residual(qp, sol.u_star, sol.multipliers) == pytest.approx(
        sol.kkt_residual, rel=1e-6, abs=1e-10)
    assert sol.objective == pytest.approx(qp.objective(sol.u_star), rel=1e-12, abs=1e-12)
    return qp


@SETTINGS
@given(instances)
def test_matches_primal_qp(inst):
    (ep, args), rho = inst
    sol = solve_edge(ep, *args, rho)
    qp = _check_exact(ep, args, rho, sol)
    ref = solve_qp(qp)
    if ref.status != OPTIMAL:
        # solve_qp may find no verified answer (large rho, deeply infeasible
        # seed); the KKT check above already proves sol optimal
        return
    # ref.objective includes the 1e-9 I that solve_qp adds to the singular
    # slack block, so compare both points on the edge QP itself; the gap is
    # relative to 1 + |J| because each answer is verified to 1e-8 absolute
    j_ref = qp.objective(ref.u_star)
    assert abs(sol.objective - j_ref) <= 1e-6 * (1.0 + abs(j_ref))


@SETTINGS
@given(instances.filter(lambda inst: inst[0][0].horizon <= 3))
def test_matches_enumeration_oracle(inst):
    (ep, args), rho = inst
    sol = solve_edge(ep, *args, rho)
    qp = _check_exact(ep, args, rho, sol)
    # the slacks have no curvature; the oracle needs a strictly convex H
    n = ep.horizon
    H = qp.H + np.diag(np.r_[np.zeros(2 * n), np.full(n, 1e-12)])
    ref = enumerate_qp(H, qp.f, qp.G, qp.h, qp.lb, qp.ub)
    assert ref is not None
    j_ref = qp.objective(ref[0])
    assert abs(sol.objective - j_ref) <= 1e-6 * (1.0 + abs(j_ref))
    assert np.max(np.abs(sol.u_star[:2 * n] - ref[0][:2 * n])) <= 1e-6


@SETTINGS
@given(instances, instances)
def test_unrelated_warm_start_gives_the_same_optimum(inst, other):
    (ep, args), rho = inst
    (ep_o, args_o), rho_o = other
    warm = solve_edge(ep_o, *args_o, rho_o).multipliers[:ep_o.horizon]
    n = ep.horizon
    # rescaled to this penalty, so its entries at c land on this problem's bound
    warm = np.resize(warm * (ep.slack_penalty / ep_o.slack_penalty), n)
    cold = solve_edge(ep, *args, rho)
    sol = solve_edge(ep, *args, rho, warm_mu=warm)
    _check_exact(ep, args, rho, sol)
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
    assert np.max(np.abs(sol.u_star[:2 * n] - cold.u_star[:2 * n])) <= 1e-7


def _edge_kkt_separate_maxima(problem, rho, f_x, x, s, mu, w_s):
    """The edge primal's KKT residual as one np.max per term."""
    c = problem.slack_penalty
    stat_x = rho * x + f_x + problem.G.T @ mu
    stat_s = c - mu - w_s
    row = problem.G @ x - s - problem.h
    return max(float(np.max(np.abs(stat_x))), float(np.max(np.abs(stat_s))),
               float(np.max(row)), float(np.max(-mu)), float(np.max(np.abs(mu * row))),
               float(np.max(-s)), float(np.max(-w_s)), float(np.max(np.abs(w_s * s))),
               0.0)


def _edge_kkt_shared(problem, rho, f_x, x, s, mu, w_s):
    """The shared measure ``_kkt_measure`` on the edge primal's vectors."""
    n = problem.horizon
    c = problem.slack_penalty
    stat = np.concatenate([rho * x + f_x + problem.G.T @ mu, c - mu])
    lb = np.concatenate([np.full(2 * n, -np.inf), np.zeros(n)])
    mult = np.concatenate([mu, np.zeros(2 * n), w_s, np.zeros(3 * n)])
    return _kkt_measure(stat, problem.G @ x - s - problem.h, np.concatenate([x, s]),
                        lb, np.full(3 * n, np.inf), mult)


@SETTINGS
@given(instances, st.integers(0, 2 ** 32 - 1))
def test_edge_kkt_single_reduction_is_exact(inst, seed):
    (ep, args), rho = inst
    n = ep.horizon
    sol = solve_edge(ep, *args, rho)
    v = np.concatenate([args[0] - args[2], args[1] - args[3]])
    x, s = sol.u_star[:2 * n], sol.u_star[2 * n:]
    mu, w_s = sol.multipliers[:n], sol.multipliers[3 * n:4 * n]
    assert sol.kkt_residual == _edge_kkt_separate_maxima(ep, rho, -rho * v, x, s, mu, w_s)
    rng = np.random.default_rng(seed)
    points = [(x, s, mu, w_s)]          # the optimum, then perturbed points
    for scale in (1e-9, 1e-3, 1.0):
        points.append(tuple(a + scale * rng.standard_normal(a.shape)
                            for a in (x, s, mu, w_s)))
    for point in points:
        got = _edge_kkt_shared(ep, rho, -rho * v, *point)
        want = _edge_kkt_separate_maxima(ep, rho, -rho * v, *point)
        assert got == want
        # the edge solvers' own formula, where w = c - mu as they set it
        x_p, s_p, mu_p, _ = point
        c = ep.slack_penalty
        stat_x = rho * x_p + -rho * v + ep.G.T @ mu_p
        assert _edge_kkt(stat_x, ep.G @ x_p, ep.h, s_p, mu_p, c) == _edge_kkt_shared(
            ep, rho, -rho * v, x_p, s_p, mu_p, c - mu_p)


def test_zero_row_slack_in_closed_form():
    # seed pair 2 m apart: the step-1 row cannot be fixed by any steering
    ep, args = edge_instance(3, 5, gap=2.0, slack_penalty=1e4, duplicate=False)
    assert list(np.flatnonzero(np.max(np.abs(ep.G), axis=1) == 0.0)) == [0] and ep.h[0] < 0
    sol = solve_edge(ep, *args, 1.0)
    n = ep.horizon
    assert sol.u_star[2 * n] == -ep.h[0]
    assert sol.multipliers[0] == ep.slack_penalty
    _check_exact(ep, args, 1.0, sol)


# M = L L' is not an M-matrix, and from the cold guess q / diag(M) the
# primal-dual active set revisits a set pair on this box QP (c = 1)
CYCLE_L = np.linalg.cholesky(np.array([[6.0, 2.0, -7.0], [2.0, 2.0, -5.0], [-7.0, -5.0, 14.0]]))
CYCLE_Q, CYCLE_C = np.array([-4.0, 1.0, 1.0]), 1.0


def test_forced_pdas_cycle_still_reaches_the_exact_optimum(monkeypatch):
    import fleetcoord.qp as qp_mod
    # an edge whose three rows all steer, with G G' = CYCLE_L CYCLE_L'
    n, rho = 3, 2.0
    G = np.zeros((n, 2 * n))
    G[:, :n] = CYCLE_L
    ep = EdgeProblem(slack_penalty=CYCLE_C, G=G, h=-CYCLE_Q / rho)
    continued = []
    real = qp_mod._primal_active_set

    def spy(*args):
        continued.append(True)
        return real(*args)

    monkeypatch.setattr(qp_mod, "_primal_active_set", spy)
    args = tuple(np.zeros(n) for _ in range(4))
    sol = solve_edge(ep, *args, rho)
    assert continued
    qp = _check_exact(ep, args, rho, sol)
    H = qp.H + np.diag(np.r_[np.zeros(2 * n), np.full(n, 1e-12)])
    ref = enumerate_qp(H, qp.f, qp.G, qp.h, qp.lb, qp.ub)
    assert sol.objective == pytest.approx(qp.objective(ref[0]), rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 5), rank=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1),
       c=st.sampled_from([0.5, 3.0, 1e4, math.inf, "per_row"]),
       start=st.sampled_from([None, "random", "wide"]))
@example(n=3, rank=3, seed=0, c=CYCLE_C, start="cycle")    # forces the primal continuation
def test_box_active_set_matches_enumeration(n, rank, seed, c, start):
    # PSD M = B B' of rank <= min(n, rank), some rows of B zero; q = M y - r
    # with r >= 0, so the box QP stays bounded where c is infinite.  Every row
    # has the bound c, or with "per_row" its own, finite or infinite
    from fleetcoord.qp import _box_active_set
    rng = np.random.default_rng(seed)
    if c == "per_row":
        c = np.where(rng.random(n) < 0.5, rng.choice([0.5, 3.0, 1e4], n), math.inf)
    else:
        c = np.full(n, c)
    B = rng.normal(size=(n, rank)) * (rng.random((n, 1)) < 0.9)
    M = B @ B.T
    q = M @ rng.normal(size=n) * 3.0 - rng.exponential(size=n) * (rng.random(n) < 0.5)
    if start == "cycle":
        M, q = CYCLE_L @ CYCLE_L.T, CYCLE_Q
    warm = {None: None, "cycle": None, "random": rng.uniform(-1.0, 2.0, n) * np.minimum(c, 10.0),
            "wide": rng.normal(size=n) * 1e3}[start]
    mu = _box_active_set(M, q, c, warm)
    assert np.all(mu >= 0.0) and np.all(mu <= c)
    # the box QP's KKT conditions, to rounding: a certificate of optimality
    g = M @ mu - q
    tol = 1e-9 * (1.0 + np.abs(M) @ np.abs(mu) + np.abs(q))
    lower, upper = mu <= 0.0, mu >= c
    free = ~lower & ~upper
    assert np.all(g[lower] >= -tol[lower]) and np.all(g[upper] <= tol[upper])
    assert np.all(np.abs(g[free]) <= tol[free])
    # a singular M can make the optimal set unbounded and its optimum large,
    # so past a box of 1e3 mu is only held to be no worse than the oracle's
    ref = enumerate_qp(M, -q, lb=np.zeros(n), ub=np.minimum(c, 1e3))
    assert ref is not None
    objective = 0.5 * mu @ M @ mu - q @ mu
    assert objective <= ref[1] + 1e-8 * (1.0 + abs(ref[1]))
    if np.all(c <= 1e3):
        assert objective >= ref[1] - 1e-8 * (1.0 + abs(ref[1]))
