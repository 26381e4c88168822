"""solve_local (the closed-form tracking-node solver) against the built QP.

Instances come from real condensed predictions of one vehicle.  Hypothesis
varies the penalty rho over six decades, narrows the steering box until it binds, and moves the lateral reference past
a position bound so that position rows bind and the node must hand over to
``solve_qp``.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fleetcoord.admm as admm_mod
from fleetcoord import (AdmmConfig, CostWeights, admm_solve, build_local, condense,
                        kkt_residual, linearize, make_local_problem, rollout, solve_local,
                        solve_qp)
from fleetcoord.qp import OPTIMAL
from fleetcoord.scenario import VehicleState

from instances import BoxedSpec, bounded_pair
from oracles import enumerate_qp

TS, L = 0.1, 2.4

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def local_instance(seed, np_steps, steer, lateral, y_room, edge_count=2, y0=0.0):
    """One vehicle at (0, y0) whose reference sits ``lateral`` metres to its left.

    ``y_room`` (or None for no bound) puts the bound y <= y0 + y_room on every
    predicted position; with ``lateral`` > ``y_room`` those rows bind.
    """
    rng = np.random.default_rng(seed)
    v = float(rng.uniform(10, 14))
    # heading level or away from the bound, so zero steering keeps y <= y0
    x0 = VehicleState(0.0, y0, float(rng.uniform(-0.1, 0.0)))
    traj = rollout(x0, rng.uniform(-0.05, 0.05, np_steps), v, L, TS)
    cond = condense(linearize(traj, v, L, TS), x0)
    ref = traj.states_array()[1:].copy()
    ref[:, 1] += lateral
    ref[:, 2] += rng.uniform(-0.2, 0.2, np_steps)
    y_max = math.inf if y_room is None else y0 + y_room
    lp = make_local_problem(BoxedSpec(1, v, steer, y_max), cond, ref.reshape(-1),
                            CostWeights(q_pos=1.0, q_heading=0.5, r_steer=0.1),
                            edge_count=edge_count)
    z, lam = rng.uniform(-0.3, 0.3, size=(2, np_steps))
    return lp, z, lam


instances = st.builds(
    lambda seed, np_steps, steer, lateral, y_room, edges, log_rho: (
        local_instance(seed, np_steps, steer, lateral, y_room, edges), 10.0 ** log_rho),
    seed=st.integers(0, 2 ** 32 - 1),
    np_steps=st.integers(2, 8),
    steer=st.sampled_from([0.005, 0.02, 0.1, 0.61]),
    lateral=st.floats(-1.0, 4.0),
    y_room=st.sampled_from([None, 0.02, 0.1, 0.5]),
    edges=st.integers(0, 3),
    log_rho=st.floats(-3.0, 3.0),
)


def _check_exact(lp, z, lam, rho, sol):
    qp = build_local(lp, z, lam, rho)
    assert sol.status == OPTIMAL
    assert sol.kkt_residual <= 1e-8
    # equal up to round-off: the two sum the stationarity terms in other orders
    assert kkt_residual(qp, sol.u_star, sol.multipliers) == pytest.approx(
        sol.kkt_residual, rel=1e-6, abs=1e-10)
    assert sol.objective == pytest.approx(qp.objective(sol.u_star), rel=1e-9, abs=1e-12)
    return qp


@SETTINGS
@given(instances)
def test_matches_built_qp(inst):
    (lp, z, lam), rho = inst
    sol = solve_local(lp, z, lam, rho)
    qp = _check_exact(lp, z, lam, rho, sol)
    ref = solve_qp(qp)
    assert ref.status == OPTIMAL
    j_ref = qp.objective(ref.u_star)
    assert abs(sol.objective - j_ref) <= 1e-6 * (1.0 + abs(j_ref))
    rows_bind = np.any(ref.multipliers[:qp.m] > 1e-6)
    if rows_bind:
        assert sol.fallback
    if not sol.fallback:
        assert not np.any(sol.multipliers[:qp.m])


@SETTINGS
@given(instances.filter(lambda inst: inst[0][0].horizon <= 3))
def test_matches_enumeration_oracle(inst):
    (lp, z, lam), rho = inst
    sol = solve_local(lp, z, lam, rho)
    qp = _check_exact(lp, z, lam, rho, sol)
    ref = enumerate_qp(qp.H, qp.f, qp.G, qp.h, qp.lb, qp.ub)
    assert ref is not None
    j_ref = qp.objective(ref[0])
    assert abs(sol.objective - j_ref) <= 1e-6 * (1.0 + abs(j_ref))
    if not sol.fallback:
        # a handed-over solve is as exact as solve_qp's 1e-8 KKT stop: a bound
        # with a multiplier near 1e-4 may then sit 1e-5 off, so only the
        # closed form is held to the oracle's point
        assert np.max(np.abs(sol.u_star - ref[0])) <= 1e-6


def test_steering_bounds_pinned_in_closed_form():
    lp, z, lam = local_instance(0, 8, steer=0.2, lateral=0.5, y_room=None)
    sol = solve_local(lp, z, lam, 1.0)
    n = lp.horizon
    assert not sol.fallback
    w, y = sol.multipliers[:n], sol.multipliers[n:]
    assert np.any(w > 0) or np.any(y > 0)
    assert np.sum(np.abs(sol.u_star) == 0.2) == 2
    _check_exact(lp, z, lam, 1.0, sol)
    ref = solve_qp(build_local(lp, z, lam, 1.0))
    assert ref.iterations == 0      # qp's bound shortcut, the same rule
    assert np.max(np.abs(sol.u_star - ref.u_star)) <= 1e-12


binding = st.builds(
    lambda seed, np_steps, steer, lateral, y_room, log_rho: (
        local_instance(seed, np_steps, steer, lateral, y_room), 10.0 ** log_rho),
    seed=st.integers(0, 2 ** 32 - 1),
    np_steps=st.integers(3, 8),
    steer=st.sampled_from([0.1, 0.61]),
    lateral=st.floats(1.0, 4.0),
    y_room=st.sampled_from([0.02, 0.1, 0.5]),
    log_rho=st.floats(-3.0, 3.0),
)


@SETTINGS
@given(binding)
def test_binding_position_rows_fall_back_exactly(inst):
    (lp, z, lam), rho = inst
    qp = build_local(lp, z, lam, rho)
    ref = solve_qp(qp)
    assume(np.any(ref.multipliers[:qp.m] > 1e-6))
    sol = solve_local(lp, z, lam, rho)
    assert sol.fallback
    _check_exact(lp, z, lam, rho, sol)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)


def test_eigendecomposition_is_made_once():
    lp, z, lam = local_instance(2, 5, steer=0.61, lateral=1.0, y_room=None)
    first = lp.eig()
    for rho in (1e-3, 1.0, 1e3):
        solve_local(lp, z, lam, rho)
    assert lp.eig() is first
    d, V, H0s = first
    assert np.allclose(V @ np.diag(d) @ V.T, lp.H0, atol=1e-10 * np.max(np.abs(lp.H0)))


def test_fallbacks_are_counted_and_workers_are_byte_identical(monkeypatch, per_node_path):
    local, edges, seeds = bounded_pair()
    res1 = admm_solve(local, edges, AdmmConfig(workers=1), seeds=copy.deepcopy(seeds))
    res4 = admm_solve(local, edges, AdmmConfig(workers=4), seeds=copy.deepcopy(seeds))
    assert res1.report.iterations_used > 1
    assert res1.report.local_fallbacks == res4.report.local_fallbacks > 0
    assert res1.report.nonoptimal_nodes == res4.report.nonoptimal_nodes == 0
    assert res1.report.kkt_max == res4.report.kkt_max <= 1e-8
    for vid in res1.consensus:
        assert res1.consensus[vid].tobytes() == res4.consensus[vid].tobytes()
        assert res1.state.u[vid].tobytes() == res4.state.u[vid].tobytes()

    # the report counts exactly the solves that handed over
    handed_over = []

    def counting(*args, **kwargs):
        sol = solve_local(*args, **kwargs)
        handed_over.append(sol.fallback)
        return sol

    per_node_path()
    monkeypatch.setattr(admm_mod, "solve_local", counting)
    res = admm_solve(local, edges, AdmmConfig(), seeds=copy.deepcopy(seeds))
    assert res.report.local_fallbacks == sum(handed_over) == res1.report.local_fallbacks
    assert len(handed_over) == len(local) * res.report.iterations_used


def test_fallback_ipm_iterations_and_paths_are_reported(monkeypatch, per_node_path):
    local, edges, seeds = bounded_pair()
    handed_over = []

    def recording(*args, **kwargs):
        sol = solve_local(*args, **kwargs)
        if sol.fallback:
            handed_over.append((sol.iterations, sol.path))
        return sol

    per_node_path()
    monkeypatch.setattr(admm_mod, "solve_local", recording)
    rep = admm_solve(local, edges, AdmmConfig(), seeds=copy.deepcopy(seeds)).report
    assert rep.local_fallbacks == len(handed_over) > 0
    assert rep.local_fallback_ipm_iters == sum(iters for iters, _ in handed_over)
    assert rep.edge_fallbacks == rep.edge_fallback_ipm_iters == 0
    paths = {}
    for _, path in handed_over:
        paths[path] = paths.get(path, 0) + 1
    assert rep.fallback_paths == paths
    assert None not in paths and sum(paths.values()) == rep.local_fallbacks
