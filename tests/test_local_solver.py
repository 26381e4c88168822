"""LocalBatch.solve_node (the tracking-node solver) against the built QP.

``solve_local`` of ``reference.py`` solves one vehicle with it and lays the
answer out as ``solve_qp`` would.

Instances come from real condensed predictions of one vehicle.  Hypothesis
varies the penalty rho over six decades, narrows the steering box until it
binds, and moves the lateral reference past a position bound so that
position rows bind and the node is solved on its dual.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fleetcoord.qp as qp_mod
from fleetcoord import (AdmmConfig, CostWeights, admm_solve, build_local, condense,
                        init_admm_state, kkt_residual, linearize, make_local_problem, rollout,
                        solve_qp)
from fleetcoord.qp import OPTIMAL
from fleetcoord.scenario import VehicleState
from fleetcoord.subproblems import EdgeBatch, LocalBatch

from instances import BoxedSpec, bounded_pair
from oracles import enumerate_qp
from reference import solve_local

TS, L = 0.1, 2.4

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def local_instance(seed, np_steps, steer, lateral, y_room, y0=0.0):
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
                            CostWeights(q_pos=1.0, q_heading=0.5, r_steer=0.1))
    z, lam = rng.uniform(-0.3, 0.3, size=(2, np_steps))
    return lp, z, lam


instances = st.builds(
    lambda seed, np_steps, steer, lateral, y_room, log_rho: (
        local_instance(seed, np_steps, steer, lateral, y_room), 10.0 ** log_rho),
    seed=st.integers(0, 2 ** 32 - 1),
    np_steps=st.integers(2, 8),
    steer=st.sampled_from([0.005, 0.02, 0.1, 0.61]),
    lateral=st.floats(-1.0, 4.0),
    y_room=st.sampled_from([None, 0.02, 0.1, 0.5]),
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
    if np.any(ref.multipliers[:qp.m] > 1e-6):
        assert np.any(sol.multipliers[:qp.m] > 0.0)


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
    assert np.max(np.abs(sol.u_star - ref[0])) <= 1e-6


def test_steering_bounds_pinned_in_closed_form():
    # the dual's positive bound multipliers pin their steering inputs exactly
    lp, z, lam = local_instance(0, 8, steer=0.2, lateral=0.5, y_room=None)
    sol = solve_local(lp, z, lam, 1.0)
    n = lp.horizon
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


def _raise(*args, **kwargs):
    raise AssertionError("the node solver reached solve_qp or built a DenseQp")


@SETTINGS
@given(binding)
def test_binding_position_rows_fall_back_exactly(inst):
    # binding rows take the node off the closed form onto its dual, which
    # reaches the exact optimum without solve_qp or a DenseQp
    (lp, z, lam), rho = inst
    qp = build_local(lp, z, lam, rho)
    ref = solve_qp(qp)
    assume(np.any(ref.multipliers[:qp.m] > 1e-6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qp_mod, "solve_qp", _raise)
        patch.setattr(qp_mod.DenseQp, "__post_init__", _raise)
        sol = solve_local(lp, z, lam, rho)
    assert np.any(sol.multipliers[:qp.m] > 0.0)
    _check_exact(lp, z, lam, rho, sol)
    # solve_qp verifies its answer to a 1e-8 KKT residual, short of the exact optimum
    assert abs(sol.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))


def test_one_stacked_cholesky_per_rho_per_admm_solve(monkeypatch, per_node_path):
    # every vehicle is handed to solve_node at every iteration, and rho
    # changes and returns to earlier values: the cycle probes its vehicle
    # Hessians P = H0s + rho I with one stacked Cholesky per distinct rho,
    # decomposes no vehicle Hessian with eigh, and forms each handed
    # vehicle's and edge's dual kernel once per rho
    local, edges, seeds = bounded_pair()
    H0 = local.H0
    H0s = 0.5 * (H0 + H0.transpose(0, 2, 1))
    eye = np.eye(H0.shape[1])
    rhos, handed, handed_edges, cholesky, eigh, dual, formed = [], set(), set(), [], [], [], []
    real_solve, real_node = LocalBatch.solve, LocalBatch.solve_node
    real_edge_node = EdgeBatch.solve_node
    real_cholesky, real_eigh = np.linalg.cholesky, np.linalg.eigh
    real_kernel = qp_mod._BoxDual.__init__

    def batch_solve(self, z, lam, rho):
        rhos.append(rho)
        return real_solve(self, z, lam, rho)

    def node(self, i, z, lam, rho, warm_mult=None):
        handed.add((i, rho))
        before = len(dual)
        row = real_node(self, i, z, lam, rho, warm_mult)
        formed.extend([("vehicle", i, rho)] * (len(dual) - before))
        return row

    def edge_node(self, k, v, rho, warm_mu=None):
        handed_edges.add((k, rho))
        before = len(dual)
        row = real_edge_node(self, k, v, rho, warm_mu)
        formed.extend([("edge", k, rho)] * (len(dual) - before))
        return row

    def recording(calls, real):
        def call(a, *args, **kwargs):
            calls.append(np.array(a))
            return real(a, *args, **kwargs)
        return call

    def kernel(self, P_blocks, *args):
        dual.append(np.array(P_blocks))
        real_kernel(self, P_blocks, *args)

    per_node_path()
    monkeypatch.setattr(LocalBatch, "solve", batch_solve)
    monkeypatch.setattr(LocalBatch, "solve_node", node)
    monkeypatch.setattr(EdgeBatch, "solve_node", edge_node)
    monkeypatch.setattr(np.linalg, "cholesky", recording(cholesky, real_cholesky))
    monkeypatch.setattr(np.linalg, "eigh", recording(eigh, real_eigh))
    monkeypatch.setattr(qp_mod._BoxDual, "__init__", kernel)
    res = admm_solve(local, edges, AdmmConfig(), init_admm_state(seeds, edges, 1.0, ids=local.ids))
    monkeypatch.undo()
    assert res.report.iterations_used == len(rhos) > 1
    assert res.report.local_handed == len(local.ids) * res.report.iterations_used
    distinct = set(rhos)
    assert 1 < len(distinct) < sum(a != b for a, b in zip(rhos, rhos[1:])) + 1

    # the stacked probes: P - 1e-10 I at each distinct rho, once each
    probes = [a for a in cholesky if a.shape == H0s.shape]
    assert len(probes) == len(cholesky) == len(distinct)
    for rho in distinct:
        P = H0s + rho * eye
        assert sum(np.array_equal(a, P - 1e-10 * eye) for a in probes) == 1

    # the handed solves' own eigh calls (the primal active set's, on dual
    # blocks) touch no vehicle Hessian
    def is_vehicle_hessian(a):
        return a.shape == eye.shape and any(
            np.array_equal(a, h) for h in (*H0, *H0s, *(H0s + rho * eye for rho in distinct)))

    assert not any(is_vehicle_hessian(a) for a in eigh)

    # a kernel formed exactly once for each (vehicle, rho) and each (edge,
    # rho) handed over: a vehicle's on its P, a (1, Np, Np) stack, an edge's
    # on rho I as 2Np blocks of 1 x 1
    assert len(formed) == len(dual)
    assert sorted((i, rho) for kind, i, rho in formed if kind == "vehicle") == sorted(handed)
    assert sorted((k, rho) for kind, k, rho in formed if kind == "edge") == sorted(handed_edges)
    assert handed_edges
    for a, (kind, i, rho) in zip(dual, formed):
        if kind == "vehicle":
            assert a.shape == (1, *eye.shape) and np.array_equal(a[0], H0s[i] + rho * eye)
        else:
            assert a.shape == (2 * len(eye), 1, 1) and np.all(a == rho)


def test_fallbacks_are_counted(monkeypatch, per_node_path):
    # the bounded pair pins steering and binds a lane row: its vehicle nodes
    # fall back from the batched pass to solve_node
    local, edges, seeds = bounded_pair()
    first = admm_solve(local, edges, AdmmConfig(),
                       init_admm_state(seeds, edges, 1.0, ids=local.ids))
    assert first.report.iterations_used > 1
    assert first.report.local_handed > 0
    assert first.report.nonoptimal_nodes == 0 and first.report.kkt_max <= 1e-8

    # the report counts exactly the nodes handed to solve_node
    handed_over = []
    real = LocalBatch.solve_node

    def counting(self, i, *args, **kwargs):
        handed_over.append(i)
        return real(self, i, *args, **kwargs)

    per_node_path()
    monkeypatch.setattr(LocalBatch, "solve_node", counting)
    res = admm_solve(local, edges, AdmmConfig(), init_admm_state(seeds, edges, 1.0, ids=local.ids))
    assert res.report.local_handed == len(handed_over)
    assert len(handed_over) == len(local.ids) * res.report.iterations_used
