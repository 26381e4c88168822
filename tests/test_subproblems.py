import re

import numpy as np
import pytest

from fleetcoord import (CostWeights, DegenerateSeedError, DenseQp, ParameterError,
                        build_centralized, build_constraint_graph, build_edge, build_local,
                        condense, convexify_cycle, fleet_objective, generate_scaled_scenario,
                        linearize, linearize_collision, make_edge_problem,
                        make_local_problem, make_seed, reference_window, rollout, solve_qp,
                        tracking_objective)
from fleetcoord.scenario import Bounds, VehicleState

from instances import InstanceSpec, random_fleet_instance, stack, unstack
from oracles import enumerate_qp


def make_vehicle_data(rng, vid=1, np_steps=5, theta=None, pos=None, v=None):
    ts, L = 0.1, 2.4
    theta = float(rng.uniform(-1.0, 1.0)) if theta is None else theta
    pos = rng.uniform(-10, 10, size=2) if pos is None else np.asarray(pos, float)
    v = float(rng.uniform(10, 14)) if v is None else v
    x0 = VehicleState(pos[0], pos[1], theta)
    seed = rollout(x0, np.zeros(np_steps), v, L, ts)
    cond = condense(linearize(seed, v, L, ts), x0)
    return InstanceSpec(vid, v, L), x0, seed, cond


# ---------------------------------------------------------------- collision

def test_halfspace_direct_substitution():
    hs = linearize_collision((0.0, 0.0), (10.0, 0.0), d_safe=5.0)
    # 2a'(p_i - p_j) >= |a|^2 + 25 with a = (-10, 0): p_jx - p_ix >= 6.25
    assert hs.margin((0.0, 0.0), (6.25, 0.0)) == pytest.approx(0.0)
    assert hs.margin((0.0, 0.0), (7.0, 0.0)) > 0
    assert hs.margin((0.0, 0.0), (6.0, 0.0)) < 0


def test_halfspace_equality_at_exact_separation():
    hs = linearize_collision((0.0, 0.0), (5.0, 0.0), d_safe=5.0)
    assert hs.margin((0.0, 0.0), (5.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_halfspace_conservative():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p_i0 = rng.uniform(-20, 20, size=2)
        p_j0 = p_i0 + rng.normal(size=2) * rng.uniform(0.05, 10.0)
        if np.hypot(*(p_i0 - p_j0)) < 1e-6:
            continue
        d_safe = float(rng.uniform(1.0, 10.0))
        hs = linearize_collision(p_i0, p_j0, d_safe)
        a = hs.a
        a_unit = a / np.linalg.norm(a)
        perp = np.array([-a_unit[1], a_unit[0]])
        # point on the supporting plane plus inward slack: always in the halfspace
        d = (hs.rhs / (2 * a @ a)) * a \
            + float(rng.uniform(0, 5)) * a_unit + float(rng.normal() * 3) * perp
        assert hs.margin(d, np.zeros(2)) >= -1e-9
        assert np.linalg.norm(d) >= d_safe - 1e-9


def test_coincident_seed_raises():
    with pytest.raises(DegenerateSeedError):
        linearize_collision((1.0, 2.0), (1.0, 2.0), d_safe=5.0)


def test_degenerate_seed_fallback_is_conservative():
    rng = np.random.default_rng(15)
    spec_i, xi, seed_i, cond_i = make_vehicle_data(rng, 1, pos=(0, 0), theta=0.0)
    pos = seed_i.positions()[1:]
    ep = make_edge_problem((1, 2), cond_i, cond_i, pos, pos, d_safe=5.0,
                           fallback_dir=(0.0, 3.0))
    # every step's halfspace is 2 a'(p_i - p_j) >= 1 + d_safe^2 with a the
    # unit fallback direction (0, 1)
    n = ep.horizon
    for k in range(n):
        P, _ = cond_i.position_block(k + 1)
        assert np.allclose(ep.G[k, :n], -2.0 * P[1])
        assert np.allclose(ep.G[k, n:2 * n], 2.0 * P[1])
        assert ep.h[k] == pytest.approx(-(1.0 + 25.0))


# ---------------------------------------------------------------- local

def test_local_zero_tracking_error():
    rng = np.random.default_rng(19)
    spec, x0, seed, cond = make_vehicle_data(rng)
    ref = seed.states_array()[1:].reshape(-1)   # reference equals the seed rollout
    lp = make_local_problem(spec, cond, ref, CostWeights())
    qp = build_local(lp, np.zeros(lp.horizon), np.zeros(lp.horizon), rho=1.0)
    sol = solve_qp(qp)
    assert np.max(np.abs(sol.u_star)) <= 1e-8


def test_local_prox_domination():
    rng = np.random.default_rng(19)
    spec, x0, seed, cond = make_vehicle_data(rng)
    ref = rng.normal(size=3 * lp_h(cond))
    lp = make_local_problem(spec, cond, ref, CostWeights())
    z = rng.uniform(-0.4, 0.4, size=lp.horizon)
    sol = solve_qp(build_local(lp, z, np.zeros(lp.horizon), rho=1e6))
    assert np.max(np.abs(sol.u_star - z)) <= 1e-3


def lp_h(cond):
    return cond.horizon


def test_local_objective_matches_direct_evaluation():
    # the assembled quadratic must equal a from-scratch cost evaluation
    rng = np.random.default_rng(19)
    spec, x0, seed, cond = make_vehicle_data(rng)
    np_steps = cond.horizon
    ref = rng.normal(size=3 * np_steps)
    w = CostWeights(q_pos=1.3, q_heading=0.4, r_steer=0.7)
    lp = make_local_problem(spec, cond, ref, w)
    for _ in range(20):
        u = rng.uniform(-0.5, 0.5, size=np_steps)
        states = (cond.Phi @ u + cond.gamma).reshape(-1, 3)
        expect = 0.0
        for k in range(np_steps):
            dx = states[k] - ref[3 * k:3 * k + 3]
            expect += w.q_pos * (dx[0] ** 2 + dx[1] ** 2) + w.q_heading * dx[2] ** 2
        expect += w.r_steer * float(u @ u)
        assert tracking_objective(lp, u) == pytest.approx(expect, rel=1e-12, abs=1e-9)


def test_local_qp_includes_prox_term():
    rng = np.random.default_rng(19)
    spec, x0, seed, cond = make_vehicle_data(rng)
    ref = rng.normal(size=3 * cond.horizon)
    lp = make_local_problem(spec, cond, ref, CostWeights())
    z = rng.uniform(-0.2, 0.2, size=lp.horizon)
    lam = rng.uniform(-0.1, 0.1, size=lp.horizon)
    rho = 2.5
    qp = build_local(lp, z, lam, rho)
    for _ in range(10):
        u = rng.uniform(-0.4, 0.4, size=lp.horizon)
        expect = (tracking_objective(lp, u)
                  + 0.5 * rho * float((u - z + lam) @ (u - z + lam)))
        got = qp.objective(u) + lp.const0 + 0.5 * rho * float((z - lam) @ (z - lam))
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-9)


def test_position_bounds_mapped_through_prediction():
    rng = np.random.default_rng(25)
    spec, x0, seed, cond = make_vehicle_data(rng, pos=(0.0, 0.0), theta=0.0, v=12.0)
    spec.bounds = Bounds(-100.0, 100.0, -1.0, 1.0)   # tight lateral road
    ref = seed.states_array()[1:].reshape(-1).copy()
    ref[1::3] += 5.0                                  # reference way off the road
    lp = make_local_problem(spec, cond, ref, CostWeights())
    sol = solve_qp(build_local(lp, np.zeros(lp.horizon), np.zeros(lp.horizon), rho=1e-6))
    states = cond.predict(sol.u_star)
    assert np.max(states[:, 1]) <= 1.0 + 1e-6


# ---------------------------------------------------------------- edge

def test_edge_inactive_prox_exact():
    rng = np.random.default_rng(33)
    _, _, seed_i, cond_i = make_vehicle_data(rng, 1, pos=(0, 0))
    _, _, seed_j, cond_j = make_vehicle_data(rng, 2, pos=(200, 0))
    ep = make_edge_problem((1, 2), cond_i, cond_j, seed_i.positions()[1:],
                           seed_j.positions()[1:], d_safe=5.0)
    n = ep.horizon
    z_i, z_j = rng.uniform(-0.3, 0.3, size=(2, n))
    lam_i, lam_j = rng.uniform(-0.1, 0.1, size=(2, n))
    sol = solve_qp(build_edge(ep, z_i, z_j, lam_i, lam_j, rho=1.7))
    assert np.max(np.abs(sol.u_star[:n] - (z_i - lam_i))) <= 1e-8
    assert np.max(np.abs(sol.u_star[n:2 * n] - (z_j - lam_j))) <= 1e-8
    assert np.max(sol.u_star[2 * n:]) <= 1e-8


def test_edge_symmetric_split():
    # mirror-symmetric pair: adjustments must have equal magnitude
    rng = np.random.default_rng(35)
    np_steps = 5
    _, _, seed_i, cond_i = make_vehicle_data(rng, 1, pos=(0.0, 1.5), theta=0.0, v=12.0)
    _, _, seed_j, cond_j = make_vehicle_data(rng, 2, pos=(0.0, -1.5), theta=0.0, v=12.0)
    ep = make_edge_problem((1, 2), cond_i, cond_j, seed_i.positions()[1:],
                           seed_j.positions()[1:], d_safe=5.0)
    n = ep.horizon
    sol = solve_qp(build_edge(ep, np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
                              rho=1.0))
    u_i, u_j = sol.u_star[:n], sol.u_star[n:2 * n]
    assert np.linalg.norm(u_i) > 1e-3            # constraint is active
    assert np.linalg.norm(u_i) == pytest.approx(np.linalg.norm(u_j), rel=1e-6)
    assert np.allclose(u_i, -u_j, atol=1e-6)


def test_edge_active_matches_enumeration_oracle():
    rng = np.random.default_rng(37)
    np_steps = 3
    _, _, seed_i, cond_i = make_vehicle_data(rng, 1, np_steps=np_steps,
                                             pos=(0.0, 2.0), theta=0.0, v=12.0)
    _, _, seed_j, cond_j = make_vehicle_data(rng, 2, np_steps=np_steps,
                                             pos=(0.0, -2.0), theta=0.0, v=12.0)
    ep = make_edge_problem((1, 2), cond_i, cond_j, seed_i.positions()[1:],
                           seed_j.positions()[1:], d_safe=5.0)
    z_i, z_j = rng.uniform(-0.1, 0.1, size=(2, np_steps))
    qp = build_edge(ep, z_i, z_j, np.zeros(np_steps), np.zeros(np_steps), rho=1.0)
    sol = solve_qp(qp)
    ref = enumerate_qp(qp.H + 1e-9 * np.eye(qp.n), qp.f, qp.G, qp.h, qp.lb, qp.ub)
    assert ref is not None
    assert np.max(np.abs(sol.u_star - ref[0])) <= 1e-6


def test_zero_slack_feasible_controls_keep_linear_distance():
    # any joint steering satisfying all halfspaces with zero slack keeps the
    # predicted pair at least d_safe apart under the linear model
    rng = np.random.default_rng(36)
    _, _, seed_i, cond_i = make_vehicle_data(rng, 1, pos=(0.0, 3.0), theta=0.1)
    _, _, seed_j, cond_j = make_vehicle_data(rng, 2, pos=(2.0, -3.0), theta=-0.2)
    d_safe = 5.0
    ep = make_edge_problem((1, 2), cond_i, cond_j, seed_i.positions()[1:],
                           seed_j.positions()[1:], d_safe=d_safe)
    n = ep.horizon
    found = 0
    for _ in range(500):
        u = rng.uniform(-0.5, 0.5, size=2 * n)
        if np.max(ep.G @ u - ep.h) > 0:
            continue
        found += 1
        p_i = cond_i.predict(u[:n])[:, :2]
        p_j = cond_j.predict(u[n:])[:, :2]
        assert np.min(np.hypot(*(p_i - p_j).T)) >= d_safe - 1e-9
    assert found > 10


def test_edge_swap_symmetry():
    rng = np.random.default_rng(39)
    _, _, seed_i, cond_i = make_vehicle_data(rng, 1, pos=(0.0, 2.0), theta=0.2)
    _, _, seed_j, cond_j = make_vehicle_data(rng, 2, pos=(3.0, -2.0), theta=-0.1)
    ep_ij = make_edge_problem((1, 2), cond_i, cond_j, seed_i.positions()[1:],
                              seed_j.positions()[1:], d_safe=5.0)
    ep_ji = make_edge_problem((2, 1), cond_j, cond_i, seed_j.positions()[1:],
                              seed_i.positions()[1:], d_safe=5.0)
    n = ep_ij.horizon
    rng2 = np.random.default_rng(1)
    z_i, z_j = rng2.uniform(-0.2, 0.2, size=(2, n))
    a = solve_qp(build_edge(ep_ij, z_i, z_j, np.zeros(n), np.zeros(n), rho=1.0))
    b = solve_qp(build_edge(ep_ji, z_j, z_i, np.zeros(n), np.zeros(n), rho=1.0))
    assert np.allclose(a.u_star[:n], b.u_star[n:2 * n], atol=1e-7)
    assert np.allclose(a.u_star[n:2 * n], b.u_star[:n], atol=1e-7)


# ---------------------------------------------------------------- centralized

def test_centralized_single_vehicle_matches_local():
    rng = np.random.default_rng(43)
    spec, x0, seed, cond = make_vehicle_data(rng)
    ref = rng.normal(size=3 * cond.horizon)
    lp = make_local_problem(spec, cond, ref, CostWeights())
    central = build_centralized(*stack({1: lp}, {}))
    assert np.allclose(central.qp.H, lp.H0)
    assert np.allclose(central.qp.f, lp.f0)
    sol_c = solve_qp(central.qp)
    # tracking-only local problem: drive rho towards zero
    sol_l = solve_qp(build_local(lp, np.zeros(lp.horizon), np.zeros(lp.horizon),
                                 rho=1e-9))
    assert np.max(np.abs(sol_c.u_star - sol_l.u_star)) <= 1e-5


def test_centralized_far_apart_separable():
    rng = np.random.default_rng(47)
    spec1, x1, seed1, cond1 = make_vehicle_data(rng, 1, pos=(0, 0))
    spec2, x2, seed2, cond2 = make_vehicle_data(rng, 2, pos=(500, 0))
    refs = {1: rng.normal(size=3 * cond1.horizon), 2: rng.normal(size=3 * cond2.horizon)}
    lps = {1: make_local_problem(spec1, cond1, refs[1], CostWeights()),
           2: make_local_problem(spec2, cond2, refs[2], CostWeights())}
    eps = {(1, 2): make_edge_problem((1, 2), cond1, cond2, seed1.positions()[1:],
                                     seed2.positions()[1:], d_safe=5.0)}
    central = build_centralized(*stack(lps, eps))
    sol = solve_qp(central.qp)
    controls = central.controls(sol.u_star)
    for vid in (1, 2):
        alone = solve_qp(build_local(lps[vid], np.zeros(5), np.zeros(5), rho=1e-9))
        assert np.max(np.abs(controls[vid] - alone.u_star)) <= 1e-5
    assert np.max(sol.u_star[central.n_controls:]) <= 1e-8


def test_decomposition_consistency():
    # sum of local tracking objectives equals the centralized objective at a
    # zero-slack point, to round-off
    rng = np.random.default_rng(53)
    spec1, x1, seed1, cond1 = make_vehicle_data(rng, 1, pos=(0, 0))
    spec2, x2, seed2, cond2 = make_vehicle_data(rng, 2, pos=(30, 0))
    refs = {1: rng.normal(size=15), 2: rng.normal(size=15)}
    lps = {1: make_local_problem(spec1, cond1, refs[1], CostWeights()),
           2: make_local_problem(spec2, cond2, refs[2], CostWeights())}
    eps = {(1, 2): make_edge_problem((1, 2), cond1, cond2, seed1.positions()[1:],
                                     seed2.positions()[1:], d_safe=5.0)}
    central = build_centralized(*stack(lps, eps))
    for _ in range(10):
        u = {1: rng.uniform(-0.3, 0.3, size=5), 2: rng.uniform(-0.3, 0.3, size=5)}
        u_full = np.concatenate([u[1], u[2], np.zeros(5)])
        const = sum(lp.const0 for lp in lps.values())
        assert central.qp.objective(u_full) + const == pytest.approx(
            fleet_objective(stack(lps, {})[0], u), rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("row", [4, -1])
def test_centralized_rejects_an_endpoint_outside_the_fleet(row):
    # the fleet's rows are 0..N-1: a row past them or a negative one names no
    # vehicle, and would write its coefficients into the wrong columns
    local, edges, _ = random_fleet_instance(np.random.default_rng(5))
    assert len(local.ids) == 4 and edges.edges
    edges.pairs[0, 1] = row
    message = re.escape(f"edge {edges.edges[0]} has an endpoint outside the fleet")
    with pytest.raises(ParameterError, match=message):
        build_centralized(local, edges)


def test_nontrivial_cost_required():
    rng = np.random.default_rng(59)
    spec, x0, seed, cond = make_vehicle_data(rng)
    from fleetcoord import ParameterError
    with pytest.raises(ParameterError):
        make_local_problem(spec, cond, np.zeros(3 * cond.horizon),
                           CostWeights(q_pos=0.0, q_heading=0.0, r_steer=0.0))


def _centralized_rows_reference(local_problems, edge_problems):
    """build_centralized as it stood before preallocation: one G row at a time."""
    vids = tuple(sorted(local_problems))
    edges = tuple(sorted(edge_problems))
    np_steps = local_problems[vids[0]].horizon
    n_u = len(vids) * np_steps
    n = n_u + len(edges) * np_steps
    col = {vid: i * np_steps for i, vid in enumerate(vids)}
    H = np.zeros((n, n))
    f = np.zeros(n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    rows, rhs = [], []
    for vid in vids:
        lp = local_problems[vid]
        c = col[vid]
        H[c:c + np_steps, c:c + np_steps] = lp.H0
        f[c:c + np_steps] = lp.f0
        lb[c:c + np_steps] = lp.steer_lb
        ub[c:c + np_steps] = lp.steer_ub
        for r in range(lp.G.shape[0]):
            row = np.zeros(n)
            row[c:c + np_steps] = lp.G[r]
            rows.append(row)
            rhs.append(lp.h[r])
    for k, (i, j) in enumerate(edges):
        ep = edge_problems[(i, j)]
        s_col = n_u + k * np_steps
        f[s_col:s_col + np_steps] = ep.slack_penalty
        lb[s_col:s_col + np_steps] = 0.0
        for r in range(np_steps):
            row = np.zeros(n)
            row[col[i]:col[i] + np_steps] = ep.G[r, :np_steps]
            row[col[j]:col[j] + np_steps] = ep.G[r, np_steps:]
            row[s_col + r] = -1.0
            rows.append(row)
            rhs.append(ep.h[r])
    G = np.array(rows) if rows else np.zeros((0, n))
    h = np.array(rhs) if rhs else np.zeros(0)
    return DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pruned", [True, False])
def test_centralized_assembly_matches_row_by_row(seed, pruned):
    sc = generate_scaled_scenario(16, seed)
    cfg = sc.config
    current = {spec.id: spec.initial_state for spec in sc.vehicles}
    graph = build_constraint_graph(current, cfg.d_perc, cfg.d_safe)
    seeds = {spec.id: make_seed(None, current[spec.id], spec, cfg.horizon_steps, cfg.ts)
             for spec in sc.vehicles}
    lps, eps = (unstack(problems) for problems in convexify_cycle(sc, current, seeds, graph, 0.0))
    if not pruned:     # keep every position-bound row, so G has local rows too
        weights = CostWeights(q_pos=cfg.q_weight, q_heading=cfg.q_heading,
                              r_steer=cfg.r_weight)
        lps = {spec.id: make_local_problem(
                   spec, condense(linearize(seeds[spec.id], spec.speed, spec.wheelbase, cfg.ts),
                                  current[spec.id]),
                   reference_window(spec, 0.0, cfg.horizon_steps, cfg.ts), weights)
               for spec in sc.vehicles}
        assert sum(lp.G.shape[0] for lp in lps.values()) > 0
    assert eps
    qp = build_centralized(*stack(lps, eps)).qp
    ref = _centralized_rows_reference(lps, eps)
    # the tracking blocks, then the slack diagonal, with the reference's values
    assert qp.H.split == len(lps) * cfg.horizon_steps
    assert np.asarray(qp.H).tobytes() == np.asarray(ref.H).tobytes()
    for name in ("H", "f", "G", "h", "lb", "ub"):
        got, want = np.asarray(getattr(qp, name)), np.asarray(getattr(ref, name))
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
