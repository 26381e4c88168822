import copy
import math

import numpy as np
import pytest

from fleetcoord import (AdmmConfig, AdmmState, NumericalFailureError, adapt_rho,
                        admm_solve, apply_rho_update, build_centralized, build_local,
                        fleet_objective, init_admm_state, residuals, solve_qp,
                        update_consensus, update_duals)

from instances import random_fleet_instance


def small_state(np_steps=4, rho=1.0):
    u = {1: np.ones(np_steps), 2: np.zeros(np_steps)}
    z = {1: np.zeros(np_steps), 2: np.zeros(np_steps)}
    lam = {1: np.zeros(np_steps), 2: np.zeros(np_steps)}
    u_edge = {(1, 2): {1: 3.0 * np.ones(np_steps), 2: np.zeros(np_steps)}}
    lam_edge = {(1, 2): {1: np.zeros(np_steps), 2: np.zeros(np_steps)}}
    return AdmmState(u=u, z=z, lam=lam, u_edge=u_edge, lam_edge=lam_edge, rho=rho)


# ------------------------------------------------------------- step formulas

def test_consensus_single_edge_average():
    state = small_state()
    z = update_consensus(state)
    assert np.allclose(z[1], 2.0)      # (1 + 3) / 2 with zero duals
    assert np.allclose(z[2], 0.0)


def test_consensus_isolated_vehicle():
    state = small_state()
    state.u_edge = {}
    state.lam_edge = {}
    state.lam[1] = np.full(4, 0.25)
    state.rho = 2.0
    z = update_consensus(state)
    assert np.allclose(z[1], state.u[1] + state.lam[1] / 2.0)


def test_consensus_matches_formula_oracle():
    rng = np.random.default_rng(61)
    np_steps = 6
    nodes = list(range(1, 6))
    edges = [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
    u = {v: rng.normal(size=np_steps) for v in nodes}
    z0 = {v: rng.normal(size=np_steps) for v in nodes}
    lam = {v: rng.normal(size=np_steps) for v in nodes}
    u_edge = {e: {v: rng.normal(size=np_steps) for v in e} for e in edges}
    lam_edge = {e: {v: rng.normal(size=np_steps) for v in e} for e in edges}
    rho = 1.7
    state = AdmmState(u=u, z=z0, lam=lam, u_edge=u_edge, lam_edge=lam_edge, rho=rho)
    z = update_consensus(state)
    for v in nodes:
        total = u[v] + lam[v] / rho
        count = 1
        for e in edges:
            if v in e:
                total = total + u_edge[e][v] + lam_edge[e][v] / rho
                count += 1
        assert np.allclose(z[v], total / count, atol=1e-13)


def test_dual_update_zero_residual_fixed_point():
    state = small_state()
    state.u = {1: np.full(4, 0.7), 2: np.zeros(4)}
    z_new = {1: np.full(4, 0.7), 2: np.zeros(4)}
    state.u_edge[(1, 2)][1] = np.full(4, 0.7)
    lam, lam_edge = update_duals(state, z_new)
    assert np.allclose(lam[1], 0.0)
    assert np.allclose(lam_edge[(1, 2)][1], 0.0)


def test_dual_update_formula_oracle():
    rng = np.random.default_rng(67)
    state = small_state()
    state.lam = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    state.lam_edge[(1, 2)] = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    z_new = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    lam, lam_edge = update_duals(state, z_new)
    for v in (1, 2):
        assert np.allclose(lam[v], state.lam[v] + state.u[v] - z_new[v])
        assert np.allclose(lam_edge[(1, 2)][v],
                           state.lam_edge[(1, 2)][v] + state.u_edge[(1, 2)][v] - z_new[v])


def test_residuals_converged_at_fixed_point():
    state = small_state()
    state.u = {1: np.full(4, 0.5), 2: np.full(4, -0.5)}
    state.z = copy.deepcopy(state.u)
    state.u_edge[(1, 2)] = {1: np.full(4, 0.5), 2: np.full(4, -0.5)}
    rep = residuals(state, copy.deepcopy(state.z), eps_abs=0.01, eps_rel=0.01)
    assert rep.r_norm == 0.0
    assert rep.s_norm == 0.0
    assert rep.converged
    assert rep.eps_pri > 0 and rep.eps_dual > 0


def test_residual_dimension_factor():
    # N=3, M=2, Np=15: the tolerance floor carries sqrt((3 + 4) * 15)
    np_steps = 15
    u = {v: np.zeros(np_steps) for v in (1, 2, 3)}
    u_edge = {(1, 2): {1: np.zeros(np_steps), 2: np.zeros(np_steps)},
              (2, 3): {2: np.zeros(np_steps), 3: np.zeros(np_steps)}}
    lam_edge = copy.deepcopy(u_edge)
    state = AdmmState(u=u, z=copy.deepcopy(u), lam=copy.deepcopy(u),
                      u_edge=u_edge, lam_edge=lam_edge, rho=1.0)
    rep = residuals(state, copy.deepcopy(state.z), eps_abs=0.01, eps_rel=0.01)
    assert rep.eps_pri == pytest.approx(0.01 * math.sqrt(105))
    assert rep.eps_dual == pytest.approx(0.01 * math.sqrt(105))


# ------------------------------------------------------------- rho adaptation

def test_adapt_rho_rules():
    assert adapt_rho(1.0, r_norm=10.0, s_norm=1.0) == 2.0     # r > 5s: double
    assert adapt_rho(1.0, r_norm=1.0, s_norm=10.0) == 0.5     # s > 5r: halve
    assert adapt_rho(3.0, r_norm=1.0, s_norm=1.0) == 3.0      # balanced: keep
    assert adapt_rho(3.0, r_norm=5.0, s_norm=1.0) == 3.0      # boundary not strict


def test_rho_update_rescales_duals_for_continuity():
    rng = np.random.default_rng(71)
    state = small_state(rho=2.0)
    state.lam = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    state.lam_edge[(1, 2)] = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    y_before = {v: state.rho * state.lam[v] for v in state.lam}
    y_edge_before = {v: state.rho * state.lam_edge[(1, 2)][v] for v in (1, 2)}
    apply_rho_update(state, 4.0)
    assert state.rho == 4.0
    for v in (1, 2):
        assert np.allclose(state.rho * state.lam[v], y_before[v], atol=1e-14)
        assert np.allclose(state.rho * state.lam_edge[(1, 2)][v],
                           y_edge_before[v], atol=1e-14)


# ------------------------------------------------------------- full solves

def test_single_vehicle_converges_in_two_iterations():
    # no coupling and a reference consistent with the seed: the first local
    # solve already is the standalone optimum, so consensus settles immediately
    from fleetcoord import CostWeights, condense, linearize, make_local_problem, rollout
    from fleetcoord.scenario import VehicleState
    from instances import InstanceSpec

    x0 = VehicleState(0.0, 0.0, 0.1)
    seed = rollout(x0, np.zeros(5), 12.0, 2.4, 0.1)
    cond = condense(linearize(seed, 12.0, 2.4, 0.1), x0)
    lp = make_local_problem(InstanceSpec(1, 12.0, 2.4), cond,
                            seed.states_array()[1:].reshape(-1), CostWeights())
    res = admm_solve({1: lp}, {}, AdmmConfig(), seeds={1: seed.controls})
    assert res.report.converged
    assert res.report.iterations_used <= 2
    assert np.max(np.abs(res.consensus[1])) <= 1e-8


def test_single_vehicle_reaches_standalone_solution():
    rng = np.random.default_rng(73)
    local_problems, _, seeds = random_fleet_instance(rng)
    vid = sorted(local_problems)[0]
    lp = {vid: local_problems[vid]}
    res = admm_solve(lp, {}, AdmmConfig(), seeds={vid: seeds[vid]})
    assert res.report.converged
    # at the uncoupled fixed point, consensus solves its own proximal problem
    sol2 = solve_qp(build_local(lp[vid], res.consensus[vid], np.zeros(5), rho=1.0))
    assert np.max(np.abs(res.consensus[vid] - sol2.u_star)) <= 1e-2


def test_far_apart_pair_equals_independent_solves():
    rng = np.random.default_rng(91)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if len(local_problems) == 2:
            break
    res = admm_solve(local_problems, edge_problems, AdmmConfig(), seeds=seeds)
    assert res.report.converged
    assert res.report.slack_max <= 1e-8
    eps = res.report.eps_pri
    for vid, lp in local_problems.items():
        alone = solve_qp(build_local(lp, res.consensus[vid], np.zeros(5), rho=1e-9))
        assert np.max(np.abs(res.consensus[vid] - alone.u_star)) <= max(eps, 1e-3) * 2


def test_three_vehicle_matches_centralized():
    rng = np.random.default_rng(97)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if len(local_problems) == 3 and edge_problems:
            break
    res = admm_solve(local_problems, edge_problems, AdmmConfig(), seeds=seeds)
    central = build_centralized(local_problems, edge_problems)
    sol = solve_qp(central.qp)
    j_admm = fleet_objective(local_problems, res.consensus)
    j_cent = fleet_objective(local_problems, central.controls(sol.u_star))
    assert res.report.converged
    assert abs(j_admm - j_cent) / (1 + abs(j_cent)) <= 1e-2


def test_consensus_respects_bounds_within_tolerance():
    rng = np.random.default_rng(99)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if edge_problems:
            break
    res = admm_solve(local_problems, edge_problems, AdmmConfig(), seeds=seeds)
    assert res.report.converged
    n_total = sum(lp.horizon for lp in local_problems.values())
    slack = res.report.eps_pri / math.sqrt(n_total)
    for vid, lp in local_problems.items():
        z = res.consensus[vid]
        assert np.all(z >= lp.steer_lb - slack)
        assert np.all(z <= lp.steer_ub + slack)


def test_convergence_flag_matches_recomputation():
    rng = np.random.default_rng(101)
    local_problems, edge_problems, seeds = random_fleet_instance(rng)
    res = admm_solve(local_problems, edge_problems, AdmmConfig(), seeds=seeds)
    state = res.state
    rep = residuals(state, state.z_prev, eps_abs=0.01, eps_rel=0.01)
    assert rep.converged == res.report.converged
    assert rep.r_norm == pytest.approx(res.report.r_norm)
    assert rep.s_norm == pytest.approx(res.report.s_norm)


def test_fixed_rho_residual_product_decreases():
    rng = np.random.default_rng(103)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if edge_problems:
            break
    cfg = AdmmConfig(adapt_rho=False, eps_abs=1e-9, eps_rel=1e-9, max_iters=60)
    res = admm_solve(local_problems, edge_problems, cfg, seeds=seeds,
                     collect_trace=True)
    first = res.trace[0]
    last = res.trace[-1]
    prod_first = first["r_norm"] * first["s_norm"]
    prod_last = last["r_norm"] * last["s_norm"]
    assert prod_last < prod_first / 10.0


def test_worker_count_does_not_change_result():
    rng = np.random.default_rng(107)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if edge_problems:
            break
    res1 = admm_solve(local_problems, edge_problems, AdmmConfig(workers=1),
                      seeds=copy.deepcopy(seeds))
    res2 = admm_solve(local_problems, edge_problems, AdmmConfig(workers=2),
                      seeds=copy.deepcopy(seeds))
    for vid in res1.consensus:
        assert np.array_equal(res1.consensus[vid], res2.consensus[vid])
    assert res1.report.r_norm == res2.report.r_norm
    assert res1.report.s_norm == res2.report.s_norm


def test_input_dict_order_irrelevant():
    rng = np.random.default_rng(109)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if len(local_problems) >= 3:
            break
    rev_lp = dict(reversed(list(local_problems.items())))
    rev_ep = dict(reversed(list(edge_problems.items())))
    res1 = admm_solve(local_problems, edge_problems, AdmmConfig(),
                      seeds=copy.deepcopy(seeds))
    res2 = admm_solve(rev_lp, rev_ep, AdmmConfig(), seeds=copy.deepcopy(seeds))
    for vid in res1.consensus:
        assert np.array_equal(res1.consensus[vid], res2.consensus[vid])


def test_nan_iterate_raises_numerical_failure(monkeypatch):
    import fleetcoord.admm as admm_mod
    rng = np.random.default_rng(113)
    local_problems, edge_problems, seeds = random_fleet_instance(rng)
    real = admm_mod.FleetNodes.solve

    def bad_solve(self, stack, rho):
        # every vehicle's answer, from the batched pass or per node, is NaN
        step = real(self, stack, rho)
        step.u[:] = np.nan
        return step

    monkeypatch.setattr(admm_mod.FleetNodes, "solve", bad_solve)
    with pytest.raises(NumericalFailureError) as err:
        admm_solve(local_problems, edge_problems, AdmmConfig(), seeds=seeds)
    assert err.value.iteration == 1


def test_init_state_warm_starts_at_seed():
    seeds = {1: np.array([0.1, 0.2, 0.3]), 2: np.array([-0.1, 0.0, 0.1])}
    state = init_admm_state(seeds, edges=[(1, 2)], rho0=1.5)
    assert state.rho == 1.5
    for v in (1, 2):
        assert np.array_equal(state.u[v], seeds[v])
        assert np.array_equal(state.z[v], seeds[v])
        assert np.all(state.lam[v] == 0.0)
        assert np.array_equal(state.u_edge[(1, 2)][v], seeds[v])
        assert np.all(state.lam_edge[(1, 2)][v] == 0.0)


def _dual_sums(state):
    """Each vehicle's scaled duals summed over its local and edge copies."""
    sums = {v: lam.copy() for v, lam in state.lam.items()}
    for e, duals in state.lam_edge.items():
        for v in e:
            sums[v] = sums[v] + duals[v]
    return sums


def test_carried_state_shifts_edge_duals_and_balances_vehicle_duals():
    # cycle k: a fleet of at least three vehicles solved to its final state;
    # cycle k+1: every edge of the last vehicle leaves the graph, a new vehicle
    # joins with an edge to vehicle 1, and another new vehicle has no edges
    rng = np.random.default_rng(5)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if len(local_problems) >= 3 and (1, 2) in edge_problems:
            break
    previous = admm_solve(local_problems, edge_problems, AdmmConfig(),
                          seeds={v: s.copy() for v, s in seeds.items()}).state
    for total in _dual_sums(previous).values():
        assert np.max(np.abs(total)) <= 1e-12
    assert any(np.any(lam != 0.0) for duals in previous.lam_edge.values()
               for lam in duals.values())

    last = max(local_problems)
    joining, lone = last + 1, last + 2
    edges = [e for e in edge_problems if last not in e] + [(1, joining)]
    new_seeds = {v: rng.normal(size=5) for v in [*local_problems, joining, lone]}
    state = init_admm_state(new_seeds, edges, rho0=123.0, previous=previous)

    assert state.rho == previous.rho
    assert state.iteration == 0 and state.z_prev is None
    assert sorted(state.lam_edge) == sorted(edges)
    for e in edges:
        for v in e:
            if e in previous.lam_edge:
                old = previous.lam_edge[e][v]
                assert np.array_equal(state.lam_edge[e][v], np.append(old[1:], old[-1]))
            else:
                assert np.all(state.lam_edge[e][v] == 0.0)
    for v, total in _dual_sums(state).items():
        assert np.max(np.abs(total)) <= 1e-12, v
    for v in (last, lone):
        assert np.all(state.lam[v] == 0.0)
    for v, seed in new_seeds.items():
        assert np.array_equal(state.u[v], seed) and np.array_equal(state.z[v], seed)
    for e in edges:
        for v in e:
            assert np.array_equal(state.u_edge[e][v], new_seeds[v])


def test_nonoptimal_node_is_counted_and_warned(monkeypatch, caplog):
    import fleetcoord.admm as admm_mod
    rng = np.random.default_rng(113)
    local_problems, edge_problems, seeds = random_fleet_instance(rng)
    real = admm_mod.FleetNodes.solve

    def stalled_solve(self, stack, rho):
        # every vehicle's answer, from the batched pass or per node, stalled
        step = real(self, stack, rho)
        n = len(step.u)
        step.status[:n] = ["max_iter"] * n
        return step

    monkeypatch.setattr(admm_mod.FleetNodes, "solve", stalled_solve)
    with caplog.at_level("WARNING", logger="fleetcoord.admm"):
        res = admm_solve(local_problems, edge_problems, AdmmConfig(max_iters=5),
                         seeds=seeds)
    # every local solve of every iteration went through the stalled solver
    assert res.report.nonoptimal_nodes == len(local_problems) * res.report.iterations_used
    assert res.report.edge_fallbacks == 0
    assert res.report.local_fallbacks == 0
    warned = [r for r in caplog.records if "non-optimal" in r.getMessage()]
    assert len(warned) == res.report.iterations_used
    assert "local/" in warned[0].getMessage() and "max_iter" in warned[0].getMessage()


def test_edge_fallbacks_are_counted(monkeypatch, per_node_path):
    import fleetcoord.subproblems as sub
    rng = np.random.default_rng(99)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if edge_problems:
            break
    plain = admm_solve(local_problems, edge_problems, AdmmConfig(),
                       seeds=copy.deepcopy(seeds))
    assert plain.report.edge_fallbacks == 0
    per_node_path()
    real = sub._box_active_set
    calls = []

    def cycle_first(M, q, c, start=None):
        # each solve_edge call makes two attempts once the first one "cycles":
        # the active-set solve, then the polish of the fallback's answer
        calls.append(start)
        return None if len(calls) % 2 == 1 else real(M, q, c, start)

    monkeypatch.setattr(sub, "_box_active_set", cycle_first)
    res = admm_solve(local_problems, edge_problems, AdmmConfig(),
                     seeds=copy.deepcopy(seeds))
    assert res.report.edge_fallbacks == len(edge_problems) * res.report.iterations_used
    assert res.report.nonoptimal_nodes == 0
    for vid in plain.consensus:
        assert np.allclose(res.consensus[vid], plain.consensus[vid], atol=1e-9)


def test_edge_fallback_ipm_iterations_and_paths_are_reported(monkeypatch, per_node_path):
    import fleetcoord.admm as admm_mod
    import fleetcoord.subproblems as sub
    rng = np.random.default_rng(99)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if edge_problems:
            break
    real = sub._box_active_set
    calls = []

    def cycle_first(M, q, c, start=None):
        calls.append(start)
        return None if len(calls) % 2 == 1 else real(M, q, c, start)

    handed_over = []
    real_solve_edge = admm_mod.solve_edge

    def recording(*args, **kwargs):
        sol = real_solve_edge(*args, **kwargs)
        assert sol.fallback and sol.path is not None
        handed_over.append((sol.iterations, sol.path))
        return sol

    per_node_path()
    monkeypatch.setattr(sub, "_box_active_set", cycle_first)
    monkeypatch.setattr(admm_mod, "solve_edge", recording)
    rep = admm_solve(local_problems, edge_problems, AdmmConfig(),
                     seeds=copy.deepcopy(seeds)).report
    assert rep.edge_fallbacks == len(handed_over)
    assert rep.edge_fallback_ipm_iters == sum(iters for iters, _ in handed_over)
    assert sum(rep.fallback_paths.values()) == rep.edge_fallbacks + rep.local_fallbacks
