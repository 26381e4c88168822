import copy
import dataclasses
import math

import numpy as np
import pytest

from fleetcoord import (AdmmConfig, NumericalFailureError, ParameterError, adapt_rho,
                        admm_solve, build_centralized, build_local, fleet_objective,
                        init_admm_state, load_scenario_file, run_simulation, solve_qp)
from fleetcoord import simulation
from fleetcoord.admm import ANDERSON_MEMORY, Anderson
from fleetcoord.subproblems import EdgeProblems, LocalBatch, LocalProblems

from instances import bounded_pair, random_fleet_instance
from reference import DictState, residuals, to_arrays, to_dicts


def small_state(np_steps=4, rho=1.0):
    u = {1: np.ones(np_steps), 2: np.zeros(np_steps)}
    z = {1: np.zeros(np_steps), 2: np.zeros(np_steps)}
    lam = {1: np.zeros(np_steps), 2: np.zeros(np_steps)}
    u_edge = {(1, 2): {1: 3.0 * np.ones(np_steps), 2: np.zeros(np_steps)}}
    lam_edge = {(1, 2): {1: np.zeros(np_steps), 2: np.zeros(np_steps)}}
    return DictState(u=u, z=z, lam=lam, u_edge=u_edge, lam_edge=lam_edge, rho=rho)


def array_consensus(state):
    """The array state's consensus average of the dict ``state``, keyed by vehicle."""
    return dict(zip(sorted(state.u), to_arrays(state).consensus()))


def array_duals(state, z_new):
    """The array state's dual step of the dict ``state``, as (lam, lam_edge) dicts."""
    arrays = to_arrays(state)
    arrays.update(np.array([z_new[v] for v in arrays.vids]))
    back = to_dicts(arrays)
    return back.lam, back.lam_edge


def array_residuals(state, z_prev, eps_abs, eps_rel):
    """The array state's residuals of the dict ``state`` after the step from ``z_prev``."""
    arrays = to_arrays(state)
    arrays.Z_prev = np.array([z_prev[v] for v in arrays.vids])
    return arrays.residuals(eps_abs, eps_rel)


# ------------------------------------------------------------- step formulas

def test_consensus_single_edge_average():
    state = small_state()
    z = array_consensus(state)
    assert np.allclose(z[1], 2.0)      # (1 + 3) / 2 with zero duals
    assert np.allclose(z[2], 0.0)


def test_consensus_isolated_vehicle():
    state = small_state()
    state.u_edge = {}
    state.lam_edge = {}
    state.lam[1] = np.full(4, 0.25)
    state.rho = 2.0
    z = array_consensus(state)
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
    state = DictState(u=u, z=z0, lam=lam, u_edge=u_edge, lam_edge=lam_edge, rho=rho)
    z = array_consensus(state)
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
    lam, lam_edge = array_duals(state, z_new)
    assert np.allclose(lam[1], 0.0)
    assert np.allclose(lam_edge[(1, 2)][1], 0.0)


def test_dual_update_formula_oracle():
    rng = np.random.default_rng(67)
    state = small_state()
    state.lam = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    state.lam_edge[(1, 2)] = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    z_new = {1: rng.normal(size=4), 2: rng.normal(size=4)}
    lam, lam_edge = array_duals(state, z_new)
    for v in (1, 2):
        assert np.allclose(lam[v], state.lam[v] + state.u[v] - z_new[v])
        assert np.allclose(lam_edge[(1, 2)][v],
                           state.lam_edge[(1, 2)][v] + state.u_edge[(1, 2)][v] - z_new[v])


def test_residuals_converged_at_fixed_point():
    state = small_state()
    state.u = {1: np.full(4, 0.5), 2: np.full(4, -0.5)}
    state.z = copy.deepcopy(state.u)
    state.u_edge[(1, 2)] = {1: np.full(4, 0.5), 2: np.full(4, -0.5)}
    rep = array_residuals(state, copy.deepcopy(state.z), eps_abs=0.01, eps_rel=0.01)
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
    state = DictState(u=u, z=copy.deepcopy(u), lam=copy.deepcopy(u),
                      u_edge=u_edge, lam_edge=lam_edge, rho=1.0)
    rep = array_residuals(state, copy.deepcopy(state.z), eps_abs=0.01, eps_rel=0.01)
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
    arrays = to_arrays(state)
    arrays.rescale(4.0)
    state = to_dicts(arrays)
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
    res = admm_solve({1: lp}, {}, AdmmConfig(), init_admm_state({1: seed.controls}, {}, 1.0))
    assert res.report.converged
    assert res.report.iterations_used <= 2
    assert np.max(np.abs(res.consensus[1])) <= 1e-8


def test_single_vehicle_reaches_standalone_solution():
    rng = np.random.default_rng(73)
    local_problems, _, seeds = random_fleet_instance(rng)
    vid = sorted(local_problems)[0]
    lp = {vid: local_problems[vid]}
    res = admm_solve(lp, {}, AdmmConfig(), init_admm_state({vid: seeds[vid]}, {}, 1.0))
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
    res = admm_solve(local_problems, edge_problems, AdmmConfig(),
                     init_admm_state(seeds, edge_problems, 1.0))
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
    res = admm_solve(local_problems, edge_problems, AdmmConfig(),
                     init_admm_state(seeds, edge_problems, 1.0))
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
    res = admm_solve(local_problems, edge_problems, AdmmConfig(),
                     init_admm_state(seeds, edge_problems, 1.0))
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
    res = admm_solve(local_problems, edge_problems, AdmmConfig(),
                     init_admm_state(seeds, edge_problems, 1.0))
    state = to_dicts(res.state)
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
    # the first iteration's residuals are those of a run capped after it
    first = admm_solve(local_problems, edge_problems, dataclasses.replace(cfg, max_iters=1),
                       init_admm_state(seeds, edge_problems, 1.0)).report
    last = admm_solve(local_problems, edge_problems, cfg,
                      init_admm_state(seeds, edge_problems, 1.0)).report
    prod_first = first.r_norm * first.s_norm
    prod_last = last.r_norm * last.s_norm
    assert prod_last < prod_first / 10.0


def test_input_dict_order_irrelevant():
    rng = np.random.default_rng(109)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if len(local_problems) >= 3:
            break
    rev_lp = dict(reversed(list(local_problems.items())))
    rev_ep = dict(reversed(list(edge_problems.items())))
    res1 = admm_solve(local_problems, edge_problems, AdmmConfig(),
                      init_admm_state(seeds, edge_problems, 1.0))
    res2 = admm_solve(rev_lp, rev_ep, AdmmConfig(), init_admm_state(seeds, rev_ep, 1.0))
    for vid in res1.consensus:
        assert np.array_equal(res1.consensus[vid], res2.consensus[vid])


def test_nan_iterate_raises_numerical_failure(monkeypatch):
    rng = np.random.default_rng(113)
    local_problems, edge_problems, seeds = random_fleet_instance(rng)
    real = LocalBatch.solve

    def bad_solve(self, z, lam, rho):
        # the batched pass answers every vehicle, each with NaN
        x, kkt, done = real(self, z, lam, rho)
        return np.full_like(x, np.nan), kkt, np.ones_like(done)

    monkeypatch.setattr(LocalBatch, "solve", bad_solve)
    with pytest.raises(NumericalFailureError) as err:
        admm_solve(local_problems, edge_problems, AdmmConfig(),
                   init_admm_state(seeds, edge_problems, 1.0))
    assert err.value.iteration == 1


def _edge_row(state, e, v):
    """The row of endpoint ``v``'s copy of edge ``e``."""
    k = state.ekeys.index(e)
    return state.ri[k] if v == e[0] else state.rj[k]


def test_edge_copies_sit_in_key_order():
    # an edge keyed (2, 1) is the (1, 2) problem with its endpoints swapped:
    # the same fleet solves alike, and either way the edge rows of C reshape
    # to the edge batch's rows, e[0]'s copy first
    results = {}
    for key in ((1, 2), (2, 1)):
        local, edges, seeds = bounded_pair(key=key)
        res = admm_solve(local, edges, AdmmConfig(), init_admm_state(seeds, edges, 1.0))
        state, n = res.state, len(local)
        assert state.ekeys == [key]
        rows = state.C[n:].reshape(1, -1)
        np_steps = state.Z.shape[1]
        assert np.array_equal(rows[0, :np_steps], state.C[_edge_row(state, key, key[0])])
        assert np.array_equal(rows[0, np_steps:], state.C[_edge_row(state, key, key[1])])
        assert list(state.owner[n:]) == [state.vids.index(v) for v in key]
        results[key] = res
    forward, backward = results[(1, 2)], results[(2, 1)]
    assert forward.report.iterations_used == backward.report.iterations_used
    for vid in forward.consensus:
        assert np.max(np.abs(forward.consensus[vid] - backward.consensus[vid])) <= 1e-12


def test_init_state_warm_starts_at_seed():
    seeds = {1: np.array([0.1, 0.2, 0.3]), 2: np.array([-0.1, 0.0, 0.1])}
    state = init_admm_state(seeds, edges=[(1, 2)], rho0=1.5)
    assert state.rho == 1.5
    assert state.vids == [1, 2] and state.ekeys == [(1, 2)]
    for k, v in enumerate((1, 2)):
        assert np.array_equal(state.C[k], seeds[v])
        assert np.array_equal(state.Z[k], seeds[v])
        assert np.all(state.L[k] == 0.0)
        assert np.array_equal(state.C[_edge_row(state, (1, 2), v)], seeds[v])
        assert np.all(state.L[_edge_row(state, (1, 2), v)] == 0.0)


def _dual_sums(state):
    """Each vehicle's scaled duals summed over its local and edge copies."""
    sums = {v: state.L[k].copy() for k, v in enumerate(state.vids)}
    for e in state.ekeys:
        for v in e:
            sums[v] = sums[v] + state.L[_edge_row(state, e, v)]
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
                          init_admm_state(seeds, edge_problems, 1.0)).state
    for total in _dual_sums(previous).values():
        assert np.max(np.abs(total)) <= 1e-12
    assert np.any(previous.L[len(previous.vids):] != 0.0)

    last = max(local_problems)
    joining, lone = last + 1, last + 2
    edges = [e for e in edge_problems if last not in e] + [(1, joining)]
    new_seeds = {v: rng.normal(size=5) for v in [*local_problems, joining, lone]}
    state = init_admm_state(new_seeds, edges, rho0=123.0, previous=previous)

    assert state.rho == previous.rho
    assert state.iteration == 0 and state.Z_prev is None
    assert state.ekeys == sorted(edges)
    for e in edges:
        for v in e:
            row = state.L[_edge_row(state, e, v)]
            if e in previous.ekeys:
                old = previous.L[_edge_row(previous, e, v)]
                assert np.array_equal(row, np.append(old[1:], old[-1]))
            else:
                assert np.all(row == 0.0)
    for v, total in _dual_sums(state).items():
        assert np.max(np.abs(total)) <= 1e-12, v
    for v in (last, lone):
        assert np.all(state.L[state.vids.index(v)] == 0.0)
    for v, seed in new_seeds.items():
        k = state.vids.index(v)
        assert np.array_equal(state.C[k], seed) and np.array_equal(state.Z[k], seed)
    for e in edges:
        for v in e:
            assert np.array_equal(state.C[_edge_row(state, e, v)], new_seeds[v])


def test_invalid_input_raises_parameter_error():
    seeds = {1: np.zeros(3), 2: np.zeros(3)}
    with pytest.raises(ParameterError, match=r"\(1, 7\)"):
        init_admm_state(seeds, edges=[(1, 2), (1, 7)], rho0=1.0)
    rng = np.random.default_rng(113)
    local_problems, edge_problems, seeds = random_fleet_instance(rng)
    for max_iters in (0, -2, 2.5, np.float64(3.0), True, "3", None):
        with pytest.raises(ParameterError, match="max_iters"):
            admm_solve(local_problems, edge_problems, AdmmConfig(max_iters=max_iters),
                       init_admm_state(seeds, edge_problems, 1.0))
    bad = {"eps_abs": (-0.01, np.nan, np.inf),
           "eps_rel": (-0.01, np.nan, -np.inf)}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ParameterError, match=name):
                admm_solve(local_problems, edge_problems, AdmmConfig(**{name: value}),
                           init_admm_state(seeds, edge_problems, 1.0))
    for rho0 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="rho0"):
            init_admm_state(seeds, edges=edge_problems.keys(), rho0=rho0)
    # the bounds themselves are accepted
    admm_solve(local_problems, edge_problems, AdmmConfig(eps_abs=0.0, max_iters=2),
               init_admm_state(seeds, edge_problems, 1.0))


def test_init_state_without_vehicles_raises_parameter_error():
    # an edge needs its endpoints, and a state needs at least one vehicle
    for edges in ([(1, 2)], []):
        with pytest.raises(ParameterError, match="at least one vehicle"):
            init_admm_state({}, edges, 1.0)
    # so admm_solve over an empty fleet can only be handed a state over
    # other vehicles, which it rejects
    with pytest.raises(ParameterError, match="vehicles and edges"):
        admm_solve({}, {}, AdmmConfig(), init_admm_state({1: np.zeros(3)}, [], 1.0))


def test_centralized_qp_of_an_empty_fleet_raises_parameter_error():
    with pytest.raises(ParameterError, match="at least one vehicle"):
        build_centralized({}, {})


def test_nonoptimal_node_is_counted_and_warned(monkeypatch, caplog, per_node_path):
    rng = np.random.default_rng(113)
    local_problems, edge_problems, seeds = random_fleet_instance(rng)
    real = LocalBatch.solve_node

    def stalled(*args, **kwargs):
        # every vehicle's answer comes from solve_node, stalled short of 1e-8
        x, _, multipliers = real(*args, **kwargs)
        return x, 1e-6, multipliers

    per_node_path()
    monkeypatch.setattr(LocalBatch, "solve_node", stalled)
    with caplog.at_level("WARNING", logger="fleetcoord.admm"):
        res = admm_solve(local_problems, edge_problems, AdmmConfig(max_iters=5),
                         init_admm_state(seeds, edge_problems, 1.0))
    # every local solve of every iteration went through the stalled solver
    assert res.report.nonoptimal_nodes == len(local_problems) * res.report.iterations_used
    warned = [r for r in caplog.records if "non-optimal" in r.getMessage()]
    assert len(warned) == res.report.iterations_used
    assert "local/" in warned[0].getMessage() and "kkt 1.00e-06" in warned[0].getMessage()
    assert res.report.kkt_max == 1e-6


def test_edge_handed_nodes_are_counted(per_node_path):
    # every node handed to the per-node solvers is counted, and the per-node
    # answers equal the batched pass's bit for bit
    rng = np.random.default_rng(99)
    while True:
        local_problems, edge_problems, seeds = random_fleet_instance(rng)
        if edge_problems:
            break
    plain = admm_solve(local_problems, edge_problems, AdmmConfig(),
                       init_admm_state(seeds, edge_problems, 1.0))
    per_node_path()
    res = admm_solve(local_problems, edge_problems, AdmmConfig(),
                     init_admm_state(seeds, edge_problems, 1.0))
    iters = res.report.iterations_used
    assert iters == plain.report.iterations_used
    assert res.report.edge_handed == len(edge_problems) * iters
    assert res.report.local_handed == len(local_problems) * iters
    assert plain.report.edge_handed < res.report.edge_handed
    assert res.report.nonoptimal_nodes == 0
    for vid in plain.consensus:
        assert res.consensus[vid].tobytes() == plain.consensus[vid].tobytes()


# ------------------------------------------------------ Anderson acceleration

def _accelerated_points(monkeypatch, local_problems, edge_problems, seeds, config):
    """Run admm_solve and return, per ``Anderson.step`` call, a record of the
    point it chose: the state's rho, the kind returned, whether the point is
    accelerated, the memory's difference count and each vehicle's dual sum."""
    state = init_admm_state(seeds, edge_problems, 1.0)
    real = Anderson.step
    calls = []

    def step(self, Z, L, Zg, Lg, extrapolate):
        Z_next, L_next, kind = real(self, Z, L, Zg, Lg, extrapolate)
        sums = np.zeros_like(Z_next)
        np.add.at(sums, state.owner, L_next)
        calls.append({"rho": state.rho, "kind": kind, "accelerated": self.plain is not None,
                      "differences": len(self.dF), "sums": sums,
                      "scale": float(np.max(np.abs(L_next)))})
        return Z_next, L_next, kind

    monkeypatch.setattr(Anderson, "step", step)
    result = admm_solve(local_problems, edge_problems, config, state)
    return result, calls


def test_accelerated_points_keep_each_vehicles_duals_summing_to_zero(monkeypatch):
    # init_admm_state balances a vehicle's own dual against its edge duals,
    # and each plain step keeps the sum; an accelerated point is an affine
    # combination of plain images, so it keeps the sum to rounding
    result, calls = _accelerated_points(monkeypatch, *bounded_pair(), AdmmConfig(max_iters=60))
    accelerated = [c for c in calls if c["accelerated"]]
    assert accelerated and result.report.anderson_accepted > 0
    for c in accelerated:
        assert np.max(np.abs(c["sums"])) <= 1e-12 * max(1.0, c["scale"])
    for total in _dual_sums(result.state).values():
        assert np.max(np.abs(total)) <= 1e-12 * max(1.0, float(np.max(np.abs(result.state.L))))


def test_no_accelerated_point_mixes_two_rhos(monkeypatch):
    # the memory's differences come from the last (differences + 1) plain
    # steps, which must all have been taken at the rho of the point they make
    result, calls = _accelerated_points(monkeypatch, *bounded_pair(), AdmmConfig(max_iters=60))
    steps_at_rho, rho, changed = 0, calls[0]["rho"], False
    for c in calls:
        if c["rho"] != rho:
            rho, steps_at_rho, changed = c["rho"], 0, True
        steps_at_rho += 1
        if c["accelerated"]:
            assert c["differences"] + 1 <= steps_at_rho
    assert changed and calls[-1]["accelerated"] is False
    assert sum(c["accelerated"] for c in calls) > 0


def test_a_new_rho_or_cycle_starts_with_an_empty_memory():
    local_problems, edge_problems, seeds = bounded_pair()
    result = admm_solve(local_problems, edge_problems, AdmmConfig(adapt_rho=False, max_iters=10),
                        init_admm_state(seeds, edge_problems, 1.0))
    state = result.state
    assert result.report.anderson_accepted > 0 and state.anderson.dF
    state.rescale(state.rho)
    assert state.anderson.dF
    state.rescale(2.0 * state.rho)
    assert not state.anderson.dF and state.anderson.f is None
    carried = init_admm_state(seeds, edge_problems, 1.0, previous=result.state)
    assert not carried.anderson.dF and carried.anderson.plain is None


def _linear_map(x):
    """A contraction with fixed point 1, on (Z, L) pairs."""
    return tuple(0.5 * a + 0.5 for a in x)


def test_rejected_point_restores_the_plain_image_and_clears_the_memory():
    rng = np.random.default_rng(7)
    anderson = Anderson()
    x0 = (rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
    g0 = _linear_map(x0)
    Z, L, kind = anderson.step(*x0, *g0, extrapolate=True)
    assert kind == "plain" and Z is g0[0] and L is g0[1]
    g1 = _linear_map(g0)
    *x2, kind = anderson.step(*g0, *g1, extrapolate=True)
    assert kind == "plain" and len(anderson.dF) == 1
    assert anderson.plain[0] is g1[0] and anderson.plain[1] is g1[1]
    # on this map one difference finds the fixed point
    assert all(np.allclose(a, 1.0) for a in x2)
    # a plain step from the accelerated point that leaves a larger residual
    far = tuple(a + 10.0 for a in x2)
    Z, L, kind = anderson.step(*x2, *far, extrapolate=True)
    assert kind == "rejected" and Z is g1[0] and L is g1[1]
    assert not anderson.dF and anderson.f is None and anderson.plain is None
    assert anderson.norm == math.inf
    # the restored image is a plain point: its step is plain and not judged
    assert anderson.step(Z, L, *far, extrapolate=True)[2] == "plain"


def test_accepted_points_fill_the_memory_to_its_length():
    # a diagonal contraction with twelve rates: each accepted point adds one
    # difference until the memory holds ANDERSON_MEMORY, then the oldest goes
    anderson = Anderson()
    rng = np.random.default_rng(8)
    A = np.diag(rng.uniform(0.6, 0.95, size=12))
    kinds, sizes = [], []
    x = (rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    for _ in range(2 * ANDERSON_MEMORY):
        g = A @ np.concatenate([a.ravel() for a in x])
        *x, kind = anderson.step(*x, g[:6].reshape(2, 3), g[6:].reshape(2, 3), extrapolate=True)
        kinds.append(kind)
        sizes.append(len(anderson.dF))
    assert kinds == ["plain"] * 2 + ["accepted"] * (2 * ANDERSON_MEMORY - 2)
    assert sizes == [min(k, ANDERSON_MEMORY) for k in range(2 * ANDERSON_MEMORY)]
    # without extrapolation the plain image is kept and nothing is computed
    image = (np.zeros((2, 3)), np.zeros((2, 3)))
    Z, L, kind = anderson.step(*x, *image, extrapolate=False)
    assert kind == "accepted" and Z is image[0] and L is image[1]
    assert anderson.plain is None


def _recorded_cycles(path, monkeypatch):
    """(local, edges, config, init, final state) of each ADMM cycle of a 4 s run."""
    calls = []
    solve = simulation.admm_solve

    def recording(local, edges, config, init):
        start = copy.deepcopy(init)
        result = solve(local, edges, config, init)
        calls.append((local, edges, config, start, copy.deepcopy(result.state)))
        return result

    monkeypatch.setattr(simulation, "admm_solve", recording)
    run_simulation(load_scenario_file(path), "parallel_admm", duration=4.0)
    return calls


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_containers_and_dicts_of_their_problems_give_identical_results(intersection_path,
                                                                        monkeypatch):
    # admm_solve, build_centralized and fleet_objective stack a dict of
    # problems on entry; on a dict of a container's own views they answer
    # as on the container, bit for bit
    calls = _recorded_cycles(intersection_path, monkeypatch)
    hardest = sorted(calls, key=lambda call: -call[4].iteration)[:3]
    assert min(call[4].iteration for call in hardest) > 10
    assert all(len(call[1]) for call in hardest)
    timing = {"per_node_solve_times", "parallel_time"}
    handed = 0
    for local, edges, config, init, _ in hardest:
        assert isinstance(local, LocalProblems) and isinstance(edges, EdgeProblems)
        as_dicts = (dict(local), dict(edges))
        stacked = admm_solve(local, edges, config, copy.deepcopy(init))
        plain = admm_solve(*as_dicts, config, copy.deepcopy(init))
        for name in ("C", "L", "Z", "Z_prev", "owner"):
            assert _same_bits(getattr(stacked.state, name), getattr(plain.state, name)), name
        for field in dataclasses.fields(stacked.report):
            if field.name not in timing:
                assert (getattr(stacked.report, field.name)
                        == getattr(plain.report, field.name)), field.name
        assert all(_same_bits(stacked.consensus[v], plain.consensus[v]) for v in local)
        handed += stacked.report.local_handed * stacked.report.edge_handed

        want = build_centralized(local, edges)
        got = build_centralized(*as_dicts)
        assert got.vehicle_ids == want.vehicle_ids
        for name in ("H", "f", "G", "h", "lb", "ub"):
            assert _same_bits(getattr(got.qp, name), getattr(want.qp, name)), name

        objective = fleet_objective(local, stacked.consensus)
        assert objective == fleet_objective(as_dicts[0], stacked.consensus)
        assert objective == fleet_objective(local, stacked.state.Z)
    assert handed > 0         # both kinds of node were handed to solve_node


def test_array_seeds_and_endpoint_rows_start_the_state_the_dicts_start(intersection_path,
                                                                      monkeypatch):
    # the closed loop starts each cycle from its (N, Np) seed array and the
    # edge container's endpoint rows; a dict of the seeds and the edge keys
    # give the same state, carried duals included
    calls = _recorded_cycles(intersection_path, monkeypatch)
    rho0 = load_scenario_file(intersection_path).config.rho0
    previous = None
    for local, edges, _, init, final in calls:
        seeds = dict(zip(local.ids, init.Z))
        for start in (init_admm_state(init.Z, edges, rho0, previous=previous, ids=local.ids),
                      init_admm_state(seeds, list(edges), rho0, previous=previous)):
            assert start.vids == list(local.ids) and start.ekeys == list(edges.edges)
            assert start.rho == init.rho
            for name in ("C", "L", "Z", "owner", "count"):
                assert _same_bits(getattr(start, name), getattr(init, name)), name
        previous = final
    with pytest.raises(ParameterError, match="ids"):
        init_admm_state(init.Z, edges, rho0)
    with pytest.raises(ParameterError, match="ids"):
        init_admm_state(init.Z, edges, rho0, ids=local.ids[::-1])
    short = EdgeProblems(edges.edges, np.full_like(edges.pairs, len(local)), edges.G,
                         edges.h, edges.slack_penalty)
    with pytest.raises(ParameterError, match="without a seed"):
        init_admm_state(init.Z, short, rho0, ids=local.ids)
