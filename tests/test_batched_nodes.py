"""ADMM's batched node pass and array state against the per-node loop.

``admm_solve`` answers most nodes with ``LocalBatch``/``EdgeBatch`` and keeps
its iterates in a ``_CopyStack``; the per-node solvers ``solve_local`` and
``solve_edge`` and the dict functions ``update_consensus``, ``update_duals``,
``residuals`` and ``apply_rho_update`` stay as the reference.  Every
comparison here is bit for bit: node answers, statuses, fallback flags, the
warm starts handed to the next iteration, the iterates, the residuals and rho.
Instances: random fleets, the bounded pair (pinned steering, binding lane
rows that fall back to ``solve_qp``), crossing pairs whose edge rows
activate, and the single-node instances of the local and edge solver tests
moved onto the batched passes' decision boundaries (a position row violated
by 1e-11 to 1e-8, an edge row with q within rounding of zero, warm
multipliers on coupled rows, zeroed steering rows).
"""

import copy
import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fleetcoord.admm as admm_mod
from fleetcoord import (AdmmConfig, AdmmState, adapt_rho, admm_solve, apply_rho_update,
                        init_admm_state, residuals, solve_edge, solve_local,
                        update_consensus, update_duals)
from fleetcoord.qp import OPTIMAL
from fleetcoord.subproblems import EdgeBatch, LocalBatch

from instances import bounded_pair, random_fleet_instance
from test_edge_solver import edge_instance
from test_local_solver import local_instance

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_admm(local, edges, config, state):
    """The per-node loop: every node through solve_local/solve_edge, dict steps.

    Returns the final state and, per iteration, (node solutions, report, rho).
    """
    vids, ekeys = sorted(local), sorted(edges)
    np_steps = local[vids[0]].horizon
    warm: dict = {}
    history = []
    for k in range(1, config.max_iters + 1):
        rho = state.rho
        sols = {}
        for v in vids:
            sols[v] = solve_local(local[v], state.z[v], state.lam[v], rho, warm=warm.get(v))
        for e in ekeys:
            i, j = e
            prev = warm.get(e)
            sols[e] = solve_edge(edges[e], state.z[i], state.z[j], state.lam_edge[e][i],
                                 state.lam_edge[e][j], rho,
                                 warm_mu=None if prev is None else prev.multipliers[:np_steps])
        warm = sols
        for v in vids:
            state.u[v] = sols[v].u_star.copy()
        for e in ekeys:
            state.u_edge[e][e[0]] = sols[e].u_star[:np_steps].copy()
            state.u_edge[e][e[1]] = sols[e].u_star[np_steps:2 * np_steps].copy()
        z_prev = state.z
        z_new = update_consensus(state)
        state.lam, state.lam_edge = update_duals(state, z_new)
        state.z, state.z_prev, state.iteration = z_new, z_prev, k
        report = residuals(state, z_prev, config.eps_abs, config.eps_rel)
        history.append((sols, report, rho))
        if report.converged:
            break
        if config.adapt_rho:
            apply_rho_update(state, adapt_rho(state.rho, report.r_norm, report.s_norm,
                                              config.rho_scale, config.rho_ratio))
    return state, history


def recorded_admm(local, edges, config, state):
    """admm_solve, recording each iteration's NodeStep and the warm starts it leaves."""
    real = admm_mod.FleetNodes.solve
    steps = []

    def recording(self, stack, rho):
        step = real(self, stack, rho)
        np_steps = stack.Z.shape[1]
        warm_local = [self._warm_local(i, np_steps) for i in range(len(self.local_problems))]
        steps.append((copy.deepcopy(step), warm_local, self.warm_mu.copy()))
        return step

    admm_mod.FleetNodes.solve = recording
    try:
        result = admm_solve(local, edges, config, init=state, collect_trace=True)
    finally:
        admm_mod.FleetNodes.solve = real
    return result, steps


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_identical_runs(local, edges, config, state):
    """The batched admm_solve and the per-node loop agree bit for bit."""
    ref_state, history = reference_admm(local, edges, config, copy.deepcopy(state))
    result, steps = recorded_admm(local, edges, config, copy.deepcopy(state))
    vids, ekeys = sorted(local), sorted(edges)
    n, np_steps = len(vids), local[vids[0]].horizon
    assert len(steps) == len(history) == result.report.iterations_used
    handed = 0
    for (step, warm_local, warm_mu), (sols, report, rho), trace in zip(
            steps, history, result.trace):
        handed += len(step.handed)
        for i, v in enumerate(vids):
            sol = sols[v]
            assert same(step.u[i], sol.u_star)
            assert step.status[i] == sol.status and step.kkt[i] == sol.kkt_residual
            assert (i in step.handed and step.handed[i].fallback) == sol.fallback
            # the warm start the next iteration hands to solve_local
            assert same(warm_local[i].u_star, sol.u_star)
            assert same(warm_local[i].multipliers, sol.multipliers)
        for k, e in enumerate(ekeys):
            sol = sols[e]
            assert same(step.x_edge[k], sol.u_star[:2 * np_steps])
            assert same(step.slack[k], sol.u_star[2 * np_steps:])
            assert step.status[n + k] == sol.status and step.kkt[n + k] == sol.kkt_residual
            assert (n + k in step.handed and step.handed[n + k].fallback) == sol.fallback
            assert same(warm_mu[k], sol.multipliers[:np_steps])
        assert trace["r_norm"] == report.r_norm and trace["s_norm"] == report.s_norm
        assert trace["rho"] == rho
    final = history[-1][1]
    rep = result.report
    assert (rep.r_norm, rep.s_norm, rep.eps_pri, rep.eps_dual, rep.converged) == (
        final.r_norm, final.s_norm, final.eps_pri, final.eps_dual, final.converged)
    got = result.state
    assert got.rho == ref_state.rho and got.iteration == ref_state.iteration
    for name in ("u", "z", "lam", "z_prev"):
        for v in vids:
            assert same(getattr(got, name)[v], getattr(ref_state, name)[v]), (name, v)
    for e in ekeys:
        for v in e:
            assert same(got.u_edge[e][v], ref_state.u_edge[e][v])
            assert same(got.lam_edge[e][v], ref_state.lam_edge[e][v])
    return handed


configs = st.builds(
    lambda log_rho, adapt, scale, iters: AdmmConfig(
        rho0=10.0 ** log_rho, adapt_rho=adapt, rho_scale=scale, eps_abs=1e-7, eps_rel=1e-7,
        max_iters=iters),
    log_rho=st.floats(-2.0, 2.0),
    adapt=st.booleans(),
    scale=st.sampled_from([2.0, 1.7]),
    iters=st.integers(1, 8),
)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), config=configs, carried=st.booleans())
def test_random_fleets_match_the_per_node_loop(seed, config, carried):
    local, edges, seeds = random_fleet_instance(np.random.default_rng(seed))
    state = init_admm_state(seeds, edges, config.rho0)
    if carried:
        # a second MPC cycle: carried rho and shifted, balanced duals
        previous = admm_solve(local, edges, AdmmConfig(max_iters=5),
                              init=copy.deepcopy(state)).state
        state = init_admm_state(seeds, edges, config.rho0, previous=previous)
    assert_identical_runs(local, edges, config, state)


@SETTINGS
@given(np_steps=st.integers(3, 10), steer=st.sampled_from([0.03, 0.08, 0.61]),
       y_max=st.sampled_from([-1.0, 1.0, np.inf]), half_gap=st.floats(2.0, 6.0),
       config=configs)
def test_crossing_pairs_match_the_per_node_loop(np_steps, steer, y_max, half_gap, config):
    local, edges, seeds = bounded_pair(np_steps, steer, y_max, half_gap)
    state = init_admm_state(seeds, edges, config.rho0)
    assert_identical_runs(local, edges, config, state)


def test_instances_exercise_both_paths():
    # a random fleet (nodes the batched pass answers) and the bounded pair
    # (pinned steering, a binding lane row, active edge rows: nodes handed
    # to the per-node path, with fallbacks to solve_qp)
    rng = np.random.default_rng(99)
    while True:
        fleet = random_fleet_instance(rng)
        if fleet[1]:
            break
    answered = {"local": 0, "edge": 0}
    handed = {"local": 0, "edge": 0}
    fallbacks = 0
    for local, edges, seeds in (fleet, bounded_pair()):
        config = AdmmConfig(max_iters=40)
        state = init_admm_state(seeds, edges, config.rho0)
        result, steps = recorded_admm(local, edges, config, copy.deepcopy(state))
        n = len(local)
        for step, _, _ in steps:
            for i in range(n + len(edges)):
                kind = "local" if i < n else "edge"
                (handed if i in step.handed else answered)[kind] += 1
        fallbacks += result.report.local_fallbacks
        assert_identical_runs(local, edges, config, state)
    assert min(answered.values()) > 0 and min(handed.values()) > 0 and fallbacks > 0


@SETTINGS
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4),
       np_steps=st.integers(2, 8), steer=st.sampled_from([0.02, 0.1, 0.61]),
       lateral=st.floats(-1.0, 4.0), y_room=st.sampled_from([None, 0.1, 0.5, 5.0]),
       log_rho=st.floats(-3.0, 3.0), gap=st.sampled_from([None, 0.0, 3e-11, 5e-9, -1e-9]))
def test_local_batch_answers_as_solve_local(seeds, np_steps, steer, lateral, y_room, log_rho,
                                            gap):
    rho = 10.0 ** log_rho
    cases = [local_instance(seed, np_steps, steer, lateral, y_room) for seed in seeds]
    problems = [lp for lp, _, _ in cases]
    z = np.array([z for _, z, _ in cases])
    lam = np.array([lam for _, _, lam in cases])
    if gap is not None and problems[0].G.shape[0]:
        # move the first vehicle's first position row to ``gap`` from its
        # unconstrained minimizer: violated by gap > 0, slack by gap < 0
        x = LocalBatch(problems).solve(z, lam, rho)[0][0]
        h = problems[0].h.copy()
        h[0] = problems[0].G[0] @ x - gap
        problems[0] = dataclasses.replace(problems[0], h=h)
    x, kkt, done = LocalBatch(problems).solve(z, lam, rho)
    for n, lp in enumerate(problems):
        if done[n]:
            sol = solve_local(lp, z[n], lam[n], rho)
            assert sol.status == OPTIMAL and not sol.fallback
            assert same(x[n], sol.u_star) and kkt[n] == sol.kkt_residual
            assert not np.any(sol.multipliers)


def _edge_case(seed, np_steps, gap, log_c, duplicate, zero_row, q_target, rho):
    ep, (z_i, z_j, lam_i, lam_j) = edge_instance(seed, np_steps, gap, 10.0 ** log_c, duplicate)
    if zero_row and np_steps >= 3:
        # a second fixed row: another fixed-row pattern for EdgeBatch to group
        G = ep.G.copy()
        G[np_steps - 1, :2 * np_steps] = 0.0
        ep = dataclasses.replace(ep, G=G)
    if q_target is not None and len(ep.coupled_rows):
        # move v so one coupled row sits at q_target / rho (within rounding)
        g = ep.G_u[ep.coupled_rows[0]]
        v = np.concatenate([z_i - lam_i, z_j - lam_j])
        v = v + ((q_target / rho - (g @ v - ep.h[ep.coupled_rows[0]])) / (g @ g)) * g
        z_i, z_j = v[:np_steps] + lam_i, v[np_steps:] + lam_j
    return ep, (z_i, z_j, lam_i, lam_j)


edge_cases = st.tuples(st.integers(0, 2 ** 32 - 1), st.floats(1.0, 12.0),
                       st.sampled_from([-2.0, 0.0, 2.0, 4.0]), st.booleans(), st.booleans(),
                       st.sampled_from([None, None, 0.0, 1e-13, -1e-13, 1e-9]),
                       st.sampled_from(["none", "zero", "coupled"]))


@SETTINGS
@given(cases=st.lists(edge_cases, min_size=1, max_size=4), np_steps=st.integers(2, 8),
       log_rho=st.floats(-3.0, 3.0), warm_seed=st.integers(0, 2 ** 32 - 1))
def test_edge_batch_answers_as_solve_edge(cases, np_steps, log_rho, warm_seed):
    rho = 10.0 ** log_rho
    built = [_edge_case(seed, np_steps, gap, log_c, dup, zero_row, q, rho)
             for seed, gap, log_c, dup, zero_row, q, _ in cases]
    problems = [ep for ep, _ in built]
    v = np.array([np.concatenate([z_i - lam_i, z_j - lam_j])
                  for _, (z_i, z_j, lam_i, lam_j) in built])
    rng = np.random.default_rng(warm_seed)
    warm = np.zeros((len(cases), np_steps))
    for k, (case, ep) in enumerate(zip(cases, problems)):
        if case[-1] == "coupled" and len(ep.coupled_rows):
            warm[k, rng.choice(ep.coupled_rows)] = ep.slack_penalty * rng.choice([0.5, 1.0])
    warm_mu = None if all(case[-1] == "none" for case in cases) else warm
    x, s, mu, kkt, done = EdgeBatch(problems, np_steps).solve(v, rho, warm_mu)
    for k, (ep, args) in enumerate(built):
        if done[k]:
            sol = solve_edge(ep, *args, rho, warm_mu=None if warm_mu is None else warm[k])
            assert sol.status == OPTIMAL and not sol.fallback
            assert same(x[k], sol.u_star[:2 * np_steps]) and same(s[k], sol.u_star[2 * np_steps:])
            assert same(mu[k], sol.multipliers[:np_steps]) and kkt[k] == sol.kkt_residual


def random_state(rng, n_vehicles, edge_prob, np_steps, rho):
    vids = list(rng.permutation(np.arange(1, n_vehicles + 1)).tolist())
    edges = [(i, j) for i in range(1, n_vehicles + 1) for j in range(i + 1, n_vehicles + 1)
             if rng.random() < edge_prob]
    rng.shuffle(edges)
    edges = [tuple(e) for e in edges]

    def draw():
        return rng.normal(size=np_steps) * 10.0 ** rng.uniform(-3, 3)

    return AdmmState(u={v: draw() for v in vids}, z={v: draw() for v in vids},
                     lam={v: draw() for v in vids},
                     u_edge={e: {v: draw() for v in e} for e in edges},
                     lam_edge={e: {v: draw() for v in e} for e in edges}, rho=rho)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n_vehicles=st.integers(1, 7),
       edge_prob=st.floats(0.0, 1.0), np_steps=st.integers(1, 6),
       log_rho=st.floats(-3.0, 3.0), new_rho=st.sampled_from([0.5, 1.0, 2.0, 1.7]))
def test_array_steps_match_the_dict_functions(seed, n_vehicles, edge_prob, np_steps,
                                              log_rho, new_rho):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n_vehicles, edge_prob, np_steps, 10.0 ** log_rho)
    vids, ekeys = sorted(state.u), sorted(state.u_edge)
    stack = admm_mod._CopyStack(state, vids, ekeys)
    rho = state.rho

    z_new = update_consensus(state)
    z_stack = stack.consensus(rho)
    for i, v in enumerate(vids):
        assert same(z_stack[i], z_new[v])
    z_prev = state.z
    state.lam, state.lam_edge = update_duals(state, z_new)
    state.z = z_new
    z_prev_stack = stack.Z
    stack.update(z_stack)
    ref = residuals(state, z_prev, 0.01, 0.02)
    got = stack.residuals(z_prev_stack, rho, 0.01, 0.02, ref.iterations_used)
    assert (got.r_norm, got.s_norm, got.eps_pri, got.eps_dual, got.converged) == (
        ref.r_norm, ref.s_norm, ref.eps_pri, ref.eps_dual, ref.converged)

    apply_rho_update(state, rho * new_rho)
    stack.rescale(rho, rho * new_rho)
    lam, lam_edge = stack.views(stack.L, vids, ekeys)
    for v in vids:
        assert same(lam[v], state.lam[v])
    for e in ekeys:
        for v in e:
            assert same(lam_edge[e][v], state.lam_edge[e][v])
