"""ADMM's batched node pass and array state against the per-node loop.

``admm_solve`` answers most nodes with ``LocalBatch``/``EdgeBatch`` and keeps
its iterates as the arrays of an ``AdmmState``; the one-node solvers
``solve_local`` and ``solve_edge`` and the dict functions of
``reference.py`` (``update_consensus``, ``update_duals``, ``residuals``,
``apply_rho_update`` and the dict ``init_dict_state``) are the reference.
Both loops take their next point from the same ``Anderson.step``.
Every comparison here is bit for bit: node answers, KKT residuals and the
statuses they give, the warm starts handed to the next iteration, the
iterates, the residuals and rho, and the counts of accepted and rejected
accelerated points.
Instances: random fleets, the bounded pair (pinned steering and binding lane
rows, which ``solve_local`` answers on its dual), crossing pairs whose edge
rows activate, and the single-node instances of the local and edge solver tests
moved onto the batched passes' decision boundaries (a position row violated
by 1e-11 to 1e-8, an edge row with q within rounding of zero, warm
multipliers on coupled rows, zeroed steering rows).  Two fixed cases cover
the batches' data per rho: a vehicle with H0 = 0 at rho = 1e-11, whose P
fails the stacked Cholesky probe and takes the 1e-9 shift, and a rho that
returns to an earlier value, on vehicles and on edges.
"""

import copy
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fleetcoord.admm as admm_mod
from fleetcoord import (AdmmConfig, ParameterError, adapt_rho, admm_solve, build_local,
                        init_admm_state, kkt_residual, solve_qp)
from fleetcoord.admm import Anderson
from fleetcoord.qp import OPTIMAL
from fleetcoord.subproblems import EdgeBatch, LocalBatch

from instances import bounded_pair, keyed_edges, random_fleet_instance, stack, unstack
from reference import (DictState, apply_rho_update, init_dict_state, node_status, residuals,
                       solve_edge, solve_local, to_arrays, to_dicts, update_consensus,
                       update_duals)
from test_edge_solver import edge_instance
from test_local_solver import local_instance

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_admm(local, edges, config, state):
    """The per-node loop: every node through solve_local/solve_edge, dict steps.

    Starts from the dicts of the array ``state``; returns the final dict state,
    per iteration (node solutions, report, rho), and the counts of accepted
    and rejected accelerated points.  The next point comes from the same
    ``Anderson.step`` that ``admm_solve`` calls, on the dicts' rows stacked
    in the array state's layout.
    """
    state = to_dicts(state)
    vids, ekeys = list(local.ids), list(edges.edges)
    np_steps = local.horizon
    local, edges = unstack(local), unstack(edges)
    anderson = Anderson()
    kinds = {"plain": 0, "accepted": 0, "rejected": 0}
    warm: dict = {}
    history = []
    for k in range(1, config.max_iters + 1):
        rho = state.rho
        point = to_arrays(state)
        sols = {}
        for v in vids:
            prev = warm.get(v)
            sols[v] = solve_local(local[v], state.z[v], state.lam[v], rho,
                                  warm_mult=None if prev is None else prev.multipliers)
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
        rho_next = rho
        if config.adapt_rho and not report.converged:
            rho_next = adapt_rho(rho, report.r_norm, report.s_norm)
        image = to_arrays(state)
        image.Z, image.L, kind = anderson.step(
            point.Z, point.L, image.Z, image.L,
            extrapolate=not report.converged and rho_next == rho and k < config.max_iters)
        kinds[kind] += 1
        if report.converged:
            break
        state = to_dicts(image)
        apply_rho_update(state, rho_next)
        if rho_next != rho:
            anderson.clear()
    return state, history, kinds


def recorded_admm(local, edges, config, state):
    """admm_solve, with each iteration rebuilt from the batches' own calls.

    Per iteration: the batched passes' answers with the ``solve_node`` rows
    written over the rows they hand (``u``, ``x_edge``, ``slack``, ``kkt``;
    ``handed`` lists the handed nodes), the warm starts this leaves for the
    next iteration (``warm_local``, None where the batch answered;
    ``warm_mu``), the rho every call was given and the residuals
    ``AdmmState.residuals`` returned.  Each warm start a call receives must
    be the one the iteration before left.
    """
    targets = [(LocalBatch, "solve"), (LocalBatch, "solve_node"), (EdgeBatch, "solve"),
               (EdgeBatch, "solve_node"), (admm_mod.AdmmState, "residuals")]
    real = {target: getattr(*target) for target in targets}
    calls = []

    def local_solve(self, z, lam, rho):
        answers = real[LocalBatch, "solve"](self, z, lam, rho)
        calls.append({"rho": {rho}, "local": [a.copy() for a in answers], "local_node": {},
                      "edge_node": {}})
        return answers

    def edge_solve(self, v, rho, warm_mu=None):
        answers = real[EdgeBatch, "solve"](self, v, rho, warm_mu)
        calls[-1]["rho"].add(rho)
        calls[-1]["edge"] = [a.copy() for a in answers]
        calls[-1]["warm_mu_in"] = None if warm_mu is None else warm_mu.copy()
        return answers

    def local_node(self, i, z, lam, rho, warm_mult=None):
        row = real[LocalBatch, "solve_node"](self, i, z, lam, rho, warm_mult)
        calls[-1]["rho"].add(rho)
        calls[-1]["local_node"][i] = (row, warm_mult)
        return row

    def edge_node(self, k, v, rho, warm_mu=None):
        row = real[EdgeBatch, "solve_node"](self, k, v, rho, warm_mu)
        calls[-1]["rho"].add(rho)
        calls[-1]["edge_node"][k] = (row, None if warm_mu is None else warm_mu.copy())
        return row

    def residuals(self, eps_abs, eps_rel):
        report = real[admm_mod.AdmmState, "residuals"](self, eps_abs, eps_rel)
        calls[-1]["rho"].add(self.rho)
        calls[-1]["report"] = report
        return report

    for (cls, name), patched in zip(targets, (local_solve, local_node, edge_solve, edge_node,
                                              residuals)):
        setattr(cls, name, patched)
    try:
        result = admm_solve(local, edges, config, init=state)
    finally:
        for (cls, name), method in real.items():
            setattr(cls, name, method)

    n = len(local.ids)
    steps = []
    warm_local, warm_mu = [None] * n, None
    for call in calls:
        (rho,) = call["rho"]
        u, kkt_local, done_local = call["local"]
        x_edge, slack, mu, kkt_edge, done_edge = call["edge"]
        kkt = np.concatenate([kkt_local, kkt_edge])
        assert sorted(call["local_node"]) == np.flatnonzero(~done_local).tolist()
        assert sorted(call["edge_node"]) == np.flatnonzero(~done_edge).tolist()
        if warm_mu is None:
            assert call["warm_mu_in"] is None
        else:
            assert same(call["warm_mu_in"], warm_mu)
        handed = []
        last_local, warm_local = warm_local, [None] * n
        for i, (row, warm_mult) in call["local_node"].items():
            assert warm_mult is last_local[i]
            handed.append(i)
            u[i], kkt[i], warm_local[i] = row
        for k, (row, warm_mu_k) in call["edge_node"].items():
            assert (warm_mu_k is None) if warm_mu is None else same(warm_mu_k, warm_mu[k])
            handed.append(n + k)
            x_edge[k], slack[k], mu[k], kkt[n + k] = row
        warm_mu = mu
        steps.append(SimpleNamespace(
            u=u, x_edge=x_edge, slack=slack, kkt=kkt, handed=sorted(handed),
            warm_local=list(warm_local), warm_mu=mu.copy(), rho=rho,
            r_norm=call["report"].r_norm, s_norm=call["report"].s_norm))
    return result, steps


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_identical_runs(local, edges, config, state):
    """The batched admm_solve and the per-node loop agree bit for bit."""
    ref_state, history, kinds = reference_admm(local, edges, config, copy.deepcopy(state))
    result, steps = recorded_admm(local, edges, config, copy.deepcopy(state))
    vids, ekeys = local.ids, edges.edges
    n, np_steps = len(vids), local.horizon
    assert len(steps) == len(history) == result.report.iterations_used
    handed = 0
    for step, (sols, report, rho) in zip(steps, history):
        handed += len(step.handed)
        for i, v in enumerate(vids):
            sol = sols[v]
            assert same(step.u[i], sol.u_star)
            assert node_status(step.kkt[i]) == sol.status and step.kkt[i] == sol.kkt_residual
            # the warm start the next iteration hands to solve_local: None
            # stands for multipliers that are all zero
            if step.warm_local[i] is None:
                assert not np.any(sol.multipliers)
            else:
                assert same(step.warm_local[i], sol.multipliers)
        for k, e in enumerate(ekeys):
            sol = sols[e]
            assert same(step.x_edge[k], sol.u_star[:2 * np_steps])
            assert same(step.slack[k], sol.u_star[2 * np_steps:])
            assert node_status(step.kkt[n + k]) == sol.status
            assert step.kkt[n + k] == sol.kkt_residual
            assert same(step.warm_mu[k], sol.multipliers[:np_steps])
        assert step.r_norm == report.r_norm and step.s_norm == report.s_norm
        assert step.rho == rho
    final = history[-1][1]
    rep = result.report
    assert (rep.r_norm, rep.s_norm, rep.eps_pri, rep.eps_dual, rep.converged) == (
        final.r_norm, final.s_norm, final.eps_pri, final.eps_dual, final.converged)
    assert (rep.anderson_accepted, rep.anderson_rejected) == (kinds["accepted"],
                                                              kinds["rejected"])
    got = to_dicts(result.state)
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
    lambda adapt, iters: AdmmConfig(
        adapt_rho=adapt, eps_abs=1e-7, eps_rel=1e-7, max_iters=iters),
    adapt=st.booleans(),
    iters=st.integers(1, 8),
)
rho0s = st.floats(-2.0, 2.0).map(lambda log_rho: 10.0 ** log_rho)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), config=configs, rho0=rho0s, carried=st.booleans())
def test_random_fleets_match_the_per_node_loop(seed, config, rho0, carried):
    local, edges, seeds = random_fleet_instance(np.random.default_rng(seed))
    state = init_admm_state(seeds, edges, rho0, ids=local.ids)
    if carried:
        # a second MPC cycle: carried rho and shifted, balanced duals
        previous = admm_solve(local, edges, AdmmConfig(max_iters=5),
                              init=copy.deepcopy(state)).state
        state = init_admm_state(seeds, edges, rho0, previous=previous, ids=local.ids)
    assert_identical_runs(local, edges, config, state)


@SETTINGS
@given(np_steps=st.integers(3, 10), steer=st.sampled_from([0.03, 0.08, 0.61]),
       y_max=st.sampled_from([-1.0, 1.0, np.inf]), half_gap=st.floats(2.0, 6.0),
       config=configs, rho0=rho0s)
def test_crossing_pairs_match_the_per_node_loop(np_steps, steer, y_max, half_gap, config,
                                                rho0):
    local, edges, seeds = bounded_pair(np_steps, steer, y_max, half_gap)
    state = init_admm_state(seeds, edges, rho0, ids=local.ids)
    assert_identical_runs(local, edges, config, state)


def test_instances_exercise_both_paths():
    # a random fleet (nodes the batched pass answers) and the bounded pair
    # (pinned steering, a binding lane row, active edge rows: nodes handed
    # to the per-node path), each handed node counted in the report; the
    # accelerated points include accepted and rejected ones
    rng = np.random.default_rng(99)
    while True:
        fleet = random_fleet_instance(rng)
        if fleet[1].edges:
            break
    answered = {"local": 0, "edge": 0}
    handed = {"local": 0, "edge": 0}
    reported = {"local": 0, "edge": 0}
    accelerated = {"accepted": 0, "rejected": 0}
    for local, edges, seeds in (fleet, bounded_pair()):
        config = AdmmConfig(max_iters=40)
        state = init_admm_state(seeds, edges, 1.0, ids=local.ids)
        result, steps = recorded_admm(local, edges, config, copy.deepcopy(state))
        n = len(local.ids)
        for step in steps:
            for i in range(n + len(edges.edges)):
                kind = "local" if i < n else "edge"
                (handed if i in step.handed else answered)[kind] += 1
        reported["local"] += result.report.local_handed
        reported["edge"] += result.report.edge_handed
        accelerated["accepted"] += result.report.anderson_accepted
        accelerated["rejected"] += result.report.anderson_rejected
        assert_identical_runs(local, edges, config, state)
    assert min(answered.values()) > 0 and min(handed.values()) > 0 and reported == handed
    # both outcomes of the Anderson safeguard are compared bit for bit
    assert min(accelerated.values()) > 0


def local_batch(problems):
    """A ``LocalBatch`` over a list of problems, row n holding problems[n]."""
    return LocalBatch(stack(dict(enumerate(problems)), {})[0])


def edge_batch(problems):
    """An ``EdgeBatch`` over a list of problems, row k holding problems[k]."""
    edges = [(2 * k, 2 * k + 1) for k in range(len(problems))]
    return EdgeBatch(stack({}, dict(zip(edges, problems)), range(2 * len(problems)))[1])


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
        x = local_batch(problems).solve(z, lam, rho)[0][0]
        h = problems[0].h.copy()
        h[0] = problems[0].G[0] @ x - gap
        problems[0] = dataclasses.replace(problems[0], h=h)
    x, kkt, done = local_batch(problems).solve(z, lam, rho)
    for n, lp in enumerate(problems):
        if done[n]:
            sol = solve_local(lp, z[n], lam[n], rho)
            assert sol.status == OPTIMAL
            assert same(x[n], sol.u_star) and kkt[n] == sol.kkt_residual
            assert not np.any(sol.multipliers)


def _local_rows(batch, z, lam, rho, nodes):
    """The batched pass's (x, kkt, done) and ``solve_node``'s rows for ``nodes``."""
    x, kkt, done = batch.solve(z, lam, rho)
    return (x, kkt, done), {i: batch.solve_node(i, z[i], lam[i], rho) for i in nodes}


def _same_rows(a, b):
    return all(same(u, v) for u, v in zip(a, b))


@pytest.mark.parametrize("seed", range(4))
def test_a_vehicle_needing_the_shift_is_handed_and_the_others_keep_their_rows(seed):
    # H0 = 0 at rho = 1e-11: P - 1e-10 I has no Cholesky factor, so the
    # stacked probe fails and each vehicle is probed alone; only the zero
    # vehicle gets P + 1e-9 I, as solve_qp shifts the built QP
    rho = 1e-11
    cases = [local_instance(seed + 10 * k, 6, 0.1, 1.0, None if k == 1 else 0.1)
             for k in range(3)]
    problems = [lp for lp, _, _ in cases]
    problems[1] = dataclasses.replace(problems[1], H0=np.zeros_like(problems[1].H0))
    z = np.array([z for _, z, _ in cases])
    lam = np.array([lam for _, _, lam in cases])
    batch = local_batch(problems)
    (x, kkt, done), nodes = _local_rows(batch, z, lam, rho, range(3))
    assert batch.hessian(rho)[1].tolist() == [0.0, 1e-9, 0.0]
    assert not done[1]

    qp = build_local(problems[1], z[1], lam[1], rho)
    ref = solve_qp(qp)
    assert ref.status == OPTIMAL
    x1, kkt1, mult1 = nodes[1]
    assert kkt1 <= 1e-8 and kkt_residual(qp, x1, mult1) <= 1e-8
    assert np.max(np.abs(x1 - ref.u_star)) <= 1e-8

    # without the zero vehicle, the others' rows are the same bits
    others = [problems[0], problems[2]]
    (x_, kkt_, done_), nodes_ = _local_rows(local_batch(others), z[[0, 2]], lam[[0, 2]], rho,
                                            range(2))
    assert same(x[[0, 2]], x_) and same(kkt[[0, 2]], kkt_) and same(done[[0, 2]], done_)
    assert _same_rows(nodes[0], nodes_[0]) and _same_rows(nodes[2], nodes_[1])


def _edge_rows(batch, v, rho):
    """The batched pass's (x, s, mu, kkt, done), each edge it leaves answered by ``solve_node``."""
    x, s, mu, kkt, done = batch.solve(v.copy(), rho)
    for k in np.flatnonzero(~done):
        x[k], s[k], mu[k], kkt[k] = batch.solve_node(k, v[k].copy(), rho)
    return x, s, mu, kkt, done


def test_a_return_to_an_earlier_rho_answers_as_a_fresh_batch():
    # rho 1 -> 2 -> 1 on one batch of vehicles and one of edges, handed nodes
    # among them: every row equals a fresh batch's at that rho, so no P or
    # dual kernel of another rho is reused
    cases = [local_instance(seed, 8, 0.02, 2.0, 0.1) for seed in (3, 4, 5)]
    problems = [lp for lp, _, _ in cases]
    z = np.array([z for _, z, _ in cases])
    lam = np.array([lam for _, _, lam in cases])
    batch = local_batch(problems)
    built = [edge_instance(seed, 8, gap, 1e4, False) for seed, gap in ((3, 2.0), (4, 12.0))]
    edge_problems = [ep for ep, _ in built]
    v = np.array([np.concatenate([z_i - lam_i, z_j - lam_j])
                  for _, (z_i, z_j, lam_i, lam_j) in built])
    edges = edge_batch(edge_problems)
    handed = edges_handed = 0
    for rho in (1.0, 2.0, 1.0):
        (x, kkt, done), nodes = _local_rows(batch, z, lam, rho, range(3))
        (x_, kkt_, done_), nodes_ = _local_rows(local_batch(problems), z, lam, rho, range(3))
        assert same(x, x_) and same(kkt, kkt_) and same(done, done_)
        assert all(_same_rows(nodes[i], nodes_[i]) for i in range(3))
        handed += np.count_nonzero(~done)
        rows = _edge_rows(edges, v, rho)
        assert _same_rows(rows, _edge_rows(edge_batch(edge_problems), v, rho))
        edges_handed += np.count_nonzero(~rows[-1])
    assert handed and sorted(batch.hessians) == [1.0, 2.0]
    assert edges_handed and sorted(edges.duals) == [(0, 1.0), (0, 2.0)]


def _coupled_rows(ep):
    """The rows of ``ep.G`` that some steering input moves."""
    return np.flatnonzero(np.max(np.abs(ep.G), axis=1) != 0.0)


def _edge_case(seed, np_steps, gap, log_c, duplicate, zero_row, q_target, rho):
    ep, (z_i, z_j, lam_i, lam_j) = edge_instance(seed, np_steps, gap, 10.0 ** log_c, duplicate)
    if zero_row and np_steps >= 3:
        # a second fixed row: another fixed-row pattern for EdgeBatch to group
        G = ep.G.copy()
        G[np_steps - 1] = 0.0
        ep = dataclasses.replace(ep, G=G)
    coupled = _coupled_rows(ep)
    if q_target is not None and len(coupled):
        # move v so one coupled row sits at q_target / rho (within rounding)
        g = ep.G[coupled[0]]
        v = np.concatenate([z_i - lam_i, z_j - lam_j])
        v = v + ((q_target / rho - (g @ v - ep.h[coupled[0]])) / (g @ g)) * g
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
        coupled = _coupled_rows(ep)
        if case[-1] == "coupled" and len(coupled):
            warm[k, rng.choice(coupled)] = ep.slack_penalty * rng.choice([0.5, 1.0])
    warm_mu = None if all(case[-1] == "none" for case in cases) else warm
    x, s, mu, kkt, done = edge_batch(problems).solve(v, rho, warm_mu)
    for k, (ep, args) in enumerate(built):
        if done[k]:
            sol = solve_edge(ep, *args, rho, warm_mu=None if warm_mu is None else warm[k])
            assert sol.status == OPTIMAL
            assert same(x[k], sol.u_star[:2 * np_steps]) and same(s[k], sol.u_star[2 * np_steps:])
            assert same(mu[k], sol.multipliers[:np_steps]) and kkt[k] == sol.kkt_residual


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_node_solvers_reject_a_rho_that_is_not_finite_and_positive(rho):
    lp, z, lam = local_instance(2, 5, steer=0.61, lateral=1.0, y_room=None)
    ep, args = edge_instance(3, 5, gap=2.0, slack_penalty=1e4, duplicate=False)
    v = np.concatenate([args[0] - args[2], args[1] - args[3]])
    for solve in (lambda: solve_local(lp, z, lam, rho),
                  lambda: local_batch([lp]).solve_node(0, z, lam, rho),
                  lambda: solve_edge(ep, *args, rho),
                  lambda: edge_batch([ep]).solve_node(0, v, rho)):
        with pytest.raises(ParameterError, match="rho"):
            solve()


def random_state(rng, n_vehicles, edge_prob, np_steps, rho):
    vids = list(rng.permutation(np.arange(1, n_vehicles + 1)).tolist())
    edges = [(i, j) for i in range(1, n_vehicles + 1) for j in range(i + 1, n_vehicles + 1)
             if rng.random() < edge_prob]
    rng.shuffle(edges)
    edges = [tuple(e) for e in edges]

    def draw():
        return rng.normal(size=np_steps) * 10.0 ** rng.uniform(-3, 3)

    return DictState(u={v: draw() for v in vids}, z={v: draw() for v in vids},
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
    stack = to_arrays(state)
    rho = state.rho

    z_new = update_consensus(state)
    z_stack = stack.consensus()
    for i, v in enumerate(vids):
        assert same(z_stack[i], z_new[v])
    z_prev = state.z
    state.lam, state.lam_edge = update_duals(state, z_new)
    state.z = z_new
    stack.update(z_stack)
    ref = residuals(state, z_prev, 0.01, 0.02)
    got = stack.residuals(0.01, 0.02)
    assert (got.r_norm, got.s_norm, got.eps_pri, got.eps_dual, got.converged) == (
        ref.r_norm, ref.s_norm, ref.eps_pri, ref.eps_dual, ref.converged)

    apply_rho_update(state, rho * new_rho)
    stack.rescale(rho * new_rho)
    assert stack.rho == state.rho
    back = to_dicts(stack)
    for v in vids:
        assert same(back.lam[v], state.lam[v])
    for e in ekeys:
        for v in e:
            assert same(back.lam_edge[e][v], state.lam_edge[e][v])


PAIRS = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n_cycles=st.integers(3, 5),
       np_steps=st.integers(1, 6), log_rho0=st.floats(-2.0, 2.0))
def test_carried_state_matches_the_dict_init(seed, n_cycles, np_steps, log_rho0):
    # a sequence of MPC cycles over vehicles 1..6, vehicle 6 never coupled;
    # cycle 0 has no edge, so cycle 1 restarts at rho0, and cycle 2 keeps
    # cycle 1's edges (at least two) but one and adds one new edge; later
    # cycles are random
    rng = np.random.default_rng(seed)
    rho0 = 10.0 ** log_rho0
    edge_sets = [[]]
    for c in range(1, n_cycles):
        edges = [e for e in PAIRS if rng.random() < 0.4]
        if c == 1 and len(edges) < 2:
            edges = [PAIRS[k] for k in sorted(rng.choice(len(PAIRS), 2, replace=False))]
        if c == 2:
            last = edge_sets[1]
            fresh = [e for e in PAIRS if e not in last]
            edges = last[1:] + [fresh[rng.integers(len(fresh))]]
        edge_sets.append(edges)
    previous = None
    for c, edges in enumerate(edge_sets):
        # a vehicle not in any edge may leave the fleet
        vids = [v for v in range(1, 7)
                if any(v in e for e in edges) or v == 6 or rng.random() < 0.5]
        seeds = {v: rng.normal(size=np_steps) for v in vids}
        edges = [edges[k] for k in rng.permutation(len(edges))]
        ref = init_dict_state(seeds, edges, rho0,
                              previous=None if previous is None else to_dicts(previous))
        state = init_admm_state(np.array([seeds[v] for v in vids]),
                                keyed_edges(edges, vids, np_steps), rho0, previous=previous,
                                ids=vids)
        got = to_dicts(state)
        assert got.rho == ref.rho
        if c == 1:
            assert got.rho == rho0 != previous.rho
        assert state.vids == sorted(ref.u) and state.ekeys == sorted(ref.u_edge)
        for v in vids:
            for name in ("u", "z", "lam"):
                assert same(getattr(got, name)[v], getattr(ref, name)[v]), (c, name, v)
        for e in state.ekeys:
            for v in e:
                assert same(got.u_edge[e][v], ref.u_edge[e][v])
                assert same(got.lam_edge[e][v], ref.lam_edge[e][v])
        totals = got.lam.copy()
        for e in state.ekeys:
            for v in e:
                totals[v] = totals[v] + got.lam_edge[e][v]
        assert all(np.max(np.abs(t)) <= 1e-12 for t in totals.values())
        if c == 2:
            kept = set(edge_sets[1]) & set(edge_sets[2])
            assert kept and set(edge_sets[1]) - kept and set(edge_sets[2]) - kept
            assert any(np.any(got.lam_edge[e][e[0]]) for e in kept)
        # the cycle's solve leaves arbitrary iterates, duals and rho
        state.C = rng.normal(size=state.C.shape)
        state.L = rng.normal(size=state.L.shape)
        state.Z = rng.normal(size=state.Z.shape)
        state.rho = rho0 * 2.0 ** rng.integers(-4, 5)
        if state.rho == rho0:
            state.rho *= 2.0
        previous = state
