"""Randomized convexified fleet instances shared by ADMM and acceptance tests.

An instance is the full per-cycle QP data for a small fleet: condensed
predictions linearized at zero-steering seeds, tracking references with a
large unreachable along-track offset (giving a solid cost floor) plus mild
lateral and curvature demands, and separation constraints over every pair.
Seed trajectories keep at least d_safe + 0.5 m of pairwise clearance, so the
softened constraints are satisfiable with zero slack.

The instances are built per vehicle and per edge and handed over as the
containers the solvers take: ``stack`` puts dicts of such problems into a
``LocalProblems`` and an ``EdgeProblems``; ``unstack`` takes the rows out.
"""

import math

import numpy as np

from fleetcoord import (CostWeights, build_centralized, build_constraint_graph, condense,
                        generate_scaled_scenario, linearize, make_edge_problem,
                        make_local_problem, make_seed, rollout)
from fleetcoord.scenario import Bounds, VehicleState
from fleetcoord.simulation import convexify_cycle
from fleetcoord.subproblems import EdgeProblem, EdgeProblems, LocalProblem, LocalProblems

# a scenario's edge slack penalty when it sets none
SLACK_PENALTY = 1e4


class InstanceSpec:
    """Minimal vehicle carrier for make_local_problem."""

    def __init__(self, vid, v, L):
        self.id = vid
        self.speed = v
        self.wheelbase = L
        self.steer_min = -0.61
        self.steer_max = 0.61
        self.bounds = Bounds(-1e9, 1e9, -1e9, 1e9)


class BoxedSpec(InstanceSpec):
    """Vehicle with a symmetric steering box and an optional upper y bound."""

    def __init__(self, vid, v, steer, y_max, L=2.4):
        super().__init__(vid, v, L)
        self.steer_min = -steer
        self.steer_max = steer
        self.bounds = Bounds(-math.inf, math.inf, -math.inf, y_max)


def stack(local: dict, edges: dict, ids=None):
    """(LocalProblems, EdgeProblems) holding the problems of ``local`` and ``edges``.

    ``local`` maps vehicle id -> LocalProblem and ``edges`` key ->
    EdgeProblem; the rows are in sorted id and key order, as the fleet
    builders return them.  ``pairs`` indexes the sorted ``ids`` (default:
    those of ``local``); an endpoint outside them gets row ``len(ids)``,
    which ``init_admm_state`` rejects.
    """
    vids, keys = sorted(local), sorted(edges)
    vehicles, pairs = [local[v] for v in vids], [edges[e] for e in keys]
    np_steps = (vehicles or pairs)[0].horizon if vehicles or pairs else 0
    n, m = len(vehicles), len(pairs)

    def rows(items, name, shape):
        return np.array([getattr(p, name) for p in items], dtype=float).reshape(shape)

    local_problems = LocalProblems(
        vids, rows(vehicles, "H0", (n, np_steps, np_steps)), rows(vehicles, "f0", (n, np_steps)),
        rows(vehicles, "const0", (n,)),
        np.concatenate([p.G for p in vehicles] + [np.zeros((0, np_steps))]),
        np.concatenate([p.h for p in vehicles] + [np.zeros(0)]),
        np.cumsum([0] + [len(p.h) for p in vehicles]),
        rows(vehicles, "steer_lb", (n, np_steps)), rows(vehicles, "steer_ub", (n, np_steps)))
    ids = vids if ids is None else sorted(ids)
    row = {vid: k for k, vid in enumerate(ids)}
    edge_problems = EdgeProblems(
        keys, np.array([[row.get(v, len(ids)) for v in e] for e in keys], dtype=int).reshape(m, 2),
        rows(pairs, "G", (m, np_steps, 2 * np_steps)), rows(pairs, "h", (m, np_steps)),
        rows(pairs, "slack_penalty", (m,)))
    return local_problems, edge_problems


def keyed_edges(keys, ids, np_steps: int) -> EdgeProblems:
    """``stack``'s edge container over ``keys`` with zero rows, ``pairs`` indexing ``ids``.

    ``init_admm_state`` reads only an edge container's keys and endpoint rows.
    """
    blank = EdgeProblem(slack_penalty=SLACK_PENALTY, G=np.zeros((np_steps, 2 * np_steps)),
                        h=np.zeros(np_steps))
    return stack({}, dict.fromkeys(keys, blank), ids)[1]


def unstack(problems) -> dict:
    """A container's rows as views in per-node problems, by vehicle id or by edge key."""
    if isinstance(problems, EdgeProblems):
        return {e: EdgeProblem(slack_penalty=float(problems.slack_penalty[k]),
                               G=problems.G[k], h=problems.h[k])
                for k, e in enumerate(problems.edges)}
    starts = problems.starts
    return {vid: LocalProblem(H0=problems.H0[n], f0=problems.f0[n],
                              const0=float(problems.const0[n]),
                              G=problems.G[starts[n]:starts[n + 1]],
                              h=problems.h[starts[n]:starts[n + 1]],
                              steer_lb=problems.steer_lb[n], steer_ub=problems.steer_ub[n])
            for n, vid in enumerate(problems.ids)}


def random_fleet_instance(rng, np_steps=5, d_safe=5.0):
    """Returns (local_problems, edge_problems, seed_controls) as containers and an (N, Np) array."""
    n = int(rng.integers(2, 5))
    ts, L = 0.1, 2.4
    weights = CostWeights(q_pos=1.0, q_heading=0.5, r_steer=1.0)
    while True:
        pos = rng.uniform(0, 50, size=(n, 2))
        if not all(np.hypot(*(pos[a] - pos[b])) >= 9.0
                   for a in range(n) for b in range(a + 1, n)):
            continue
        speeds, seeds, refs, states = {}, {}, {}, {}
        for i in range(n):
            vid = i + 1
            theta = float(rng.uniform(-1.2, 1.2))
            v = float(rng.uniform(11.1, 13.9))
            x0 = VehicleState(pos[i, 0], pos[i, 1], theta)
            states[vid] = x0
            seeds[vid] = rollout(x0, np.zeros(np_steps), v, L, ts)
            tang = np.array([math.cos(theta), math.sin(theta)])
            norm = np.array([-tang[1], tang[0]])
            off = (float(rng.choice([-1.0, 1.0])) * float(rng.uniform(5.0, 9.0)) * tang
                   + float(rng.uniform(-1.5, 1.5)) * norm)
            ref0 = VehicleState(pos[i, 0] + off[0], pos[i, 1] + off[1],
                                theta + rng.uniform(-0.15, 0.15))
            ref_traj = rollout(ref0, np.full(np_steps, float(rng.uniform(-0.08, 0.08))),
                               v, L, ts)
            refs[vid] = ref_traj.states_array()[1:].reshape(-1)
            speeds[vid] = v
        vids = sorted(seeds)
        clear = all(
            np.min(np.hypot(*(seeds[vids[a]].positions()
                              - seeds[vids[b]].positions()).T)) >= d_safe + 0.5
            for a in range(len(vids)) for b in range(a + 1, len(vids)))
        if clear:
            break

    graph = build_constraint_graph(states, d_perc=60.0, d_safe=d_safe)
    local_problems, edge_problems, cond = {}, {}, {}
    for vid in vids:
        cond[vid] = condense(linearize(seeds[vid], speeds[vid], L, ts), states[vid])
        local_problems[vid] = make_local_problem(
            InstanceSpec(vid, speeds[vid], L), cond[vid], refs[vid], weights)
    for (i, j) in graph.edges:
        edge_problems[(i, j)] = make_edge_problem(
            (i, j), cond[i], cond[j], seeds[i].positions()[1:],
            seeds[j].positions()[1:], d_safe, SLACK_PENALTY)
    return (*stack(local_problems, edge_problems),
            np.array([seeds[vid].controls for vid in vids]))


def bounded_pair(np_steps=8, steer=0.08, y_max=-1.0, half_gap=3.0, d_safe=5.0, key=(1, 2)):
    """Two vehicles whose references cross; a lane bound and a tight steering box bind.

    Vehicle 1 starts ``half_gap`` m left of the x-axis and is sent 2 m right
    of it, vehicle 2 mirrored; both drive at 12 m/s within a steering box of
    +-``steer`` rad, and vehicle 2 stays below y = ``y_max``.  Returns
    (local_problems, edge_problems, seed_controls), containers and an
    (N, Np) array, with one edge, ``key`` ((1, 2) or (2, 1), its endpoints in
    that order), whose separation rows activate as the references pull the
    pair together.
    """
    ts, L = 0.1, 2.4
    weights = CostWeights(q_pos=1.0, q_heading=0.5, r_steer=1.0)
    local, cond, seeds = {}, {}, {}
    for vid, y0, y_ref in ((1, half_gap, -2.0), (2, -half_gap, 2.0)):
        x0 = VehicleState(0.0, y0, 0.0)
        seed = rollout(x0, np.zeros(np_steps), 12.0, L, ts)
        cond[vid] = condense(linearize(seed, 12.0, L, ts), x0)
        ref = seed.states_array()[1:].copy()
        ref[:, 1] = y_ref
        spec = BoxedSpec(vid, 12.0, steer, y_max if vid == 2 else math.inf)
        local[vid] = make_local_problem(spec, cond[vid], ref.reshape(-1), weights)
        seeds[vid] = seed
    i, j = key
    edges = {key: make_edge_problem(key, cond[i], cond[j], seeds[i].positions()[1:],
                                    seeds[j].positions()[1:], d_safe, SLACK_PENALTY)}
    return (*stack(local, edges), np.array([seeds[vid].controls for vid in sorted(seeds)]))


def lanes_cycle(n_vehicles, seed):
    """The first cycle's (local_problems, edge_problems) of ``generate_scaled_scenario``."""
    sc = generate_scaled_scenario(n_vehicles, seed)
    cfg = sc.config
    current = {s.id: s.initial_state for s in sc.vehicles}
    seeds = {s.id: make_seed(None, current[s.id], s, cfg.horizon_steps, cfg.ts)
             for s in sc.vehicles}
    graph = build_constraint_graph(current, cfg.d_perc, cfg.d_safe)
    local, edges = convexify_cycle(sc, current, seeds, graph, 0.0)
    assert edges.edges                   # the slack block is there to be shifted
    return local, edges


def lanes_centralized(n_vehicles, seed):
    """The first cycle's ``CentralizedQp`` of ``generate_scaled_scenario``."""
    return build_centralized(*lanes_cycle(n_vehicles, seed))
