"""Randomized convexified fleet instances shared by ADMM and acceptance tests.

An instance is the full per-cycle QP data for a small fleet: condensed
predictions linearized at zero-steering seeds, tracking references with a
large unreachable along-track offset (giving a solid cost floor) plus mild
lateral and curvature demands, and separation constraints over every pair.
Seed trajectories keep at least d_safe + 0.5 m of pairwise clearance, so the
softened constraints are satisfiable with zero slack.
"""

import math

import numpy as np

from fleetcoord import (CostWeights, build_constraint_graph, condense, linearize,
                        make_edge_problem, make_local_problem, rollout)
from fleetcoord.scenario import Bounds, VehicleState


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


def random_fleet_instance(rng, np_steps=5, d_safe=5.0):
    """Returns (local_problems, edge_problems, seed_controls)."""
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
            InstanceSpec(vid, speeds[vid], L), cond[vid], refs[vid], weights,
            edge_count=graph.degree(vid))
    for (i, j) in graph.edges:
        edge_problems[(i, j)] = make_edge_problem(
            (i, j), cond[i], cond[j], seeds[i].positions()[1:],
            seeds[j].positions()[1:], d_safe, weights.slack_penalty)
    return local_problems, edge_problems, {vid: seeds[vid].controls for vid in vids}


def bounded_pair(np_steps=8, steer=0.08, y_max=-1.0, half_gap=3.0, d_safe=5.0):
    """Two vehicles whose references cross; a lane bound and a tight steering box bind.

    Vehicle 1 starts ``half_gap`` m left of the x-axis and is sent 2 m right
    of it, vehicle 2 mirrored; both drive at 12 m/s within a steering box of
    +-``steer`` rad, and vehicle 2 stays below y = ``y_max``.  Returns
    (local_problems, edge_problems, seed_controls) with one edge, (1, 2),
    whose separation rows activate as the references pull the pair together.
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
        local[vid] = make_local_problem(spec, cond[vid], ref.reshape(-1), weights,
                                        edge_count=1)
        seeds[vid] = seed
    edges = {(1, 2): make_edge_problem((1, 2), cond[1], cond[2],
                                       seeds[1].positions()[1:],
                                       seeds[2].positions()[1:], d_safe)}
    return local, edges, {vid: s.controls for vid, s in seeds.items()}
