"""The fleet kernels against their per-vehicle references.

The closed loop convexifies the whole fleet from (N, 3) pose and (N, Np)
steering arrays.  Each kernel here is compared with the per-vehicle function
it replaces, on random poses, speeds, wheelbases, steering and bounds for
N in {1, 2, 5}.  The fleet kernels issue the same float operations (and, for
products, the same BLAS calls) as the references, so every comparison is bit
for bit: the closed loop turns last-bit differences in its data into
different trajectories.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetcoord import (CostWeights, ParameterError, build_constraint_graph, condense,
                        fleet_objective, generate_scaled_scenario, linearize,
                        load_scenario_file, make_edge_problem, make_local_problem, make_seed,
                        reference_window, rollout, tracking_objective)
from fleetcoord.dynamics import (CondensedPrediction, FleetPrediction, HorizonTrajectory,
                                 condense_fleet, rollout_fleet, rollout_fleet_trig)
from fleetcoord.scenario import Bounds, VehicleState
from fleetcoord.simulation import (_align_reference_headings, _min_pairwise,
                                   _ReferencePaths, convexify_cycle)
from fleetcoord.subproblems import EdgeBatch, make_edge_problems, make_local_problems

from instances import stack, unstack

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


class Spec:
    """The VehicleSpec fields that make_local_problem(s) read."""

    def __init__(self, vid, speed, steer, bounds):
        self.id = vid
        self.speed = speed
        self.steer_min = -steer
        self.steer_max = steer
        self.bounds = bounds


def fleet_instance(seed, n, np_steps):
    """Random poses, speeds, wheelbases and steering for ``n`` vehicles."""
    rng = np.random.default_rng(seed)
    x0 = np.column_stack([rng.uniform(-40.0, 40.0, (n, 2)),
                          [VehicleState(0.0, 0.0, t).theta
                           for t in rng.uniform(-4.0, 4.0, n)]])
    speed = rng.uniform(0.5, 20.0, n)
    wheelbase = rng.uniform(1.0, 4.0, n)
    controls = rng.uniform(-1.2, 1.2, (n, np_steps))
    ts = float(rng.uniform(0.05, 0.2))
    return rng, x0, controls, speed, wheelbase, ts


def vehicle_prediction(prediction, n):
    """Row n of a FleetPrediction as the per-vehicle CondensedPrediction."""
    return CondensedPrediction(Phi=prediction.Phi[n], gamma=prediction.gamma[n])


def reference_rollouts(x0, controls, speed, wheelbase, ts):
    return [rollout(VehicleState(*x0[n]), controls[n], speed[n], wheelbase[n], ts)
            for n in range(len(x0))]


fleets = st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 5]),
                   st.integers(1, 8))


@SETTINGS
@given(fleets)
def test_rollout_fleet_is_rollout_bit_for_bit(inst):
    _, x0, controls, speed, wheelbase, ts = fleet_instance(*inst)
    poses = rollout_fleet(x0, controls, speed, wheelbase, ts)
    for n, ref in enumerate(reference_rollouts(x0, controls, speed, wheelbase, ts)):
        assert poses[n].tobytes() == ref.poses.tobytes()
        assert ref.states == tuple(VehicleState(*row) for row in poses[n].tolist())


@SETTINGS
@given(fleets)
def test_condense_fleet_is_linearize_and_condense(inst):
    _, x0, controls, speed, wheelbase, ts = fleet_instance(*inst)
    poses = rollout_fleet(x0, controls, speed, wheelbase, ts)
    prediction = condense_fleet(poses, controls, speed, wheelbase, ts)
    for n, seed in enumerate(reference_rollouts(x0, controls, speed, wheelbase, ts)):
        ref = condense(linearize(seed, speed[n], wheelbase[n], ts), VehicleState(*x0[n]))
        assert prediction.Phi[n].tobytes() == ref.Phi.tobytes()
        assert prediction.gamma[n].tobytes() == ref.gamma.tobytes()


@SETTINGS
@given(fleets)
def test_condense_fleet_with_the_rollouts_heading_trig_is_bit_identical(inst):
    # the closed loop's shapes: one rollout over Np + 1 inputs, condensed at
    # its first Np + 1 poses (this cycle's plan) and its last (the next seed)
    _, x0, controls, speed, wheelbase, ts = fleet_instance(*inst)
    n, np_steps = controls.shape
    extended = np.concatenate([controls, controls[:, -1:]], axis=1)
    poses, cos, sin = rollout_fleet_trig(x0, extended, speed, wheelbase, ts)
    assert poses.tobytes() == rollout_fleet(x0, extended, speed, wheelbase, ts).tobytes()
    for first in (0, 1):
        window = slice(first, first + np_steps)
        seed_poses = poses[:, first:first + np_steps + 1]
        want = condense_fleet(seed_poses, extended[:, window], speed, wheelbase, ts)
        got = condense_fleet(seed_poses, extended[:, window], speed, wheelbase, ts,
                             trig=(cos[:, window], sin[:, window]))
        assert got.Phi.tobytes() == want.Phi.tobytes()
        assert got.gamma.tobytes() == want.gamma.tobytes()
    with pytest.raises(ParameterError, match="cos and sin"):
        condense_fleet(poses[:, :-1], extended[:, :-1], speed, wheelbase, ts, trig=(cos, sin))


@SETTINGS
@given(fleets, st.sampled_from([math.pi / 2, -math.pi / 2, 1.6, -3.0]))
def test_steering_outside_the_tan_domain_is_rejected(inst, bad):
    rng, x0, controls, speed, wheelbase, ts = fleet_instance(*inst)
    controls[rng.integers(len(controls)), rng.integers(controls.shape[1])] = bad
    with pytest.raises(ParameterError, match="tan domain"):
        rollout_fleet(x0, controls, speed, wheelbase, ts)
    poses = np.zeros((len(x0), controls.shape[1] + 1, 3))
    with pytest.raises(ParameterError, match="tan domain"):
        condense_fleet(poses, controls, speed, wheelbase, ts)


def _bounds(rng, x0, radius):
    """Per-vehicle boxes: sides infinite, within reach, near the pruning radius or far."""
    sides = []
    for _ in range(4):
        kind = rng.integers(5)
        if kind == 0:
            sides.append(math.inf)
        elif kind == 1:
            sides.append(float(rng.uniform(0.5, 30.0)))      # may bind within the horizon
        elif kind == 2:
            sides.append(radius + float(rng.uniform(-0.5, 0.5)))   # kept or pruned
        elif kind == 3:
            sides.append(float(rng.uniform(200.0, 400.0)))   # pruned
        else:
            sides.append(float(rng.uniform(-2.0, 0.0)))      # already violated
    return Bounds(x0[0] - sides[1], x0[0] + sides[0], x0[1] - sides[3], x0[1] + sides[2])


@SETTINGS
@given(fleets)
def test_local_problems_match_make_local_problem(inst):
    rng, x0, controls, speed, wheelbase, ts = fleet_instance(*inst)
    n, np_steps = controls.shape
    radius = 2.0 * speed * np_steps * ts + 5.0        # make_local_problem's pruning radius
    specs = [Spec(10 + i, speed[i], float(rng.uniform(0.1, 1.2)),
                  _bounds(rng, x0[i], radius[i])) for i in range(n)]
    weights = CostWeights(q_pos=float(rng.uniform(0.0, 2.0)), q_heading=0.3, r_steer=0.1)
    poses = rollout_fleet(x0, controls, speed, wheelbase, ts)
    prediction = condense_fleet(poses, controls, speed, wheelbase, ts)
    refs = poses[:, 1:] + rng.normal(0.0, 1.0, (n, np_steps, 3))
    fleet = make_local_problems(specs, prediction, refs.reshape(n, -1), weights,
                                x0=x0[:, :2], ts=ts)
    assert list(fleet.ids) == [s.id for s in specs]
    rows = unstack(fleet)                 # row n of the arrays as vehicle n's problem
    for i, spec in enumerate(specs):
        ref = make_local_problem(spec, vehicle_prediction(prediction, i), refs[i].reshape(-1),
                                 weights, x0=x0[i, :2], ts=ts)
        got = rows[spec.id]
        for name in ("H0", "f0", "G", "h", "steer_lb", "steer_ub"):
            want = getattr(ref, name)
            assert getattr(got, name).shape == want.shape, name
            assert getattr(got, name).tobytes() == want.tobytes(), name
        assert got.const0 == ref.const0 and got.horizon == np_steps
    # the vehicles must go in in id order, the order their rows come out in
    if n > 1:
        back = slice(None, None, -1)
        reversed_prediction = FleetPrediction(Phi=prediction.Phi[back],
                                              gamma=prediction.gamma[back])
        with pytest.raises(ParameterError, match="sorted id order"):
            make_local_problems(specs[back], reversed_prediction, refs[back].reshape(n, -1),
                                weights, x0=x0[back, :2], ts=ts)
    # the test helper's stack of the rows gives back the same arrays
    assert_same_local_arrays(stack(rows, {})[0], fleet)


def assert_same_local_arrays(got, want):
    assert got.ids == want.ids
    for name in ("H0", "f0", "const0", "G", "h", "starts", "steer_lb", "steer_ub"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@SETTINGS
@given(st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 5, 17]),
                 st.integers(1, 8)))
def test_fleet_objective_is_the_sum_of_tracking_objectives(inst):
    # one stacked pass, summed in vehicle-id order: the per-vehicle sum's bits
    rng, x0, controls, speed, wheelbase, ts = fleet_instance(*inst)
    n, np_steps = controls.shape
    unbounded = Bounds(-math.inf, math.inf, -math.inf, math.inf)
    specs = [Spec(int(vid), speed[i], 0.5, unbounded) for i, vid in
             enumerate(sorted(rng.permutation(np.arange(1, n + 1) * 7)))]
    weights = CostWeights(q_pos=float(rng.uniform(0.0, 2.0)), q_heading=0.3, r_steer=0.1)
    poses = rollout_fleet(x0, controls, speed, wheelbase, ts)
    prediction = condense_fleet(poses, controls, speed, wheelbase, ts)
    refs = poses[:, 1:] + rng.normal(0.0, 1.0, (n, np_steps, 3))
    fleet = make_local_problems(specs, prediction, refs.reshape(n, -1), weights,
                                x0=x0[:, :2], ts=ts)
    rows = unstack(fleet)
    for scale in (1e-3, 1.0, 1e3):
        u = {vid: rng.normal(0.0, scale, np_steps) for vid in fleet.ids}
        want = sum(tracking_objective(rows[vid], u[vid]) for vid in sorted(fleet.ids))
        assert fleet_objective(fleet, u) == want
        # the (N, Np) array of the same controls, rows in id order
        assert fleet_objective(fleet, np.array([u[vid] for vid in fleet.ids])) == want


@SETTINGS
@given(fleets, st.integers(0, 3))
def test_edge_problems_match_make_edge_problem(inst, coincide):
    rng, x0, controls, speed, wheelbase, ts = fleet_instance(*inst)
    n, np_steps = controls.shape
    poses = rollout_fleet(x0, controls, speed, wheelbase, ts)
    prediction = condense_fleet(poses, controls, speed, wheelbase, ts)
    seed_pos = poses[:, 1:, :2].copy()
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=int)
    pairs = pairs.reshape(-1, 2)
    fallback_dirs = x0[pairs[:, 0], :2] - x0[pairs[:, 1], :2]
    if len(pairs) and coincide:
        # seeds that meet at some steps: the fallback direction replaces them,
        # and a zero fallback direction falls back to the x-axis
        e = int(rng.integers(len(pairs)))
        i, j = pairs[e]
        steps = rng.choice(np_steps, min(coincide, np_steps), replace=False)
        seed_pos[j, steps] = seed_pos[i, steps] + rng.uniform(-1e-10, 1e-10, (len(steps), 2))
        if coincide == 3:
            fallback_dirs[e] = 0.0
    edges = [(10 + int(i), 10 + int(j)) for i, j in pairs]
    d_safe, penalty = float(rng.uniform(1.0, 6.0)), float(rng.uniform(1.0, 1e4))
    fleet = make_edge_problems(edges, pairs, prediction, seed_pos, d_safe, penalty,
                               fallback_dirs=fallback_dirs)
    assert list(fleet.edges) == edges
    rows = unstack(fleet)                 # row k of the arrays as edge k's problem
    for e, (i, j) in enumerate(pairs):
        ref = make_edge_problem(edges[e], vehicle_prediction(prediction, i),
                                vehicle_prediction(prediction, j), seed_pos[i], seed_pos[j],
                                d_safe, penalty, fallback_dir=fallback_dirs[e])
        got = rows[edges[e]]
        for name in ("G", "h"):
            want = getattr(ref, name)
            assert getattr(got, name).shape == want.shape, name
            assert getattr(got, name).tobytes() == want.tobytes(), name
        assert got.slack_penalty == penalty and got.horizon == np_steps
    # the edges must go in in key order, the order their rows come out in
    if len(edges) > 1:
        back = slice(None, None, -1)
        with pytest.raises(ParameterError, match="sorted key order"):
            make_edge_problems(edges[back], pairs[back], prediction, seed_pos, d_safe, penalty,
                               fallback_dirs=fallback_dirs[back])
    # the test helper's stack of the rows gives back the same arrays (an
    # empty dict has no horizon to shape them by)
    ids = [10 + i for i in range(n)]
    for got in [stack({}, rows, ids)[1]] if edges else []:
        assert got.edges == fleet.edges
        for name in ("pairs", "G", "h", "slack_penalty"):
            a, b = getattr(got, name), getattr(fleet, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_edge_with_every_row_fixed_has_empty_dual_hessian():
    # two vehicles at rest: every steering coefficient is zero, so every row
    # is fixed, not only step 1's
    prediction = condense_fleet(np.zeros((2, 4, 3)), np.zeros((2, 3)), 0.0, 2.4, 0.1)
    seed_pos = np.array([[[0.0, 0.0]] * 3, [[3.0, 0.0]] * 3])
    problems = make_edge_problems([(1, 2)], [(0, 1)], prediction, seed_pos, 5.0, 1e4,
                                  [(-3.0, 0.0)])
    batch = EdgeBatch(problems)
    assert batch.fixed.tolist() == [[True, True, True]]
    _, _, _, kkt = batch.solve_node(0, np.zeros(6), 1.0)
    box = batch.duals[0, 1.0]
    assert box.G.shape == (0, 6) and box.M.shape == (0, 0)
    assert kkt <= 1e-8


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 5, 12]))
def test_graph_edges_match_pair_loop(seed, n):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 60.0, (n, 2))
    if n > 2:
        pos[2] = pos[1]                              # coincident pair
        pos[-1] = pos[0] + [30.0, 0.0]               # exactly at d_perc
    ids = [int(i) for i in rng.permutation(100)[:n]]
    graph = build_constraint_graph(
        {vid: VehicleState(x, y, 0.0) for vid, (x, y) in zip(ids, pos)}, 30.0, 5.0)
    order = np.argsort(ids)
    want = []
    for a in range(n):
        for b in range(a + 1, n):
            pa, pb = pos[order[a]], pos[order[b]]
            if np.hypot(*(pa - pb)) <= 30.0:
                want.append((ids[order[a]], ids[order[b]]))
    assert graph.edges == tuple(want)
    assert build_constraint_graph(list(zip(ids, pos)), 30.0, 5.0).edges == graph.edges


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 5, 30]))
def test_min_pairwise_has_math_hypot_bits(seed, n):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-30.0, 30.0, (n, 2))
    if n > 3:
        pos[3] = pos[2] + rng.uniform(-1e-7, 1e-7, 2)
    if n < 2:
        assert math.isnan(_min_pairwise(pos))
        return
    want = min(math.hypot(pos[a, 0] - pos[b, 0], pos[a, 1] - pos[b, 1])
               for a in range(n) for b in range(a + 1, n))
    assert _min_pairwise(pos) == want


def _per_vehicle_convexify(scenario, current, seeds, graph, t):
    """The per-vehicle composition the fleet path replaces."""
    cfg = scenario.config
    weights = CostWeights(q_pos=cfg.q_weight, q_heading=cfg.q_heading, r_steer=cfg.r_weight)
    condensed, local = {}, {}
    for spec in scenario.vehicles:
        vid = spec.id
        condensed[vid] = condense(linearize(seeds[vid], spec.speed, spec.wheelbase, cfg.ts),
                                  current[vid])
        ref = reference_window(spec, t, cfg.horizon_steps, cfg.ts)
        ref = _align_reference_headings(ref, seeds[vid])
        local[vid] = make_local_problem(spec, condensed[vid], ref, weights,
                                        x0=current[vid].position, ts=cfg.ts)
    edges = {(i, j): make_edge_problem((i, j), condensed[i], condensed[j],
                                       seeds[i].positions()[1:], seeds[j].positions()[1:],
                                       cfg.d_safe, cfg.slack_penalty,
                                       fallback_dir=current[i].position - current[j].position)
             for i, j in graph.edges}
    return local, edges


@pytest.mark.parametrize("scenario", ["overtake", "intersection", "lanes"])
def test_convexify_cycle_equals_per_vehicle_composition(scenario, overtake_path,
                                                        intersection_path):
    sc = {"overtake": lambda: load_scenario_file(overtake_path),
          "intersection": lambda: load_scenario_file(intersection_path),
          "lanes": lambda: generate_scaled_scenario(12, 4)}[scenario]()
    cfg = sc.config
    rng = np.random.default_rng(7)
    current = {s.id: VehicleState(s.initial_state.rx + rng.uniform(-1, 1),
                                  s.initial_state.ry + rng.uniform(-1, 1),
                                  s.initial_state.theta + rng.uniform(-0.2, 0.2))
               for s in sc.vehicles}
    previous = {s.id: rollout(current[s.id], rng.uniform(-0.3, 0.3, cfg.horizon_steps),
                              s.speed, s.wheelbase, cfg.ts) for s in sc.vehicles}
    seeds = {s.id: make_seed(previous[s.id], current[s.id], s, cfg.horizon_steps, cfg.ts)
             for s in sc.vehicles}
    graph = build_constraint_graph(current, cfg.d_perc, cfg.d_safe)
    for t in (0.0, 3.7, 1e3):
        local, edges = (unstack(problems)
                        for problems in convexify_cycle(sc, current, seeds, graph, t))
        want_local, want_edges = _per_vehicle_convexify(sc, current, seeds, graph, t)
        assert set(local) == set(want_local) and list(edges) == list(want_edges)
        for vid, want in want_local.items():
            for name in ("H0", "f0", "G", "h"):
                assert getattr(local[vid], name).tobytes() == getattr(want, name).tobytes()
            assert local[vid].const0 == want.const0
        for e, want in want_edges.items():
            for name in ("G", "h"):
                assert getattr(edges[e], name).tobytes() == getattr(want, name).tobytes()


def test_convexify_cycle_rejects_seeds_that_are_not_rollouts(overtake_path):
    sc = load_scenario_file(overtake_path)
    cfg = sc.config
    current = {s.id: s.initial_state for s in sc.vehicles}
    seeds = {s.id: make_seed(None, current[s.id], s, cfg.horizon_steps, cfg.ts)
             for s in sc.vehicles}
    graph = build_constraint_graph(current, cfg.d_perc, cfg.d_safe)
    convexify_cycle(sc, current, seeds, graph, 0.0)
    vid, seed = sc.vehicles[0].id, seeds[sc.vehicles[0].id]
    moved = seed.poses.copy()
    moved[:, 0] += 0.5                     # a rollout, but from another start
    other_controls = seed.controls + 0.01  # poses no longer follow the controls
    for bad in (HorizonTrajectory(poses=moved, controls=seed.controls, ts=cfg.ts),
                HorizonTrajectory(poses=seed.poses, controls=other_controls, ts=cfg.ts)):
        with pytest.raises(ParameterError, match="rollout"):
            convexify_cycle(sc, current, {**seeds, vid: bad}, graph, 0.0)


class PathSpec:
    """The VehicleSpec fields reference sampling reads."""

    def __init__(self, vid, speed, waypoints):
        self.id = vid
        self.speed = speed
        self.waypoints = waypoints
        self.initial_state = VehicleState(*waypoints[0, :2] + 0.7, 0.0)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 5]))
def test_reference_window_for_the_fleet(seed, n):
    rng = np.random.default_rng(seed)
    specs = []
    for vid in range(n):
        pts = rng.uniform(-50.0, 50.0, (int(rng.integers(1, 6)), 3))
        if len(pts) > 2:
            pts[2, :2] = pts[1, :2]                  # a zero-length segment
        if rng.integers(4) == 0:
            pts[:, :2] = pts[0, :2]                  # no length at all
        specs.append(PathSpec(vid, float(rng.uniform(0.5, 20.0)), pts))
    paths = _ReferencePaths(specs)
    np_steps, ts = int(rng.integers(1, 10)), float(rng.uniform(0.05, 0.2))
    for t in (0.0, float(rng.uniform(0.0, 20.0)), 1e4):
        got = paths.window(t, np_steps, ts)
        for i, spec in enumerate(specs):
            want = reference_window(spec, t, np_steps, ts)
            assert got[i].reshape(-1).tobytes() == want.tobytes()
