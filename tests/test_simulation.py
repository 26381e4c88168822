import csv
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcoord.admm as admm_mod
from fleetcoord import (ParameterError, generate_crossing_scenario, generate_scaled_scenario,
                        lateral_deviation, load_scenario, load_scenario_file, make_seed,
                        path_progress, reference_window, rollout, run_simulation,
                        step_nonlinear)
from fleetcoord import qp as qp_mod
from fleetcoord import simulation, subproblems
from fleetcoord.bench import _BLAS_THREAD_VARS
from fleetcoord.scenario import VehicleState


def single_vehicle_scenario(duration=3.0, y0=0.0, speed_kmh=50.0, waypoints=None):
    doc = {
        "global": {"ts": 0.1, "horizon_steps": 15, "d_safe": 5.0, "q_weight": 1.0,
                   "q_heading": 2.0, "r_weight": 1.0, "rho0": 1.0, "eps_abs": 0.01,
                   "eps_rel": 0.01, "max_iters": 100, "sim_duration": duration},
        "vehicles": [{
            "id": 1, "wheelbase_m": 2.4, "speed_kmh": speed_kmh,
            "steer_min_deg": -35.0, "steer_max_deg": 35.0,
            "position_bounds_m": {"x_min": -50.0, "x_max": 300.0,
                                  "y_min": -20.0, "y_max": 20.0},
            "initial_pose": {"x_m": 0.0, "y_m": y0, "theta_rad": 0.0},
            "waypoints_m": waypoints or [[-20.0, 0.0, 0.0], [300.0, 0.0, 0.0]],
        }],
    }
    return load_scenario(yaml.safe_dump(doc))


# ---------------------------------------------------------------- seeds

def test_seed_shift_and_repeat():
    spec = single_vehicle_scenario().vehicle(1)
    prev = rollout(VehicleState(0, 0, 0), [0.1, 0.2, 0.3], spec.speed,
                   spec.wheelbase, 0.1)
    seed = make_seed(prev, VehicleState(1, 0, 0), spec, np_steps=3, ts=0.1)
    assert np.allclose(seed.controls, [0.2, 0.3, 0.3])


def test_seed_first_cycle_zero_steering():
    spec = single_vehicle_scenario().vehicle(1)
    seed = make_seed(None, VehicleState(0, 0, 0), spec, np_steps=5, ts=0.1)
    assert np.all(seed.controls == 0.0)


def test_seed_states_replay_through_plant():
    spec = single_vehicle_scenario().vehicle(1)
    prev = rollout(VehicleState(0, 0, 0.05), np.linspace(-0.2, 0.2, 6),
                   spec.speed, spec.wheelbase, 0.1)
    x = VehicleState(2.0, 0.5, 0.1)
    seed = make_seed(prev, x, spec, np_steps=6, ts=0.1)
    state = x
    for k, delta in enumerate(seed.controls):
        state = step_nonlinear(state, float(delta), spec.speed, spec.wheelbase, 0.1)
        assert seed.states[k + 1] == state


@pytest.mark.parametrize("mode", ["parallel_admm", "centralized"])
def test_closed_loop_seeds_equal_make_seed(overtake_path, mode, monkeypatch):
    # the loop takes each seed from the previous plan's rollout; it must be
    # make_seed's shifted, repeated and clipped plan rolled out from the new
    # state.  7 s: consensus ADMM keeps every plan at zero steering until 5.8 s.
    # The heading trig handed along is math's cos and sin of the seed headings.
    seen = []
    convexify = simulation.convexify_fleet

    def recording(fleet, poses, seed_poses, seed_controls, graph, t, trig):
        seen.append((seed_poses.copy(), seed_controls.copy()))
        headings = seed_poses[:, :-1, 2].tolist()
        for fn, got in zip((math.cos, math.sin), trig):
            assert got.tobytes() == np.array([[fn(x) for x in row] for row in headings]).tobytes()
        return convexify(fleet, poses, seed_poses, seed_controls, graph, t, trig)

    monkeypatch.setattr(simulation, "convexify_fleet", recording)
    sc = load_scenario_file(overtake_path)
    cfg = sc.config
    run = run_simulation(sc, mode, duration=7.0)
    assert len(seen) == len(run.cycles) == 70
    assert any(np.any(np.diff(controls, axis=1) != 0.0) for _, controls in seen)
    for k, (seed_poses, seed_controls) in enumerate(seen):
        for n, vid in enumerate(run.vehicle_ids):
            previous = None if k == 0 else run.predicted[vid][k - 1]
            want = make_seed(previous, VehicleState(*run.states[vid][k]), sc.vehicle(vid),
                             cfg.horizon_steps, cfg.ts)
            assert seed_poses[n].tobytes() == want.poses.tobytes()
            assert seed_controls[n].tobytes() == want.controls.tobytes()


@pytest.mark.parametrize("mode", ["parallel_admm", "centralized"])
def test_a_closed_loop_builds_no_per_node_problem(overtake_path, mode, monkeypatch):
    # the fleet's problems stay stacked from convexification to the solvers:
    # no LocalProblem or EdgeProblem is built on the way
    built = []
    for cls in (subproblems.LocalProblem, subproblems.EdgeProblem):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    run = run_simulation(load_scenario_file(overtake_path), mode, duration=2.0)
    assert sum(len(c.graph_edges) for c in run.cycles) > 0
    assert built == []
    # the counter counts
    subproblems.EdgeProblem(slack_penalty=1.0, G=np.zeros((1, 2)), h=np.zeros(1))
    assert built == ["EdgeProblem"]


# ---------------------------------------------------------------- references

def test_reference_spacing_on_straight_path():
    sc = single_vehicle_scenario(speed_kmh=36.0)   # 10 m/s
    ref = reference_window(sc.vehicle(1), t=0.0, np_steps=5, ts=0.1).reshape(-1, 3)
    xs = ref[:, 0]
    assert np.allclose(np.diff(xs), 1.0)           # 1 m apart at 10 m/s, Ts = 0.1
    assert np.allclose(ref[:, 1], 0.0)
    assert np.allclose(ref[:, 2], 0.0)             # tangent heading


def test_reference_holds_terminal_waypoint():
    sc = single_vehicle_scenario(speed_kmh=36.0,
                                 waypoints=[[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    ref = reference_window(sc.vehicle(1), t=100.0, np_steps=4, ts=0.1).reshape(-1, 3)
    assert np.allclose(ref[:, 0], 5.0)
    assert np.allclose(ref[:, 1], 0.0)


def test_reference_arc_length_on_curved_path():
    # quarter-circle polyline; spacing must match arc length, not chord tricks
    radius = 50.0
    angles = np.linspace(0, math.pi / 2, 400)
    wps = [[float(radius * math.sin(a)), float(radius * (1 - math.cos(a))), float(a)]
           for a in angles]
    sc = single_vehicle_scenario(speed_kmh=36.0, waypoints=wps)
    spec = sc.vehicle(1)
    ref = reference_window(spec, t=0.0, np_steps=10, ts=0.1).reshape(-1, 3)
    # fine polyline-length oracle: distance along the curve between samples
    fine = np.array([[radius * math.sin(a), radius * (1 - math.cos(a))]
                     for a in np.linspace(0, math.pi / 2, 200000)])
    seglen = np.hypot(*np.diff(fine, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    for k in range(10):
        target = 10.0 * 0.1 * (k + 1)
        idx = int(np.searchsorted(cum, target))
        oracle = fine[min(idx, len(fine) - 1)]
        assert np.hypot(*(ref[k, :2] - oracle)) <= 1e-3


def test_reference_single_waypoint_path():
    sc = single_vehicle_scenario(waypoints=[[4.0, 2.0, 0.7]])
    ref = reference_window(sc.vehicle(1), t=3.0, np_steps=3, ts=0.1).reshape(-1, 3)
    assert np.allclose(ref[:, 0], 4.0)
    assert np.allclose(ref[:, 1], 2.0)
    assert np.allclose(ref[:, 2], 0.7)    # no tangent: use the stored heading
    assert path_progress(sc.vehicle(1), (10.0, 10.0)) == 0.0


def test_reference_heading_alignment_across_wrap():
    from fleetcoord.simulation import _align_reference_headings
    seed = rollout(VehicleState(0.0, 0.0, -3.1), np.zeros(3), 12.0, 2.4, 0.1)
    ref = np.array([0.0, 0.0, 3.1, 1.0, 0.0, 3.12, 2.0, 0.0, 3.13])
    aligned = _align_reference_headings(ref, seed)
    for k in range(3):
        gap = aligned[3 * k + 2] - seed.states[k + 1].theta
        assert abs(gap) < math.pi          # same branch as the seed
    assert np.allclose(aligned[0::3], ref[0::3])   # positions untouched
    assert np.allclose(aligned[1::3], ref[1::3])


def test_progress_and_deviation_helpers():
    sc = single_vehicle_scenario()
    spec = sc.vehicle(1)
    assert path_progress(spec, (30.0, 0.0)) == pytest.approx(50.0)  # path starts at -20
    assert lateral_deviation(spec, (30.0, 2.5)) == pytest.approx(2.5)


class _Path:
    """The one VehicleSpec field the closest-point helpers read."""

    def __init__(self, waypoints):
        self.waypoints = waypoints


def _progress_by_segment_loop(waypoints, p):
    """path_progress as written before the shared closest-point pass."""
    pts = waypoints[:, :2]
    deltas = np.diff(pts, axis=0)
    seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    if len(pts) == 1 or cum[-1] <= 0:
        return 0.0
    best = (np.inf, 0.0)
    for seg in range(len(seg_len)):
        if seg_len[seg] == 0:
            continue
        fr = float(np.clip((p - pts[seg]) @ deltas[seg] / seg_len[seg] ** 2, 0.0, 1.0))
        d = float(np.hypot(*(p - (pts[seg] + fr * deltas[seg]))))
        if d < best[0]:
            best = (d, float(cum[seg] + fr * seg_len[seg]))
    return best[1]


def _deviation_by_segment_loop(waypoints, p):
    """lateral_deviation as written before the shared closest-point pass."""
    pts = waypoints[:, :2]
    deltas = np.diff(pts, axis=0)
    seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
    if len(pts) == 1:
        return float(np.hypot(*(p - pts[0])))
    best = np.inf
    for seg in range(len(seg_len)):
        if seg_len[seg] == 0:
            d = float(np.hypot(*(p - pts[seg])))
        else:
            fr = float(np.clip((p - pts[seg]) @ deltas[seg] / seg_len[seg] ** 2, 0.0, 1.0))
            d = float(np.hypot(*(p - pts[seg] - fr * deltas[seg])))
        best = min(best, d)
    return best


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_points=st.integers(1, 7),
       repeats=st.integers(0, 3))
def test_closest_point_pass_matches_the_segment_loops(seed, n_points, repeats):
    # random polylines, some with repeated waypoints (zero-length segments)
    rng = np.random.default_rng(seed)
    waypoints = rng.uniform(-50.0, 50.0, (n_points, 3))
    for _ in range(repeats):
        k = int(rng.integers(n_points))
        waypoints = np.insert(waypoints, k, waypoints[k], axis=0)
    path = _Path(waypoints)
    for p in rng.uniform(-80.0, 80.0, (5, 2)):
        assert path_progress(path, p) == _progress_by_segment_loop(waypoints, p)
        assert abs(lateral_deviation(path, p)
                   - _deviation_by_segment_loop(waypoints, p)) <= 1e-12


# ---------------------------------------------------------------- closed loop

def test_single_vehicle_tracking_settles_monotonically():
    sc = single_vehicle_scenario(duration=5.0, y0=2.0)
    run = run_simulation(sc, "parallel_admm")
    spec = sc.vehicle(1)
    devs = np.array([lateral_deviation(spec, run.states[1][k][:2])
                     for k in range(len(run.times))])
    # after the transient the error decays without growing again
    peak = int(np.argmax(devs))
    tail = devs[peak:]
    assert devs[0] == pytest.approx(2.0)
    assert tail[-1] <= 0.01
    assert np.all(np.diff(tail) <= 1e-6)


def test_plant_consistency_replay():
    sc = load_scenario_file("scenarios/overtake.scn")
    run = run_simulation(sc, "parallel_admm", duration=2.0)
    for vid in run.vehicle_ids:
        spec = sc.vehicle(vid)
        state = VehicleState(*run.states[vid][0])
        for k, delta in enumerate(run.applied_controls[vid]):
            state = step_nonlinear(state, float(delta), spec.speed,
                                   spec.wheelbase, sc.config.ts)
            assert np.allclose(state.as_array(), run.states[vid][k + 1], atol=1e-12)


def test_receding_horizon_causality():
    # a shorter run is an exact prefix of a longer one
    sc = load_scenario_file("scenarios/overtake.scn")
    short = run_simulation(sc, "parallel_admm", duration=1.0)
    long = run_simulation(sc, "parallel_admm", duration=2.0)
    for vid in short.vehicle_ids:
        assert np.array_equal(short.applied_controls[vid],
                              long.applied_controls[vid][:10])
        assert np.array_equal(short.states[vid], long.states[vid][:11])


def test_duration_must_be_multiple_of_ts():
    sc = single_vehicle_scenario()
    for duration in (0.55, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError, match="duration"):
            run_simulation(sc, "parallel_admm", duration=duration)
    with pytest.raises(ParameterError):
        run_simulation(sc, "bogus_mode")


@pytest.mark.parametrize("mode", ["parallel_admm", "centralized"])
def test_worker_count_must_be_positive(mode):
    sc = single_vehicle_scenario()
    for workers in (0, -2, 2, 4):
        with pytest.raises(ParameterError, match="workers"):
            run_simulation(sc, mode, duration=0.1, workers=workers)


def test_csv_and_json_outputs(tmp_path):
    sc = load_scenario_file("scenarios/overtake.scn")
    run = run_simulation(sc, "parallel_admm", duration=1.0)
    csv_path = tmp_path / "traj.csv"
    json_path = tmp_path / "summary.json"
    run.to_csv(csv_path)
    run.write_summary(json_path)

    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "vehicle_id", "rx", "ry", "theta", "delta",
                       "min_pairwise_distance"]
    assert len(rows) == 1 + 11 * 3    # header + (steps+1) * vehicles
    # replays numerically: spot-check a row against the run record
    t, vid, rx, ry, theta, delta, dmin = rows[4]
    k, v = 1, int(vid)
    assert float(rx) == pytest.approx(run.states[v][k][0], abs=1e-8)

    summary = json.loads(json_path.read_text())
    assert summary["mode"] == "parallel_admm"
    assert len(summary["cycles"]) == 10
    assert summary["cycles"][0]["converged"] is True
    assert summary["min_pairwise_distance"] == pytest.approx(
        float(np.min(run.min_pairwise)))
    for cycle, record in zip(summary["cycles"], run.cycles):
        assert cycle["nonoptimal_nodes"] == 0
        assert cycle["edge_handed"] == record.admm_report.edge_handed
        assert cycle["local_handed"] == record.admm_report.local_handed == 0
        assert cycle["kkt_max"] == pytest.approx(record.admm_report.kkt_max, rel=1e-8)
        assert cycle["anderson_accepted"] == record.admm_report.anderson_accepted
        assert cycle["anderson_rejected"] == record.admm_report.anderson_rejected
        assert cycle["qp_status"] is None and cycle["qp_path"] is None
        assert 0.0 <= cycle["kkt_max"] <= 1e-8
        times = cycle["per_node_solve_times"]
        assert set(times) == set(record.admm_report.per_node_solve_times)
        assert {"local/1", "local/2", "local/3"} <= set(times)
        assert all(t > 0 for t in times.values())


def test_centralized_mode_runs_and_matches_admm_closely():
    sc = load_scenario_file("scenarios/overtake.scn")
    run_a = run_simulation(sc, "parallel_admm", duration=1.5)
    run_c = run_simulation(sc, "centralized", duration=1.5)
    assert all(c.qp_status == "optimal" for c in run_c.cycles)
    assert all(c.qp_path in ("bound", "dual") for c in run_c.cycles)
    for vid in run_a.vehicle_ids:
        assert np.max(np.abs(run_a.states[vid][-1] - run_c.states[vid][-1])) <= 0.05


def test_lane_grid_centralized_cycles_take_the_bound_shortcut(tmp_path):
    # no separation row binds in the lane grid: every fleet QP is answered by
    # the bound shortcut
    run = run_simulation(generate_scaled_scenario(16, 0, sim_duration=0.3), "centralized")
    path = tmp_path / "summary.json"
    run.write_summary(path)
    cycles = json.loads(path.read_text())["cycles"]
    assert len(cycles) == 3
    for cycle, record in zip(cycles, run.cycles):
        assert record.qp_path == cycle["qp_path"] == "bound"
        assert cycle["local_handed"] is None and cycle["edge_handed"] is None
        assert cycle["anderson_accepted"] is None and cycle["anderson_rejected"] is None
        assert cycle["qp_status"] == "optimal"
        assert cycle["iterations"] == 0
        assert cycle["edges"]


def test_long_lane_run_answers_every_fleet_qp_on_the_shortcut_or_the_dual():
    # vehicles that catch up in a shared lane relax a separation row fully
    # (slacks above 10 m^2), and the slack's 1e-9 regularization curvature
    # then leaves the dual method's answer above the KKT target in cycles
    # 195-197: the polish on its active set must answer them
    run = run_simulation(generate_scaled_scenario(4, 0, sim_duration=20.0), "centralized")
    assert len(run.cycles) == 200
    assert [(c.index, c.qp_path, c.qp_status) for c in run.cycles
            if c.qp_path not in ("bound", "dual") or c.qp_status != "optimal"] == []


def _spy_node_kernels(monkeypatch):
    """The names of the ADMM nodes' box QP solvers, one per call, as they are called."""
    calls = []
    for name in ("_box_active_set", "_primal_active_set"):
        def spy(*args, name=name, real=getattr(qp_mod, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(qp_mod, name, spy)
    return calls


def test_overtake_centralized_coupled_cycles_are_answered_on_the_dual(overtake_path,
                                                                     tmp_path, monkeypatch):
    # the first fleet QPs that the bound shortcut cannot answer (a separation
    # row binds) come at cycle 58; the dual active set answers each one
    # exactly, and reaches neither of the ADMM nodes' box QP solvers, not
    # even on the cycles whose active rows include a separation row that two
    # steering bounds span
    kernel_calls = _spy_node_kernels(monkeypatch)
    run = run_simulation(load_scenario_file(overtake_path), "centralized")
    path = tmp_path / "summary.json"
    run.write_summary(path)
    cycles = json.loads(path.read_text())["cycles"]
    coupled = [c for c in cycles if c["qp_path"] != "bound"]
    assert coupled and coupled[0]["index"] == 58
    for cycle in coupled:
        assert cycle["qp_path"] == "dual" and cycle["qp_status"] == "optimal"
        assert cycle["iterations"] == 0
    assert kernel_calls == []


def test_intersection_centralized_dual_answers_reach_the_kkt_target(intersection_path,
                                                                    monkeypatch):
    # every fleet QP past the bound shortcut is answered on its dual, verified
    # to the 1e-8 KKT target, and none reaches the ADMM nodes' box QP solvers
    answers = []
    dual = qp_mod._dual_active_set

    def recording(*args):
        answers.append(dual(*args))
        return answers[-1]

    monkeypatch.setattr(qp_mod, "_dual_active_set", recording)
    kernel_calls = _spy_node_kernels(monkeypatch)
    run = run_simulation(load_scenario_file(intersection_path), "centralized")
    assert len(answers) == sum(c.qp_path == "dual" for c in run.cycles) > 0
    assert all(c.qp_path in ("bound", "dual") and c.qp_status == "optimal" for c in run.cycles)
    for answer in answers:
        assert answer is not None and answer[2] <= 1e-8
    assert kernel_calls == []


def test_summary_records_blas_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run = run_simulation(single_vehicle_scenario(), "parallel_admm", duration=0.1)
    path = tmp_path / "summary.json"
    run.write_summary(path)
    threads = json.loads(path.read_text())["blas_threads"]
    assert tuple(threads) == _BLAS_THREAD_VARS
    assert threads["OPENBLAS_NUM_THREADS"] == "1" and threads["MKL_NUM_THREADS"] is None


def _raise(*args, **kwargs):
    raise AssertionError("the ADMM path reached solve_qp or built a DenseQp")


def test_intersection_admm_never_reaches_solve_qp(intersection_path, tmp_path, monkeypatch):
    # position rows and steering bounds bind on the intersection, so the
    # batched pass hands nodes over; every one is answered exactly by the
    # node solvers
    for module in (qp_mod, simulation, admm_mod):
        monkeypatch.setattr(module, "solve_qp", _raise)
    monkeypatch.setattr(qp_mod.DenseQp, "__post_init__", _raise)
    run = run_simulation(load_scenario_file(intersection_path), "parallel_admm",
                         duration=4.0)
    path = tmp_path / "summary.json"
    run.write_summary(path)
    cycles = json.loads(path.read_text())["cycles"]
    assert sum(c["local_handed"] + c["edge_handed"] for c in cycles) > 0
    assert all(c["nonoptimal_nodes"] == 0 and c["kkt_max"] <= 1e-8 for c in cycles)


def test_overtake_admm_warm_started_cycles_converge_in_few_iterations(overtake_path):
    # each cycle starts from the last cycle's shifted edge duals and final rho;
    # cold-started, the same run took 3614 iterations and up to 158 per cycle
    run = run_simulation(load_scenario_file(overtake_path), "parallel_admm")
    assert all(c.converged for c in run.cycles)
    assert sum(c.iterations for c in run.cycles) <= 1500
    assert max(c.iterations for c in run.cycles) <= 80


def test_intersection_admm_warm_start_keeps_every_node_optimal(intersection_path):
    # edges leave the graph here; a vehicle dual carried without its edge
    # duals would start unbalanced and drive node solves off the KKT target
    sc = load_scenario_file(intersection_path)
    run = run_simulation(sc, "parallel_admm")
    assert all(c.iterations < sc.config.max_iters for c in run.cycles)
    assert sum(c.admm_report.nonoptimal_nodes for c in run.cycles) == 0


def test_summary_reports_the_carried_admm_state(intersection_path, tmp_path):
    # the graph is empty until cycle 20, so its first edges have no duals to carry
    sc = load_scenario_file(intersection_path)
    run = run_simulation(sc, "parallel_admm", duration=7.5)
    path = tmp_path / "summary.json"
    run.write_summary(path)
    cycles = json.loads(path.read_text())["cycles"]
    first_coupled = next(c for c in cycles if c["edges"])
    assert cycles[0]["duals_carried"] == 0 and first_coupled["index"] > 0
    assert first_coupled["duals_carried"] == 0
    assert cycles[0]["rho_start"] == sc.config.rho0
    # an uncoupled cycle only halves rho, so the cycle after it starts at
    # rho0 (the graph empties again at cycle 71, where rho ends below rho0)
    assert first_coupled["rho_start"] == sc.config.rho0
    after_uncoupled = [cycle for prev, cycle in zip(cycles, cycles[1:])
                       if not prev["edges"] and prev["rho_final"] < sc.config.rho0]
    assert after_uncoupled
    assert all(cycle["rho_start"] == sc.config.rho0 for cycle in after_uncoupled)
    for prev, cycle in zip(cycles, cycles[1:]):
        carried = prev["rho_final"] if prev["edges"] else sc.config.rho0
        assert cycle["rho_start"] == carried > 0
        carried = {tuple(e) for e in prev["edges"]} & {tuple(e) for e in cycle["edges"]}
        assert cycle["duals_carried"] == len(carried)
    assert max(c["duals_carried"] for c in cycles) > 0


def test_summary_records_the_steering_the_loop_clips(tmp_path, monkeypatch):
    # crossing 4 (3 s): the ADMM consensus leaves the steering box in some
    # cycles and the loop clips it into the box before applying it; the
    # centralized QP holds the box as bounds, so nothing is clipped there
    consensus = []
    solve = simulation.admm_solve

    def recording(*args):
        result = solve(*args)
        consensus.append(result.state.Z.copy())
        return result

    monkeypatch.setattr(simulation, "admm_solve", recording)
    sc = generate_crossing_scenario(4, 0, sim_duration=3.0)
    for mode in ("parallel_admm", "centralized"):
        run = run_simulation(sc, mode)
        run.write_summary(tmp_path / "summary.json")
        summary = json.loads((tmp_path / "summary.json").read_text())["cycles"]
        assert [c["steer_clipped"] for c in summary] == [
            float(f"{c.steer_clipped:.9g}") for c in run.cycles]
        clipped = [c.steer_clipped for c in run.cycles]
        assert len(clipped) == 30
        if mode == "centralized":
            assert all(x == 0.0 for x in clipped)
            continue
        assert max(clipped) > 0.0
        for k, (record, z) in enumerate(zip(run.cycles, consensus)):
            plans = np.array([run.predicted[vid][k].controls for vid in run.vehicle_ids])
            assert record.steer_clipped == float(np.max(np.abs(z - plans)))


def test_lane_grid_of_256_vehicles_runs():
    # a scale smoke test of the fleet-array path (no timing asserted)
    run = run_simulation(generate_scaled_scenario(256, 0), "parallel_admm", duration=0.2)
    assert len(run.cycles) == 2
    for record in run.cycles:
        assert record.converged
        assert record.admm_report.local_handed == record.admm_report.edge_handed == 0
        assert record.admm_report.nonoptimal_nodes == 0
        assert record.graph_edges
    assert all(np.all(np.isfinite(states)) for states in run.states.values())
    assert all(np.all(np.isfinite(u)) for u in run.applied_controls.values())
    assert len(run.predicted[1]) == 2 and run.predicted[1][0].horizon == 15


def test_safety_violation_recorded_not_raised():
    # a separation demand the corridor cannot satisfy: the overtake must pass
    # within 6 m while d_safe is 30 m, so breaches get logged and the run ends
    doc = {
        "global": {"ts": 0.1, "horizon_steps": 10, "d_safe": 30.0, "q_weight": 1.0,
                   "q_heading": 2.0, "r_weight": 1.0, "rho0": 1.0, "eps_abs": 0.01,
                   "eps_rel": 0.01, "max_iters": 30, "sim_duration": 3.0},
        "vehicles": [
            {"id": 1, "wheelbase_m": 2.4, "speed_kmh": 50.0,
             "steer_min_deg": -35.0, "steer_max_deg": 35.0,
             "position_bounds_m": {"x_min": -200.0, "x_max": 200.0,
                                   "y_min": -1.0, "y_max": 7.0},
             "initial_pose": {"x_m": 0.0, "y_m": 0.0, "theta_rad": 0.0},
             "waypoints_m": [[-10.0, 0.0, 0.0], [200.0, 0.0, 0.0]]},
            {"id": 2, "wheelbase_m": 2.4, "speed_kmh": 40.0,
             "steer_min_deg": -35.0, "steer_max_deg": 35.0,
             "position_bounds_m": {"x_min": -200.0, "x_max": 200.0,
                                   "y_min": -1.0, "y_max": 7.0},
             "initial_pose": {"x_m": 5.0, "y_m": 6.0, "theta_rad": 0.0},
             "waypoints_m": [[-10.0, 6.0, 0.0], [200.0, 6.0, 0.0]]},
        ],
    }
    sc = load_scenario(yaml.safe_dump(doc))
    run = run_simulation(sc, "parallel_admm")
    assert run.violations    # breaches recorded as events, simulation completed
    assert len(run.times) == 31
    assert float(np.min(run.min_pairwise)) < 30.0
