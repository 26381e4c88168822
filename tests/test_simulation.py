import csv
import json
import math

import numpy as np
import pytest
import yaml

from fleetcoord import (ParameterError, generate_scaled_scenario, lateral_deviation,
                        load_scenario, load_scenario_file, make_seed, path_progress,
                        reference_window, rollout, run_simulation, step_nonlinear)
from fleetcoord import qp as qp_mod
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
    with pytest.raises(ParameterError):
        run_simulation(sc, "parallel_admm", duration=0.55)
    with pytest.raises(ParameterError):
        run_simulation(sc, "bogus_mode")


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
        assert cycle["edge_fallbacks"] == record.admm_report.edge_fallbacks
        assert cycle["local_fallbacks"] == record.admm_report.local_fallbacks == 0
        assert cycle["kkt_max"] == pytest.approx(record.admm_report.kkt_max, rel=1e-8)
        assert cycle["qp_status"] is None and cycle["qp_path"] is None
        assert 0.0 <= cycle["kkt_max"] <= 1e-8
        assert cycle["local_fallback_ipm_iters"] == 0
        assert (cycle["edge_fallback_ipm_iters"]
                == record.admm_report.edge_fallback_ipm_iters)
        assert cycle["fallback_paths"] == record.admm_report.fallback_paths
        assert sum(cycle["fallback_paths"].values()) == cycle["edge_fallbacks"]
        times = cycle["per_node_solve_times"]
        assert set(times) == set(record.admm_report.per_node_solve_times)
        assert {"local/1", "local/2", "local/3"} <= set(times)
        assert all(t > 0 for t in times.values())


def test_centralized_mode_runs_and_matches_admm_closely():
    sc = load_scenario_file("scenarios/overtake.scn")
    run_a = run_simulation(sc, "parallel_admm", duration=1.5)
    run_c = run_simulation(sc, "centralized", duration=1.5)
    assert all(c.qp_status == "optimal" for c in run_c.cycles)
    assert all(c.qp_path in ("bound", "active_set", "ipm") for c in run_c.cycles)
    for vid in run_a.vehicle_ids:
        assert np.max(np.abs(run_a.states[vid][-1] - run_c.states[vid][-1])) <= 0.05


def test_lane_grid_centralized_cycles_take_the_bound_shortcut(tmp_path):
    # no separation row binds in the lane grid: every fleet QP is answered by
    # the bound shortcut, with no interior-point iteration
    run = run_simulation(generate_scaled_scenario(16, 0, sim_duration=0.3), "centralized")
    path = tmp_path / "summary.json"
    run.write_summary(path)
    cycles = json.loads(path.read_text())["cycles"]
    assert len(cycles) == 3
    for cycle, record in zip(cycles, run.cycles):
        assert record.qp_path == cycle["qp_path"] == "bound"
        assert cycle["fallback_paths"] is None and cycle["local_fallback_ipm_iters"] is None
        assert cycle["qp_status"] == "optimal"
        assert cycle["iterations"] == 0
        assert cycle["edges"]


def test_overtake_centralized_ipm_cycles_are_optimal_in_few_iterations(overtake_path,
                                                                      tmp_path):
    # the first fleet QPs that reach the interior-point method come at cycle 58;
    # each must end optimal within 25 iterations
    run = run_simulation(load_scenario_file(overtake_path), "centralized", duration=6.5)
    path = tmp_path / "summary.json"
    run.write_summary(path)
    ipm = [c for c in json.loads(path.read_text())["cycles"] if c["qp_path"] == "ipm"]
    assert ipm and ipm[0]["index"] == 58
    for cycle in ipm:
        assert cycle["qp_status"] == "optimal"
        assert 0 < cycle["iterations"] <= 25


def test_intersection_centralized_ipm_answers_reach_the_kkt_target(intersection_path,
                                                                   monkeypatch):
    # rounding in the reduced Newton system can stall the last iterates above
    # the 1e-8 target (cycles 34 and 36 here); the exact re-solve on the rows
    # the iterate marks active must finish them
    answers = []
    ipm = qp_mod._ipm

    def recording(problem, warm_start, max_iter):
        answers.append(ipm(problem, warm_start, max_iter))
        return answers[-1]

    monkeypatch.setattr(qp_mod, "_ipm", recording)
    run = run_simulation(load_scenario_file(intersection_path), "centralized")
    assert len(answers) == sum(c.qp_path == "ipm" for c in run.cycles) > 0
    for sol in answers:
        assert sol.status == "optimal" and sol.kkt_residual <= 1e-8
        assert 0 < sol.iterations <= 25


def test_summary_records_blas_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run = run_simulation(single_vehicle_scenario(), "parallel_admm", duration=0.1)
    path = tmp_path / "summary.json"
    run.write_summary(path)
    threads = json.loads(path.read_text())["blas_threads"]
    assert tuple(threads) == _BLAS_THREAD_VARS
    assert threads["OPENBLAS_NUM_THREADS"] == "1" and threads["MKL_NUM_THREADS"] is None


def test_intersection_local_fallbacks_report_their_ipm_work(intersection_path, tmp_path):
    # position rows bind on the intersection, so some tracking nodes hand
    # their QP to solve_qp; the summary says how hard the IPM worked on them
    run = run_simulation(load_scenario_file(intersection_path), "parallel_admm",
                         duration=4.0)
    path = tmp_path / "summary.json"
    run.write_summary(path)
    cycles = json.loads(path.read_text())["cycles"]
    assert sum(c["local_fallbacks"] for c in cycles) > 0
    for cycle in cycles:
        assert sum(cycle["fallback_paths"].values()) == (cycle["local_fallbacks"]
                                                         + cycle["edge_fallbacks"])
        assert cycle["local_fallback_ipm_iters"] >= 0
    assert sum(c["local_fallback_ipm_iters"] for c in cycles) > 0


def test_overtake_admm_warm_started_cycles_converge_in_few_iterations(overtake_path):
    # each cycle starts from the last cycle's shifted edge duals and final rho;
    # cold-started, the same run took 3614 iterations and up to 158 per cycle
    run = run_simulation(load_scenario_file(overtake_path), "parallel_admm")
    assert all(c.converged for c in run.cycles)
    assert sum(c.iterations for c in run.cycles) <= 1500
    assert max(c.iterations for c in run.cycles) <= 80


def test_intersection_admm_warm_start_keeps_every_node_optimal(intersection_path):
    # edges leave the graph here; a vehicle dual carried without its edge
    # duals would start unbalanced and drive local fallbacks off the KKT target
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


def test_lane_grid_of_256_vehicles_runs():
    # a scale smoke test of the fleet-array path (no timing asserted)
    run = run_simulation(generate_scaled_scenario(256, 0), "parallel_admm", duration=0.2)
    assert len(run.cycles) == 2
    for record in run.cycles:
        assert record.converged
        assert record.admm_report.local_fallbacks == record.admm_report.edge_fallbacks == 0
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
