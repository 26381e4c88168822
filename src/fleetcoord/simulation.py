"""Receding-horizon closed loop over the true nonlinear fleet.

Each cycle: rebuild the coupling graph from current positions (then freeze it
for the horizon), shift last cycle's solution into a seed trajectory,
linearize dynamics and separation constraints at the seed, solve either the
parallel consensus problem or the centralized QP on identical convexified
data, apply the first steering input of each vehicle, and advance every
plant one nonlinear step.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .admm import AdmmConfig, ResidualReport, admm_solve
from .dynamics import HorizonTrajectory, condense, linearize, rollout
from .errors import NumericalFailureError, ParameterError, ScenarioError
from .graph import ConstraintGraph, build_constraint_graph
from .qp import OPTIMAL, solve_qp
from .scenario import Scenario, VehicleSpec, VehicleState
from .subproblems import (CostWeights, build_centralized, fleet_objective,
                          make_edge_problem, make_local_problem)

logger = logging.getLogger(__name__)

PARALLEL_ADMM = "parallel_admm"
CENTRALIZED = "centralized"
_MODES = (PARALLEL_ADMM, CENTRALIZED)


def make_seed(previous: HorizonTrajectory | None, current_state: VehicleState,
              spec: VehicleSpec, np_steps: int, ts: float) -> HorizonTrajectory:
    """Shift last cycle's controls one step, repeat the last one, re-roll.

    With no previous solution (first cycle) the seed is the zero-steering
    rollout from the current state.
    """
    if previous is None:
        controls = np.zeros(np_steps)
    else:
        prev = np.asarray(previous.controls, dtype=float)
        controls = np.concatenate([prev[1:], prev[-1:]])
    controls = np.clip(controls, spec.steer_min, spec.steer_max)
    return rollout(current_state, controls, spec.speed, spec.wheelbase, ts)


def _polyline_geometry(waypoints: np.ndarray):
    pts = waypoints[:, :2]
    deltas = np.diff(pts, axis=0)
    seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    return pts, deltas, seg_len, cum


def reference_window(spec: VehicleSpec, t: float, np_steps: int, ts: float) -> np.ndarray:
    """Stacked (3*Np,) reference sampled by arc length at the vehicle's speed.

    The schedule starts where the vehicle starts: sample k targets the path
    point at arc length s0 + v*(t + k*ts), with s0 the projection of the
    initial pose onto the path.  Beyond the path end the final waypoint is
    held.  Headings are the path tangent.
    """
    wps = spec.waypoints
    if len(wps) == 0:
        raise ScenarioError(f"vehicle {spec.id}: empty reference path")
    pts, deltas, seg_len, cum = _polyline_geometry(wps)
    total = float(cum[-1])
    s0 = path_progress(spec, spec.initial_state.position) if total > 0 else 0.0
    out = np.zeros((np_steps, 3))
    for k in range(1, np_steps + 1):
        s = s0 + spec.speed * (t + k * ts)
        if total <= 0.0:
            out[k - 1] = [pts[0, 0], pts[0, 1], wps[0, 2]]
            continue
        s = min(max(s, 0.0), total)
        seg = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg_len) - 1)
        seg = max(seg, 0)
        frac = (s - cum[seg]) / seg_len[seg] if seg_len[seg] > 0 else 0.0
        pos = pts[seg] + frac * deltas[seg]
        heading = math.atan2(deltas[seg, 1], deltas[seg, 0])
        out[k - 1] = [pos[0], pos[1], heading]
    return out.reshape(-1)


def path_progress(spec: VehicleSpec, position) -> float:
    """Arc length of the closest point on the reference polyline."""
    pts, deltas, seg_len, cum = _polyline_geometry(spec.waypoints)
    p = np.asarray(position, dtype=float)
    if len(pts) == 1 or cum[-1] <= 0:
        return 0.0
    best = (np.inf, 0.0)
    for seg in range(len(seg_len)):
        if seg_len[seg] == 0:
            continue
        fr = float(np.clip((p - pts[seg]) @ deltas[seg] / seg_len[seg] ** 2, 0.0, 1.0))
        proj = pts[seg] + fr * deltas[seg]
        d = float(np.hypot(*(p - proj)))
        if d < best[0]:
            best = (d, float(cum[seg] + fr * seg_len[seg]))
    return best[1]


def lateral_deviation(spec: VehicleSpec, position) -> float:
    """Distance from a position to the reference polyline."""
    pts, deltas, seg_len, _ = _polyline_geometry(spec.waypoints)
    p = np.asarray(position, dtype=float)
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


def _align_reference_headings(ref_stacked: np.ndarray, seed: HorizonTrajectory) -> np.ndarray:
    """Shift reference headings by multiples of 2 pi onto the seed's branch."""
    ref = ref_stacked.copy()
    seed_theta = np.array([s.theta for s in seed.states[1:]])
    idx = np.arange(2, len(ref), 3)
    ref[idx] += 2.0 * math.pi * np.round((seed_theta - ref[idx]) / (2.0 * math.pi))
    return ref


@dataclass
class CycleRecord:
    index: int
    time: float
    graph_edges: tuple
    mode: str
    solve_wall_time: float
    accounted_time: float        # parallel: sum of per-iteration max node time
    iterations: int
    converged: bool
    slack_max: float
    min_distance: float
    admm_report: ResidualReport | None = None
    qp_status: str | None = None
    objective: float = float("nan")


@dataclass
class SimulationRun:
    """Complete record of one closed-loop run."""

    scenario: Scenario
    mode: str
    times: np.ndarray                    # (n_steps + 1,)
    states: dict                         # id -> (n_steps + 1, 3)
    applied_controls: dict               # id -> (n_steps,)
    predicted: dict                      # id -> list[HorizonTrajectory], one per cycle
    cycles: list[CycleRecord] = field(default_factory=list)
    min_pairwise: np.ndarray | None = None
    violations: list = field(default_factory=list)

    @property
    def vehicle_ids(self) -> tuple:
        return tuple(sorted(self.states))

    def to_csv(self, path) -> None:
        """One row per (time, vehicle): pose, applied steering, fleet min distance."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "vehicle_id", "rx", "ry", "theta", "delta",
                             "min_pairwise_distance"])
            n_steps = len(self.times) - 1
            for step, t in enumerate(self.times):
                for vid in self.vehicle_ids:
                    s = self.states[vid][step]
                    delta = self.applied_controls[vid][step] if step < n_steps else 0.0
                    writer.writerow([_fmt(t), vid, _fmt(s[0]), _fmt(s[1]), _fmt(s[2]),
                                     _fmt(delta), _fmt(self.min_pairwise[step])])

    def summary(self) -> dict:
        def sig9(x):
            if x is None or (isinstance(x, float) and math.isnan(x)):
                return None
            return float(f"{float(x):.9g}")

        return {
            "mode": self.mode,
            "ts": sig9(self.scenario.config.ts),
            "horizon_steps": self.scenario.config.horizon_steps,
            "d_safe": sig9(self.scenario.config.d_safe),
            "d_perc": sig9(self.scenario.config.d_perc),
            "vehicle_ids": list(self.vehicle_ids),
            "duration": sig9(self.times[-1]),
            "min_pairwise_distance": (sig9(np.min(self.min_pairwise))
                                      if len(self.vehicle_ids) > 1 else None),
            "violations": [{"time": sig9(v["time"]), "distance": sig9(v["distance"])}
                           for v in self.violations],
            "cycles": [
                {
                    "index": c.index,
                    "time": sig9(c.time),
                    "edges": [list(e) for e in c.graph_edges],
                    "converged": bool(c.converged),
                    "iterations": c.iterations,
                    "solve_wall_time": sig9(c.solve_wall_time),
                    "accounted_time": sig9(c.accounted_time),
                    "slack_max": sig9(c.slack_max),
                    "min_distance": sig9(c.min_distance),
                    "objective": None if math.isnan(c.objective) else sig9(c.objective),
                    "r_norm": sig9(c.admm_report.r_norm) if c.admm_report else None,
                    "s_norm": sig9(c.admm_report.s_norm) if c.admm_report else None,
                    "eps_pri": sig9(c.admm_report.eps_pri) if c.admm_report else None,
                    "eps_dual": sig9(c.admm_report.eps_dual) if c.admm_report else None,
                    "nonoptimal_nodes": (c.admm_report.nonoptimal_nodes
                                         if c.admm_report else None),
                    "edge_fallbacks": c.admm_report.edge_fallbacks if c.admm_report else None,
                    "local_fallbacks": (c.admm_report.local_fallbacks
                                        if c.admm_report else None),
                    "kkt_max": sig9(c.admm_report.kkt_max) if c.admm_report else None,
                    "per_node_solve_times": (
                        {name: sig9(t) for name, t in c.admm_report.per_node_solve_times.items()}
                        if c.admm_report else None),
                    "qp_status": c.qp_status,
                }
                for c in self.cycles
            ],
        }

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2)


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _min_pairwise(states: dict) -> float:
    vids = sorted(states)
    if len(vids) < 2:
        return float("nan")
    best = np.inf
    for a in range(len(vids)):
        for b in range(a + 1, len(vids)):
            sa, sb = states[vids[a]], states[vids[b]]
            best = min(best, math.hypot(sa.rx - sb.rx, sa.ry - sb.ry))
    return float(best)


def convexify_cycle(scenario: Scenario, current: dict, seeds: dict,
                    graph: ConstraintGraph, t: float):
    """Linearize dynamics and separation constraints at the seeds.

    Returns (local_problems, edge_problems) consumed identically by the
    parallel and centralized solution paths.
    """
    cfg = scenario.config
    weights = CostWeights(q_pos=cfg.q_weight, q_heading=cfg.q_heading,
                          r_steer=cfg.r_weight, slack_penalty=cfg.slack_penalty)
    condensed = {}
    local_problems = {}
    for spec in scenario.vehicles:
        vid = spec.id
        models = linearize(seeds[vid], spec.speed, spec.wheelbase, cfg.ts)
        condensed[vid] = condense(models, current[vid])
        ref = reference_window(spec, t, cfg.horizon_steps, cfg.ts)
        ref = _align_reference_headings(ref, seeds[vid])
        local_problems[vid] = make_local_problem(
            spec, condensed[vid], ref, weights,
            edge_count=graph.degree(vid), x0=current[vid].position, ts=cfg.ts)

    edge_problems = {}
    for (i, j) in graph.edges:
        diff = current[i].position - current[j].position
        edge_problems[(i, j)] = make_edge_problem(
            (i, j), condensed[i], condensed[j],
            seeds[i].positions()[1:], seeds[j].positions()[1:],
            cfg.d_safe, cfg.slack_penalty, fallback_dir=diff)
    return local_problems, edge_problems


def run_simulation(scenario: Scenario, solver_mode: str = PARALLEL_ADMM,
                   duration: float | None = None, workers: int = 1,
                   adapt_rho: bool = True) -> SimulationRun:
    """Close the loop for ``duration`` seconds (default: scenario setting)."""
    if solver_mode not in _MODES:
        raise ParameterError(f"solver_mode must be one of {_MODES}")
    cfg = scenario.config
    duration = cfg.sim_duration if duration is None else float(duration)
    n_cycles = round(duration / cfg.ts)
    if abs(n_cycles * cfg.ts - duration) > 1e-9 or n_cycles < 1:
        raise ParameterError("duration must be a positive multiple of Ts")

    admm_cfg = AdmmConfig(rho0=cfg.rho0, eps_abs=cfg.eps_abs, eps_rel=cfg.eps_rel,
                          max_iters=cfg.max_iters, adapt_rho=adapt_rho, workers=workers)
    vids = tuple(sorted(s.id for s in scenario.vehicles))
    specs = {s.id: s for s in scenario.vehicles}
    current = {vid: specs[vid].initial_state for vid in vids}
    previous: dict = {vid: None for vid in vids}

    states_log = {vid: [current[vid].as_array()] for vid in vids}
    controls_log = {vid: [] for vid in vids}
    predicted = {vid: [] for vid in vids}
    min_pairwise = [_min_pairwise(current)]
    cycles = []
    violations = []
    centralized_warm = None

    for cycle in range(n_cycles):
        t = cycle * cfg.ts
        graph = build_constraint_graph(current, cfg.d_perc, cfg.d_safe)
        seeds = {vid: make_seed(previous[vid], current[vid], specs[vid],
                                cfg.horizon_steps, cfg.ts) for vid in vids}
        local_problems, edge_problems = convexify_cycle(scenario, current, seeds, graph, t)

        t0 = time.perf_counter()
        if solver_mode == PARALLEL_ADMM:
            try:
                result = admm_solve(local_problems, edge_problems, admm_cfg,
                                    seeds={vid: seeds[vid].controls for vid in vids})
            except NumericalFailureError as exc:
                dump = {vid: tuple(current[vid].as_array()) for vid in vids}
                raise NumericalFailureError(
                    f"solver failure at cycle {cycle} (t={t:.2f}s): {exc}; "
                    f"states={dump}", iteration=exc.iteration) from exc
            wall = time.perf_counter() - t0
            controls = result.consensus
            record = CycleRecord(
                index=cycle, time=t, graph_edges=graph.edges, mode=solver_mode,
                solve_wall_time=wall, accounted_time=result.report.parallel_time,
                iterations=result.report.iterations_used,
                converged=result.report.converged,
                slack_max=result.report.slack_max, min_distance=float("nan"),
                admm_report=result.report,
                objective=fleet_objective(local_problems, controls))
        else:
            central = build_centralized(local_problems, edge_problems)
            warm = centralized_warm if (centralized_warm is not None and
                                        len(centralized_warm.u_star) == central.qp.n) else None
            sol = solve_qp(central.qp,
                           warm_start=None if warm is None else warm.u_star,
                           warm_multipliers=None if warm is None else warm.multipliers)
            wall = time.perf_counter() - t0
            centralized_warm = sol
            controls = central.controls(sol.u_star)
            slack_max = (max(float(np.max(s)) for s in central.slacks(sol.u_star).values())
                         if central.edges else 0.0)
            if sol.status != OPTIMAL:
                logger.warning("centralized QP returned status=%s at cycle %d",
                               sol.status, cycle)
            record = CycleRecord(
                index=cycle, time=t, graph_edges=graph.edges, mode=solver_mode,
                solve_wall_time=wall, accounted_time=wall,
                iterations=sol.iterations, converged=sol.status == OPTIMAL,
                slack_max=slack_max, min_distance=float("nan"),
                qp_status=sol.status,
                objective=fleet_objective(local_problems, controls))

        # apply the first input of each vehicle and advance all plants
        next_states = {}
        for vid in vids:
            spec = specs[vid]
            u = np.clip(np.asarray(controls[vid], dtype=float),
                        spec.steer_min, spec.steer_max)
            if not np.all(np.isfinite(u)):
                raise NumericalFailureError(
                    f"solver produced non-finite steering for vehicle {vid} "
                    f"at cycle {cycle} (t={t:.2f}s)")
            predicted_traj = rollout(current[vid], u, spec.speed, spec.wheelbase, cfg.ts)
            predicted[vid].append(predicted_traj)
            previous[vid] = predicted_traj
            delta = float(u[0])
            controls_log[vid].append(delta)
            next_states[vid] = predicted_traj.states[1]

        current = next_states
        for vid in vids:
            states_log[vid].append(current[vid].as_array())
        dmin = _min_pairwise(current)
        min_pairwise.append(dmin)
        record.min_distance = dmin
        if len(vids) > 1 and dmin < cfg.d_safe:
            violations.append({"time": (cycle + 1) * cfg.ts, "distance": dmin})
        cycles.append(record)

    return SimulationRun(
        scenario=scenario, mode=solver_mode,
        times=np.arange(n_cycles + 1) * cfg.ts,
        states={vid: np.array(states_log[vid]) for vid in vids},
        applied_controls={vid: np.array(controls_log[vid]) for vid in vids},
        predicted=predicted, cycles=cycles,
        min_pairwise=np.array(min_pairwise), violations=violations)
