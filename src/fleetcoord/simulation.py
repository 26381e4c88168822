"""Receding-horizon closed loop over the true nonlinear fleet.

Each cycle: rebuild the coupling graph from current positions (then freeze it
for the horizon), linearize dynamics and separation constraints at the seed
trajectory, solve either the parallel consensus problem or the centralized
QP on identical convexified data, apply the first steering input of each
vehicle, and advance every plant one nonlinear step.  The first seed is the
zero-steering rollout; every later seed is last cycle's plan shifted one
step with its last input repeated (``make_seed``).

Consensus ADMM starts every cycle after the first from the previous cycle's
final ``AdmmState``, kept as arrays: ``init_admm_state`` starts the copies at
the new seeds, carries rho (rho0 after a cycle without edges), shifts each
persisting edge's dual rows one step like the seed, starts new edges at zero,
and sets each vehicle's dual row so that its duals sum to zero.  The
centralized QP is solved cold every cycle.

The loop keeps the fleet as arrays in vehicle-id order: (N, 3) poses and
(N, Np) steering.  Per cycle it makes one ``rollout_fleet_trig`` of the applied
plans over Np+1 steps, the last input repeated: its first Np+1 poses are the
plan's prediction and its last Np+1 the next cycle's seed, since the plant
step is the same float computation from the same pose.  It also makes one
``condense_fleet``, one vectorized reference sample over all vehicles and
steps (each vehicle's polyline and its start progress s0 are prepared once
per run by ``Fleet``), and one batched pass each for the tracking and edge
problems (``convexify_fleet``), which stay stacked (``LocalProblems``,
``EdgeProblems``), the only form the solvers and the objective take.  The
rollout also keeps the cos and sin of every heading it steps from; the
slice at the next seed's headings goes to the next cycle's
``condense_fleet``, which would otherwise take them again.  The ADMM
cycle starts from the (N, Np) seed array and applies the final consensus
array.  The applied plan is the solver's clipped to the steering box, and
each cycle records the largest input clipped off (``steer_clipped``).
``make_seed``, ``reference_window`` and ``convexify_cycle`` take per-vehicle objects; the
first two are the per-vehicle reference the fleet path is tested against,
and ``convexify_cycle`` wraps ``convexify_fleet`` for callers that hold
per-vehicle states and seeds.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .admm import AdmmConfig, ResidualReport, admm_solve, init_admm_state
# linearize, condense, rollout, make_local_problem and make_edge_problem are
# not called here; they stay importable from this module for span tracers
# that wrap them by name.
from .dynamics import (HorizonTrajectory, condense, condense_fleet,  # noqa: F401
                       linearize, rollout, rollout_fleet_trig)
from .errors import NumericalFailureError, ParameterError, ScenarioError
from .graph import ConstraintGraph, build_constraint_graph
from .qp import OPTIMAL, solve_qp
from .scenario import Scenario, VehicleSpec, VehicleState
from .subproblems import (CostWeights, build_centralized, fleet_objective,  # noqa: F401
                          make_edge_problem, make_edge_problems, make_local_problem,
                          make_local_problems)

logger = logging.getLogger(__name__)

PARALLEL_ADMM = "parallel_admm"
CENTRALIZED = "centralized"
_MODES = (PARALLEL_ADMM, CENTRALIZED)
# thread-count variables of the BLAS builds numpy may load; results can depend on them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def _closest_point(spec: VehicleSpec, position) -> tuple[float, float]:
    """(distance, arc length) of the reference polyline's point closest to ``position``.

    Zero-length segments are skipped: their point ends a neighbouring
    segment.  A path without a segment of positive length is its first point.
    """
    pts, deltas, seg_len, cum = _polyline_geometry(spec.waypoints)
    p = np.asarray(position, dtype=float)
    if cum[-1] <= 0:
        return float(np.hypot(*(p - pts[0]))), 0.0
    best = (np.inf, 0.0)
    for seg in range(len(seg_len)):
        if seg_len[seg] == 0:
            continue
        fr = float(np.clip((p - pts[seg]) @ deltas[seg] / seg_len[seg] ** 2, 0.0, 1.0))
        proj = pts[seg] + fr * deltas[seg]
        d = float(np.hypot(*(p - proj)))
        if d < best[0]:
            best = (d, float(cum[seg] + fr * seg_len[seg]))
    return best


def path_progress(spec: VehicleSpec, position) -> float:
    """Arc length of the closest point on the reference polyline."""
    return _closest_point(spec, position)[1]


def lateral_deviation(spec: VehicleSpec, position) -> float:
    """Distance from a position to the reference polyline."""
    return _closest_point(spec, position)[0]


def _onto_branch(heading, target):
    """``heading`` shifted by the multiple of 2 pi that brings it nearest ``target``."""
    return heading + 2.0 * math.pi * np.round((target - heading) / (2.0 * math.pi))


def _align_reference_headings(ref_stacked: np.ndarray, seed: HorizonTrajectory) -> np.ndarray:
    """Shift reference headings by multiples of 2 pi onto the seed's branch."""
    ref = ref_stacked.copy()
    ref[2::3] = _onto_branch(ref[2::3], seed.poses[1:, 2])
    return ref


class _ReferencePaths:
    """Every vehicle's reference polyline as padded arrays, built once per run.

    ``window`` performs ``reference_window`` for all vehicles and steps at
    once, with the same float operations per sample; segment headings come
    from ``math.atan2`` as there, and s0 from ``path_progress``.
    """

    def __init__(self, specs):
        n = len(specs)
        for spec in specs:
            if len(spec.waypoints) == 0:
                raise ScenarioError(f"vehicle {spec.id}: empty reference path")
        n_seg = max(max(len(spec.waypoints) for spec in specs) - 1, 1)
        self.start = np.array([spec.waypoints[0, :3] for spec in specs], dtype=float)
        self.pts = np.zeros((n, n_seg, 2))
        self.deltas = np.zeros((n, n_seg, 2))
        self.seg_len = np.zeros((n, n_seg))
        self.cum = np.full((n, n_seg + 1), np.inf)   # +inf pads never count as <= s
        self.heading = np.zeros((n, n_seg))
        self.last_seg = np.zeros(n, dtype=int)
        self.total = np.zeros(n)
        self.s0 = np.zeros(n)
        self.speed = np.array([spec.speed for spec in specs], dtype=float)
        for v, spec in enumerate(specs):
            pts, deltas, seg_len, cum = _polyline_geometry(spec.waypoints)
            m = len(seg_len)
            self.pts[v, :m] = pts[:-1]
            self.deltas[v, :m] = deltas
            self.seg_len[v, :m] = seg_len
            self.cum[v, :m + 1] = cum
            self.heading[v, :m] = [math.atan2(dy, dx) for dx, dy in deltas.tolist()]
            self.last_seg[v] = m - 1
            self.total[v] = cum[-1]
            if cum[-1] > 0:
                self.s0[v] = path_progress(spec, spec.initial_state.position)

    def window(self, t: float, np_steps: int, ts: float) -> np.ndarray:
        """(N, Np, 3) reference samples for steps 1..Np, as ``reference_window``."""
        k = np.arange(1, np_steps + 1)
        s = self.s0[:, None] + self.speed[:, None] * (t + k * ts)
        s = np.minimum(np.maximum(s, 0.0), self.total[:, None])
        seg = np.count_nonzero(self.cum[:, None, :] <= s[:, :, None], axis=2) - 1
        seg = np.maximum(np.minimum(seg, self.last_seg[:, None]), 0)
        rows = np.arange(len(s))[:, None]
        seg_len = self.seg_len[rows, seg]
        moving = seg_len > 0
        frac = np.where(moving, (s - self.cum[rows, seg]) / np.where(moving, seg_len, 1.0), 0.0)
        out = np.empty(s.shape + (3,))
        out[:, :, :2] = self.pts[rows, seg] + frac[:, :, None] * self.deltas[rows, seg]
        out[:, :, 2] = self.heading[rows, seg]
        still = self.total <= 0.0
        if still.any():
            out[still] = self.start[still, None, :]
        return out


class Fleet:
    """A scenario's per-run constant data, as arrays in vehicle-id order."""

    def __init__(self, scenario: Scenario):
        cfg = scenario.config
        self.config = cfg
        self.specs = tuple(sorted(scenario.vehicles, key=lambda spec: spec.id))
        self.ids = tuple(spec.id for spec in self.specs)
        self.row = {vid: n for n, vid in enumerate(self.ids)}
        self.speed = np.array([spec.speed for spec in self.specs], dtype=float)
        self.wheelbase = np.array([spec.wheelbase for spec in self.specs], dtype=float)
        self.steer_min = np.array([spec.steer_min for spec in self.specs], dtype=float)[:, None]
        self.steer_max = np.array([spec.steer_max for spec in self.specs], dtype=float)[:, None]
        self.weights = CostWeights(q_pos=cfg.q_weight, q_heading=cfg.q_heading,
                                   r_steer=cfg.r_weight)
        self.reference = _ReferencePaths(self.specs)

    def rollout(self, poses: np.ndarray, controls: np.ndarray):
        """(poses, cos, sin): ``rollout_fleet_trig`` of the fleet's plants."""
        return rollout_fleet_trig(poses, controls, self.speed, self.wheelbase, self.config.ts)


@dataclass
class CycleRecord:
    index: int
    time: float
    graph_edges: tuple
    solve_wall_time: float
    accounted_time: float        # parallel: sum of per-iteration max node time
    iterations: int
    converged: bool
    slack_max: float
    min_distance: float
    steer_clipped: float = 0.0       # max |controls - plans|: steering the box clipped off
    admm_report: ResidualReport | None = None
    qp_status: str | None = None
    qp_path: str | None = None       # centralized: the solve_qp path that answered
    objective: float = float("nan")
    rho_start: float | None = None   # parallel: rho carried into the cycle
    rho_final: float | None = None   # parallel: rho carried out of it
    duals_carried: int | None = None     # parallel: edges whose duals were carried


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
            "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
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
                    "steer_clipped": sig9(c.steer_clipped),
                    "min_distance": sig9(c.min_distance),
                    "objective": None if math.isnan(c.objective) else sig9(c.objective),
                    "r_norm": sig9(c.admm_report.r_norm) if c.admm_report else None,
                    "s_norm": sig9(c.admm_report.s_norm) if c.admm_report else None,
                    "eps_pri": sig9(c.admm_report.eps_pri) if c.admm_report else None,
                    "eps_dual": sig9(c.admm_report.eps_dual) if c.admm_report else None,
                    "nonoptimal_nodes": (c.admm_report.nonoptimal_nodes
                                         if c.admm_report else None),
                    "local_handed": c.admm_report.local_handed if c.admm_report else None,
                    "edge_handed": c.admm_report.edge_handed if c.admm_report else None,
                    "kkt_max": sig9(c.admm_report.kkt_max) if c.admm_report else None,
                    "anderson_accepted": (c.admm_report.anderson_accepted
                                          if c.admm_report else None),
                    "anderson_rejected": (c.admm_report.anderson_rejected
                                          if c.admm_report else None),
                    "per_node_solve_times": (
                        {name: sig9(t) for name, t in c.admm_report.per_node_solve_times.items()}
                        if c.admm_report else None),
                    "qp_status": c.qp_status,
                    "qp_path": c.qp_path,
                    "rho_start": sig9(c.rho_start),
                    "rho_final": sig9(c.rho_final),
                    "duals_carried": c.duals_carried,
                }
                for c in self.cycles
            ],
        }

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2)


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _min_pairwise(positions: np.ndarray) -> float:
    """Smallest pairwise distance, with the bits of ``math.hypot``.

    numpy's hypot rounds differently on some inputs, so it only picks the
    candidate pairs within a relative 1e-9 of its minimum, and ``math.hypot``
    decides among those.
    """
    n = len(positions)
    if n < 2:
        return float("nan")
    a, b = np.triu_indices(n, k=1)
    dx = positions[a, 0] - positions[b, 0]
    dy = positions[a, 1] - positions[b, 1]
    dist = np.hypot(dx, dy)
    near = np.flatnonzero(dist <= np.min(dist) * (1.0 + 1e-9))
    return float(min(math.hypot(x, y) for x, y in zip(dx[near].tolist(), dy[near].tolist())))


def convexify_fleet(fleet: Fleet, poses: np.ndarray, seed_poses: np.ndarray,
                    seed_controls: np.ndarray, graph: ConstraintGraph, t: float, trig):
    """Linearize dynamics and separation constraints at the fleet's seeds.

    ``poses`` (N, 3) are the current states and ``seed_poses`` (N, Np+1, 3)
    the rollout of ``seed_controls`` (N, Np) from them, rows in
    ``fleet.ids`` order; ``trig`` is the (cos, sin) of the seed headings,
    as that rollout took them, for ``condense_fleet``.  Returns
    (``LocalProblems``, ``EdgeProblems``), consumed identically by the
    parallel and centralized solution paths.
    """
    cfg = fleet.config
    np_steps = cfg.horizon_steps
    prediction = condense_fleet(seed_poses, seed_controls, fleet.speed, fleet.wheelbase,
                                cfg.ts, trig)
    ref = fleet.reference.window(t, np_steps, cfg.ts)
    ref[:, :, 2] = _onto_branch(ref[:, :, 2], seed_poses[:, 1:, 2])
    pairs = np.array([(fleet.row[i], fleet.row[j]) for i, j in graph.edges],
                     dtype=int).reshape(-1, 2)
    local_problems = make_local_problems(fleet.specs, prediction, ref.reshape(len(ref), -1),
                                         fleet.weights, x0=poses[:, :2], ts=cfg.ts)
    edge_problems = make_edge_problems(
        graph.edges, pairs, prediction, seed_poses[:, 1:, :2], cfg.d_safe,
        cfg.slack_penalty, poses[pairs[:, 0], :2] - poses[pairs[:, 1], :2])
    return local_problems, edge_problems


def convexify_cycle(scenario: Scenario, current: dict, seeds: dict,
                    graph: ConstraintGraph, t: float):
    """``convexify_fleet`` for per-vehicle states and seeds, keyed by vehicle id.

    Each seed must be the rollout of its controls from the vehicle's current
    state, as ``make_seed`` returns it (``convexify_fleet`` reads each step's
    nonlinear successor from the seed); any other seed raises ParameterError.
    """
    fleet = Fleet(scenario)
    poses = np.array([current[vid].as_array() for vid in fleet.ids])
    seed_poses = np.array([seeds[vid].poses for vid in fleet.ids])
    seed_controls = np.array([seeds[vid].controls for vid in fleet.ids])
    rolled, cos, sin = fleet.rollout(poses, seed_controls)
    if not np.array_equal(rolled, seed_poses):
        raise ParameterError("each seed must be the rollout of its controls from the "
                             "vehicle's current state")
    return convexify_fleet(fleet, poses, seed_poses, seed_controls, graph, t, (cos, sin))


def cycle_count(duration: float, ts: float, name: str = "duration") -> int:
    """The number of control cycles in ``duration`` seconds at step ``ts``.

    ``duration`` must be a finite positive multiple of ``ts`` (to 1e-9 s);
    anything else, NaN and infinity included, raises ParameterError naming
    it as ``name``.
    """
    steps = duration / ts
    n_cycles = round(steps) if math.isfinite(steps) else 0
    if n_cycles < 1 or abs(n_cycles * ts - duration) > 1e-9:
        raise ParameterError(f"{name} must be a positive multiple of Ts = {ts:.9g} s, "
                             f"got {duration!r}")
    return n_cycles


def run_simulation(scenario: Scenario, solver_mode: str = PARALLEL_ADMM,
                   duration: float | None = None, workers: int = 1) -> SimulationRun:
    """Close the loop for ``duration`` seconds (default: scenario setting).

    Every node and fleet QP is solved in the calling thread.  ``workers``
    accepts only 1 and stays for callers that pass it; any other value
    raises ParameterError.
    """
    if solver_mode not in _MODES:
        raise ParameterError(f"solver_mode must be one of {_MODES}")
    if workers != 1:
        raise ParameterError(f"workers must be 1 (nodes are solved in the calling "
                             f"thread), got {workers}")
    cfg = scenario.config
    duration = cfg.sim_duration if duration is None else float(duration)
    n_cycles = cycle_count(duration, cfg.ts)

    admm_cfg = AdmmConfig(eps_abs=cfg.eps_abs, eps_rel=cfg.eps_rel, max_iters=cfg.max_iters)
    fleet = Fleet(scenario)
    vids = fleet.ids
    np_steps = cfg.horizon_steps
    poses = np.array([spec.initial_state.as_array() for spec in fleet.specs])
    # make_seed's first seed: zero steering, clipped
    seed_controls = np.clip(np.zeros((len(vids), np_steps)), fleet.steer_min, fleet.steer_max)
    seed_poses, cos, sin = fleet.rollout(poses, seed_controls)
    seed_trig = cos, sin           # the seed headings' cos and sin, handed to condense_fleet

    poses_log = [poses]
    controls_log = []
    predicted = {vid: [] for vid in vids}
    min_pairwise = [_min_pairwise(poses[:, :2])]
    cycles = []
    violations = []
    admm_state = None                    # final ADMM state of the last cycle
    central = previous = None            # centralized: this and the last cycle's QP

    for cycle in range(n_cycles):
        t = cycle * cfg.ts
        graph = build_constraint_graph(zip(vids, poses), cfg.d_perc, cfg.d_safe)
        local_problems, edge_problems = convexify_fleet(fleet, poses, seed_poses,
                                                        seed_controls, graph, t, seed_trig)

        t0 = time.perf_counter()
        if solver_mode == PARALLEL_ADMM:
            init = init_admm_state(seed_controls, edge_problems, cfg.rho0,
                                   previous=admm_state, ids=vids)
            rho_start = init.rho
            try:
                result = admm_solve(local_problems, edge_problems, admm_cfg, init)
            except NumericalFailureError as exc:
                dump = {vid: tuple(row) for vid, row in zip(vids, poses.tolist())}
                raise NumericalFailureError(
                    f"solver failure at cycle {cycle} (t={t:.2f}s): {exc}; "
                    f"states={dump}", iteration=exc.iteration) from exc
            wall = time.perf_counter() - t0
            admm_state = result.state
            controls = admm_state.Z
            record = CycleRecord(
                index=cycle, time=t, graph_edges=graph.edges,
                solve_wall_time=wall, accounted_time=result.report.parallel_time,
                iterations=result.report.iterations_used,
                converged=result.report.converged,
                slack_max=result.report.slack_max, min_distance=float("nan"),
                admm_report=result.report, rho_start=rho_start,
                rho_final=admm_state.rho, duals_carried=init.carried,
                objective=fleet_objective(local_problems, controls))
        else:
            # Free the QP of two cycles ago only now, so its blocks go straight
            # to the new one: a dense G left free through a cycle gets split,
            # and the next takes fresh memory (peak 92 or 103 MB at N = 64).
            previous = None
            previous, central = central, build_centralized(local_problems, edge_problems)
            sol = solve_qp(central.qp)
            wall = time.perf_counter() - t0
            controls = sol.u_star[:central.n_controls].reshape(len(vids), np_steps)
            slack_max = float(np.max(sol.u_star[central.n_controls:], initial=0.0))
            if sol.status != OPTIMAL:
                logger.warning("centralized QP returned status=%s at cycle %d",
                               sol.status, cycle)
            record = CycleRecord(
                index=cycle, time=t, graph_edges=graph.edges,
                solve_wall_time=wall, accounted_time=wall,
                iterations=sol.iterations, converged=sol.status == OPTIMAL,
                slack_max=slack_max, min_distance=float("nan"),
                qp_status=sol.status, qp_path=sol.path,
                objective=fleet_objective(local_problems, controls))

        # apply the first input of each vehicle and advance all plants
        plans = np.clip(controls, fleet.steer_min, fleet.steer_max)
        finite = np.all(np.isfinite(plans), axis=1)
        if not finite.all():
            raise NumericalFailureError(
                f"solver produced non-finite steering for vehicle "
                f"{vids[int(np.argmin(finite))]} at cycle {cycle} (t={t:.2f}s)")
        record.steer_clipped = float(np.max(np.abs(controls - plans)))
        # one rollout serves as this plan's prediction and as the next seed
        # (the plan shifted one step, its last input repeated)
        rolled_controls = np.concatenate([plans, plans[:, -1:]], axis=1)
        rolled, cos, sin = fleet.rollout(poses, rolled_controls)
        for n, vid in enumerate(vids):
            predicted[vid].append(HorizonTrajectory(poses=rolled[n, :np_steps + 1],
                                                    controls=plans[n], ts=cfg.ts))
        seed_poses, seed_controls = rolled[:, 1:], rolled_controls[:, 1:]
        seed_trig = cos[:, 1:], sin[:, 1:]
        poses = rolled[:, 1].copy()
        controls_log.append(plans[:, 0])
        poses_log.append(poses)
        dmin = _min_pairwise(poses[:, :2])
        min_pairwise.append(dmin)
        record.min_distance = dmin
        if len(vids) > 1 and dmin < cfg.d_safe:
            violations.append({"time": (cycle + 1) * cfg.ts, "distance": dmin})
        cycles.append(record)

    poses_log = np.array(poses_log)
    controls_log = np.array(controls_log).reshape(n_cycles, len(vids))
    return SimulationRun(
        scenario=scenario, mode=solver_mode,
        times=np.arange(n_cycles + 1) * cfg.ts,
        states={vid: poses_log[:, n].copy() for n, vid in enumerate(vids)},
        applied_controls={vid: controls_log[:, n].copy() for n, vid in enumerate(vids)},
        predicted=predicted, cycles=cycles,
        min_pairwise=np.array(min_pairwise), violations=violations)
