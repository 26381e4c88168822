"""Scaling benchmark: centralized QP versus parallel consensus solves.

Synthetic scenarios place N vehicles in three lanes, one column per 40 m,
with staggered speeds; the sensing radius couples each column's lane
neighbors, so the number of coupled pairs grows linearly with the fleet.
Parallel runs are charged the per-iteration maximum over node solve times,
summed over iterations (communication is not modeled); wall-clock time is
recorded alongside for honesty about the host.  Every size and mode first
runs untimed warm-up cycles: a multi-threaded BLAS can run the first
threaded factorizations of a process up to ~100x slower for about a second,
which would otherwise land in whichever timed cycles make those calls.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .scenario import Scenario, parse_scenario
from .simulation import _BLAS_THREAD_VARS, CENTRALIZED, PARALLEL_ADMM, run_simulation

_LANES = (0.0, 7.0, 14.0)
_COLUMN_SPACING = 40.0
_BENCH_TS = 0.1
_BENCH_HORIZON = 15
_WARMUP_CYCLES = 10


def _check_generator_args(n_vehicles, seed, sim_duration) -> None:
    """Raise ParameterError naming the first generator argument out of its range.

    ``n_vehicles`` must be an integer of at least 1 and ``seed`` one of at
    least 0 (neither a bool), and ``sim_duration`` must be finite and positive.
    """
    for name, value, least in (("n_vehicles", n_vehicles, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")
    if not (math.isfinite(sim_duration) and sim_duration > 0):
        raise ParameterError(f"sim_duration must be finite and positive, got {sim_duration!r}")


def generate_scaled_scenario(n_vehicles: int, seed: int,
                             sim_duration: float = 1.0) -> Scenario:
    """Deterministic N-vehicle multi-lane scenario, reproducible from seed.

    Arguments out of range raise ParameterError naming the argument.
    """
    _check_generator_args(n_vehicles, seed, sim_duration)
    rng = np.random.default_rng(seed)
    speeds_kmh = 40.0 + 10.0 * rng.random(n_vehicles)

    horizon_travel = (50.0 / 3.6) * (_BENCH_HORIZON * _BENCH_TS + sim_duration)
    n_columns = (n_vehicles + len(_LANES) - 1) // len(_LANES)
    x_max = _COLUMN_SPACING * n_columns + horizon_travel + 60.0

    vehicles = []
    for i in range(n_vehicles):
        lane = i % len(_LANES)
        column = i // len(_LANES)
        x0 = _COLUMN_SPACING * column
        y0 = _LANES[lane]
        vehicles.append({
            "id": i + 1,
            "wheelbase_m": 2.4,
            "speed_kmh": float(speeds_kmh[i]),
            "steer_min_deg": -35.0,
            "steer_max_deg": 35.0,
            # wide road so box rows provably cannot activate in one horizon
            "position_bounds_m": {"x_min": -60.0, "x_max": float(x_max),
                                  "y_min": -70.0, "y_max": 85.0},
            "initial_pose": {"x_m": float(x0), "y_m": float(y0), "theta_rad": 0.0},
            "waypoints_m": [[float(x0 - 10.0), float(y0), 0.0],
                            [float(x0 + horizon_travel + 50.0), float(y0), 0.0]],
        })

    doc = {
        "global": {
            "ts": _BENCH_TS,
            "horizon_steps": _BENCH_HORIZON,
            "d_safe": 5.0,
            "d_perc": 25.0,
            "q_weight": 1.0,
            "q_heading": 0.1,
            "r_weight": 0.1,
            "rho0": 1.0,
            "eps_abs": 0.01,
            "eps_rel": 0.01,
            "max_iters": 200,
            "sim_duration": float(sim_duration),
        },
        "vehicles": vehicles,
    }
    return parse_scenario(doc)


def generate_crossing_scenario(n_vehicles: int, seed: int,
                               sim_duration: float = 3.0) -> Scenario:
    """Two platoons crossing at right angles, with the weights of ``intersection.scn``.

    With k = i // 2, vehicle i (id i + 1) is the k-th of its platoon: even i
    drive east along y = 0 from x = -25 - 12k at 50 km/h, odd i north along
    x = 3 from y = -21 - 12k at 45 km/h, so the platoons reach the crossing
    together.  Seed 0 starts each vehicle exactly there; a positive seed
    moves each start along its axis by at most 0.25 m.  Position bounds are
    +-400 m, which hold up to 64 vehicles (a larger fleet raises
    ScenarioError); arguments out of range raise ParameterError naming the
    argument.
    """
    _check_generator_args(n_vehicles, seed, sim_duration)
    jitter = (np.random.default_rng(seed).uniform(-0.25, 0.25, n_vehicles) if seed
              else np.zeros(n_vehicles))
    bounds = {"x_min": -400.0, "x_max": 400.0, "y_min": -400.0, "y_max": 400.0}
    vehicles = []
    for i in range(n_vehicles):
        k = i // 2
        if i % 2 == 0:
            x0, y0, theta, speed = -25.0 - 12.0 * k + jitter[i], 0.0, 0.0, 50.0
            waypoints = [[x0 - 10.0, y0, theta], [390.0, y0, theta]]
        else:
            x0, y0, theta, speed = 3.0, -21.0 - 12.0 * k + jitter[i], math.pi / 2, 45.0
            waypoints = [[x0, y0 - 10.0, theta], [x0, 390.0, theta]]
        vehicles.append({
            "id": i + 1,
            "wheelbase_m": 2.4,
            "speed_kmh": speed,
            "steer_min_deg": -35.0,
            "steer_max_deg": 35.0,
            "position_bounds_m": dict(bounds),
            "initial_pose": {"x_m": float(x0), "y_m": float(y0), "theta_rad": theta},
            "waypoints_m": [[float(c) for c in wp] for wp in waypoints],
        })
    doc = {
        "global": {
            "ts": 0.1,
            "horizon_steps": 15,
            "d_safe": 5.0,
            "q_weight": 1.0,
            "q_heading": 2.0,
            "r_weight": 1.0,
            "rho0": 1.0,
            "eps_abs": 0.01,
            "eps_rel": 0.01,
            "max_iters": 200,
            "sim_duration": float(sim_duration),
        },
        "vehicles": vehicles,
    }
    return parse_scenario(doc)


@dataclass
class BenchmarkRecord:
    n_vehicles: int
    mode: str
    per_cycle_times: list       # centralized: QP solve wall; parallel: accounted
    per_cycle_wall: list
    iterations_per_cycle: list
    repetitions: int = 1
    nproc: int | None = None    # CPUs this process may run on
    blas_threads: dict = field(default_factory=dict)   # thread env var -> value


def run_benchmark(sizes, seed: int = 0, cycles: int = 10) -> list[BenchmarkRecord]:
    """Run both modes on identical generated scenarios for every fleet size."""
    records = []
    duration = cycles * _BENCH_TS
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas_threads = {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}
    for n in sizes:
        scenario = generate_scaled_scenario(n, seed, sim_duration=duration)
        for mode in (PARALLEL_ADMM, CENTRALIZED):
            run_simulation(scenario, mode, duration=_WARMUP_CYCLES * _BENCH_TS)
            run = run_simulation(scenario, mode, duration=duration)
            records.append(BenchmarkRecord(
                n_vehicles=n,
                mode=mode,
                per_cycle_times=[c.accounted_time for c in run.cycles],
                per_cycle_wall=[c.solve_wall_time for c in run.cycles],
                iterations_per_cycle=[c.iterations for c in run.cycles],
                nproc=nproc,
                blas_threads=dict(blas_threads),
            ))
    return records


@dataclass
class BenchSummary:
    rows: list = field(default_factory=list)     # dicts: size, mode, median...
    flatness_ratio: float | None = None          # parallel: t(N_max) / t(N_min)
    growth_ratio: float | None = None            # centralized: same quotient
    gaps: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["n_vehicles,mode,median_cycle_time,mean_cycle_time,"
                 "median_cycle_wall,mean_iterations,repetitions"]
        for r in self.rows:
            lines.append(
                f"{r['n_vehicles']},{r['mode']},{r['median_cycle_time']:.9g},"
                f"{r['mean_cycle_time']:.9g},{r['median_cycle_wall']:.9g},"
                f"{r['mean_iterations']:.9g},{r['repetitions']}")
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        lines = [f"{'N':>5}  {'mode':<14} {'median cycle [s]':>18} {'mean iters':>11}"]
        for r in self.rows:
            lines.append(f"{r['n_vehicles']:>5}  {r['mode']:<14} "
                         f"{r['median_cycle_time']:>18.9g} {r['mean_iterations']:>11.2f}")
        if self.flatness_ratio is not None:
            lines.append(f"parallel flatness ratio (largest/smallest N): "
                         f"{self.flatness_ratio:.9g}")
        if self.growth_ratio is not None:
            lines.append(f"centralized growth ratio (largest/smallest N): "
                         f"{self.growth_ratio:.9g}")
        for gap in self.gaps:
            lines.append(f"warning: {gap}")
        return "\n".join(lines) + "\n"


def summarize_bench(records) -> BenchSummary:
    """Per-size medians plus the flat-vs-growing ratio statistics."""
    summary = BenchSummary()
    by_mode: dict = {}
    for rec in records:
        summary.rows.append({
            "n_vehicles": rec.n_vehicles,
            "mode": rec.mode,
            "median_cycle_time": statistics.median(rec.per_cycle_times),
            "mean_cycle_time": statistics.fmean(rec.per_cycle_times),
            "median_cycle_wall": statistics.median(rec.per_cycle_wall),
            "mean_iterations": statistics.fmean(rec.iterations_per_cycle),
            "repetitions": rec.repetitions,
        })
        by_mode.setdefault(rec.mode, {})[rec.n_vehicles] = \
            statistics.median(rec.per_cycle_times)
    summary.rows.sort(key=lambda r: (r["n_vehicles"], r["mode"]))

    sizes = sorted({r.n_vehicles for r in records})
    for mode in (PARALLEL_ADMM, CENTRALIZED):
        missing = [n for n in sizes if n not in by_mode.get(mode, {})]
        if missing:
            summary.gaps.append(f"mode {mode} missing sizes {missing}")

    def ratio(mode):
        med = by_mode.get(mode, {})
        if len(med) < 2:
            summary.gaps.append(f"mode {mode}: ratio undefined (needs at least 2 sizes)")
            return None
        lo, hi = min(med), max(med)
        return med[hi] / med[lo] if med[lo] > 0 else float("inf")

    summary.flatness_ratio = ratio(PARALLEL_ADMM)
    summary.growth_ratio = ratio(CENTRALIZED)
    return summary
