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

import os
import statistics
from dataclasses import dataclass, field

import numpy as np
import yaml

from .scenario import Scenario, load_scenario
from .simulation import _BLAS_THREAD_VARS, CENTRALIZED, PARALLEL_ADMM, run_simulation

_LANES = (0.0, 7.0, 14.0)
_COLUMN_SPACING = 40.0
_BENCH_TS = 0.1
_BENCH_HORIZON = 15
_WARMUP_CYCLES = 10


def generate_scaled_scenario(n_vehicles: int, seed: int,
                             sim_duration: float = 1.0) -> Scenario:
    """Deterministic N-vehicle multi-lane scenario, reproducible from seed."""
    if n_vehicles < 1:
        raise ValueError("need at least one vehicle")
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
    return load_scenario(yaml.safe_dump(doc))


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


def run_benchmark(sizes, seed: int = 0, cycles: int = 10,
                  workers: int = 1) -> list[BenchmarkRecord]:
    """Run both modes on identical generated scenarios for every fleet size."""
    records = []
    duration = cycles * _BENCH_TS
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas_threads = {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}
    for n in sizes:
        scenario = generate_scaled_scenario(n, seed, sim_duration=duration)
        for mode in (PARALLEL_ADMM, CENTRALIZED):
            run_simulation(scenario, mode, duration=_WARMUP_CYCLES * _BENCH_TS,
                           workers=workers)
            run = run_simulation(scenario, mode, duration=duration, workers=workers)
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
