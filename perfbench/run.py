"""Closed-loop benchmark of fleetcoord; see perfbench/README.md.

    python3 perfbench/run.py --workload overtake-admm --seed 0 --seconds 15 --trace 0

Runs the workload's closed loop in fresh processes with BLAS threads pinned
to one: untraced loops until --seconds have passed (at least one), set-up-only
processes up to five set-up samples, and with --trace 1 one more loop with
layer spans.  Checks the outputs, prints every metric with its unit, stores
the result with host metadata under perfbench/out/, and prints as its last
line one JSON object: end-to-end metrics with --trace 0, per-layer ones with
--trace 1.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:             # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import OVERTAKE_FILE, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5            # set-up timings per run, median reported
TIME_LIMIT_S = 170.0         # whole run, all child processes included
P90_MIN_CYCLES = 100         # p90 only with >= 10 samples beyond it

END_TO_END = {"rtf": "s/s", "setup_s": "s", "peak_rss_mb": "MB", "min_sep_m": "m"}
# Printed and stored, but too bimodal on a host with fast and slow phases
# (medians), too hiccup-bound (accounted_rtf on lanes64-admm) or too rarely
# defined (p90) to carry a bound; see README.md.
EXTRA_UNITS = {"cycle_ms_p50": "ms", "cycle_ms_p90": "ms", "accounted_rtf": "s/s",
               "accounted_ms_p50": "ms", "fail_ratio": "1", "cycles_timed": "count"}
PER_LAYER = {
    "qp.ipm_s": "s", "qp.ipm_calls": "count", "qp.ipm_iters": "count",
    "qp.shortcut_s": "s", "qp.shortcut_ratio": "1", "qp.calls": "count",
    "qp.nonoptimal": "count", "qp.kkt_max": "1",
    "subproblems.node_build_s": "s", "subproblems.node_build_calls": "count",
    "subproblems.centralized_build_s": "s", "subproblems.make_local_s": "s",
    "subproblems.make_edge_s": "s", "subproblems.objective_s": "s",
    "dynamics.rollout_s": "s", "dynamics.linearize_s": "s",
    "dynamics.condense_s": "s", "dynamics.calls": "count",
    "simulation.reference_s": "s", "simulation.seed_s": "s",
    "simulation.convexify_self_s": "s", "simulation.self_s": "s",
    "graph.build_s": "s", "graph.edges_mean": "count",
    "admm.solve_s": "s", "admm.self_s": "s", "admm.calls": "count",
    "admm.iters": "count", "admm.iters_max": "count", "admm.converged_ratio": "1",
    "admm.wall_over_accounted": "1", "admm.gap_rel_p50": "1",
    "admm.gap_rel_max": "1", "admm.slack_max_m": "m",
    "scenario.load_s": "s", "trace.spans": "count", "trace.overhead": "1",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibrate_ms() -> float:
    """Host-speed probe: a fixed mix of small dense solves and scalar Python."""
    import numpy as np
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((15, 15))
    h = a @ a.T + 15.0 * np.eye(15)
    b = rng.standard_normal(15)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(4000):
        x = np.linalg.solve(h, b)
        acc += math.sin(float(x[0])) * math.cos(i)
    return (time.perf_counter() - t0) * 1e3


def host_metadata() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()         # the program, its scenarios, the workloads
    for path in [*sorted((ROOT / "src" / "fleetcoord").glob("*.py")),
                 *sorted((ROOT / "scenarios").glob("*.scn")), HERE / "workloads.py"]:
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_child(args, tag: str, deadline: float, traced=False, setup_only=False) -> dict:
    """One loop.py process; returns its record plus set-up time and probes."""
    stem = OUT / f"{args.workload}-s{args.seed}-{tag}"
    cmd = [sys.executable, str(HERE / "loop.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--out", f"{stem}.json",
           "--csv", f"{stem}.csv", "--spans", f"{stem}-spans.csv"]
    if setup_only:
        cmd.append("--setup-only")
    calib_before = None if setup_only else calibrate_ms()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit reached before {tag}")
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} exceeded the time limit") from exc
    if done.returncode != 0:
        raise BenchError(f"{tag} exited with {done.returncode}:\n{done.stderr}")
    record = json.loads(Path(f"{stem}.json").read_text(encoding="utf-8"))
    record["setup_s"] = record["ready"] - spawned
    if not setup_only:
        record["calib_ms"] = [calib_before, calibrate_ms()]
    return record


def check_loops(args, loops: list, traced, source: str) -> dict:
    """Correctness checks: False fails the run, None means not applicable."""
    every = loops + ([traced] if traced else [])
    shas = {r["sha256"] for r in every}
    checks = {
        "no_error": all(r["error"] is None for r in every),
        "cycles_eq_duration_over_ts": all(
            r["cycles"] == r["expected_cycles"] == r.get("steps") for r in every),
        "states_finite": all(r["finite"] for r in every),
        "fail_count_covers_cycles": all(
            r["ok_cycles"] + r["failed"] == r["expected_cycles"] for r in every),
        "repeat_sha256_identical": (len(shas) == 1 and None not in shas
                                    if len(every) > 1 else None),
        "traced_sha256_identical": (traced["sha256"] is not None
                                    and traced["sha256"] == loops[0]["sha256"]
                                    if traced else None),
        "sha256_matches_earlier_run": earlier_run_agrees(args, source, loops[0]["sha256"]),
    }
    return checks


def earlier_run_agrees(args, source: str, sha) -> bool | None:
    """Compare with the trajectories of an earlier run of the same workload,
    seed and sources in this checkout; the first such run records its own."""
    if sha is None:
        return False
    store = OUT / "sha256" / f"{args.workload}-s{args.seed}.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    if source in known:
        return known[source] == sha
    known[source] = sha
    store.parent.mkdir(exist_ok=True)
    store.write_text(json.dumps(known), encoding="utf-8")
    return None


def _median(values) -> float:
    """Median, or NaN when a failed loop left nothing to take it over."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(loops: list, setups: list) -> tuple[dict, dict]:
    """Gated metrics (END_TO_END) and printed-only ones (EXTRA_UNITS)."""
    cycles_s = [c for r in loops for c in r["cycle_s"]]
    sim_s = sum(r["sim_s"] for r in loops)
    metrics = {
        "rtf": sum(r["wall_s"] for r in loops) / sim_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in loops),
        "min_sep_m": min(r["min_sep_m"] for r in loops),
    }
    extra = {
        "cycle_ms_p50": _median(cycles_s) * 1e3,
        "accounted_rtf": sum(r["accounted_s"] for r in loops) / sim_s,
        "accounted_ms_p50": _median(
            c for r in loops for c in r["accounted_cycle_s"]) * 1e3,
        "cycles_timed": len(cycles_s),
    }
    if len(cycles_s) >= P90_MIN_CYCLES:
        extra["cycle_ms_p90"] = statistics.quantiles(cycles_s, n=10)[8] * 1e3
    return metrics, extra


def per_layer(traced: dict, untraced_rtf: float) -> dict:
    metrics = dict(traced["layers"])
    gaps = traced["gaps"]
    metrics["admm.gap_rel_p50"] = statistics.median(gaps) if gaps else 0.0
    metrics["admm.gap_rel_max"] = max(gaps) if gaps else 0.0
    metrics["trace.overhead"] = traced["wall_s"] / traced["sim_s"] / untraced_rtf
    return metrics


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fleetcoord" / "simulation.py").is_file() \
            or not (ROOT / OVERTAKE_FILE).is_file():
        print(f"perfbench: no fleetcoord sources under {ROOT}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    host = host_metadata()
    try:
        loops = []
        while not loops or time.monotonic() - start < args.seconds:
            loops.append(run_child(args, f"loop{len(loops)}", deadline))
        setups = [r["setup_s"] for r in loops]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(args, f"setup{len(setups)}", deadline,
                                    setup_only=True)["setup_s"])
        traced = run_child(args, "traced", deadline, traced=True) if args.trace else None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks = check_loops(args, loops, traced, host["source_sha256"])
    metrics, extra = end_to_end(loops, setups)
    every = loops + ([traced] if traced else [])
    attempted = sum(r["expected_cycles"] for r in every)
    failed = sum(r["failed"] for r in every)
    extra["fail_ratio"] = failed / attempted
    calib = [ms for r in every for ms in r["calib_ms"]]
    layers = per_layer(traced, metrics["rtf"]) if traced else None

    print(f"perfbench {args.workload} seed={args.seed} loops={len(loops)} "
          f"traced={bool(traced)} host={json.dumps(host)}")
    print_table("end-to-end (untraced loops):", {**metrics, **extra},
                {**END_TO_END, **EXTRA_UNITS})
    if layers is not None:
        print_table("per-layer (traced loop):", layers, PER_LAYER)
    print(f"host.calib_ms before/after each loop: "
          f"{' '.join(f'{ms:.2f}' for ms in calib)}")
    print("checks: " + " ".join(f"{k}={ {True: 'ok', False: 'FAIL', None: 'n/a'}[v]}"
                                for k, v in checks.items()))

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host, "checks": checks,
              "metrics": metrics, "extra": extra, "layers": layers,
              "setup_s": setups, "calib_ms": calib,
              "loops": [{k: v for k, v in r.items()
                         if k not in ("cycle_s", "accounted_cycle_s")} for r in every]}
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}-result.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")

    chosen, units = (layers, PER_LAYER) if traced else (metrics, END_TO_END)
    print(json.dumps({
        "correct": False not in checks.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": chosen[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
