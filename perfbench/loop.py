"""One closed-loop run of one workload, in its own process.

Started by ``run.py``; writes one JSON record of raw measurements to --out
and the run's ``trajectories.csv`` to --csv.  With --trace 1 it also
records layer spans (written to --spans) and, for ADMM workloads, the gap
to the centralized objective on every cycle's data.  With --setup-only it
stops where the first control cycle would begin.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:             # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout holding src/fleetcoord")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True, help="JSON record path")
    p.add_argument("--csv", required=True, help="trajectories.csv path")
    p.add_argument("--spans", help="span CSV path (with --trace 1)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import fleetcoord
    import fleetcoord.simulation as simulation
    from tracing import ROOT_SPAN, Tracer, layer_metrics, objective_gaps
    from workloads import WORKLOADS, build_scenario

    package = Path(fleetcoord.__file__).resolve().parent
    if package != root / "src" / "fleetcoord":
        raise SystemExit(f"imported fleetcoord from {package}, not from {root}")

    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    scenario = build_scenario(workload, args.seed, root)
    record = {"load_s": time.perf_counter() - t0}
    # One cycle on the first two vehicles, so that first-call initialization
    # in numpy/BLAS is paid in set-up rather than in cycle 0 of the run.
    warmup = dataclasses.replace(scenario, vehicles=scenario.vehicles[:2])
    simulation.run_simulation(warmup, workload.mode, duration=scenario.config.ts)
    if args.setup_only:
        record["ready"] = time.monotonic()
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
        return 0

    cfg = scenario.config
    expected = round(cfg.sim_duration / cfg.ts)
    # The one probe of an untraced run: a clock read as each cycle enters
    # the graph rebuild.
    stamps = []
    graph_build = simulation.build_constraint_graph

    def cycle_probe(*a, **kw):
        stamps.append(time.monotonic())
        return graph_build(*a, **kw)

    simulation.build_constraint_graph = cycle_probe
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    run, error = None, None
    start = time.monotonic()
    try:
        if tracer is not None:
            run = tracer.span(ROOT_SPAN, simulation.run_simulation, scenario,
                              workload.mode, workers=1)
        else:
            run = simulation.run_simulation(scenario, workload.mode, workers=1)
    except Exception:                # a failed run is reported, not fatal
        error = traceback.format_exc()
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(args.spans)
        tracer.restore()
    simulation.build_constraint_graph = graph_build

    bounds = stamps + [end]
    record.update({
        "ready": stamps[0] if stamps else end,
        "wall_s": end - start,
        "sim_s": expected * cfg.ts,
        "expected_cycles": expected,
        "cycle_s": [b - a for a, b in zip(bounds, bounds[1:])],
        "peak_rss_mb": peak_rss_mb,
        "error": error,
    })
    if run is None:
        completed = max(len(stamps) - 1, 0)
        record.update({"cycles": completed, "ok_cycles": completed,
                       "failed": expected - completed, "finite": False,
                       "accounted_s": float("nan"), "accounted_cycle_s": [],
                       "min_sep_m": float("nan"),
                       "sha256": None})
    else:
        failed = sum(1 for c in run.cycles
                     if not c.converged or c.qp_status not in (None, "optimal"))
        run.to_csv(args.csv)
        arrays = list(run.states.values()) + list(run.applied_controls.values())
        record.update({
            "cycles": len(run.cycles),
            "steps": len(run.times) - 1,
            "ok_cycles": len(run.cycles) - failed,
            "failed": failed,
            "finite": bool(all(np.all(np.isfinite(a)) for a in arrays)),
            "accounted_s": sum(c.accounted_time for c in run.cycles),
            "accounted_cycle_s": [c.accounted_time for c in run.cycles],
            "min_sep_m": float(np.min(run.min_pairwise)),
            "sha256": hashlib.sha256(Path(args.csv).read_bytes()).hexdigest(),
        })
    if tracer is not None:
        record["layers"] = layer_metrics(tracer)
        record["layers"]["scenario.load_s"] = record["load_s"]
        record["gaps"] = objective_gaps(tracer.admm_inputs)
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
