"""Write the closed-loop fixture ``closed_loop.json`` that Tier-1 compares against.

Runs overtake for 10 s (its coupling spans 5-11 s), intersection for 4 s
(through its hardest ADMM cycle, 34) and the crossing platoons of
``generate_crossing_scenario(4, 0)`` for 3 s (edges whose steering rows are
zero beyond step 1, batches with several fixed-row patterns) and the
64-vehicle lane grid of ``generate_scaled_scenario(64, 0)`` for 1 s (64
tracking blocks and the slack diagonal through the bound shortcut on every
centralized cycle) in both modes, and keeps per cycle the
iteration count, ``converged``, the handed and non-optimal node counts
(ADMM), the answering ``qp_path`` (centralized) and the fleet's minimum
distance after the step, plus every vehicle's final pose.  The host, Python,
numpy and BLAS build that made the file are stored beside the runs.

A change that moves the closed loop regenerates the file, from the root of
the repository, with

    PYTHONPATH=src python tests/golden/make_golden.py

and says in CHANGES.md which values moved and by how much.  Before it
overwrites the file it prints, for each run, what moved against the old
fixture: total iterations, handed vehicle and edge nodes, the smallest
``min_distance`` and the largest change of a final pose coordinate.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from fleetcoord import (CENTRALIZED, PARALLEL_ADMM, generate_crossing_scenario,
                        generate_scaled_scenario, load_scenario_file, run_simulation)
from fleetcoord.simulation import _BLAS_THREAD_VARS

FIXTURE = Path(__file__).with_name("closed_loop.json")
SCENARIO_DIR = Path(__file__).resolve().parents[2] / "scenarios"
RUNS = (("overtake", 10.0), ("intersection", 4.0), ("crossing4", 3.0), ("lanes64", 1.0))
MODES = (PARALLEL_ADMM, CENTRALIZED)
GENERATED = {"crossing4": lambda: generate_crossing_scenario(4, 0),
             "lanes64": lambda: generate_scaled_scenario(64, 0)}


def load(scene: str):
    """A generated scene by its name in ``GENERATED``, else ``scenarios/<scene>.scn``."""
    if scene in GENERATED:
        return GENERATED[scene]()
    return load_scenario_file(SCENARIO_DIR / f"{scene}.scn")


def record(scene: str, mode: str, duration: float) -> dict:
    """One closed-loop run, reduced to the values the fixture pins."""
    run = run_simulation(load(scene), mode, duration=duration)
    cycles = []
    for c in run.cycles:
        rep = c.admm_report
        cycles.append({
            "iterations": c.iterations,
            "converged": bool(c.converged),
            "local_handed": rep.local_handed if rep else None,
            "edge_handed": rep.edge_handed if rep else None,
            "nonoptimal_nodes": rep.nonoptimal_nodes if rep else None,
            "qp_path": c.qp_path,
            "min_distance": c.min_distance,
        })
    final = {str(vid): states[-1].tolist() for vid, states in run.states.items()}
    return {"scene": scene, "mode": mode, "duration": duration, "cycles": cycles,
            "final_poses": final}


def record_all() -> dict:
    """Every pinned run, keyed ``scene/mode``."""
    return {f"{scene}/{mode}": record(scene, mode, duration)
            for scene, duration in RUNS for mode in MODES}


def host() -> dict:
    """The platform, Python, numpy and BLAS build the runs were made on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
    }


def totals(run: dict) -> dict:
    """A run's totals over its cycles: iterations, handed nodes, smallest distance."""
    cycles = run["cycles"]
    return {
        "iterations": sum(c["iterations"] for c in cycles),
        "local_handed": sum(c["local_handed"] or 0 for c in cycles),
        "edge_handed": sum(c["edge_handed"] or 0 for c in cycles),
        "min_distance": min(c["min_distance"] for c in cycles),
    }


def what_moved(old: dict, new: dict) -> list[str]:
    """One line per run of ``new``: its totals against ``old``'s, and the
    largest final pose change."""
    lines = []
    for key, run in new.items():
        now = totals(run)
        if key not in old:
            lines.append(f"{key}: new run, {now}")
            continue
        was = totals(old[key])
        parts = [f"{name} {was[name]} -> {now[name]}" for name in
                 ("iterations", "local_handed", "edge_handed")]
        parts.append(f"min_distance {was['min_distance']:.6f} -> {now['min_distance']:.6f} "
                     f"({now['min_distance'] - was['min_distance']:+.2e})")
        before, after = old[key]["final_poses"], run["final_poses"]
        shift = max((abs(a - b) for vid in after if vid in before
                     for a, b in zip(after[vid], before[vid])), default=float("nan"))
        parts.append(f"final pose change max {shift:.3e}")
        lines.append(f"{key}: " + ", ".join(parts))
    return lines


def main() -> int:
    doc = {"host": host(), "runs": record_all()}
    if FIXTURE.exists():
        old = json.loads(FIXTURE.read_text(encoding="utf-8"))["runs"]
        print("\n".join(what_moved(old, doc["runs"])))
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
