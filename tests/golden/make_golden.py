"""Write the closed-loop fixture ``closed_loop.json`` that Tier-1 compares against.

Runs overtake for 10 s (its coupling spans 5-11 s), intersection for 4 s
(through its hardest ADMM cycle, 34) and the crossing platoons of
``generate_crossing_scenario(4, 0)`` for 3 s (edges whose steering rows are
zero beyond step 1, batches with several fixed-row patterns) in both modes,
and keeps per cycle the
iteration count, ``converged``, the handed and non-optimal node counts
(ADMM), the answering ``qp_path`` (centralized) and the fleet's minimum
distance after the step, plus every vehicle's final pose.  The host, Python,
numpy and BLAS build that made the file are stored beside the runs.

A change that moves the closed loop regenerates the file, from the root of
the repository, with

    PYTHONPATH=src python tests/golden/make_golden.py

and says in CHANGES.md which values moved and by how much.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from fleetcoord import (CENTRALIZED, PARALLEL_ADMM, generate_crossing_scenario,
                        load_scenario_file, run_simulation)
from fleetcoord.simulation import _BLAS_THREAD_VARS

FIXTURE = Path(__file__).with_name("closed_loop.json")
SCENARIO_DIR = Path(__file__).resolve().parents[2] / "scenarios"
RUNS = (("overtake", 10.0), ("intersection", 4.0), ("crossing4", 3.0))
MODES = (PARALLEL_ADMM, CENTRALIZED)
GENERATED = {"crossing4": lambda: generate_crossing_scenario(4, 0)}


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


def main() -> int:
    doc = {"host": host(), "runs": record_all()}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
