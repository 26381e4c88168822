"""Print the sha256 of ``trajectories.csv`` for every run a bit-identical change must keep.

The runs: the four perfbench workloads (``perfbench/workloads.py``) at
seeds 0-2, ``overtake.scn`` and ``intersection.scn`` in both modes, and
``generate_crossing_scenario(n, 0, sim_duration=3.0)`` for n = 4, 8 and 16
with ADMM.  Each line is

    <run>  <sha256 of trajectories.csv>  <sha256 of the per-cycle counts>

where the counts are, per cycle, the iterations, ``converged``, and for an
ADMM cycle the handed vehicle and edge nodes, the non-optimal node answers
and the Anderson points accepted and rejected (for a centralized cycle the
``qp_path``).  To check that a change keeps every trajectory, run it in the
parent's checkout and in the change's, from each repository root, and diff:

    PYTHONPATH=src python tests/golden/trajectory_hashes.py > hashes.txt

The hashes depend on the host's BLAS build and thread count (one thread is
pinned here), so they are compared between checkouts on one host and are
not a fixture.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"           # before numpy is first imported

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build_scenario  # noqa: E402

from fleetcoord import (CENTRALIZED, PARALLEL_ADMM, generate_crossing_scenario,  # noqa: E402
                        load_scenario_file, run_simulation)

SEEDS = (0, 1, 2)
CROSSINGS = (4, 8, 16)


def runs():
    """(name, scenario, mode) of every run, in print order."""
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            workload = WORKLOADS[name]
            yield f"{name}/s{seed}", build_scenario(workload, seed, ROOT), workload.mode
    for scene in ("overtake", "intersection"):
        for mode in (PARALLEL_ADMM, CENTRALIZED):
            yield f"{scene}/{mode}", load_scenario_file(ROOT / "scenarios" / f"{scene}.scn"), mode
    for n in CROSSINGS:
        yield (f"crossing{n}-3s/{PARALLEL_ADMM}", generate_crossing_scenario(n, 0, sim_duration=3.0),
               PARALLEL_ADMM)


def counts(run) -> str:
    """One line per cycle of the counts a bit-identical change keeps."""
    lines = []
    for c in run.cycles:
        rep = c.admm_report
        extra = (c.qp_path,) if rep is None else (
            rep.local_handed, rep.edge_handed, rep.nonoptimal_nodes,
            rep.anderson_accepted, rep.anderson_rejected)
        lines.append(" ".join(map(str, (c.iterations, c.converged, *extra))))
    return "\n".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "trajectories.csv"
        for name, scenario, mode in runs():
            run = run_simulation(scenario, mode)
            run.to_csv(csv)
            print(name, hashlib.sha256(csv.read_bytes()).hexdigest(),
                  hashlib.sha256(counts(run).encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
