"""The four closed-loop workloads: which scenario, which solver mode.

A 2x2: a small fleet with hard coordination (``overtake``) and a large fleet
with none (``lanes64``), each solved by consensus ADMM and by the centralized
QP.  The program receives only the scenario built here from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

OVERTAKE_FILE = Path("scenarios") / "overtake.scn"
OVERTAKE_X_JITTER_M = 0.25
OVERTAKE_SPEED_JITTER_KMH = 0.1
LANES_VEHICLES = 64
LANES_CYCLES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    family: str        # "overtake" or "lanes64"
    mode: str          # fleetcoord solver mode


WORKLOADS = {w.name: w for w in (
    Workload("overtake-admm", "overtake", "parallel_admm"),
    Workload("overtake-central", "overtake", "centralized"),
    Workload("lanes64-admm", "lanes64", "parallel_admm"),
    Workload("lanes64-central", "lanes64", "centralized"),
)}


def build_scenario(workload: Workload, seed: int, root: Path):
    """The scenario a workload runs for ``seed``; same seed, same scenario.

    overtake: seed 0 is the shipped file unchanged; seed k > 0 moves each
    vehicle's initial x by at most +-2 m and its speed by at most +-1 km/h.
    lanes64: ``generate_scaled_scenario(64, seed)`` over LANES_CYCLES cycles;
    the seed draws the vehicle speeds (40-50 km/h).
    """
    # Imported here: run.py reads WORKLOADS without fleetcoord on its path.
    import numpy as np
    import yaml
    from fleetcoord import load_scenario, load_scenario_file
    from fleetcoord.bench import generate_scaled_scenario

    if workload.family == "lanes64":
        return generate_scaled_scenario(LANES_VEHICLES, seed,
                                        sim_duration=LANES_CYCLES * 0.1)
    path = root / OVERTAKE_FILE
    if seed == 0:
        return load_scenario_file(path)
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    rng = np.random.default_rng(seed)
    for vehicle in doc["vehicles"]:
        vehicle["initial_pose"]["x_m"] += float(
            rng.uniform(-OVERTAKE_X_JITTER_M, OVERTAKE_X_JITTER_M))
        vehicle["speed_kmh"] += float(
            rng.uniform(-OVERTAKE_SPEED_JITTER_KMH, OVERTAKE_SPEED_JITTER_KMH))
    return load_scenario(yaml.safe_dump(doc))
