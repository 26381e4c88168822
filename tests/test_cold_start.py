"""The package never imports scipy (~100 ms and ~20 MB per process).

ADMM runs and ``fleetcoord validate`` never call ``solve_qp``; a centralized
overtake run answers every fleet QP on the bound shortcut or the dual active
set; a QP whose diagonal column is no elastic slack, and an infeasible one,
go through the dual stage and the infeasibility probe.  None of them may
import scipy.  Each import check runs in a fresh interpreter, since the test
suite may have imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter from the repository root; its last line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_admm_runs_and_validate_never_import_scipy():
    seen = run_fresh("""
import json, sys
import fleetcoord
from fleetcoord import cli, load_scenario_file, run_simulation
from fleetcoord.bench import generate_scaled_scenario
seen = {"import": "scipy" in sys.modules}
for name in ("overtake", "intersection"):
    run = run_simulation(load_scenario_file(f"scenarios/{name}.scn"), "parallel_admm",
                         duration=1.0)
    seen[name] = ["scipy" in sys.modules, len(run.cycles)]
seen["validate"] = [cli.main(["validate", "scenarios/overtake.scn"]), "scipy" in sys.modules]
run = run_simulation(generate_scaled_scenario(8, 0), "parallel_admm", duration=0.2)
seen["scaled"] = ["scipy" in sys.modules, len(run.cycles)]
print(json.dumps(seen))
""")
    assert seen == {"import": False, "overtake": [False, 10], "intersection": [False, 10],
                    "validate": [0, False], "scaled": [False, 2]}


def test_no_solve_qp_call_imports_scipy():
    seen = run_fresh("""
import json, sys
import numpy as np
from fleetcoord import BlockDiagonal, DenseQp, load_scenario_file, run_simulation, solve_qp
run = run_simulation(load_scenario_file("scenarios/overtake.scn"), "centralized")
seen = {"overtake": [sorted({c.qp_path for c in run.cycles}), len(run.cycles),
                     "scipy" in sys.modules]}
# the diagonal column is boxed above, so it is no elastic slack: the dual
# keeps it as a 1 x 1 block
H = BlockDiagonal(np.array([[[2.0, 0.5], [0.5, 1.0]]]), np.zeros(1))
sol = solve_qp(DenseQp(H=H, f=[1.0, -0.5, 1.0], G=[[-1.0, -1.0, -1.0]], h=[-1.5],
                       lb=[0.25, -1.0, 0.0], ub=[1.0, 1.0, 2.0]))
seen["boxed"] = [sol.path, sol.status, "scipy" in sys.modules]
# u <= -1 and -u <= -1 contradict: the infeasibility probe runs
sol = solve_qp(DenseQp(H=[[2.0]], f=[0.0], G=[[1.0], [-1.0]], h=[-1.0, -1.0]))
seen["infeasible"] = [sol.path, sol.status, "scipy" in sys.modules]
print(json.dumps(seen))
""")
    assert seen == {"overtake": [["bound", "dual"], 200, False],
                    "boxed": ["dual", "optimal", False],
                    "infeasible": ["dual", "infeasible", False]}
