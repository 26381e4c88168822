"""scipy is loaded by the first ``solve_qp`` and by nothing else.

ADMM runs and ``fleetcoord validate`` never call ``solve_qp``, so they must
never import scipy (~100 ms and ~20 MB per process).  Each import check runs
in a fresh interpreter, since this test process has imported scipy already.
The IPM's direct LAPACK calls must answer as scipy's Cholesky wrappers do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from fleetcoord import qp

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


def test_centralized_run_loads_scipy_at_its_first_solve_qp():
    calls = run_fresh("""
import json, sys
import fleetcoord.simulation as simulation
from fleetcoord import load_scenario_file
calls = []
real = simulation.solve_qp
def recording(problem, *args, **kwargs):
    before = "scipy" in sys.modules
    sol = real(problem, *args, **kwargs)
    calls.append([before, "scipy" in sys.modules, sol.path])
    return sol
simulation.solve_qp = recording
sc = load_scenario_file("scenarios/overtake.scn")
loaded = "scipy" in sys.modules
simulation.run_simulation(sc, "centralized", duration=0.3)
print(json.dumps([loaded, calls]))
""")
    loaded, calls = calls
    assert not loaded
    assert len(calls) == 3
    # bound on entry: the first fleet QP loads scipy although the IPM is not reached
    assert calls[0] == [False, True, "bound"]
    assert all(before and after for before, after, _ in calls[1:])


def test_lapack_calls_match_scipy_wrappers_bit_for_bit():
    rng = np.random.default_rng(2018)
    for n in range(1, 101):
        A = rng.normal(size=(n, n))
        M = A @ A.T + 1e-3 * np.eye(n)
        c = qp._cholesky(M)
        c_ref, lower = cho_factor(M, check_finite=False)
        assert not lower
        assert c.tobytes() == c_ref.tobytes()      # the unwritten lower triangle too
        for b in (rng.normal(size=n), rng.normal(size=(n, 1))):
            x = qp._cho_solve(c, b)
            x_ref = cho_solve((c_ref, False), b, check_finite=False)
            assert x.shape == x_ref.shape
            assert x.tobytes() == x_ref.tobytes()


def test_factor_of_indefinite_matrix_raises_linalg_error():
    for M in (np.diag([1.0, -1.0, 2.0]), np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(np.linalg.LinAlgError):
            qp._cholesky(M)
