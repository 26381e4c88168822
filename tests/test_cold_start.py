"""scipy is loaded by the first QP that reaches the interior-point method, and by nothing else.

ADMM runs and ``fleetcoord validate`` never call ``solve_qp``, and a
centralized overtake run answers every fleet QP on the bound shortcut or the
dual active set, so none of them may import scipy (~100 ms and ~20 MB per
process).  Each import check runs in a fresh interpreter, since this test
process has imported scipy already.  The IPM's direct LAPACK calls must
answer as scipy's Cholesky wrappers do.
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


def test_scipy_loads_only_when_a_qp_reaches_the_ipm():
    seen = run_fresh("""
import json, sys
import numpy as np
from fleetcoord import BlockDiagonal, DenseQp, load_scenario_file, run_simulation, solve_qp
run = run_simulation(load_scenario_file("scenarios/overtake.scn"), "centralized")
seen = {"overtake": [sorted({c.qp_path for c in run.cycles}), len(run.cycles),
                     "scipy" in sys.modules]}
# the diagonal column is boxed above, so it is no elastic slack: the IPM answers
H = BlockDiagonal(np.array([[[2.0, 0.5], [0.5, 1.0]]]), np.zeros(1))
sol = solve_qp(DenseQp(H=H, f=[1.0, -0.5, 1.0], G=[[-1.0, -1.0, -1.0]], h=[-1.5],
                       lb=[0.25, -1.0, 0.0], ub=[1.0, 1.0, 2.0]))
seen["ipm"] = [sol.path, sol.status, "scipy" in sys.modules]
print(json.dumps(seen))
""")
    # the full overtake run answers every fleet QP without the IPM
    assert seen == {"overtake": [["bound", "dual"], 200, False],
                    "ipm": ["ipm", "optimal", True]}


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
