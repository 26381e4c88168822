import os
import sys
from pathlib import Path

# The golden fixture was made with one BLAS thread, and CI pins the same;
# set it here too, before anything imports numpy, unless the caller chose.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


@pytest.fixture
def overtake_path():
    return SCENARIO_DIR / "overtake.scn"


@pytest.fixture
def intersection_path():
    return SCENARIO_DIR / "intersection.scn"


@pytest.fixture
def per_node_path(monkeypatch):
    """Call to hand every node of ADMM's batched pass to its batch's ``solve_node``.

    The batched kernels still run, but their ``done`` masks come back all
    False, so a fault injected into ``LocalBatch.solve_node`` or
    ``EdgeBatch.solve_node`` reaches every node.
    """
    import numpy as np

    import fleetcoord.subproblems as sub

    def install():
        for batch in (sub.LocalBatch, sub.EdgeBatch):
            def solve(self, *args, _real=batch.solve):
                *answers, done = _real(self, *args)
                return (*answers, np.zeros_like(done))
            monkeypatch.setattr(batch, "solve", solve)
    return install
