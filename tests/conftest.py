import sys
from pathlib import Path

import pytest

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
    """Call to hand every node of ADMM's batched pass to solve_local/solve_edge.

    The batched kernels still run, but their ``done`` masks come back all
    False, so a fault injected into the per-node solvers reaches every node.
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
