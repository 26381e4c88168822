"""The span tracer in perfbench/tracing.py wraps fleetcoord functions by name.

It replaces module attributes of ``fleetcoord.simulation`` and
``fleetcoord.admm`` from outside, so renaming or dropping one of them would
silently remove its spans, and it reads ``admm_solve``'s arguments and
result, so a change to that interface would break the traced benchmark.  The
tracer source is executed here without importing it as a module, so nothing
is written under perfbench/.
"""

import math
import types
from pathlib import Path

import pytest

import fleetcoord.admm
import fleetcoord.simulation
from fleetcoord import load_scenario_file

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


@pytest.mark.parametrize("table, target", [
    ("SIMULATION_CALLS", fleetcoord.simulation),
    ("ADMM_CALLS", fleetcoord.admm),
])
def test_traced_attributes_exist_and_are_callable(table, target):
    calls = getattr(_tracing_module(), table)
    assert calls
    for attr, span in calls:
        assert callable(getattr(target, attr, None)), (
            f"{target.__name__}.{attr} (span {span}) is gone")


@pytest.mark.parametrize("mode", ["parallel_admm", "centralized"])
def test_tracer_wraps_a_closed_loop(overtake_path, mode):
    # the traced loop of perfbench, on three overtake cycles
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    scenario = load_scenario_file(overtake_path)
    tracer.install()
    try:
        run = tracer.span(tracing.ROOT_SPAN, fleetcoord.simulation.run_simulation,
                          scenario, mode, duration=0.3, workers=1)
    finally:
        tracer.restore()
    assert fleetcoord.simulation.admm_solve is fleetcoord.admm.admm_solve
    metrics = tracing.layer_metrics(tracer)
    gaps = tracing.objective_gaps(tracer.admm_inputs)
    cycles = len(run.cycles)
    assert cycles == 3
    assert metrics["graph.edges_mean"] == 3.0
    if mode == "parallel_admm":
        assert metrics["admm.calls"] == cycles
        assert metrics["admm.iters"] == sum(c.iterations for c in run.cycles)
        assert metrics["admm.solve_s"] > 0 and metrics["admm.wall_over_accounted"] > 0
        assert len(gaps) == cycles and all(math.isfinite(g) for g in gaps)
    else:
        assert metrics["admm.calls"] == 0 and gaps == []
        assert metrics["qp.calls"] == cycles
