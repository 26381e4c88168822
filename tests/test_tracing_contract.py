"""The span tracer in perfbench/tracing.py wraps fleetcoord functions by name.

It replaces module attributes of ``fleetcoord.simulation`` and
``fleetcoord.admm`` from outside, so renaming or dropping one of them would
silently remove its spans.  The tracer source is executed here without
importing it as a module, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

import pytest

import fleetcoord.admm
import fleetcoord.simulation

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
