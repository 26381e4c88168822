"""The closed loop against its pinned fixture, ``golden/closed_loop.json``.

Criteria 4 and 5 accept any run that stays near ``d_safe`` and criterion 9
compares a run only with itself, so neither sees a trajectory move.  This
test reruns the fixture's eight short runs and compares every pinned value:
counts, flags and solver paths exactly, floats to 1e-9 relative plus 1e-9
absolute, so a different BLAS build may round differently without failing.
A change that moves the closed loop regenerates the fixture with
``golden/make_golden.py`` and logs what moved.
"""

import json

import pytest

from golden.make_golden import FIXTURE, record

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def moved(got, want) -> bool:
    if isinstance(want, float):
        return not (isinstance(got, float) and abs(got - want) <= 1e-9 + 1e-9 * abs(want))
    return type(got) is not type(want) or got != want


@pytest.mark.parametrize("key", sorted(GOLDEN["runs"]))
def test_closed_loop_matches_the_fixture(key):
    want = GOLDEN["runs"][key]
    got = record(want["scene"], want["mode"], want["duration"])
    assert len(got["cycles"]) == len(want["cycles"]), f"{key}: cycle count"
    for index, (g, w) in enumerate(zip(got["cycles"], want["cycles"])):
        for field in w:
            assert not moved(g[field], w[field]), (
                f"{key} cycle {index} {field}: {g[field]!r}, fixture {w[field]!r}")
    assert sorted(got["final_poses"]) == sorted(want["final_poses"])
    for vid, pose in want["final_poses"].items():
        for axis, g, w in zip(("x", "y", "theta"), got["final_poses"][vid], pose):
            assert not moved(g, w), f"{key} final {axis} of vehicle {vid}: {g!r}, fixture {w!r}"
