import math
import struct

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcoord import ScenarioError, dump_scenario, load_scenario, load_scenario_file
from fleetcoord.scenario import VehicleState, wrap_angle


def test_load_overtake(overtake_path):
    sc = load_scenario_file(overtake_path)
    assert len(sc.vehicles) == 3
    assert sc.config.ts == 0.1
    assert sc.config.horizon_steps == 15
    v1 = sc.vehicle(1)
    assert v1.wheelbase == 2.4
    # speeds between 40 and 50 km/h, stored in m/s
    for v in sc.vehicles:
        assert 40.0 <= v.speed_kmh <= 50.0
        assert v.speed == pytest.approx(v.speed_kmh / 3.6)


def test_load_intersection(intersection_path):
    sc = load_scenario_file(intersection_path)
    assert len(sc.vehicles) == 3
    headings = sorted(round(v.initial_state.theta, 3) for v in sc.vehicles)
    assert headings == sorted([0.0, round(math.pi / 2, 3), round(-math.pi / 2, 3)])


def test_default_d_perc_formula(overtake_path):
    sc = load_scenario_file(overtake_path)
    v_max = max(v.speed for v in sc.vehicles)
    expected = sc.config.d_safe + 2 * v_max * sc.config.horizon_steps * sc.config.ts
    assert sc.config.d_perc == pytest.approx(expected)


def test_round_trip_exact(overtake_path, intersection_path):
    for path in (overtake_path, intersection_path):
        first = load_scenario_file(path)
        _assert_same_scenario(first, load_scenario(dump_scenario(first)))



def _assert_same_scenario(first, second):
    assert second.config == first.config
    assert len(second.vehicles) == len(first.vehicles)
    for a, b in zip(first.vehicles, second.vehicles):
        assert a.id == b.id
        assert a.wheelbase == b.wheelbase
        assert a.speed == b.speed and a.speed_kmh == b.speed_kmh
        assert a.steer_min == b.steer_min and a.steer_max == b.steer_max
        assert a.steer_min_deg == b.steer_min_deg and a.steer_max_deg == b.steer_max_deg
        assert a.bounds == b.bounds
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.waypoints, b.waypoints)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive_floats = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def _vehicle_blocks(draw, vid):
    x_min = draw(st.floats(-1e4, 1e4))
    y_min = draw(st.floats(-1e4, 1e4))
    x_max = x_min + draw(st.floats(1e-3, 1e4))
    y_max = y_min + draw(st.floats(1e-3, 1e4))
    fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    steer_min = draw(st.floats(-89.9, 89.8))
    steer_max = draw(st.floats(steer_min, 89.9).filter(lambda d: d > steer_min))
    waypoints = draw(st.lists(st.tuples(_finite, _finite, _finite), min_size=1, max_size=6))
    return {
        "id": vid,
        "wheelbase_m": draw(st.floats(0.5, 10.0)),
        "speed_kmh": draw(st.floats(1e-3, 300.0)),
        "steer_min_deg": steer_min,
        "steer_max_deg": steer_max,
        "position_bounds_m": {"x_min": x_min, "x_max": x_max,
                              "y_min": y_min, "y_max": y_max},
        "initial_pose": {"x_m": min(x_min + fx * (x_max - x_min), x_max),
                         "y_m": min(y_min + fy * (y_max - y_min), y_max),
                         "theta_rad": draw(st.floats(-20.0, 20.0))},
        "waypoints_m": [list(w) for w in waypoints],
    }


@st.composite
def _scenario_documents(draw):
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=5, unique=True))
    d_safe = draw(_positive_floats)
    doc = {
        "global": {
            "ts": draw(_positive_floats),
            "horizon_steps": draw(st.integers(1, 50)),
            "d_safe": d_safe,
            "q_weight": draw(_positive_floats),
            "r_weight": draw(st.floats(0.0, 1e6)),
            "rho0": draw(_positive_floats),
            "eps_abs": draw(_positive_floats),
            "eps_rel": draw(_positive_floats),
            "max_iters": draw(st.integers(1, 1000)),
            "sim_duration": draw(_positive_floats),
        },
        "vehicles": [draw(_vehicle_blocks(vid)) for vid in ids],
    }
    if draw(st.booleans()):
        doc["global"]["d_perc"] = d_safe + draw(st.floats(0.0, 1e6))
    if draw(st.booleans()):
        doc["global"]["q_heading"] = draw(st.floats(0.0, 1e6))
    if draw(st.booleans()):
        doc["global"]["slack_penalty"] = draw(_positive_floats)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_scenario_documents())
def test_round_trip_exact_on_generated_scenarios(doc):
    first = load_scenario(yaml.safe_dump(doc, sort_keys=False))
    _assert_same_scenario(first, load_scenario(dump_scenario(first)))


MINIMAL = """
global:
  ts: 0.1
  horizon_steps: 5
  d_safe: 5.0
  q_weight: 1.0
  r_weight: 0.1
  rho0: 1.0
  eps_abs: 0.01
  eps_rel: 0.01
  max_iters: 50
  sim_duration: 1.0
vehicles:
  - id: 1
    wheelbase_m: 2.4
    speed_kmh: 40.0
    steer_min_deg: -35.0
    steer_max_deg: 35.0
    position_bounds_m: {x_min: -10.0, x_max: 100.0, y_min: -10.0, y_max: 10.0}
    initial_pose: {x_m: 0.0, y_m: 0.0, theta_rad: 0.0}
    waypoints_m: [[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]
"""


def test_minimal_scenario_parses():
    sc = load_scenario(MINIMAL)
    assert sc.config.q_heading == 0.1       # default
    assert sc.config.slack_penalty == 1e4   # default


def test_empty_vehicle_list_rejected():
    text = MINIMAL.split("vehicles:")[0] + "vehicles: []\n"
    with pytest.raises(ScenarioError, match="at least one vehicle"):
        load_scenario(text)


def test_unknown_key_named_in_error():
    # 'speed' without its unit tag must be called out by name
    text = MINIMAL.replace("speed_kmh", "speed")
    with pytest.raises(ScenarioError) as err:
        load_scenario(text)
    assert "speed" in str(err.value)


def test_missing_global_field_named():
    text = MINIMAL.replace("  d_safe: 5.0\n", "")
    with pytest.raises(ScenarioError, match="d_safe"):
        load_scenario(text)


def test_duplicate_ids_rejected():
    block = MINIMAL[MINIMAL.index("  - id: 1"):]
    text = MINIMAL + block.replace("id: 1", "id: 1", 1)
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(text)


def test_initial_pose_outside_bounds_rejected():
    text = MINIMAL.replace("x_m: 0.0, y_m: 0.0", "x_m: -50.0, y_m: 0.0")
    with pytest.raises(ScenarioError, match="position_bounds"):
        load_scenario(text)


def test_nonpositive_speed_rejected():
    text = MINIMAL.replace("speed_kmh: 40.0", "speed_kmh: -3.0")
    with pytest.raises(ScenarioError, match="speed_kmh"):
        load_scenario(text)


def test_steer_bounds_order_rejected():
    text = MINIMAL.replace("steer_min_deg: -35.0", "steer_min_deg: 40.0")
    with pytest.raises(ScenarioError, match="steer"):
        load_scenario(text)


def test_vehicle_state_normalizes_heading():
    s = VehicleState(0.0, 0.0, 3 * math.pi)
    assert -math.pi < s.theta <= math.pi
    assert s.theta == pytest.approx(math.pi)


def test_wrap_angle_range_and_idempotence():
    rng = np.random.default_rng(0)
    angles = rng.uniform(-20, 20, size=500)
    wrapped = wrap_angle(angles)
    assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)
    assert np.array_equal(wrap_angle(wrapped), wrapped)
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


_TWO_PI = 2.0 * math.pi
_special_angles = st.sampled_from([
    math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
    0.0, -0.0, _TWO_PI, -_TWO_PI, 3.0 * math.pi, -3.0 * math.pi,
    1e300, -1e300, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
_angles = st.one_of(
    _special_angles,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-100.0, 100.0),
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k * _TWO_PI),
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k * _TWO_PI + math.pi))


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(_angles)
def test_wrap_angle_scalar_path_matches_array_path_bit_for_bit(theta):
    with np.errstate(invalid="ignore"):      # np.mod of +-inf
        scalar = wrap_angle(theta)
        array = wrap_angle(np.array([theta]))[0]
    assert type(scalar) is float
    assert struct.pack("<d", scalar) == struct.pack("<d", float(array)) or (
        math.isnan(scalar) and math.isnan(array))
