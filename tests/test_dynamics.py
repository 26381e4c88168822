import math

import numpy as np
import pytest

from fleetcoord import ParameterError, condense, linearize, rollout, step_nonlinear
from fleetcoord.dynamics import condense_fleet, rollout_fleet
from fleetcoord.scenario import VehicleState

from oracles import rk4_fine_step


def test_straight_motion():
    out = step_nonlinear(VehicleState(0, 0, 0), 0.0, v=10.0, L=2.4, ts=0.1)
    assert out.rx == pytest.approx(1.0)
    assert out.ry == pytest.approx(0.0)
    assert out.theta == pytest.approx(0.0)


def test_heading_advance_at_40kmh():
    # 40 km/h = 11.111 m/s, wheelbase 2.4 m
    v = 40.0 / 3.6
    out = step_nonlinear(VehicleState(0, 0, 0), 0.1, v=v, L=2.4, ts=0.1)
    assert out.theta == pytest.approx((v / 2.4) * math.tan(0.1) * 0.1)


def test_tan_singularity_rejected():
    with pytest.raises(ParameterError):
        step_nonlinear(VehicleState(0, 0, 0), math.pi / 2, v=10.0, L=2.4, ts=0.1)
    with pytest.raises(ParameterError):
        step_nonlinear(VehicleState(0, 0, 0), 0.1, v=10.0, L=-2.4, ts=0.1)
    with pytest.raises(ParameterError):
        step_nonlinear(VehicleState(0, 0, 0), 0.1, v=10.0, L=2.4, ts=0.0)


@pytest.mark.parametrize("bad, name", [
    ({"delta": math.nan}, "steering"),
    ({"ts": math.nan}, "Ts"), ({"ts": math.inf}, "Ts"), ({"ts": -0.1}, "Ts"),
    ({"L": math.nan}, "wheelbase"), ({"L": math.inf}, "wheelbase"), ({"L": 0.0}, "wheelbase"),
    ({"v": math.nan}, "speed"), ({"v": math.inf}, "speed"), ({"v": -math.inf}, "speed"),
])
def test_non_finite_arguments_rejected(bad, name):
    # each of these gave NaN poses, or none of them raised
    a = {"delta": 0.1, "v": 10.0, "L": 2.4, "ts": 0.1, **bad}
    with pytest.raises(ParameterError, match=name):
        step_nonlinear(VehicleState(0, 0, 0), a["delta"], v=a["v"], L=a["L"], ts=a["ts"])
    with pytest.raises(ParameterError, match=name):
        rollout(VehicleState(0, 0, 0), [0.0, a["delta"]], a["v"], a["L"], a["ts"])
    controls = np.array([[0.0, 0.0], [0.0, a["delta"]]])
    fleet = (controls, [10.0, a["v"]], [2.4, a["L"]], a["ts"])
    with pytest.raises(ParameterError, match=name):
        rollout_fleet(np.zeros((2, 3)), *fleet)
    with pytest.raises(ParameterError, match=name):
        condense_fleet(np.zeros((2, 3, 3)), *fleet)
    if "delta" not in bad:
        seed = rollout(VehicleState(0, 0, 0), [0.0, 0.1], 10.0, 2.4, 0.1)
        with pytest.raises(ParameterError, match=name):
            linearize(seed, a["v"], a["L"], a["ts"])


def test_vehicle_at_rest_is_accepted():
    out = step_nonlinear(VehicleState(1.0, 2.0, 0.3), 0.2, v=0.0, L=2.4, ts=0.1)
    assert (out.rx, out.ry, out.theta) == (1.0, 2.0, 0.3)


def test_heading_stays_normalized():
    state = VehicleState(0, 0, 3.0)
    for _ in range(100):
        state = step_nonlinear(state, 0.4, v=13.0, L=2.4, ts=0.1)
        assert -math.pi < state.theta <= math.pi


def test_euler_error_against_rk4_oracle():
    # per-step error of forward Euler is O(Ts^2): halving Ts quarters it
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(100):
        state = VehicleState(*rng.uniform(-5, 5, size=2), rng.uniform(-2.0, 2.0))
        delta = float(rng.uniform(-0.4, 0.4))
        v = float(rng.uniform(8, 14))
        L = float(rng.uniform(2.0, 3.0))
        exact = rk4_fine_step(state.as_array(), delta, v, L, 0.1)
        err_full = np.linalg.norm(step_nonlinear(state, delta, v, L, 0.1).as_array() - exact)
        half1 = step_nonlinear(state, delta, v, L, 0.05)
        half2 = step_nonlinear(half1, delta, v, L, 0.05)
        err_half = np.linalg.norm(half2.as_array() - exact)
        # local error bound ~ 0.5*Ts^2*|xddot|, |xddot| <= v^2/L * tan(0.4)
        assert err_full < 0.5 * 0.1 ** 2 * (14 ** 2 / 2.0) * 0.43 * 1.5
        if err_full > 1e-9:
            ratios.append(err_full / max(err_half, 1e-15))
    # mean halving ratio near 2 (first-order global error over the step pair)
    assert 1.5 < float(np.mean(ratios)) < 3.0


def test_linearize_b_structure_straight():
    seed = rollout(VehicleState(0, 0, 0), np.zeros(3), v=12.0, L=2.4, ts=0.1)
    models = linearize(seed, v=12.0, L=2.4, ts=0.1)
    B = models[0].B
    assert B[0] == 0.0 and B[1] == 0.0
    assert B[2] == pytest.approx(0.1 * (12.0 / 2.4))


def test_expansion_point_exactness():
    rng = np.random.default_rng(9)
    for _ in range(20):
        controls = rng.uniform(-0.3, 0.3, size=6)
        x0 = VehicleState(*rng.uniform(-10, 10, size=2), rng.uniform(-3, 3))
        v, L, ts = float(rng.uniform(9, 14)), 2.4, 0.1
        seed = rollout(x0, controls, v, L, ts)
        models = linearize(seed, v, L, ts)
        x = x0.as_array()
        for k, m in enumerate(models):
            x = m.A @ x + m.B * controls[k] + m.c
            assert np.allclose(x, seed.states[k + 1].as_array(), atol=1e-12)


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(200):
        x0 = VehicleState(*rng.uniform(-10, 10, size=2), rng.uniform(-2.5, 2.5))
        delta = float(rng.uniform(-0.4, 0.4))
        v, L, ts = float(rng.uniform(9, 14)), 2.4, 0.1
        seed = rollout(x0, [delta], v, L, ts)
        m = linearize(seed, v, L, ts)[0]
        A_fd = np.zeros((3, 3))
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = h
            plus = step_nonlinear(VehicleState(*(x0.as_array() + bump)), delta, v, L, ts)
            minus = step_nonlinear(VehicleState(*(x0.as_array() - bump)), delta, v, L, ts)
            A_fd[:, i] = (plus.as_array() - minus.as_array()) / (2 * h)
        B_fd = (step_nonlinear(x0, delta + h, v, L, ts).as_array()
                - step_nonlinear(x0, delta - h, v, L, ts).as_array()) / (2 * h)
        assert np.max(np.abs(A_fd - m.A)) / (1 + np.max(np.abs(m.A))) <= 1e-5
        assert np.max(np.abs(B_fd - m.B)) / (1 + np.max(np.abs(m.B))) <= 1e-5


def test_condense_single_step():
    x0 = VehicleState(1.0, 2.0, 0.3)
    seed = rollout(x0, [0.1], v=10.0, L=2.4, ts=0.1)
    models = linearize(seed, v=10.0, L=2.4, ts=0.1)
    pred = condense(models, x0)
    m = models[0]
    assert np.allclose(pred.Phi[:, 0], m.B)
    assert np.allclose(pred.gamma, m.A @ x0.as_array() + m.c)


def test_condense_matches_rollout():
    rng = np.random.default_rng(31)
    np_steps = 15
    x0 = VehicleState(
        float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)), float(rng.uniform(-1, 1)))
    v, L, ts = 12.0, 2.4, 0.1
    seed = rollout(x0, rng.uniform(-0.2, 0.2, size=np_steps), v, L, ts)
    models = linearize(seed, v, L, ts)
    pred = condense(models, x0)
    for _ in range(100):
        u = rng.uniform(-0.4, 0.4, size=np_steps)
        x = x0.as_array()
        stacked = []
        for k, m in enumerate(models):
            x = m.A @ x + m.B * u[k] + m.c
            stacked.append(x.copy())
        expect = np.concatenate(stacked)
        got = pred.Phi @ u + pred.gamma
        assert np.max(np.abs(got - expect)) <= 1e-9


def test_condense_zero_input_equals_drift_rollout():
    x0 = VehicleState(0.0, 0.0, 0.2)
    seed = rollout(x0, np.zeros(5), v=11.0, L=2.4, ts=0.1)
    models = linearize(seed, v=11.0, L=2.4, ts=0.1)
    pred = condense(models, x0)
    expect = seed.states_array()[1:].reshape(-1)   # zero steering == the seed itself
    assert np.allclose(pred.Phi @ np.zeros(5) + pred.gamma, expect, atol=1e-12)
