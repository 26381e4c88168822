"""Kinematic bicycle model, per-step linearization and condensed prediction.

The plant is the constant-speed bicycle model

    rx' = v cos(theta),  ry' = v sin(theta),  theta' = (v / L) tan(delta)

discretized by forward Euler at step Ts.  Steering is the only control; the
speed v is a fixed per-vehicle parameter.  Linearizing along a seed
trajectory gives one affine model (A, B, c) per step, and condensation stacks
those into a single map  x_stacked = Phi u + gamma  over the whole horizon.

The closed loop works on the whole fleet at once, with (N, 3) pose arrays and
(N, Np) steering arrays.  ``rollout_fleet`` steps all N plants together with
the same float operations, in the same order, as ``step_nonlinear``, so each
row equals the per-vehicle ``rollout`` bit for bit; it takes them as
inclusive scans over the horizon (``np.add.accumulate``), with a step loop
only for the headings from the first step that leaves (-pi, pi] and has to
be wrapped (Blelloch, *Prefix Sums and Their Applications*, 1990).
``condense_fleet`` fuses linearization and condensation; each of its
products is the per-vehicle code's own small matrix product, issued once for
the whole fleet as a stacked ``matmul``, so it too reproduces
``condense(linearize(...))`` bit for bit.
Both take sin, cos and tan per element with ``math``, as the reference does,
because numpy's vectorized versions may round differently on some hosts.
``rollout_fleet_trig`` also returns the cos and sin of every heading it
stepped from, and ``condense_fleet`` takes a slice of them instead of
calling ``math`` again on the same headings.
``step_nonlinear``, ``rollout``, ``linearize`` and ``condense`` are the
per-vehicle reference formulation that the fleet kernels are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .scenario import VehicleState, wrap_angle

STATE_DIM = 3


@dataclass(frozen=True, eq=False)
class HorizonTrajectory:
    """Np+1 poses and Np steering angles over one prediction horizon.

    ``poses`` is an (Np+1, 3) array of (rx, ry, theta) rows, often a view
    into a fleet rollout; ``states`` builds VehicleState objects on access.
    """

    poses: np.ndarray
    controls: np.ndarray
    ts: float

    def __post_init__(self):
        object.__setattr__(self, "poses",
                           np.asarray(self.poses, dtype=float).reshape(-1, STATE_DIM))
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=float))
        if len(self.poses) != len(self.controls) + 1:
            raise ParameterError("need len(poses) == len(controls) + 1")

    @property
    def horizon(self) -> int:
        return len(self.controls)

    @property
    def states(self) -> tuple[VehicleState, ...]:
        return tuple(VehicleState(*row) for row in self.poses.tolist())

    def states_array(self) -> np.ndarray:
        return self.poses.copy()

    def positions(self) -> np.ndarray:
        return self.poses[:, :2].copy()


@dataclass(frozen=True, eq=False)
class LinearModel:
    """One-step affine model x+ = A x + B delta + c around a seed point."""

    A: np.ndarray          # (3, 3)
    B: np.ndarray          # (3,)
    c: np.ndarray          # (3,)


@dataclass(frozen=True, eq=False)
class CondensedPrediction:
    """Stacked affine map from the steering sequence to states 1..Np."""

    Phi: np.ndarray        # (3*Np, Np)
    gamma: np.ndarray      # (3*Np,)

    @property
    def horizon(self) -> int:
        return self.Phi.shape[1]

    def predict(self, u: np.ndarray) -> np.ndarray:
        """Predicted states as an (Np, 3) array."""
        return (self.Phi @ np.asarray(u, dtype=float) + self.gamma).reshape(-1, STATE_DIM)

    def position_block(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Affine map (P, q) with p_k = P u + q for prediction step k in 1..Np."""
        r = STATE_DIM * (k - 1)
        return self.Phi[r:r + 2], self.gamma[r:r + 2]


@dataclass(frozen=True, eq=False)
class FleetPrediction:
    """Condensed predictions of N vehicles: x_stacked[n] = Phi[n] u[n] + gamma[n]."""

    Phi: np.ndarray        # (N, 3*Np, Np)
    gamma: np.ndarray      # (N, 3*Np)


def _check_step_args(delta: float, v: float, L: float, ts: float) -> None:
    # each test is written so that NaN fails it
    if not (math.isfinite(ts) and ts > 0):
        raise ParameterError(f"Ts must be finite and positive, got {ts!r}")
    if not (math.isfinite(L) and L > 0):
        raise ParameterError(f"wheelbase must be finite and positive, got {L!r}")
    if not math.isfinite(v):
        raise ParameterError(f"speed must be finite, got {v!r}")
    if not abs(delta) < math.pi / 2:
        raise ParameterError(f"steering angle {delta} is outside the tan domain (-pi/2, pi/2)")


def step_nonlinear(state: VehicleState, delta: float, v: float, L: float,
                   ts: float) -> VehicleState:
    """One forward-Euler step of the bicycle model; heading renormalized."""
    _check_step_args(delta, v, L, ts)
    return VehicleState(
        rx=state.rx + ts * v * math.cos(state.theta),
        ry=state.ry + ts * v * math.sin(state.theta),
        theta=wrap_angle(state.theta + ts * (v / L) * math.tan(delta)),
    )


def rollout(x0: VehicleState, controls, v: float, L: float, ts: float) -> HorizonTrajectory:
    """Roll the nonlinear plant forward under a steering sequence."""
    controls = np.asarray(controls, dtype=float)
    states = [x0]
    for delta in controls:
        states.append(step_nonlinear(states[-1], float(delta), v, L, ts))
    return HorizonTrajectory(poses=np.array([s.as_array() for s in states]),
                             controls=controls, ts=ts)


def _check_fleet_args(controls: np.ndarray, v: np.ndarray, L: np.ndarray, ts: float) -> None:
    """``_check_step_args`` for every (vehicle, step) at once."""
    if not (math.isfinite(ts) and ts > 0):
        raise ParameterError(f"Ts must be finite and positive, got {ts!r}")
    if not (np.isfinite(L) & (L > 0)).all():
        raise ParameterError("wheelbase must be finite and positive")
    if not np.isfinite(v).all():
        raise ParameterError("speed must be finite")
    inside = np.abs(controls) < math.pi / 2
    if not inside.all():
        raise ParameterError(f"steering angle {controls[~inside][0]} is outside the tan "
                             f"domain (-pi/2, pi/2)")


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a scalar ``math`` function) applied to each element of ``x``.

    numpy's vectorized float64 sin, cos and tan may round differently from
    the C library's scalar functions that the reference formulation calls,
    depending on the numpy build and the CPU, so the fleet kernels take them
    per element.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _fleet_arrays(controls, v, L, n: int):
    controls = np.asarray(controls, dtype=float).reshape(n, -1)
    v = np.full(n, v, dtype=float)
    L = np.full(n, L, dtype=float)
    return controls, v, L


def rollout_fleet(x0, controls, v, L, ts: float) -> np.ndarray:
    """Poses (N, Np+1, 3) of N plants from poses x0 (N, 3) under controls (N, Np).

    ``v`` and ``L`` are per-vehicle (N,) or shared scalars.  Row n equals
    ``rollout(VehicleState(*x0[n]), controls[n], v[n], L[n], ts).poses`` bit
    for bit: the same float operations in the same order as
    ``step_nonlinear``, with sin, cos and tan taken per element by ``math``.
    """
    return rollout_fleet_trig(x0, controls, v, L, ts)[0]


def rollout_fleet_trig(x0, controls, v, L, ts: float):
    """``rollout_fleet``'s poses plus the cos and sin (N, Np) of every heading it stepped from.

    The rollout is an inclusive scan.  The headings are one
    ``np.add.accumulate`` over [theta0, turn * tan(delta)], which adds in
    the step loop's order; ``wrap_angle`` leaves a heading in (-pi, pi]
    unchanged, so each heading up to the first sum that leaves that range
    has the loop's bits.  From that step on (over all vehicles), the step
    loop itself repairs the headings, one ``wrap_angle`` per step; when no
    sum leaves the range it starts after the last step and does nothing.
    cos and sin are then taken once over all the headings stepped from,
    and the positions are the two scans [rx0, v ts cos] and
    [ry0, v ts sin].  Column k of the trig arrays is taken at
    poses[:, k, 2], so a slice of them is what ``condense_fleet`` takes at
    any window of these poses.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1, STATE_DIM)
    n = len(x0)
    controls, v, L = _fleet_arrays(controls, v, L, n)
    _check_fleet_args(controls, v, L, ts)
    np_steps = controls.shape[1]
    step = (ts * v)[:, None]
    turn = (ts * (v / L))[:, None] * _per_element(math.tan, controls)
    theta = np.add.accumulate(np.concatenate([x0[:, 2:], turn], axis=1), axis=1)
    outside = ~np.all((theta[:, 1:] > -math.pi) & (theta[:, 1:] <= math.pi), axis=0)
    for k in range(int(np.argmax(outside)) if outside.any() else np_steps, np_steps):
        theta[:, k + 1] = wrap_angle(theta[:, k] + turn[:, k])
    cos = _per_element(math.cos, theta[:, :-1])
    sin = _per_element(math.sin, theta[:, :-1])
    poses = np.empty((n, np_steps + 1, STATE_DIM))
    poses[:, :, 0] = np.add.accumulate(np.concatenate([x0[:, :1], step * cos], axis=1), axis=1)
    poses[:, :, 1] = np.add.accumulate(np.concatenate([x0[:, 1:2], step * sin], axis=1), axis=1)
    poses[:, :, 2] = theta
    return poses, cos, sin


def linearize(seed: HorizonTrajectory, v: float, L: float, ts: float) -> list[LinearModel]:
    """First-order models of the Euler step about each seed (state, control).

    The affine offset absorbs the nonlinear step at the expansion point, so
    plugging the seed controls back into the chained linear models reproduces
    the seed states exactly.
    """
    models = []
    states = seed.states
    for k in range(seed.horizon):
        xb = states[k]
        ub = float(seed.controls[k])
        _check_step_args(ub, v, L, ts)
        sin_t, cos_t = math.sin(xb.theta), math.cos(xb.theta)
        A = np.array([
            [1.0, 0.0, -ts * v * sin_t],
            [0.0, 1.0, ts * v * cos_t],
            [0.0, 0.0, 1.0],
        ])
        B = np.array([0.0, 0.0, ts * (v / L) / math.cos(ub) ** 2])
        fx = step_nonlinear(xb, ub, v, L, ts).as_array()
        c = fx - A @ xb.as_array() - B * ub
        models.append(LinearModel(A=A, B=B, c=c))
    return models


def condense(models: list[LinearModel], x0: VehicleState) -> CondensedPrediction:
    """Fold per-step models into x_stacked = Phi u + gamma for states 1..Np."""
    np_steps = len(models)
    Phi = np.zeros((STATE_DIM * np_steps, np_steps))
    gamma = np.zeros(STATE_DIM * np_steps)
    row = np.zeros((STATE_DIM, np_steps))
    g = x0.as_array()
    for k, m in enumerate(models):
        row = m.A @ row
        row[:, k] = m.B
        g = m.A @ g + m.c
        Phi[STATE_DIM * k:STATE_DIM * (k + 1)] = row
        gamma[STATE_DIM * k:STATE_DIM * (k + 1)] = g
    return CondensedPrediction(Phi=Phi, gamma=gamma)


def condense_fleet(poses, controls, v, L, ts: float, trig=None) -> FleetPrediction:
    """``condense(linearize(...))`` for N vehicles at once, bit for bit.

    ``poses`` (N, Np+1, 3) must be the rollout of ``controls`` (N, Np), as
    ``rollout_fleet`` returns it: the step taken at each seed point is read
    from the next pose instead of being recomputed.  ``trig``, when given,
    is the (cos, sin) pair (N, Np) of the headings poses[:, :-1, 2], as
    ``rollout_fleet_trig`` took them; otherwise they are taken here, with
    the same bits.  Every product is the reference's own 3x3 product issued
    as one stacked ``matmul`` over the fleet, which makes the same BLAS call
    per vehicle; an axpy form of A = I + (A[0, 2], A[1, 2]) in the third
    column would round differently wherever BLAS fuses the multiply-add, and
    the closed loop, chaotic under rounding at 16 vehicles and more,
    amplifies such last-bit differences into different trajectories.
    """
    poses = np.asarray(poses, dtype=float)
    n = poses.shape[0]
    controls, v, L = _fleet_arrays(controls, v, L, n)
    np_steps = controls.shape[1]
    if poses.shape != (n, np_steps + 1, STATE_DIM):
        raise ParameterError("need poses of shape (N, Np+1, 3) for controls (N, Np)")
    _check_fleet_args(controls, v, L, ts)
    if trig is None:
        theta = poses[:, :-1, 2]
        trig = _per_element(math.cos, theta), _per_element(math.sin, theta)
    cos, sin = trig
    if np.shape(cos) != controls.shape or np.shape(sin) != controls.shape:
        raise ParameterError("need heading cos and sin of shape (N, Np) for controls (N, Np)")
    A = np.zeros((n, np_steps, STATE_DIM, STATE_DIM))
    A[:, :, 0, 0] = A[:, :, 1, 1] = A[:, :, 2, 2] = 1.0
    A[:, :, 0, 2] = (-ts * v)[:, None] * sin
    A[:, :, 1, 2] = (ts * v)[:, None] * cos
    B = np.zeros((n, np_steps, STATE_DIM))
    # cos(delta) ** 2 per element as in linearize: Python's float power is
    # C pow(), which can round differently from numpy's x * x
    cos_sq = _per_element(lambda d: math.cos(d) ** 2, controls)
    B[:, :, 2] = (ts * (v / L))[:, None] / cos_sq
    # c = f(x, u) - A x - B u at each seed point; f(x, u) is the next pose
    Ax = np.matmul(A, poses[:, :-1, :, None])
    c = poses[:, 1:, :, None] - Ax - (B * controls[:, :, None])[..., None]

    # step k's products land in place: its row block of Phi is A_k times
    # step k-1's, with B_k in column k, and its gamma rows A_k g + c_k
    Phi = np.empty((n, np_steps, STATE_DIM, np_steps))
    gamma = np.empty((n, np_steps, STATE_DIM, 1))
    row = np.zeros((n, STATE_DIM, np_steps))
    g = poses[:, 0, :, None]
    for k in range(np_steps):
        A_k = A[:, k]
        row = np.matmul(A_k, row, out=Phi[:, k])
        row[:, :, k] = B[:, k]
        g = np.add(np.matmul(A_k, g), c[:, k], out=gamma[:, k])
    return FleetPrediction(Phi=Phi.reshape(n, STATE_DIM * np_steps, np_steps),
                           gamma=gamma.reshape(n, STATE_DIM * np_steps))
