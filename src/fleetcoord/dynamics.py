"""Kinematic bicycle model, per-step linearization and condensed prediction.

The plant is the constant-speed bicycle model

    rx' = v cos(theta),  ry' = v sin(theta),  theta' = (v / L) tan(delta)

discretized by forward Euler at step Ts.  Steering is the only control; the
speed v is a fixed per-vehicle parameter.  Linearizing along a seed
trajectory gives one affine model (A, B, c) per step, and condensation stacks
those into a single map  x_stacked = Phi u + gamma  over the whole horizon.
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
    """Np+1 states and Np steering angles over one prediction horizon."""

    states: tuple[VehicleState, ...]
    controls: np.ndarray
    ts: float

    def __post_init__(self):
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=float))
        if len(self.states) != len(self.controls) + 1:
            raise ParameterError("need len(states) == len(controls) + 1")

    @property
    def horizon(self) -> int:
        return len(self.controls)

    def states_array(self) -> np.ndarray:
        return np.array([s.as_array() for s in self.states])

    def positions(self) -> np.ndarray:
        return np.array([[s.rx, s.ry] for s in self.states])


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


def _check_step_args(delta: float, v: float, L: float, ts: float) -> None:
    if ts <= 0:
        raise ParameterError("Ts must be positive")
    if L <= 0:
        raise ParameterError("wheelbase must be positive")
    if abs(delta) >= math.pi / 2:
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
    return HorizonTrajectory(states=tuple(states), controls=controls, ts=ts)


def linearize(seed: HorizonTrajectory, v: float, L: float, ts: float) -> list[LinearModel]:
    """First-order models of the Euler step about each seed (state, control).

    The affine offset absorbs the nonlinear step at the expansion point, so
    plugging the seed controls back into the chained linear models reproduces
    the seed states exactly.
    """
    models = []
    for k in range(seed.horizon):
        xb = seed.states[k]
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
