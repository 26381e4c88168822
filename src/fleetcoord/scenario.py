"""Scenario definitions: vehicles, road limits, reference paths and solver settings.

Scenario files are YAML documents (conventionally ``.scn``) with a ``global``
block and a ``vehicles`` list.  All keys carry their unit in the name where
one applies (``speed_kmh``, ``steer_min_deg``, ``wheelbase_m``); the parser
rejects unknown keys so a missing unit tag surfaces as a named-field error.
Internally everything is SI (meters, radians, seconds); the raw file values
are kept on each VehicleSpec so a dump/load round trip is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ScenarioError

KMH_TO_MS = 1.0 / 3.6
DEG_TO_RAD = math.pi / 180.0


def wrap_angle(theta):
    """Normalize an angle (or array of angles) to (-pi, pi].

    Values already in range pass through unchanged, so the map is idempotent
    bit for bit.  Finite Python floats take a scalar path with the same
    operations, and the same bits, as the array path.
    """
    if type(theta) is float and math.isfinite(theta):
        if -math.pi < theta <= math.pi:
            return theta
        w = theta % (2.0 * math.pi)
        return w - 2.0 * math.pi if w > math.pi else w
    t = np.asarray(theta, dtype=float)
    w = np.mod(t, 2.0 * math.pi)
    w = np.where(w > math.pi, w - 2.0 * math.pi, w)
    w = np.where((t > -math.pi) & (t <= math.pi), t, w)
    return float(w) if np.ndim(theta) == 0 else w


@dataclass(frozen=True)
class VehicleState:
    """Rear-axle pose of one vehicle: position in meters, heading in radians."""

    rx: float
    ry: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "rx", float(self.rx))
        object.__setattr__(self, "ry", float(self.ry))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.theta])

    @property
    def position(self) -> np.ndarray:
        return np.array([self.rx, self.ry])


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned rectangle of admissible rear-axle positions, meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, rx: float, ry: float) -> bool:
        return self.x_min <= rx <= self.x_max and self.y_min <= ry <= self.y_max


@dataclass(frozen=True, eq=False)
class VehicleSpec:
    """Static parameters of one vehicle plus its initial pose.

    ``speed``/``steer_min``/``steer_max`` are SI values derived from the raw
    file fields, which are retained verbatim for serialization.
    """

    id: int
    wheelbase: float           # m
    speed: float               # m/s, constant over the horizon
    steer_min: float           # rad
    steer_max: float           # rad
    bounds: Bounds
    waypoints: np.ndarray      # (K, 3) of x, y, heading
    initial_state: VehicleState
    speed_kmh: float = field(repr=False, default=0.0)
    steer_min_deg: float = field(repr=False, default=0.0)
    steer_max_deg: float = field(repr=False, default=0.0)

    def validate(self) -> None:
        name = f"vehicles[id={self.id}]"
        if self.wheelbase <= 0:
            raise ScenarioError(f"{name}.wheelbase_m: must be positive")
        if self.speed <= 0:
            raise ScenarioError(f"{name}.speed_kmh: must be positive")
        if not self.steer_min < self.steer_max:
            raise ScenarioError(
                f"{name}.steer_min_deg/steer_max_deg: need steer_min < steer_max")
        if max(abs(self.steer_min), abs(self.steer_max)) >= math.pi / 2:
            raise ScenarioError(
                f"{name}.steer_min_deg/steer_max_deg: must lie strictly inside "
                "(-90, 90) degrees")
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 3 or len(self.waypoints) == 0:
            raise ScenarioError(f"{name}.waypoints_m: need a non-empty list of [x, y, heading]")
        if not np.all(np.isfinite(self.waypoints)):
            raise ScenarioError(f"{name}.waypoints_m: entries must be finite")
        if not self.bounds.contains(self.initial_state.rx, self.initial_state.ry):
            raise ScenarioError(f"{name}.initial_pose: lies outside position_bounds_m")


@dataclass(frozen=True)
class ScenarioConfig:
    """Global block of a scenario: timing, safety distances, weights, ADMM knobs."""

    ts: float
    horizon_steps: int
    d_safe: float
    d_perc: float
    q_weight: float
    q_heading: float
    r_weight: float
    slack_penalty: float
    rho0: float
    eps_abs: float
    eps_rel: float
    max_iters: int
    sim_duration: float


@dataclass(frozen=True, eq=False)
class Scenario:
    config: ScenarioConfig
    vehicles: tuple[VehicleSpec, ...]

    def vehicle(self, vid: int) -> VehicleSpec:
        for spec in self.vehicles:
            if spec.id == vid:
                return spec
        raise KeyError(f"unknown vehicle id {vid}")


_GLOBAL_REQUIRED = ("ts", "horizon_steps", "d_safe", "q_weight", "r_weight",
                    "rho0", "eps_abs", "eps_rel", "max_iters", "sim_duration")
_GLOBAL_OPTIONAL = ("d_perc", "q_heading", "slack_penalty")
_VEHICLE_REQUIRED = ("id", "wheelbase_m", "speed_kmh", "steer_min_deg", "steer_max_deg",
                     "position_bounds_m", "initial_pose", "waypoints_m")
_BOUNDS_KEYS = ("x_min", "x_max", "y_min", "y_max")
_POSE_KEYS = ("x_m", "y_m", "theta_rad")


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    return obj


def _check_keys(block: dict, required, optional, where: str) -> None:
    missing = [k for k in required if k not in block]
    if missing:
        raise ScenarioError(f"{where}: missing required field(s) {', '.join(missing)}")
    unknown = [k for k in block if k not in required and k not in optional]
    if unknown:
        raise ScenarioError(
            f"{where}: unknown field(s) {', '.join(sorted(unknown))} "
            "(check spelling and unit suffix)")


def _number(block: dict, key: str, where: str) -> float:
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{where}.{key}: expected a number, got {val!r}")
    if not math.isfinite(float(val)):
        raise ScenarioError(f"{where}.{key}: must be finite")
    return float(val)


def _positive(block: dict, key: str, where: str) -> float:
    val = _number(block, key, where)
    if val <= 0:
        raise ScenarioError(f"{where}.{key}: must be positive")
    return val


def _parse_vehicle(block, index: int) -> VehicleSpec:
    where = f"vehicles[{index}]"
    block = _require_mapping(block, where)
    _check_keys(block, _VEHICLE_REQUIRED, (), where)

    vid = block["id"]
    if isinstance(vid, bool) or not isinstance(vid, int):
        raise ScenarioError(f"{where}.id: expected an integer, got {vid!r}")

    bounds_block = _require_mapping(block["position_bounds_m"], f"{where}.position_bounds_m")
    _check_keys(bounds_block, _BOUNDS_KEYS, (), f"{where}.position_bounds_m")
    bounds = Bounds(*(_number(bounds_block, k, f"{where}.position_bounds_m")
                      for k in _BOUNDS_KEYS))
    if bounds.x_min >= bounds.x_max or bounds.y_min >= bounds.y_max:
        raise ScenarioError(f"{where}.position_bounds_m: min must be below max on both axes")

    pose_block = _require_mapping(block["initial_pose"], f"{where}.initial_pose")
    _check_keys(pose_block, _POSE_KEYS, (), f"{where}.initial_pose")
    initial = VehicleState(*(_number(pose_block, k, f"{where}.initial_pose")
                             for k in _POSE_KEYS))

    raw_wps = block["waypoints_m"]
    if not isinstance(raw_wps, list) or not raw_wps:
        raise ScenarioError(f"{where}.waypoints_m: expected a non-empty list")
    try:
        waypoints = np.asarray(raw_wps, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}.waypoints_m: entries must be numeric triples") from exc
    if waypoints.ndim != 2 or waypoints.shape[1] != 3:
        raise ScenarioError(f"{where}.waypoints_m: each entry must be [x, y, heading_rad]")

    speed_kmh = _positive(block, "speed_kmh", where)
    steer_min_deg = _number(block, "steer_min_deg", where)
    steer_max_deg = _number(block, "steer_max_deg", where)
    spec = VehicleSpec(
        id=vid,
        wheelbase=_positive(block, "wheelbase_m", where),
        speed=speed_kmh * KMH_TO_MS,
        steer_min=steer_min_deg * DEG_TO_RAD,
        steer_max=steer_max_deg * DEG_TO_RAD,
        bounds=bounds,
        waypoints=waypoints,
        initial_state=initial,
        speed_kmh=speed_kmh,
        steer_min_deg=steer_min_deg,
        steer_max_deg=steer_max_deg,
    )
    spec.validate()
    return spec


def load_scenario(text: str) -> Scenario:
    """Parse a scenario document, validating schema, units and invariants.

    Raises ScenarioError naming the offending field on any violation.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    doc = _require_mapping(doc, "scenario")
    _check_keys(doc, ("global", "vehicles"), (), "scenario")

    g = _require_mapping(doc["global"], "global")
    _check_keys(g, _GLOBAL_REQUIRED, _GLOBAL_OPTIONAL, "global")

    raw_vehicles = doc["vehicles"]
    if not isinstance(raw_vehicles, list) or not raw_vehicles:
        raise ScenarioError("vehicles: scenario must define at least one vehicle")
    vehicles = tuple(_parse_vehicle(b, i) for i, b in enumerate(raw_vehicles))
    ids = [v.id for v in vehicles]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ScenarioError(f"vehicles: duplicate id(s) {dupes}")

    ts = _positive(g, "ts", "global")
    horizon = g["horizon_steps"]
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ScenarioError("global.horizon_steps: expected a positive integer")
    max_iters = g["max_iters"]
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise ScenarioError("global.max_iters: expected a positive integer")

    d_safe = _positive(g, "d_safe", "global")
    v_max = max(v.speed for v in vehicles)
    if "d_perc" in g:
        d_perc = _positive(g, "d_perc", "global")
    else:
        # sensing radius that lets two closing vehicles react a full horizon early
        d_perc = d_safe + 2.0 * v_max * horizon * ts
    if d_perc < d_safe:
        raise ScenarioError("global.d_perc: must be >= d_safe")

    config = ScenarioConfig(
        ts=ts,
        horizon_steps=horizon,
        d_safe=d_safe,
        d_perc=d_perc,
        q_weight=_positive(g, "q_weight", "global"),
        q_heading=_number(g, "q_heading", "global") if "q_heading" in g else 0.1,
        r_weight=_number(g, "r_weight", "global"),
        slack_penalty=_positive(g, "slack_penalty", "global") if "slack_penalty" in g else 1e4,
        rho0=_positive(g, "rho0", "global"),
        eps_abs=_positive(g, "eps_abs", "global"),
        eps_rel=_positive(g, "eps_rel", "global"),
        max_iters=max_iters,
        sim_duration=_positive(g, "sim_duration", "global"),
    )
    if config.q_heading < 0 or config.r_weight < 0:
        raise ScenarioError("global.q_heading/r_weight: must be non-negative")
    return Scenario(config=config, vehicles=vehicles)


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to YAML; load(dump(s)) reproduces s exactly."""
    cfg = scenario.config
    doc = {
        "global": {
            "ts": cfg.ts,
            "horizon_steps": cfg.horizon_steps,
            "d_safe": cfg.d_safe,
            "d_perc": cfg.d_perc,
            "q_weight": cfg.q_weight,
            "q_heading": cfg.q_heading,
            "r_weight": cfg.r_weight,
            "slack_penalty": cfg.slack_penalty,
            "rho0": cfg.rho0,
            "eps_abs": cfg.eps_abs,
            "eps_rel": cfg.eps_rel,
            "max_iters": cfg.max_iters,
            "sim_duration": cfg.sim_duration,
        },
        "vehicles": [
            {
                "id": v.id,
                "wheelbase_m": v.wheelbase,
                "speed_kmh": v.speed_kmh,
                "steer_min_deg": v.steer_min_deg,
                "steer_max_deg": v.steer_max_deg,
                "position_bounds_m": {
                    "x_min": v.bounds.x_min, "x_max": v.bounds.x_max,
                    "y_min": v.bounds.y_min, "y_max": v.bounds.y_max,
                },
                "initial_pose": {
                    "x_m": v.initial_state.rx,
                    "y_m": v.initial_state.ry,
                    "theta_rad": v.initial_state.theta,
                },
                "waypoints_m": [[float(x), float(y), float(th)] for x, y, th in v.waypoints],
            }
            for v in scenario.vehicles
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False)
