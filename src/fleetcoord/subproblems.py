"""Builders for the decomposed fleet QPs and the centralized baseline.

Each vehicle contributes a tracking problem over its own steering sequence;
each coupling edge contributes a joint problem over both endpoint copies with
linearized separation constraints.  The centralized baseline stacks the same
blocks into one QP, so both solution paths consume identical convexified
data.

Separation constraints are supporting halfspaces of the nonconvex disc
complement: with seed difference a = p_i0 - p_j0, the constraint

    2 a'(p_i - p_j) - |a|^2  >=  d_safe^2

implies |p_i - p_j| >= d_safe for any nonzero a, so the convexification only
ever shrinks the feasible set.  The halfspaces are softened with nonnegative
slack (heavily penalized) so a deeply violating seed still yields a feasible
subproblem; final slack is reported as a safety diagnostic.

The closed loop builds every cycle's problems for the whole fleet at once:
``make_local_problems`` forms H0, f0 and const0 for all N vehicles in one
batched product and selects the position-bound rows of all vehicles with one
mask, and ``make_edge_problems`` linearizes the separation of all E edges at
all Np steps in one pass over (E, Np), including the coincident-seed
fallback.  Each product is the per-vehicle function's own, issued as one
stacked ``matmul``, so the data equals that of ``make_local_problem`` and
``make_edge_problem`` bit for bit; those two stay as the reference
formulation.  The problems' arrays are views into the fleet arrays.

Inside ADMM, tracking problems are solved by ``solve_local`` in closed form.
Their Hessian H0 is fixed for the cycle and each iteration adds rho I and
changes the linear term, so one eigendecomposition H0 = V diag(d) V' (made by
``LocalProblem.eig`` on first use) turns every solve into
x = -V (V'f / (d + rho)).  Steering-bound violators are pinned and the free
block re-solved, as in ``qp``'s bound shortcut; a solve whose position rows
bind fails the KKT check and goes to ``solve_qp`` on ``build_local``, the
reference formulation.  ``LocalBatch`` makes the cycle's eigendecompositions
as one stacked ``eigh`` and answers every vehicle that pins nothing in one
stacked closed-form pass, bit for bit as ``solve_local`` would.

Edge problems are solved by ``solve_edge`` through their exact dual.  The edge objective is proximal in the steering copies, x = (u_i, u_j):

    min  rho/2 |x - v|^2 + c 1's   s.t.  G_u x - s <= h,  s >= 0,

with v = z - lam, so the dual is the box QP

    min  1/2 mu'(G_u G_u' / rho) mu - (G_u v - h)'mu   s.t.  0 <= mu <= c,

and x = v - G_u'mu / rho.  ``EdgeProblem`` forms G_u G_u' from its G on
first use, once per cycle; each ADMM iteration only changes the linear term,
and rho enters as a scalar.  Rows of G_u that are identically zero (the
step-1 separation, which no steering input can move) get their multiplier
and slack in closed form.  ``EdgeBatch`` answers, in one stacked pass, every
edge whose coupled rows are all inactive (q = rho (G_c v - h_c) <= 0, where
mu_c = 0 and x = v), bit for bit as ``solve_edge`` would; the rest go to
``solve_edge``.
``build_edge`` stays the primal reference formulation of the same QP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import STATE_DIM, CondensedPrediction, FleetPrediction
from .errors import DegenerateSeedError, ParameterError
from .qp import _EIG_FLOOR, MAX_ITER, OPTIMAL, DenseQp, QpSolution, solve_qp
from .scenario import VehicleSpec

_COINCIDENT_TOL = 1e-9
_NODE_OPTIMAL_KKT = 1e-8     # solve_local/solve_edge report optimal only at or below this
_PRIMAL_TOL = 1e-10          # solve_local's closed form accepts this much row/bound violation
_ACTIVE_SET_MAX_ITERS = 50


@dataclass(frozen=True)
class CostWeights:
    """Tracking weights: position / heading deviation and steering effort."""

    q_pos: float = 1.0
    q_heading: float = 0.1
    r_steer: float = 0.1
    slack_penalty: float = 1e4


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Constraint 2 a'(p_i - p_j) >= rhs with rhs = |a|^2 + d_safe^2."""

    a: np.ndarray
    rhs: float

    def margin(self, p_i, p_j) -> float:
        """Nonnegative iff the pair satisfies the linearized constraint."""
        return float(2.0 * self.a @ (np.asarray(p_i) - np.asarray(p_j)) - self.rhs)


def linearize_collision(p_i0, p_j0, d_safe: float) -> Halfspace:
    """Supporting halfspace of the separation constraint at the seed pair."""
    a = np.asarray(p_i0, dtype=float) - np.asarray(p_j0, dtype=float)
    norm_sq = float(a @ a)
    if norm_sq < _COINCIDENT_TOL ** 2:
        raise DegenerateSeedError("seed positions coincide; halfspace undefined")
    return Halfspace(a=a, rhs=norm_sq + d_safe ** 2)


@dataclass(eq=False)
class LocalProblem:
    """Per-vehicle tracking data with precomputed quadratic blocks.

    H0/f0/const0 define the tracking-plus-effort cost
    (Phi u + gamma - ref)' W (Phi u + gamma - ref) + R |u|^2  as
    0.5 u'H0 u + f0'u + const0; G/h carry the position-bound rows mapped
    through the condensed prediction.
    """

    vehicle_id: int
    condensed: CondensedPrediction
    reference_stacked: np.ndarray
    weights: CostWeights
    edge_count: int
    steer_lb: np.ndarray
    steer_ub: np.ndarray
    H0: np.ndarray = field(repr=False, default=None)
    f0: np.ndarray = field(repr=False, default=None)
    const0: float = 0.0
    G: np.ndarray = field(repr=False, default=None)
    h: np.ndarray = field(repr=False, default=None)
    _eig: tuple | None = field(init=False, repr=False, default=None)

    @property
    def horizon(self) -> int:
        return self.condensed.horizon

    def eig(self) -> tuple:
        """(d, V, H0s) with H0s = (H0 + H0')/2 = V diag(d) V', d ascending.

        Computed on first use and kept, so a cycle's ADMM iterations share one
        decomposition and the centralized path never pays for it; a
        ``LocalBatch`` fills it for the whole fleet at once.
        """
        if self._eig is None:
            H0s = 0.5 * (self.H0 + self.H0.T)
            d, V = np.linalg.eigh(H0s)
            self._eig = (d, V, H0s)
        return self._eig


def make_local_problem(spec: VehicleSpec, condensed: CondensedPrediction,
                       reference_stacked: np.ndarray, weights: CostWeights,
                       edge_count: int = 0, x0=None, ts: float | None = None) -> LocalProblem:
    """Assemble a vehicle's tracking problem from its convexified prediction.

    When ``x0`` (current rear-axle position) and ``ts`` are given,
    position-bound rows that provably cannot activate within the horizon
    (the bound line is farther than twice the reachable radius, plus margin)
    are dropped.
    """
    np_steps = condensed.horizon
    ref = np.asarray(reference_stacked, dtype=float).reshape(STATE_DIM * np_steps)
    if weights.q_pos <= 0 and weights.q_heading <= 0 and weights.r_steer <= 0:
        raise ParameterError("cost must be nontrivial: some weight must be positive")

    wvec = np.tile([weights.q_pos, weights.q_pos, weights.q_heading], np_steps)
    Phi, gamma = condensed.Phi, condensed.gamma
    WPhi = wvec[:, None] * Phi
    H0 = 2.0 * (Phi.T @ WPhi + weights.r_steer * np.eye(np_steps))
    resid = gamma - ref
    f0 = 2.0 * (WPhi.T @ resid)
    const0 = float(resid @ (wvec * resid))

    radius = None
    if x0 is not None and ts is not None:
        x0 = np.asarray(x0, dtype=float)
        radius = 2.0 * spec.speed * np_steps * ts + 5.0

    rows, rhs = [], []
    b = spec.bounds
    limits = ((0, b.x_min, b.x_max), (1, b.y_min, b.y_max))
    for k in range(1, np_steps + 1):
        P, q = condensed.position_block(k)
        for coord, lo, hi in limits:
            if np.isfinite(hi):
                if radius is None or abs(hi - x0[coord]) <= radius:
                    _append_row(rows, rhs, P[coord], hi - q[coord])
            if np.isfinite(lo):
                if radius is None or abs(x0[coord] - lo) <= radius:
                    _append_row(rows, rhs, -P[coord], q[coord] - lo)

    G = np.array(rows) if rows else np.zeros((0, np_steps))
    h = np.array(rhs) if rhs else np.zeros(0)
    return LocalProblem(
        vehicle_id=spec.id, condensed=condensed, reference_stacked=ref,
        weights=weights, edge_count=edge_count,
        steer_lb=np.full(np_steps, spec.steer_min),
        steer_ub=np.full(np_steps, spec.steer_max),
        H0=H0, f0=f0, const0=const0, G=G, h=h)


def _append_row(rows, rhs, coeffs, bound) -> None:
    if float(np.max(np.abs(coeffs))) < 1e-14 and bound >= -1e-9:
        return  # zero row, trivially satisfiable
    rows.append(np.array(coeffs))
    rhs.append(float(bound))


def make_local_problems(specs, prediction: FleetPrediction, references, weights: CostWeights,
                        edge_counts=None, x0=None, ts: float | None = None) -> dict:
    """``make_local_problem`` for N vehicles at once, keyed by vehicle id.

    Row n of ``prediction``, ``references`` (N, 3*Np), ``edge_counts`` (N,)
    and ``x0`` (N, 2) belongs to ``specs[n]``.  H0, f0 and const0 come from
    one batched product over the fleet, and the position-bound rows are
    selected by one mask with the same order, pruning radius and zero-row
    rule as ``make_local_problem``.  Each problem's arrays are views into
    the fleet arrays.
    """
    Phi, gamma = prediction.Phi, prediction.gamma
    n, _, np_steps = Phi.shape
    ref = np.asarray(references, dtype=float).reshape(n, STATE_DIM * np_steps)
    if weights.q_pos <= 0 and weights.q_heading <= 0 and weights.r_steer <= 0:
        raise ParameterError("cost must be nontrivial: some weight must be positive")
    counts = np.zeros(n, dtype=int) if edge_counts is None else np.asarray(edge_counts)

    wvec = np.tile([weights.q_pos, weights.q_pos, weights.q_heading], np_steps)
    WPhi = wvec[:, None] * Phi
    H0 = 2.0 * (np.matmul(Phi.transpose(0, 2, 1), WPhi) + weights.r_steer * np.eye(np_steps))
    resid = gamma - ref
    f0 = 2.0 * np.matmul(WPhi.transpose(0, 2, 1), resid[:, :, None])[:, :, 0]
    const0 = np.matmul(resid[:, None, :], (wvec * resid)[:, :, None])[:, 0, 0]

    # candidate rows per step k, in the per-vehicle order: x <= hi, x >= lo,
    # y <= hi, y >= lo; a lower-bound row is the negated upper-bound row
    lim = np.array([[s.bounds.x_max, s.bounds.x_min, s.bounds.y_max, s.bounds.y_min]
                    for s in specs], dtype=float).reshape(n, 4)
    coord = np.array([0, 0, 1, 1])
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    P = Phi.reshape(n, np_steps, STATE_DIM, np_steps)[:, :, :2]     # (N, Np, 2, Np)
    q = gamma.reshape(n, np_steps, STATE_DIM)[:, :, :2]             # (N, Np, 2)
    q4 = q[:, :, coord]
    rhs = np.where(sign > 0, lim[:, None, :] - q4, q4 - lim[:, None, :])
    keep = np.broadcast_to(np.isfinite(lim)[:, None, :], rhs.shape)
    if x0 is not None and ts is not None:
        speed = np.array([spec.speed for spec in specs], dtype=float)
        radius = 2.0 * speed * np_steps * ts + 5.0
        x0 = np.asarray(x0, dtype=float).reshape(n, -1)[:, coord]
        dist = np.abs(np.where(sign > 0, lim - x0, x0 - lim))
        keep = keep & (dist <= radius[:, None])[:, None, :]
    zero = (np.max(np.abs(P), axis=3)[:, :, coord] < 1e-14) & (rhs >= -1e-9)
    keep = keep & ~zero        # zero rows that hold trivially are dropped
    veh, step, cand = np.nonzero(keep)
    G_all = sign[cand, None] * P[veh, step, coord[cand]]
    h_all = rhs[veh, step, cand]
    ends = np.cumsum(np.count_nonzero(keep.reshape(n, -1), axis=1))

    lb = np.repeat(np.array([spec.steer_min for spec in specs], dtype=float)[:, None],
                   np_steps, axis=1)
    ub = np.repeat(np.array([spec.steer_max for spec in specs], dtype=float)[:, None],
                   np_steps, axis=1)
    condensed = prediction.vehicles
    problems = {}
    start = 0
    for i, spec in enumerate(specs):
        end = int(ends[i])
        problems[spec.id] = LocalProblem(
            vehicle_id=spec.id, condensed=condensed[i], reference_stacked=ref[i],
            weights=weights, edge_count=int(counts[i]), steer_lb=lb[i], steer_ub=ub[i],
            H0=H0[i], f0=f0[i], const0=float(const0[i]), G=G_all[start:end],
            h=h_all[start:end])
        start = end
    return problems


def build_local(problem: LocalProblem, z: np.ndarray, lam: np.ndarray, rho: float) -> DenseQp:
    """Tracking QP plus the consensus proximal term (0.5 rho |u - z + lam|^2)."""
    if rho <= 0:
        raise ParameterError("rho must be positive")
    np_steps = problem.horizon
    z = np.asarray(z, dtype=float).reshape(np_steps)
    lam = np.asarray(lam, dtype=float).reshape(np_steps)
    H = problem.H0 + rho * np.eye(np_steps)
    f = problem.f0 + rho * (lam - z)
    return DenseQp(H=H, f=f, G=problem.G, h=problem.h,
                   lb=problem.steer_lb, ub=problem.steer_ub)


def solve_local(problem: LocalProblem, z, lam, rho: float,
                warm: QpSolution | None = None) -> QpSolution:
    """Solution of ``build_local(problem, z, lam, rho)`` in closed form.

    With H0s = V diag(d) V' from ``problem.eig()``, the unconstrained
    minimizer is x = -V (V'f / (d + rho)).  Steering-bound violators are
    pinned and the free block is solved once more, as in ``qp``'s bound
    shortcut; the multipliers are [0, w, y] in the layout of ``solve_qp``.
    status is ``optimal`` when the position rows and bounds hold to 1e-10 and
    the KKT residual, as ``kkt_residual`` defines it for the built QP, is at
    most 1e-8.  Otherwise (a position row binds, or H0 + rho I is too close
    to singular) the built QP goes to ``solve_qp``, warm started from
    ``warm``, and ``fallback`` is set.
    """
    if rho <= 0:
        raise ParameterError("rho must be positive")
    np_steps = problem.horizon
    z = np.asarray(z, dtype=float).reshape(np_steps)
    lam = np.asarray(lam, dtype=float).reshape(np_steps)
    f = problem.f0 + rho * (lam - z)
    d, V, H0s = problem.eig()
    shift = d + rho
    if shift[0] > _EIG_FLOOR:
        solved = _local_closed_form(problem, H0s, V, shift, f, rho)
        if solved is not None:
            x, grad, mult, kkt = solved
            return QpSolution(u_star=x, objective=float(0.5 * x @ (grad + f)),
                              status=OPTIMAL, kkt_residual=kkt, multipliers=mult)
    sol = solve_qp(build_local(problem, z, lam, rho),
                   warm_start=None if warm is None else warm.u_star,
                   warm_multipliers=None if warm is None else warm.multipliers)
    sol.fallback = True
    return sol


def _local_closed_form(problem: LocalProblem, H0s, V, shift, f, rho):
    """(x, grad, multipliers, kkt) of the bound-pinning guess, or None if not optimal."""
    x = -(V @ ((V.T @ f) / shift))
    lb, ub = problem.steer_lb, problem.steer_ub
    at_lo = x < lb
    at_hi = x > ub
    pinned = at_lo | at_hi
    if pinned.any():
        x = np.where(at_lo, lb, np.where(at_hi, ub, x))
        free = ~pinned
        if free.any():
            H_ff = H0s[np.ix_(free, free)] + rho * np.eye(int(free.sum()))
            rhs = f[free] + H0s[np.ix_(free, pinned)] @ x[pinned]
            try:
                x[free] = -np.linalg.solve(H_ff, rhs)
            except np.linalg.LinAlgError:
                return None
    grad = H0s @ x + rho * x + f
    w = np.where(at_lo, np.maximum(grad, 0.0), 0.0)
    y = np.where(at_hi, np.maximum(-grad, 0.0), 0.0)

    # kkt_residual(build_local(...), x, [0, w, y]); the terms of the zero row
    # multipliers (-z and z * row) are zero and drop out
    lo = np.isfinite(lb)
    hi = np.isfinite(ub)
    gap_lo = lb[lo] - x[lo]
    gap_hi = x[hi] - ub[hi]
    viol = np.concatenate([problem.G @ x - problem.h, gap_lo, gap_hi])
    kkt = max(float(np.max(np.concatenate([
        np.abs(grad - w + y), viol, -w[lo], np.abs(w[lo] * gap_lo),
        -y[hi], np.abs(y[hi] * gap_hi)]))), 0.0)
    if not kkt <= _NODE_OPTIMAL_KKT or float(np.max(viol, initial=0.0)) > _PRIMAL_TOL:
        return None
    mult = np.concatenate([np.zeros(problem.G.shape[0]), w, y])
    return x, grad, mult, kkt


def _groups(keys) -> list:
    """Row indices grouped by equal key, in first-seen order of the keys."""
    groups: dict = {}
    for n, key in enumerate(keys):
        groups.setdefault(key, []).append(n)
    return [(key, np.array(rows)) for key, rows in groups.items()]


class LocalBatch:
    """N tracking problems stacked for one closed-form pass per ADMM iteration.

    Construction makes one ``eigh`` over the (N, Np, Np) stack of
    H0s = (H0 + H0')/2 and fills every problem's ``eig()`` with its slice, so
    ``solve_local`` shares the decomposition.  ``solve`` is
    ``_local_closed_form`` for every vehicle at once, restricted to the case
    that pins nothing: each product is ``_local_closed_form``'s own, issued as
    one stacked ``matmul`` (position rows grouped by their count), so an
    answered row equals ``solve_local``'s bit for bit.
    """

    def __init__(self, problems):
        H0 = np.stack([p.H0 for p in problems])
        self.H0s = 0.5 * (H0 + H0.transpose(0, 2, 1))
        self.d, self.V = np.linalg.eigh(self.H0s)
        for n, p in enumerate(problems):
            p._eig = (self.d[n], self.V[n], self.H0s[n])
        self.f0 = np.stack([p.f0 for p in problems])
        self.lb = np.stack([p.steer_lb for p in problems])
        self.ub = np.stack([p.steer_ub for p in problems])
        self.rows = [(idx, np.stack([problems[n].G for n in idx]),
                      np.stack([problems[n].h for n in idx]))
                     for m, idx in _groups(p.G.shape[0] for p in problems) if m]

    def solve(self, z, lam, rho: float):
        """(x, kkt, done) for rows z, lam (N, Np); ``done`` marks the rows answered.

        A row is answered when d0 + rho > _EIG_FLOOR, the unconstrained
        minimizer pins no steering bound, its position rows hold to 1e-10 and
        the KKT residual is at most 1e-8; its multipliers are then all zero.
        Every other row is left to ``solve_local``.
        """
        f = self.f0 + rho * (lam - z)
        shift = self.d + rho
        y = np.matmul(self.V.transpose(0, 2, 1), f[:, :, None]) / shift[:, :, None]
        x = -np.matmul(self.V, y)[:, :, 0]
        grad = np.matmul(self.H0s, x[:, :, None])[:, :, 0] + rho * x + f
        row_max = np.full(len(x), -np.inf)
        for idx, G, h in self.rows:
            row_max[idx] = np.max(np.matmul(G, x[idx][:, :, None])[:, :, 0] - h, axis=1)
        # unpinned, the bound gaps are <= 0 and w = y = 0: the KKT residual is
        # the largest of |grad|, the row violations and 0
        kkt = np.maximum(np.maximum(np.max(np.abs(grad), axis=1), row_max), 0.0)
        pinned = np.any((x < self.lb) | (x > self.ub), axis=1)
        done = ((shift[:, 0] > _EIG_FLOOR) & ~pinned & (kkt <= _NODE_OPTIMAL_KKT)
                & (row_max <= _PRIMAL_TOL))
        return x, kkt, done


def tracking_objective(problem: LocalProblem, u: np.ndarray) -> float:
    """Tracking-plus-effort cost of one vehicle at steering sequence u."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * u @ problem.H0 @ u + problem.f0 @ u + problem.const0)


def fleet_objective(local_problems: dict, controls: dict) -> float:
    """Convexified fleet cost (sum of tracking terms) at the given controls."""
    return sum(tracking_objective(local_problems[v], controls[v])
               for v in sorted(local_problems))


@dataclass(eq=False)
class EdgeProblem:
    """Joint separation problem for one coupled pair over (u_i, u_j, slack).

    Step k's separation halfspace is 2 normals[k]'(p_i - p_j) >= rhs[k];
    ``halfspaces`` builds the Halfspace objects on access.
    """

    edge: tuple[int, int]
    condensed_i: CondensedPrediction
    condensed_j: CondensedPrediction
    seed_pos_i: np.ndarray       # (Np, 2) seed positions, prediction steps 1..Np
    seed_pos_j: np.ndarray
    d_safe: float
    slack_penalty: float
    normals: np.ndarray = field(repr=False, default=None)     # (Np, 2)
    rhs: np.ndarray = field(repr=False, default=None)         # (Np,)
    G: np.ndarray = field(repr=False, default=None)
    h: np.ndarray = field(repr=False, default=None)

    # dual data for solve_edge, derived from G on first use and kept (a
    # copy made by dataclasses.replace derives it again from its own G)
    @cached_property
    def G_u(self) -> np.ndarray:
        """Steering block G[:, :2Np]."""
        return np.ascontiguousarray(self.G[:, :2 * self.horizon])

    @cached_property
    def fixed_rows(self) -> np.ndarray:
        """Rows whose steering block is zero."""
        return np.flatnonzero(np.max(np.abs(self.G_u), axis=1) == 0.0)

    @cached_property
    def coupled_rows(self) -> np.ndarray:
        """All other rows."""
        return np.flatnonzero(np.max(np.abs(self.G_u), axis=1) != 0.0)

    @cached_property
    def G_c(self) -> np.ndarray:
        return self.G_u[self.coupled_rows]

    @cached_property
    def M(self) -> np.ndarray:
        """G_c G_c', the dual Hessian times rho."""
        return self.G_c @ self.G_c.T

    @property
    def horizon(self) -> int:
        return self.condensed_i.horizon

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        return tuple(Halfspace(a=a, rhs=float(r)) for a, r in zip(self.normals, self.rhs))


def _fallback_unit(fallback_dir) -> np.ndarray:
    if fallback_dir is None:
        return np.array([1.0, 0.0])
    fallback = np.asarray(fallback_dir, dtype=float)
    nrm = float(np.hypot(*fallback))
    return fallback / nrm if nrm > _COINCIDENT_TOL else np.array([1.0, 0.0])


def make_edge_problem(edge: tuple[int, int], condensed_i: CondensedPrediction,
                      condensed_j: CondensedPrediction, seed_pos_i, seed_pos_j,
                      d_safe: float, slack_penalty: float = 1e4,
                      fallback_dir=None) -> EdgeProblem:
    """Linearize the per-step separation constraints at the seed pair.

    Coincident seed positions at a step are recovered deterministically by
    substituting ``fallback_dir`` (the unit vector between the vehicles'
    current positions, or the x-axis) for the seed difference.
    """
    np_steps = condensed_i.horizon
    seed_pos_i = np.asarray(seed_pos_i, dtype=float).reshape(np_steps, 2)
    seed_pos_j = np.asarray(seed_pos_j, dtype=float).reshape(np_steps, 2)
    fallback = _fallback_unit(fallback_dir)

    halfspaces = []
    n = 3 * np_steps
    G = np.zeros((np_steps, n))
    h = np.zeros(np_steps)
    for k in range(np_steps):
        try:
            hs = linearize_collision(seed_pos_i[k], seed_pos_j[k], d_safe)
        except DegenerateSeedError:
            hs = Halfspace(a=fallback.copy(), rhs=1.0 + d_safe ** 2)
        halfspaces.append(hs)
        P_i, q_i = condensed_i.position_block(k + 1)
        P_j, q_j = condensed_j.position_block(k + 1)
        # 2a'(p_i - p_j) + s_k >= rhs  ->  -2a'P_i u_i + 2a'P_j u_j - s_k <= 2a'(q_i-q_j) - rhs
        G[k, :np_steps] = -2.0 * hs.a @ P_i
        G[k, np_steps:2 * np_steps] = 2.0 * hs.a @ P_j
        G[k, 2 * np_steps + k] = -1.0
        h[k] = float(2.0 * hs.a @ (q_i - q_j)) - hs.rhs

    return EdgeProblem(edge=tuple(edge), condensed_i=condensed_i, condensed_j=condensed_j,
                       seed_pos_i=seed_pos_i, seed_pos_j=seed_pos_j, d_safe=d_safe,
                       slack_penalty=slack_penalty,
                       normals=np.array([hs.a for hs in halfspaces]).reshape(np_steps, 2),
                       rhs=np.array([hs.rhs for hs in halfspaces]), G=G, h=h)


def make_edge_problems(edges, pairs, prediction: FleetPrediction, seed_positions,
                       d_safe: float, slack_penalty: float = 1e4,
                       fallback_dirs=None) -> dict:
    """``make_edge_problem`` for E edges at once, keyed by edge.

    ``pairs`` (E, 2) holds the fleet rows of each edge's endpoints in
    ``prediction`` and ``seed_positions`` (N, Np, 2); ``fallback_dirs``
    (E, 2), one per edge, replaces the seed difference wherever the seeds
    coincide, as in ``make_edge_problem``.  G and h come from one pass over
    (E, Np); each problem's arrays are views into the fleet arrays.
    """
    edges = [tuple(e) for e in edges]
    Phi = prediction.Phi
    np_steps = Phi.shape[2]
    n_edges = len(edges)
    pairs = np.asarray(pairs, dtype=int).reshape(n_edges, 2)
    ii, jj = pairs[:, 0], pairs[:, 1]
    seed = np.asarray(seed_positions, dtype=float)
    # every product below is make_edge_problem's own, issued as one stacked
    # matmul, so the data equals make_edge_problem's bit for bit
    a = seed[ii] - seed[jj]                                    # (E, Np, 2)
    norm_sq = np.matmul(a[:, :, None, :], a[:, :, :, None])[:, :, 0, 0]
    coincident = norm_sq < _COINCIDENT_TOL ** 2
    rhs = norm_sq + d_safe ** 2
    if coincident.any():
        fallback = np.array([_fallback_unit(None if fallback_dirs is None else fallback_dirs[e])
                             for e in range(n_edges)]).reshape(n_edges, 2)
        a = np.where(coincident[:, :, None], fallback[:, None, :], a)
        rhs = np.where(coincident, 1.0 + d_safe ** 2, rhs)

    # position rows of step k: P (.., 2, Np) and q (.., 2), as position_block(k)
    P = Phi.reshape(len(Phi), np_steps, STATE_DIM, np_steps)[:, :, :2]
    q = prediction.gamma.reshape(len(Phi), np_steps, STATE_DIM)[:, :, :2]
    two_a = (2.0 * a)[:, :, None, :]
    G = np.zeros((n_edges, np_steps, 3 * np_steps))
    G[:, :, :np_steps] = np.matmul(-2.0 * a[:, :, None, :], P[ii])[:, :, 0]
    G[:, :, np_steps:2 * np_steps] = np.matmul(two_a, P[jj])[:, :, 0]
    G[:, np.arange(np_steps), 2 * np_steps + np.arange(np_steps)] = -1.0
    h = np.matmul(two_a, (q[ii] - q[jj])[:, :, :, None])[:, :, 0, 0] - rhs

    condensed = prediction.vehicles
    return {edge: EdgeProblem(edge=edge, condensed_i=condensed[i], condensed_j=condensed[j],
                              seed_pos_i=seed[i], seed_pos_j=seed[j], d_safe=d_safe,
                              slack_penalty=slack_penalty, normals=a[e], rhs=rhs[e],
                              G=G[e], h=h[e])
            for e, (edge, i, j) in enumerate(zip(edges, ii, jj))}


def build_edge(problem: EdgeProblem, z_i, z_j, lam_i, lam_j, rho: float) -> DenseQp:
    """Edge QP: proximal terms for both endpoint copies plus slack penalty."""
    if rho <= 0:
        raise ParameterError("rho must be positive")
    np_steps = problem.horizon
    n = 3 * np_steps
    Hd = np.concatenate([np.full(2 * np_steps, rho), np.zeros(np_steps)])
    f = np.concatenate([
        rho * (np.asarray(lam_i, dtype=float) - np.asarray(z_i, dtype=float)),
        rho * (np.asarray(lam_j, dtype=float) - np.asarray(z_j, dtype=float)),
        np.full(np_steps, problem.slack_penalty),
    ])
    lb = np.concatenate([np.full(2 * np_steps, -np.inf), np.zeros(np_steps)])
    return DenseQp(H=np.diag(Hd), f=f, G=problem.G, h=problem.h, lb=lb, ub=None)


def solve_edge(problem: EdgeProblem, z_i, z_j, lam_i, lam_j, rho: float,
               warm_mu=None) -> QpSolution:
    """Exact solution of ``build_edge(problem, ...)`` through its dual box QP.

    ``warm_mu`` (the row multipliers of an earlier solve, any length-Np
    vector) seeds the active-set guess.  The solution uses the layout of
    ``solve_qp`` on the primal: u_star = [u_i, u_j, s] and multipliers
    [mu, w, y] with w = c - mu on the slacks and zero elsewhere.  status is
    ``optimal`` when the primal KKT residual, as ``kkt_residual`` defines it,
    is at most 1e-8.  ``fallback`` is set when the active-set method failed
    and the dual was handed to ``solve_qp``; ``iterations`` and ``path``
    then give the interior-point iterations and the ``solve_qp`` path that
    solve of the dual took.
    """
    if rho <= 0:
        raise ParameterError("rho must be positive")
    np_steps = problem.horizon
    c = problem.slack_penalty
    h = problem.h
    v = np.concatenate([np.asarray(z_i, dtype=float) - np.asarray(lam_i, dtype=float),
                        np.asarray(z_j, dtype=float) - np.asarray(lam_j, dtype=float)])

    mu = np.zeros(np_steps)
    fixed = problem.fixed_rows
    mu[fixed] = np.where(h[fixed] < 0.0, c, 0.0)
    rows = problem.coupled_rows
    # rho times the dual: min 1/2 mu'M mu - rho b'mu, so rho stays a scalar
    q = rho * (problem.G_c @ v - h[rows])
    start = None if warm_mu is None else np.asarray(warm_mu, dtype=float)[rows]
    mu_c = _box_active_set(problem.M, q, c, start)
    fallback = mu_c is None
    ipm_iters, dual_path = 0, None
    if fallback:
        dual = solve_qp(DenseQp(H=problem.M, f=-q, lb=np.zeros(len(rows)),
                                ub=np.full(len(rows), c)))
        ipm_iters, dual_path = dual.iterations, dual.path
        # a projected-gradient step from the interior-point answer names the
        # active sets; an exact solve on them removes its last digits of error
        mu_ip = np.clip(dual.u_star, 0.0, c)
        mu_c = _box_active_set(problem.M, q, c,
                               mu_ip - (problem.M @ mu_ip - q) / np.diag(problem.M))
        if mu_c is None:
            mu_c = mu_ip
    mu[rows] = mu_c

    x = v - (problem.G_c.T @ mu_c) / rho
    # slack only where its penalty binds (mu = c): elsewhere complementarity
    # with w = c - mu > 0 requires s = 0, and rounding must not leak into s
    s = np.where(mu >= c, np.maximum(problem.G_u @ x - h, 0.0), 0.0)
    w_s = c - mu
    f_x = -rho * v
    kkt = _edge_kkt(problem, rho, f_x, x, s, mu, w_s)
    objective = float(0.5 * rho * (x @ x) + f_x @ x + c * np.sum(s))
    mult = np.concatenate([mu, np.zeros(2 * np_steps), w_s, np.zeros(3 * np_steps)])
    return QpSolution(u_star=np.concatenate([x, s]), objective=objective,
                      status=OPTIMAL if kkt <= _NODE_OPTIMAL_KKT else MAX_ITER,
                      kkt_residual=kkt, multipliers=mult, iterations=ipm_iters,
                      fallback=fallback, path=dual_path)


def _edge_kkt(problem: EdgeProblem, rho, f_x, x, s, mu, w_s) -> float:
    """``kkt_residual(build_edge(...), [x, s], mult)`` without forming the QP."""
    c = problem.slack_penalty
    stat_x = rho * x + f_x + problem.G_u.T @ mu
    stat_s = c - mu - w_s
    row = problem.G_u @ x - s - problem.h
    return max(float(np.max(np.concatenate([
        np.abs(stat_x), np.abs(stat_s), row, -mu, np.abs(mu * row),
        -s, -w_s, np.abs(w_s * s)]))), 0.0)


class EdgeBatch:
    """E edge problems stacked to answer their inactive case in one pass per iteration.

    Construction stacks G_u, h and the slack penalties and finds every edge's
    fixed rows, with the coupled rows' G_c grouped by the fixed-row pattern.
    ``solve`` screens all edges with one stacked q = rho (G_c v - h_c).  When
    q <= 0 on every coupled row and no warm multiplier on a coupled row is
    nonzero, ``_box_active_set`` returns mu_c = 0 on its first guess, so
    ``solve_edge``'s answer is x = v with the fixed rows' multipliers and
    slacks in closed form; M, the active set and G_u' mu (zero: mu is nonzero
    only on rows whose G_u row is zero) are skipped.  Each product is
    ``solve_edge``'s own, issued as one stacked ``matmul``, so an answered
    row equals ``solve_edge``'s bit for bit.
    """

    def __init__(self, problems, np_steps: int):
        G = np.array([p.G for p in problems], dtype=float).reshape(-1, np_steps, 3 * np_steps)
        self.G_u = np.ascontiguousarray(G[:, :, :2 * np_steps])
        self.h = np.array([p.h for p in problems], dtype=float).reshape(-1, np_steps)
        self.c = np.array([p.slack_penalty for p in problems], dtype=float)
        self.fixed = np.max(np.abs(self.G_u), axis=2) == 0.0
        self.mu_fixed = np.where(self.fixed & (self.h < 0.0), self.c[:, None], 0.0)
        self.coupled = []
        for _, idx in _groups(row.tobytes() for row in self.fixed):
            rows = ~self.fixed[idx[0]]
            self.coupled.append((idx, self.G_u[idx][:, rows], self.h[idx][:, rows]))

    def solve(self, v, rho: float, warm_mu=None):
        """(x, s, mu, kkt, done) for the rows v = z - lam (E, 2Np) of all edges.

        ``warm_mu`` (E, Np) holds each edge's last row multipliers, or None.
        ``done`` marks the edges answered here; ``solve_edge`` answers the rest.
        """
        inactive = np.ones(len(v), dtype=bool)
        for idx, G_c, h_c in self.coupled:
            q = rho * (np.matmul(G_c, v[idx][:, :, None])[:, :, 0] - h_c)
            inactive[idx] = np.all(q <= 0.0, axis=1)
        if warm_mu is not None:
            inactive &= np.all((warm_mu == 0.0) | self.fixed, axis=1)
        c = self.c[:, None]
        mu = self.mu_fixed.copy()
        x = v
        G_ux = np.matmul(self.G_u, x[:, :, None])[:, :, 0]
        s = np.where(mu >= c, np.maximum(G_ux - self.h, 0.0), 0.0)
        w_s = c - mu
        # _edge_kkt's terms, with G_u' mu = 0
        row = G_ux - s - self.h
        kkt = np.maximum(np.max(np.concatenate([
            np.abs(rho * x + -rho * v), np.abs(c - mu - w_s), row, -mu, np.abs(mu * row),
            -s, -w_s, np.abs(w_s * s)], axis=1), axis=1), 0.0)
        done = (inactive & np.all(np.isfinite(v), axis=1) & (self.c > 0.0)
                & (kkt <= _NODE_OPTIMAL_KKT))
        return x, s, mu, kkt, done


def _box_active_set(M, q, c, start=None):
    """Primal-dual active set for min 1/2 mu'M mu - q'mu over 0 <= mu <= c.

    The first guess takes the bounds ``start`` sits on (a warm start's sets
    usually still hold); cold, it is the coordinate-wise minimizer q / diag(M).
    Each step pins the guessed bounds, solves the free block exactly and
    guesses again from mu - g / diag(M), g = M mu - q; the method stops when
    the guess reproduces the current sets, which is the KKT condition of the
    box QP.  Returns None on a repeated set pair (a cycle) or at the
    iteration cap.
    """
    n = len(q)
    if n == 0:
        return np.zeros(0)
    d = np.diag(M)
    trial = q / d if start is None else np.asarray(start, dtype=float)
    seen = set()
    key = None
    for _ in range(_ACTIVE_SET_MAX_ITERS):
        at_hi = trial >= c
        free = (trial > 0.0) & ~at_hi
        prev, key = key, (at_hi.tobytes(), free.tobytes())
        if key == prev:
            return mu
        if key in seen:
            return None
        seen.add(key)
        mu = np.where(at_hi, c, 0.0)
        if free.any():
            rhs = q[free]
            if at_hi.any():
                rhs = rhs - c * M[np.ix_(free, at_hi)].sum(axis=1)
            M_ff = M[np.ix_(free, free)]
            try:
                mu[free] = np.linalg.solve(M_ff, rhs)
            except np.linalg.LinAlgError:
                mu[free] = _singular_block(M_ff, rhs, c)
        trial = mu - (M @ mu - q) / d
    return None


def _singular_block(M_ff, rhs, c):
    """Free-block step when its rows are dependent (M_ff singular).

    Takes the least-squares solution.  If the block is inconsistent, the
    residual r = M_ff mu - rhs lies in the null space of M_ff, so along -r
    the objective falls linearly; the step follows -r until the first
    coordinate reaches 0 or c, and the next guess pins that coordinate.
    """
    mu = np.linalg.lstsq(M_ff, rhs, rcond=None)[0]
    d = rhs - M_ff @ mu
    if np.max(np.abs(d)) <= 1e-12 * (1.0 + np.max(np.abs(rhs))):
        return mu
    moving = d != 0.0
    room = np.where(d[moving] > 0.0, c - mu[moving], -mu[moving]) / d[moving]
    return np.clip(mu + max(float(np.min(room)), 0.0) * d, 0.0, c)


@dataclass(eq=False)
class CentralizedQp:
    """Single fleet QP over concatenated controls plus per-edge slacks."""

    qp: DenseQp
    vehicle_ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    np_steps: int
    const_total: float

    @property
    def n_controls(self) -> int:
        return len(self.vehicle_ids) * self.np_steps

    def controls(self, u_full: np.ndarray) -> dict:
        out = {}
        for idx, vid in enumerate(self.vehicle_ids):
            out[vid] = np.asarray(u_full[idx * self.np_steps:(idx + 1) * self.np_steps],
                                  dtype=float).copy()
        return out

    def slacks(self, u_full: np.ndarray) -> dict:
        base = self.n_controls
        return {e: np.asarray(u_full[base + k * self.np_steps:
                                     base + (k + 1) * self.np_steps], dtype=float).copy()
                for k, e in enumerate(self.edges)}

    def objective_value(self, u_full: np.ndarray) -> float:
        return self.qp.objective(u_full) + self.const_total


def build_centralized(local_problems: dict, edge_problems: dict) -> CentralizedQp:
    """Stack all tracking blocks and softened edge constraints into one QP."""
    vids = tuple(sorted(local_problems))
    edges = tuple(sorted(edge_problems))
    np_steps = local_problems[vids[0]].horizon
    n_u = len(vids) * np_steps
    n = n_u + len(edges) * np_steps
    m = sum(local_problems[vid].G.shape[0] for vid in vids) + len(edges) * np_steps
    col = {vid: i * np_steps for i, vid in enumerate(vids)}

    H = np.zeros((n, n))
    f = np.zeros(n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    G = np.zeros((m, n))
    h = np.empty(m)
    const_total = 0.0
    r = 0
    for vid in vids:
        lp = local_problems[vid]
        c = col[vid]
        H[c:c + np_steps, c:c + np_steps] = lp.H0
        f[c:c + np_steps] = lp.f0
        lb[c:c + np_steps] = lp.steer_lb
        ub[c:c + np_steps] = lp.steer_ub
        const_total += lp.const0
        rows = lp.G.shape[0]
        G[r:r + rows, c:c + np_steps] = lp.G
        h[r:r + rows] = lp.h
        r += rows

    for k, e in enumerate(edges):
        ep = edge_problems[e]
        i, j = e
        s_col = n_u + k * np_steps
        f[s_col:s_col + np_steps] = ep.slack_penalty
        lb[s_col:s_col + np_steps] = 0.0
        G[r:r + np_steps, col[i]:col[i] + np_steps] = ep.G[:, :np_steps]
        G[r:r + np_steps, col[j]:col[j] + np_steps] = ep.G[:, np_steps:2 * np_steps]
        G[r:r + np_steps, s_col:s_col + np_steps] = ep.G[:, 2 * np_steps:]
        h[r:r + np_steps] = ep.h
        r += np_steps

    qp = DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub)
    return CentralizedQp(qp=qp, vehicle_ids=vids, edges=edges,
                         np_steps=np_steps, const_total=const_total)
