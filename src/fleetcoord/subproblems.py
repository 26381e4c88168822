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

Inside ADMM, tracking problems are solved by ``solve_local`` in closed form.
Their Hessian H0 is fixed for the cycle and each iteration adds rho I and
changes the linear term, so one eigendecomposition H0 = V diag(d) V' (made by
``LocalProblem.eig`` on first use) turns every solve into
x = -V (V'f / (d + rho)).  Steering-bound violators are pinned and the free
block re-solved, as in ``qp``'s bound shortcut; a solve whose position rows
bind fails the KKT check and goes to ``solve_qp`` on ``build_local``, the
reference formulation.

Edge problems are solved by ``solve_edge`` through their exact dual.  The edge objective is proximal in the steering copies, x = (u_i, u_j):

    min  rho/2 |x - v|^2 + c 1's   s.t.  G_u x - s <= h,  s >= 0,

with v = z - lam, so the dual is the box QP

    min  1/2 mu'(G_u G_u' / rho) mu - (G_u v - h)'mu   s.t.  0 <= mu <= c,

and x = v - G_u'mu / rho.  ``make_edge_problem`` forms G_u G_u' once per
cycle; each ADMM iteration only changes the linear term, and rho enters as a
scalar.  Rows of G_u that are identically zero (the step-1 separation, which
no steering input can move) get their multiplier and slack in closed form.
``build_edge`` stays the primal reference formulation of the same QP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import STATE_DIM, CondensedPrediction
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
        decomposition and the centralized path never pays for it.
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


def build_local(problem: LocalProblem, z: np.ndarray, lam: np.ndarray, rho: float,
                degree_weighted: bool = False) -> DenseQp:
    """Tracking QP plus the consensus proximal term (0.5 rho |u - z + lam|^2)."""
    if rho <= 0:
        raise ParameterError("rho must be positive")
    np_steps = problem.horizon
    z = np.asarray(z, dtype=float).reshape(np_steps)
    lam = np.asarray(lam, dtype=float).reshape(np_steps)
    rho_eff = rho * (problem.edge_count if degree_weighted and problem.edge_count else 1)
    H = problem.H0 + rho_eff * np.eye(np_steps)
    f = problem.f0 + rho_eff * (lam - z)
    return DenseQp(H=H, f=f, G=problem.G, h=problem.h,
                   lb=problem.steer_lb, ub=problem.steer_ub)


def solve_local(problem: LocalProblem, z, lam, rho: float, warm: QpSolution | None = None,
                degree_weighted: bool = False) -> QpSolution:
    """Solution of ``build_local(problem, z, lam, rho, degree_weighted)`` in closed form.

    With H0s = V diag(d) V' from ``problem.eig()``, the unconstrained
    minimizer is x = -V (V'f / (d + rho_eff)).  Steering-bound violators are
    pinned and the free block is solved once more, as in ``qp``'s bound
    shortcut; the multipliers are [0, w, y] in the layout of ``solve_qp``.
    status is ``optimal`` when the position rows and bounds hold to 1e-10 and
    the KKT residual, as ``kkt_residual`` defines it for the built QP, is at
    most 1e-8.  Otherwise (a position row binds, or H0 + rho_eff I is too
    close to singular) the built QP goes to ``solve_qp``, warm started from
    ``warm``, and ``fallback`` is set.
    """
    if rho <= 0:
        raise ParameterError("rho must be positive")
    np_steps = problem.horizon
    rho_eff = rho * (problem.edge_count if degree_weighted and problem.edge_count else 1)
    z = np.asarray(z, dtype=float).reshape(np_steps)
    lam = np.asarray(lam, dtype=float).reshape(np_steps)
    f = problem.f0 + rho_eff * (lam - z)
    d, V, H0s = problem.eig()
    shift = d + rho_eff
    if shift[0] > _EIG_FLOOR:
        solved = _local_closed_form(problem, H0s, V, shift, f, rho_eff)
        if solved is not None:
            x, grad, mult, kkt = solved
            return QpSolution(u_star=x, objective=float(0.5 * x @ (grad + f)),
                              status=OPTIMAL, kkt_residual=kkt, multipliers=mult)
    sol = solve_qp(build_local(problem, z, lam, rho, degree_weighted),
                   warm_start=None if warm is None else warm.u_star,
                   warm_multipliers=None if warm is None else warm.multipliers)
    sol.fallback = True
    return sol


def _local_closed_form(problem: LocalProblem, H0s, V, shift, f, rho_eff):
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
            H_ff = H0s[np.ix_(free, free)] + rho_eff * np.eye(int(free.sum()))
            rhs = f[free] + H0s[np.ix_(free, pinned)] @ x[pinned]
            try:
                x[free] = -np.linalg.solve(H_ff, rhs)
            except np.linalg.LinAlgError:
                return None
    grad = H0s @ x + rho_eff * x + f
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
    """Joint separation problem for one coupled pair over (u_i, u_j, slack)."""

    edge: tuple[int, int]
    condensed_i: CondensedPrediction
    condensed_j: CondensedPrediction
    seed_pos_i: np.ndarray       # (Np, 2) seed positions, prediction steps 1..Np
    seed_pos_j: np.ndarray
    d_safe: float
    slack_penalty: float
    halfspaces: tuple[Halfspace, ...] = ()
    G: np.ndarray = field(repr=False, default=None)
    h: np.ndarray = field(repr=False, default=None)
    # dual data for solve_edge, derived from G once per problem
    G_u: np.ndarray = field(init=False, repr=False)           # steering block G[:, :2Np]
    fixed_rows: np.ndarray = field(init=False, repr=False)    # rows with G_u row == 0
    coupled_rows: np.ndarray = field(init=False, repr=False)  # all other rows
    G_c: np.ndarray = field(init=False, repr=False)           # G_u[coupled_rows]
    M: np.ndarray = field(init=False, repr=False)             # G_c G_c'

    def __post_init__(self):
        np_steps = self.horizon
        self.G_u = np.ascontiguousarray(self.G[:, :2 * np_steps])
        zero = np.max(np.abs(self.G_u), axis=1) == 0.0
        self.fixed_rows = np.flatnonzero(zero)
        self.coupled_rows = np.flatnonzero(~zero)
        self.G_c = self.G_u[self.coupled_rows]
        self.M = self.G_c @ self.G_c.T

    @property
    def horizon(self) -> int:
        return self.condensed_i.horizon


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
    if fallback_dir is None:
        fallback = np.array([1.0, 0.0])
    else:
        fallback = np.asarray(fallback_dir, dtype=float)
        nrm = float(np.hypot(*fallback))
        fallback = fallback / nrm if nrm > _COINCIDENT_TOL else np.array([1.0, 0.0])

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
                       slack_penalty=slack_penalty, halfspaces=tuple(halfspaces), G=G, h=h)


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
    and the dual was handed to ``solve_qp``; ``iterations`` then counts the
    interior-point iterations that took.
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
    ipm_iters = 0
    if fallback:
        dual = solve_qp(DenseQp(H=problem.M, f=-q, lb=np.zeros(len(rows)),
                                ub=np.full(len(rows), c)))
        ipm_iters = dual.iterations
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
                      fallback=fallback)


def _edge_kkt(problem: EdgeProblem, rho, f_x, x, s, mu, w_s) -> float:
    """``kkt_residual(build_edge(...), [x, s], mult)`` without forming the QP."""
    c = problem.slack_penalty
    stat_x = rho * x + f_x + problem.G_u.T @ mu
    stat_s = c - mu - w_s
    row = problem.G_u @ x - s - problem.h
    return max(float(np.max(np.abs(stat_x))), float(np.max(np.abs(stat_s))),
               float(np.max(row)), float(np.max(-mu)), float(np.max(np.abs(mu * row))),
               float(np.max(-s)), float(np.max(-w_s)), float(np.max(np.abs(w_s * s))),
               0.0)


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
    col = {vid: i * np_steps for i, vid in enumerate(vids)}

    H = np.zeros((n, n))
    f = np.zeros(n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    const_total = 0.0
    rows, rhs = [], []
    for vid in vids:
        lp = local_problems[vid]
        c = col[vid]
        H[c:c + np_steps, c:c + np_steps] = lp.H0
        f[c:c + np_steps] = lp.f0
        lb[c:c + np_steps] = lp.steer_lb
        ub[c:c + np_steps] = lp.steer_ub
        const_total += lp.const0
        for r in range(lp.G.shape[0]):
            row = np.zeros(n)
            row[c:c + np_steps] = lp.G[r]
            rows.append(row)
            rhs.append(lp.h[r])

    for k, e in enumerate(edges):
        ep = edge_problems[e]
        i, j = e
        s_col = n_u + k * np_steps
        f[s_col:s_col + np_steps] = ep.slack_penalty
        lb[s_col:s_col + np_steps] = 0.0
        for r in range(np_steps):
            row = np.zeros(n)
            row[col[i]:col[i] + np_steps] = ep.G[r, :np_steps]
            row[col[j]:col[j] + np_steps] = ep.G[r, np_steps:2 * np_steps]
            row[s_col:s_col + np_steps] = ep.G[r, 2 * np_steps:]
            rows.append(row)
            rhs.append(ep.h[r])

    G = np.array(rows) if rows else np.zeros((0, n))
    h = np.array(rhs) if rhs else np.zeros(0)
    qp = DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub)
    return CentralizedQp(qp=qp, vehicle_ids=vids, edges=edges,
                         np_steps=np_steps, const_total=const_total)
