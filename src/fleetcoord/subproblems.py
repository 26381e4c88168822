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
ever shrinks the feasible set.  ``linearize_collision`` forms one such
``Halfspace``; an edge problem keeps only the rows G x <= h they map to, each
softened with a nonnegative slack (heavily penalized) so a deeply violating
seed still yields a feasible subproblem; final slack is reported as a safety
diagnostic.

The closed loop builds every cycle's problems for the whole fleet at once:
``make_local_problems`` forms H0, f0 and const0 for all N vehicles in one
batched product and selects the position-bound rows of all vehicles with one
mask, and ``make_edge_problems`` linearizes the separation of all E edges at
all Np steps in one pass over (E, Np), including the coincident-seed
fallback.  Each product is the per-vehicle function's own, issued as one
stacked ``matmul``, so the data equals that of ``make_local_problem`` and
``make_edge_problem`` bit for bit; those two stay as the reference
formulation.  The fleet arrays are what the builders return: ``LocalProblems``
and ``EdgeProblems`` keep them stacked, in sorted id and key order, and the
batches, ``fleet_objective`` and ``build_centralized`` read them as they
are, with no per-vehicle or per-edge record in between.  Both are read-only
mappings: indexing by vehicle id or by edge key builds that node's
``LocalProblem`` or ``EdgeProblem`` on access, with views into the fleet
arrays.  A plain dict of hand-built problems is stacked once on entry by
``LocalProblems.stack`` or ``EdgeProblems.stack``.

The problems are frozen records of a cycle's input data; everything the ADMM
nodes derive from them lives in the batches.  ``LocalBatch`` holds the
tracking problems: their Hessian H0 is fixed for the cycle and each
iteration adds rho I and changes the linear term.  rho changes on few
iterations and takes few values in a cycle (overtake: 5 changes in 200
cycles; intersection: at most 5 values in one cycle), so P = H0 + rho I is
formed and probed for definiteness, with one stacked Cholesky for the
fleet, the first time the cycle solves at a rho, and kept under that rho.
``LocalBatch.solve`` answers every vehicle whose unconstrained minimizer
meets all its rows (a zero dual) in one stacked ``np.linalg.solve`` on the
P stack; ``LocalBatch.solve_node`` solves any one vehicle on the dual of its
position rows and steering bounds, a box QP with Hessian A P^-1 A' formed
once per vehicle and rho, and answers with the row ``solve`` gives an
answered vehicle plus its multipliers.

``EdgeBatch`` holds the edge problems and solves them through their exact
dual.  The edge objective is proximal in the steering copies, x = (u_i, u_j):

    min  rho/2 |x - v|^2 + c 1's   s.t.  G x - s <= h,  s >= 0,

with v = z - lam, so the dual is the box QP

    min  1/2 mu'(G G' / rho) mu - (G v - h)'mu   s.t.  0 <= mu <= c,

and x = v - G'mu / rho.  An edge's G holds only the steering copies' columns;
the slacks' -I block is implied.  Rows of G that are identically zero (the
step-1 separation, which no steering input can move) get their multiplier
and slack in closed form.  ``EdgeBatch.solve`` answers, in one stacked pass,
every edge whose coupled rows are all inactive (q = rho (G_c v - h_c) <= 0,
where mu_c = 0 and x = v); ``EdgeBatch.solve_node`` solves any one edge,
forming G_c G_c' the first time that edge is handed to it in the cycle, so
each ADMM iteration only changes the linear term and rho enters as a scalar.
Each ``solve_node`` returns the row its batched pass returns for an answered
node, and both batched passes answer bit for bit as ``solve_node`` would.
Both duals go to the finite active set ``_box_active_set``; no node reaches
``solve_qp``.  ``build_local`` and ``build_edge`` stay the primal reference:
a node's KKT residual is the one ``kkt_residual`` gives the built QP, formed
for a vehicle by ``qp._kkt_measure`` on the primal's stationarity and row
vectors and for an edge by ``_edge_kkt``, which writes that measure's terms
out once for both edge paths.  ``build_edge`` appends the slack columns and
passes its Hessian as a diagonal alone.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .dynamics import STATE_DIM, CondensedPrediction, FleetPrediction
from .errors import DegenerateSeedError, ParameterError
from .qp import BlockDiagonal, DenseQp, _block_shifts, _kkt_measure
from .scenario import VehicleSpec

_COINCIDENT_TOL = 1e-9
_NODE_OPTIMAL_KKT = 1e-8     # a node's answer is optimal at or below this KKT residual
_ACTIVE_SET_MAX_ITERS = 50
_SINGULAR_GROWTH = 1e10      # _box_active_set: max|M| / lambda_min of a singular free block


@dataclass(frozen=True)
class CostWeights:
    """Tracking weights: position / heading deviation and steering effort.

    The separation slacks' penalty is not a tracking weight: it is an
    argument of the edge-problem builders.
    """

    q_pos: float = 1.0
    q_heading: float = 0.1
    r_steer: float = 0.1


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


@dataclass(frozen=True, eq=False)
class LocalProblem:
    """A vehicle's tracking QP over its Np steering inputs.

    H0/f0/const0 define the tracking-plus-effort cost
    (Phi u + gamma - ref)' W (Phi u + gamma - ref) + R |u|^2  as
    0.5 u'H0 u + f0'u + const0; G/h carry the position-bound rows mapped
    through the condensed prediction, and steer_lb/steer_ub the steering box.
    """

    H0: np.ndarray = field(repr=False)
    f0: np.ndarray = field(repr=False)
    const0: float
    G: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    steer_lb: np.ndarray
    steer_ub: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.f0)


class LocalProblems(Mapping):
    """N vehicles' tracking problems as stacked arrays: a read-only mapping id -> LocalProblem.

    Row n of ``H0`` (N, Np, Np), ``f0`` (N, Np), ``const0`` (N,),
    ``steer_lb`` and ``steer_ub`` (N, Np) belongs to ``ids[n]``, and the ids
    are sorted.  ``G`` (M, Np) and ``h`` (M,) hold every vehicle's position
    rows, vehicle n's in rows ``starts[n]:starts[n + 1]``.  ``problems[vid]``
    builds vehicle vid's ``LocalProblem`` from views into these arrays.
    """

    def __init__(self, ids, H0, f0, const0, G, h, starts, steer_lb, steer_ub):
        self.ids = tuple(ids)
        self.row = {vid: n for n, vid in enumerate(self.ids)}
        self.H0, self.f0, self.const0 = H0, f0, const0
        self.G, self.h, self.starts = G, h, starts
        self.steer_lb, self.steer_ub = steer_lb, steer_ub

    @classmethod
    def stack(cls, problems) -> LocalProblems:
        """``problems`` as is when it is a ``LocalProblems``; a dict id -> LocalProblem stacked."""
        if isinstance(problems, cls):
            return problems
        ids = sorted(problems)
        items = [problems[vid] for vid in ids]
        n = len(items)
        np_steps = items[0].horizon if items else 0

        def rows(name, shape):
            return np.array([getattr(p, name) for p in items], dtype=float).reshape(shape)

        G = [np.asarray(p.G, dtype=float).reshape(-1, np_steps) for p in items]
        h = [np.asarray(p.h, dtype=float).reshape(-1) for p in items]
        return cls(ids, rows("H0", (n, np_steps, np_steps)), rows("f0", (n, np_steps)),
                   rows("const0", (n,)),
                   np.concatenate(G) if G else np.zeros((0, np_steps)),
                   np.concatenate(h) if h else np.zeros(0),
                   np.concatenate([[0], np.cumsum([len(r) for r in h], dtype=int)]),
                   rows("steer_lb", (n, np_steps)), rows("steer_ub", (n, np_steps)))

    @property
    def horizon(self) -> int:
        return self.f0.shape[1]

    def __getitem__(self, vid) -> LocalProblem:
        n = self.row[vid]
        start, end = self.starts[n], self.starts[n + 1]
        return LocalProblem(H0=self.H0[n], f0=self.f0[n], const0=float(self.const0[n]),
                            G=self.G[start:end], h=self.h[start:end],
                            steer_lb=self.steer_lb[n], steer_ub=self.steer_ub[n])

    def __contains__(self, vid) -> bool:
        return vid in self.row

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def make_local_problem(spec: VehicleSpec, condensed: CondensedPrediction,
                       reference_stacked: np.ndarray, weights: CostWeights,
                       x0=None, ts: float | None = None) -> LocalProblem:
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
    return LocalProblem(H0=H0, f0=f0, const0=const0, G=G, h=h,
                        steer_lb=np.full(np_steps, spec.steer_min),
                        steer_ub=np.full(np_steps, spec.steer_max))


def _append_row(rows, rhs, coeffs, bound) -> None:
    if float(np.max(np.abs(coeffs))) < 1e-14 and bound >= -1e-9:
        return  # zero row, trivially satisfiable
    rows.append(np.array(coeffs))
    rhs.append(float(bound))


def make_local_problems(specs, prediction: FleetPrediction, references, weights: CostWeights,
                        x0, ts: float) -> LocalProblems:
    """``make_local_problem(..., x0, ts)`` for N vehicles at once, as ``LocalProblems``.

    Row n of ``prediction``, ``references`` (N, 3*Np) and ``x0`` (N, 2)
    belongs to ``specs[n]``; the result's rows are in sorted id order.  H0,
    f0 and const0 come from one batched product over the fleet, and the
    position-bound rows are selected by one mask with the same order,
    pruning radius and zero-row rule as ``make_local_problem``.
    """
    Phi, gamma = prediction.Phi, prediction.gamma
    n, _, np_steps = Phi.shape
    ref = np.asarray(references, dtype=float).reshape(n, STATE_DIM * np_steps)
    x0 = np.asarray(x0, dtype=float).reshape(n, -1)
    order = sorted(range(n), key=lambda k: specs[k].id)
    if order != list(range(n)):
        specs = [specs[k] for k in order]
        Phi, gamma, ref, x0 = Phi[order], gamma[order], ref[order], x0[order]
    if weights.q_pos <= 0 and weights.q_heading <= 0 and weights.r_steer <= 0:
        raise ParameterError("cost must be nontrivial: some weight must be positive")

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
    speed = np.array([spec.speed for spec in specs], dtype=float)
    radius = 2.0 * speed * np_steps * ts + 5.0
    x0 = x0[:, coord]
    dist = np.abs(np.where(sign > 0, lim - x0, x0 - lim))
    keep = np.isfinite(lim) & (dist <= radius[:, None])
    veh, step, cand = np.nonzero(np.broadcast_to(keep[:, None, :], rhs.shape))
    G_all = sign[cand, None] * P[veh, step, coord[cand]]
    h_all = rhs[veh, step, cand]
    # zero rows that hold trivially are dropped; only kept candidates are tested
    row = ~((np.max(np.abs(G_all), axis=1) < 1e-14) & (h_all >= -1e-9))
    G_all, h_all, veh = G_all[row], h_all[row], veh[row]
    starts = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(veh, minlength=n), out=starts[1:])

    lb = np.repeat(np.array([spec.steer_min for spec in specs], dtype=float)[:, None],
                   np_steps, axis=1)
    ub = np.repeat(np.array([spec.steer_max for spec in specs], dtype=float)[:, None],
                   np_steps, axis=1)
    return LocalProblems([spec.id for spec in specs], H0, f0, const0, G_all, h_all, starts,
                         lb, ub)


def _check_rho(rho: float) -> None:
    if not (math.isfinite(rho) and rho > 0):
        raise ParameterError(f"rho must be finite and positive, got {rho!r}")


def build_local(problem: LocalProblem, z: np.ndarray, lam: np.ndarray, rho: float) -> DenseQp:
    """Tracking QP plus the consensus proximal term (0.5 rho |u - z + lam|^2)."""
    _check_rho(rho)
    np_steps = problem.horizon
    z = np.asarray(z, dtype=float).reshape(np_steps)
    lam = np.asarray(lam, dtype=float).reshape(np_steps)
    H = problem.H0 + rho * np.eye(np_steps)
    f = problem.f0 + rho * (lam - z)
    return DenseQp(H=H, f=f, G=problem.G, h=problem.h,
                   lb=problem.steer_lb, ub=problem.steer_ub)


def _groups(keys) -> list:
    """Row indices grouped by equal key, in first-seen order of the keys."""
    groups: dict = {}
    for n, key in enumerate(keys):
        groups.setdefault(key, []).append(n)
    return [(key, np.array(rows)) for key, rows in groups.items()]


class LocalBatch:
    """N tracking problems stacked for one closed-form pass per ADMM iteration.

    At penalty rho a vehicle's Hessian is P = H0s + rho I, H0s = (H0 + H0')/2,
    plus 1e-9 I when P - 1e-10 I has no Cholesky factor (``qp._block_shifts``,
    the rule ``solve_qp`` applies).  The first solve at a rho forms the
    (N, Np, Np) stack of P and probes it with one stacked Cholesky; the stack
    is kept for the cycle under its rho, so an iteration at a rho already
    seen forms nothing.  ``solve`` is ``solve_node``'s closed-form case for
    every vehicle at once: each solve and product is ``solve_node``'s own,
    issued as one stacked call (position rows grouped by their count), so an
    answered row equals ``solve_node``'s bit for bit.

    Construction reads the ``LocalProblems`` arrays as they are: it forms
    H0s and gathers each group's position rows by their row ranges.
    """

    def __init__(self, problems: LocalProblems):
        H0 = problems.H0
        self.H0s = 0.5 * (H0 + H0.transpose(0, 2, 1))
        self.f0, self.lb, self.ub = problems.f0, problems.steer_lb, problems.steer_ub
        self.G, self.h, self.starts = problems.G, problems.h, problems.starts
        self.rows = []
        for m, idx in _groups(np.diff(self.starts).tolist()):
            if m:
                rows = self.starts[idx][:, None] + np.arange(m)
                self.rows.append((idx, self.G[rows], self.h[rows]))
        self.hessians: dict = {}   # rho -> (P stack, per-vehicle shift) once solved at rho
        self.duals: dict = {}      # (vehicle, rho) -> (lo, hi, P^-1 A', A P^-1 A') once handed

    def hessian(self, rho: float):
        """(P, shift): the (N, Np, Np) stack of P at rho and each vehicle's regularization shift."""
        if rho not in self.hessians:
            eye = np.eye(self.H0s.shape[1])
            P = self.H0s + rho * eye
            shift = _block_shifts(P)
            if shift.any():
                P = P + shift[:, None, None] * eye
            self.hessians[rho] = (P, shift)
        return self.hessians[rho]

    def solve(self, z, lam, rho: float):
        """(x, kkt, done) for rows z, lam (N, Np); ``done`` marks the rows answered.

        A row is answered when its P needs no regularization shift, the
        unconstrained minimizer pins no steering bound and meets its position
        rows, and the KKT residual is at most 1e-8; its multipliers are then
        all zero.  Every other row is left to ``solve_node``.
        """
        P, shift = self.hessian(rho)
        f = self.f0 + rho * (lam - z)
        x = -np.linalg.solve(P, f[:, :, None])[:, :, 0]
        grad = np.matmul(self.H0s, x[:, :, None])[:, :, 0] + rho * x + f
        row_max = np.full(len(x), -np.inf)
        for idx, G, h in self.rows:
            row_max[idx] = np.max(np.matmul(G, x[idx][:, :, None])[:, :, 0] - h, axis=1)
        # unpinned, the bound gaps are <= 0 and w = y = 0: the KKT residual is
        # the largest of |grad|, the row violations and 0
        kkt = np.maximum(np.maximum(np.max(np.abs(grad), axis=1), row_max), 0.0)
        pinned = np.any((x < self.lb) | (x > self.ub), axis=1)
        done = (shift == 0.0) & ~pinned & (kkt <= _NODE_OPTIMAL_KKT) & (row_max <= 0.0)
        return x, kkt, done

    def solve_node(self, i: int, z, lam, rho: float, warm_mult=None):
        """(x, kkt, multipliers): vehicle i's ``build_local`` QP solved exactly on its dual.

        P (from ``hessian``) gives the unconstrained minimizer x0 = -P^-1 f.
        The rows A x <= b (position rows, then the finite steering bounds as
        -I and I rows) are solved on their dual, the box QP
        min 1/2 l'(A P^-1 A') l - (A x0 - b)'l over l >= 0, by
        ``_box_active_set``, warm started from ``warm_mult`` (an earlier
        solve's multipliers; None or all zero starts cold).  Then
        x = x0 - P^-1 A'l, each bound with a positive multiplier met exactly.
        P^-1 A' and A P^-1 A' are formed the first time vehicle i is handed
        over at this rho.  kkt is the KKT residual as ``kkt_residual``
        defines it for the built QP, and the multipliers are [z, w, y] as in
        ``solve_qp``: the next iteration's warm start.
        """
        _check_rho(rho)
        f0, lb, ub = self.f0[i], self.lb[i], self.ub[i]
        np_steps = len(f0)
        z = np.asarray(z, dtype=float).reshape(np_steps)
        lam = np.asarray(lam, dtype=float).reshape(np_steps)
        f = f0 + rho * (lam - z)
        P = self.hessian(rho)[0][i]
        x = -np.linalg.solve(P, f[:, None])[:, 0]
        start, end = self.starts[i], self.starts[i + 1]
        G, h = self.G[start:end], self.h[start:end]
        m = G.shape[0]
        if (i, rho) not in self.duals:
            lo = np.flatnonzero(np.isfinite(lb))
            hi = np.flatnonzero(np.isfinite(ub))
            eye = np.eye(np_steps)
            A = np.concatenate([G, -eye[lo], eye[hi]])
            PA = np.linalg.solve(P, A.T)
            self.duals[i, rho] = (lo, hi, PA, A @ PA)
        lo, hi, PA, M = self.duals[i, rho]
        q = np.concatenate([G @ x - h, lb[lo] - x[lo], x[hi] - ub[hi]])
        start = None
        if warm_mult is not None and np.any(warm_mult):
            start = np.concatenate([warm_mult[:m], warm_mult[m + lo],
                                    warm_mult[m + np_steps + hi]])
        dual = _box_active_set(M, q, np.inf, start)
        mult = np.zeros(m + 2 * np_steps)
        if np.any(dual):
            x = x - PA @ dual
            mult[:m] = dual[:m]
            mult[m + lo] = dual[m:m + len(lo)]
            mult[m + np_steps + hi] = dual[m + len(lo):]
            x = np.where(mult[m:m + np_steps] > 0.0, lb,
                         np.where(mult[m + np_steps:] > 0.0, ub, x))
        grad = self.H0s[i] @ x + rho * x + f
        stat = grad + G.T @ mult[:m] if np.any(mult[:m]) else grad
        return x, _kkt_measure(stat, G @ x - h, x, lb, ub, mult), mult


def tracking_objective(problem: LocalProblem, u: np.ndarray) -> float:
    """Tracking-plus-effort cost of one vehicle at steering sequence u."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * u @ problem.H0 @ u + problem.f0 @ u + problem.const0)


def fleet_objective(local_problems, controls) -> float:
    """Convexified fleet cost (sum of tracking terms) at the given controls.

    ``local_problems`` is a ``LocalProblems`` or a dict id -> LocalProblem;
    ``controls`` maps each id to its steering, or is the (N, Np) array of
    them in sorted id order.  Each vehicle's term is
    ``tracking_objective``'s, its products issued for the fleet as stacked
    ``matmul`` calls, and the terms are summed in vehicle-id order, so the
    value equals the sum of ``tracking_objective`` over the sorted ids bit
    for bit.
    """
    problems = LocalProblems.stack(local_problems)
    if not len(problems):
        return 0.0
    if isinstance(controls, Mapping):
        u = np.array([controls[v] for v in problems.ids], dtype=float)
    else:
        u = np.array(controls, dtype=float)
    u = u.reshape(problems.f0.shape)[:, :, None]
    half_uH = np.matmul((0.5 * u).transpose(0, 2, 1), problems.H0)
    terms = (np.matmul(half_uH, u) + np.matmul(problems.f0[:, None, :], u))[:, 0, 0]
    return sum((terms + problems.const0).tolist())


@dataclass(frozen=True, eq=False)
class EdgeProblem:
    """Joint separation problem for one coupled pair over (u_i, u_j, slack).

    G (Np, 2 Np) and h (Np,) hold step k's separation halfspace as row k of
    G (u_i, u_j) - s_k <= h: the slack s_k of step k enters only its own row,
    with coefficient -1, and costs ``slack_penalty`` per unit.
    """

    slack_penalty: float
    G: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)

    @property
    def horizon(self) -> int:
        return self.G.shape[0]


class EdgeProblems(Mapping):
    """E edges' separation problems as stacked arrays: a read-only mapping key -> EdgeProblem.

    Row k of ``pairs`` (E, 2), ``G`` (E, Np, 2 Np), ``h`` (E, Np) and
    ``slack_penalty`` (E,) belongs to ``edges[k]``, and the keys are sorted.
    ``pairs[k]`` holds the fleet rows of edge k's endpoints, e[0] then e[1],
    where row n is the fleet's n-th vehicle in sorted id order.
    ``problems[key]`` builds that edge's ``EdgeProblem`` from views into
    these arrays.
    """

    def __init__(self, edges, pairs, G, h, slack_penalty):
        self.edges = tuple(edges)
        self.row = {edge: k for k, edge in enumerate(self.edges)}
        self.pairs, self.G, self.h, self.slack_penalty = pairs, G, h, slack_penalty

    @classmethod
    def stack(cls, problems, ids) -> EdgeProblems:
        """``problems`` as is when it is an ``EdgeProblems``; a dict key -> EdgeProblem stacked.

        ``ids`` are the fleet's sorted vehicle ids, whose rows ``pairs``
        indexes; an edge with an endpoint outside them raises ParameterError.
        """
        if isinstance(problems, cls):
            return problems
        edges = sorted(problems)
        items = [problems[edge] for edge in edges]
        np_steps = items[0].horizon if items else 0
        G = np.array([p.G for p in items], dtype=float).reshape(len(items), np_steps,
                                                                 2 * np_steps)
        h = np.array([p.h for p in items], dtype=float).reshape(len(items), np_steps)
        return cls(edges, _endpoint_rows(ids, edges), G, h,
                   np.array([p.slack_penalty for p in items], dtype=float))

    @property
    def horizon(self) -> int:
        return self.G.shape[1]

    def __getitem__(self, edge) -> EdgeProblem:
        k = self.row[edge]
        return EdgeProblem(slack_penalty=float(self.slack_penalty[k]), G=self.G[k], h=self.h[k])

    def __contains__(self, edge) -> bool:
        return edge in self.row

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def _endpoint_rows(ids, edges) -> np.ndarray:
    """(E, 2) rows of each edge's endpoints among ``ids``, in key order.

    Raises ParameterError naming the first edge with an endpoint outside ``ids``.
    """
    row = {vid: n for n, vid in enumerate(ids)}
    for edge in edges:
        if edge[0] not in row or edge[1] not in row:
            raise ParameterError(f"edge {edge} has an endpoint without a seed")
    return np.array([(row[i], row[j]) for i, j in edges], dtype=int).reshape(-1, 2)


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
    """Linearize the per-step separation constraints of a vehicle pair at its seeds.

    ``edge`` names the pair for callers and is not read: the problem holds
    only its rows.  Coincident seed positions at a step are recovered deterministically by
    substituting ``fallback_dir`` (the unit vector between the vehicles'
    current positions, or the x-axis) for the seed difference.
    """
    np_steps = condensed_i.horizon
    seed_pos_i = np.asarray(seed_pos_i, dtype=float).reshape(np_steps, 2)
    seed_pos_j = np.asarray(seed_pos_j, dtype=float).reshape(np_steps, 2)
    fallback = _fallback_unit(fallback_dir)

    G = np.zeros((np_steps, 2 * np_steps))
    h = np.zeros(np_steps)
    for k in range(np_steps):
        try:
            hs = linearize_collision(seed_pos_i[k], seed_pos_j[k], d_safe)
        except DegenerateSeedError:
            hs = Halfspace(a=fallback.copy(), rhs=1.0 + d_safe ** 2)
        P_i, q_i = condensed_i.position_block(k + 1)
        P_j, q_j = condensed_j.position_block(k + 1)
        # 2a'(p_i - p_j) + s_k >= rhs  ->  -2a'P_i u_i + 2a'P_j u_j - s_k <= 2a'(q_i-q_j) - rhs
        G[k, :np_steps] = -2.0 * hs.a @ P_i
        G[k, np_steps:] = 2.0 * hs.a @ P_j
        h[k] = float(2.0 * hs.a @ (q_i - q_j)) - hs.rhs

    return EdgeProblem(slack_penalty=slack_penalty, G=G, h=h)


def make_edge_problems(edges, pairs, prediction: FleetPrediction, seed_positions,
                       d_safe: float, slack_penalty: float, fallback_dirs) -> EdgeProblems:
    """``make_edge_problem`` for E edges at once, as ``EdgeProblems``.

    ``pairs`` (E, 2) holds the fleet rows of each edge's endpoints in
    ``prediction`` and ``seed_positions`` (N, Np, 2), whose rows are the
    vehicles in sorted id order; ``fallback_dirs`` (E, 2), one per edge,
    replaces the seed difference wherever the seeds coincide, as in
    ``make_edge_problem``.  The result's rows are in sorted key order.  G
    and h come from one pass over (E, Np).
    """
    edges = [tuple(e) for e in edges]
    Phi = prediction.Phi
    np_steps = Phi.shape[2]
    n_edges = len(edges)
    pairs = np.asarray(pairs, dtype=int).reshape(n_edges, 2)
    order = sorted(range(n_edges), key=edges.__getitem__)
    if order != list(range(n_edges)):
        edges, pairs = [edges[k] for k in order], pairs[order]
        fallback_dirs = [fallback_dirs[k] for k in order]
    ii, jj = pairs[:, 0], pairs[:, 1]
    seed = np.asarray(seed_positions, dtype=float)
    # every product below is make_edge_problem's own, issued as one stacked
    # matmul, so the data equals make_edge_problem's bit for bit
    a = seed[ii] - seed[jj]                                    # (E, Np, 2)
    norm_sq = np.matmul(a[:, :, None, :], a[:, :, :, None])[:, :, 0, 0]
    coincident = norm_sq < _COINCIDENT_TOL ** 2
    rhs = norm_sq + d_safe ** 2
    if coincident.any():
        fallback = np.array([_fallback_unit(fallback_dirs[e])
                             for e in range(n_edges)]).reshape(n_edges, 2)
        a = np.where(coincident[:, :, None], fallback[:, None, :], a)
        rhs = np.where(coincident, 1.0 + d_safe ** 2, rhs)

    # position rows of step k: P (.., 2, Np) and q (.., 2), as position_block(k)
    P = Phi.reshape(len(Phi), np_steps, STATE_DIM, np_steps)[:, :, :2]
    q = prediction.gamma.reshape(len(Phi), np_steps, STATE_DIM)[:, :, :2]
    two_a = (2.0 * a)[:, :, None, :]
    G = np.zeros((n_edges, np_steps, 2 * np_steps))
    G[:, :, :np_steps] = np.matmul(-2.0 * a[:, :, None, :], P[ii])[:, :, 0]
    G[:, :, np_steps:] = np.matmul(two_a, P[jj])[:, :, 0]
    h = np.matmul(two_a, (q[ii] - q[jj])[:, :, :, None])[:, :, 0, 0] - rhs

    return EdgeProblems(edges, pairs, G, h, np.full(n_edges, slack_penalty, dtype=float))


def build_edge(problem: EdgeProblem, z_i, z_j, lam_i, lam_j, rho: float) -> DenseQp:
    """Edge QP: proximal terms for both endpoint copies plus slack penalty."""
    _check_rho(rho)
    np_steps = problem.horizon
    H = BlockDiagonal(diag=np.concatenate([np.full(2 * np_steps, rho), np.zeros(np_steps)]))
    f = np.concatenate([
        rho * (np.asarray(lam_i, dtype=float) - np.asarray(z_i, dtype=float)),
        rho * (np.asarray(lam_j, dtype=float) - np.asarray(z_j, dtype=float)),
        np.full(np_steps, problem.slack_penalty),
    ])
    G = np.hstack([problem.G, -np.eye(np_steps)])
    # only the slacks are bounded, from below by 0
    lb = np.concatenate([np.full(2 * np_steps, -np.inf), np.zeros(np_steps)])
    return DenseQp(H=H, f=f, G=G, h=problem.h, lb=lb, ub=None)


def _edge_slack(G_ux, h, mu, c):
    """Edge slacks from G_u x and the row multipliers: max(G_u x - h, 0) where mu = c, else 0.

    Only where the penalty binds (mu = c) may a slack be positive: elsewhere
    complementarity with w = c - mu > 0 requires s = 0, and rounding must not
    leak into s.  Works on one edge's rows or on a stack of them.
    """
    return np.where(mu >= c, np.maximum(G_ux - h, 0.0), 0.0)


def _edge_kkt(stat_x, G_ux, h, s, mu, c):
    """KKT residual of ``build_edge``'s QP, per edge over the last axis.

    ``stat_x`` is the stationarity in x, rho x - rho v + G_u' mu.  The terms
    and their order are ``qp._kkt_measure``'s on the primal's vectors
    u = [x, s] and multipliers [mu, w, y] with w = c - mu on the slacks and
    zero elsewhere.
    """
    w_s = c - mu
    row = G_ux - s - h
    return np.concatenate([np.abs(stat_x), np.abs(c - mu - w_s), row, -mu, np.abs(mu * row),
                           -s, -w_s, np.abs(w_s * s)], axis=-1).max(axis=-1, initial=0.0)


class EdgeBatch:
    """E edge problems stacked to answer their inactive case in one pass per iteration.

    Construction reads G_u (the edges' G), h and the slack penalties from
    the ``EdgeProblems`` arrays as they are and finds every edge's fixed
    rows, with the coupled rows' G_c grouped by the fixed-row pattern.
    ``solve`` screens all edges with one stacked
    q = rho (G_c v - h_c).  When q <= 0 on every coupled row and no warm
    multiplier on a coupled row is nonzero, ``_box_active_set`` returns
    mu_c = 0 on its first guess, so ``solve_node``'s answer is x = v with the
    fixed rows' multipliers and slacks in closed form; G_c G_c', the active
    set and G_u' mu (zero: mu is nonzero only on rows whose G_u row is zero)
    are skipped.  Each product is ``solve_node``'s own, issued as one stacked
    ``matmul``, so an answered row equals ``solve_node``'s bit for bit.
    """

    def __init__(self, problems: EdgeProblems, np_steps: int):
        self.G_u = problems.G.reshape(-1, np_steps, 2 * np_steps)
        self.h = problems.h.reshape(-1, np_steps)
        self.c = problems.slack_penalty
        self.fixed = np.max(np.abs(self.G_u), axis=2) == 0.0
        self.mu_fixed = np.where(self.fixed & (self.h < 0.0), self.c[:, None], 0.0)
        self.coupled = []
        for _, idx in _groups(row.tobytes() for row in self.fixed):
            rows = ~self.fixed[idx[0]]
            self.coupled.append((idx, self.G_u[idx][:, rows], self.h[idx][:, rows]))
        self.duals: dict = {}      # edge -> (coupled rows, G_c, G_c G_c') once handed

    def solve(self, v, rho: float, warm_mu=None):
        """(x, s, mu, kkt, done) for the rows v = z - lam (E, 2Np) of all edges.

        ``warm_mu`` (E, Np) holds each edge's last row multipliers, or None.
        ``done`` marks the edges answered here; ``solve_node`` answers the rest.
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
        s = _edge_slack(G_ux, self.h, mu, c)
        # mu is nonzero only on rows whose G_u row is zero, so G_u' mu = 0
        kkt = _edge_kkt(rho * x + -rho * v, G_ux, self.h, s, mu, c)
        done = (inactive & np.all(np.isfinite(v), axis=1) & (self.c > 0.0)
                & (kkt <= _NODE_OPTIMAL_KKT))
        return x, s, mu, kkt, done

    def solve_node(self, k: int, v, rho: float, warm_mu=None):
        """(x, s, mu, kkt): edge k's ``build_edge`` QP at v = z - lam (2Np,), solved on its dual.

        ``warm_mu`` (the row multipliers of an earlier solve, any length-Np
        vector) seeds the active-set guess.  The answer is the row ``solve``
        returns for an answered edge.
        """
        _check_rho(rho)
        G_u, h, c = self.G_u[k], self.h[k], self.c[k]
        if k not in self.duals:
            rows = np.flatnonzero(~self.fixed[k])
            G_c = G_u[rows]
            self.duals[k] = (rows, G_c, G_c @ G_c.T)
        rows, G_c, M = self.duals[k]
        mu = self.mu_fixed[k].copy()
        # rho times the dual: min 1/2 mu'M mu - rho b'mu, so rho stays a scalar
        q = rho * (G_c @ v - h[rows])
        start = None if warm_mu is None else np.asarray(warm_mu, dtype=float)[rows]
        mu_c = _box_active_set(M, q, c, start)
        mu[rows] = mu_c

        x = v - (G_c.T @ mu_c) / rho
        G_ux = G_u @ x
        s = _edge_slack(G_ux, h, mu, c)
        return x, s, mu, _edge_kkt(rho * x + -rho * v + G_u.T @ mu, G_ux, h, s, mu, c)


def _box_active_set(M, q, c, start=None):
    """Minimizer of 1/2 mu'M mu - q'mu over 0 <= mu <= c (M PSD, scalar c > 0, may be inf).

    A primal-dual active set runs first.  Its first guess takes the bounds
    ``start`` sits on (a warm start's sets usually still hold); cold, it is
    q / diag(M).  Each step pins the guessed bounds, solves the free block
    exactly and guesses again from mu - g / diag(M), g = M mu - q, until a
    guess reproduces the sets: the box QP's KKT condition.  These steps can
    cycle when M is not an M-matrix; on a repeated set pair, a free block
    singular to working precision or the step cap, ``_primal_active_set``
    continues from the last guess clipped into the box.
    """
    n = len(q)
    if n == 0:
        return np.zeros(0)
    d = np.diag(M)
    if not d.min() > 0.0:
        return _primal_active_set(M, q, c, np.clip(np.zeros(n) if start is None else start, 0.0, c))
    trial = q / d if start is None else np.asarray(start, dtype=float)
    # |mu_f| / |rhs| bounds 1 / lambda_min(M_ff) from below, and max(d) is
    # M's largest entry: past this the block is singular to working precision
    growth = _SINGULAR_GROWTH / d.max()
    seen = set()
    key = None
    for _ in range(_ACTIVE_SET_MAX_ITERS):
        at_hi = trial >= c
        free = (trial > 0.0) & ~at_hi
        prev, key = key, (at_hi.tobytes(), free.tobytes())
        if key == prev:
            return mu
        if key in seen:
            break
        seen.add(key)
        mu = np.where(at_hi, c, 0.0)
        if free.any():
            rhs = q[free]
            if at_hi.any():
                rhs = rhs - c * M[np.ix_(free, at_hi)].sum(axis=1)
            try:
                mu_f = np.linalg.solve(M[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                break
            if not abs(mu_f).max() <= growth * abs(rhs).max():
                break
            mu[free] = mu_f
        trial = mu - (M @ mu - q) / d
    return _primal_active_set(M, q, c, np.clip(trial, 0.0, c))


def _primal_active_set(M, q, c, mu):
    """``_box_active_set``'s QP by a primal active set from a feasible mu.

    (Nocedal & Wright, Numerical Optimization, 2006, section 16.5.)  The
    working set holds the bounds mu sits on.  A step minimizes over the free
    coordinates with the working set fixed and stops at the first bound it
    meets (ratio test), which joins the set.  At a working-set minimizer the
    bound with the most negative multiplier leaves; with none negative beyond
    rounding, mu is optimal.  On a singular free block whose gradient has a
    null-space component the step follows that component, along which the
    objective falls linearly.  Returns the last iterate at the step cap.
    """
    lo, hi = mu <= 0.0, mu >= c
    mu = np.where(lo, 0.0, np.where(hi, c, mu))
    at_min = False
    for _ in range(_ACTIVE_SET_MAX_ITERS + 4 * len(q)):
        free = np.flatnonzero(~(lo | hi))
        g = M @ mu - q
        tol = 1e-14 * (np.abs(M) @ np.abs(mu) + np.abs(q))    # rounding level of g
        if len(free) and not at_min:
            w, U = np.linalg.eigh(M[np.ix_(free, free)])
            null = w <= len(w) * np.finfo(float).eps * max(w[-1], 0.0)
            r = U.T @ g[free]
            p = -(U[:, null] @ r[null])
            linear = np.max(np.abs(p), initial=0.0) > np.max(tol[free])
            if not linear:
                p = -(U[:, ~null] @ (r[~null] / w[~null]))
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(p < 0.0, -mu[free] / p,
                                np.where(p > 0.0, (c - mu[free]) / p, np.inf))
            k = int(np.argmin(room))
            if not linear and room[k] >= 1.0:
                mu[free] += p
                at_min = True
            elif np.isfinite(room[k]):
                mu[free] = np.clip(mu[free] + max(room[k], 0.0) * p, 0.0, c)
                mu[free[k]] = 0.0 if p[k] < 0.0 else c
                lo[free[k]], hi[free[k]] = p[k] < 0.0, p[k] > 0.0
            else:
                return mu           # unbounded below: no bound stops the descent
            continue
        mult = np.where(lo, g, -g) + tol
        mult[free] = 0.0
        j = int(np.argmin(mult))
        if mult[j] >= 0.0:
            return mu
        lo[j] = hi[j] = False
        at_min = False
    return mu


@dataclass(eq=False)
class CentralizedQp:
    """Single fleet QP over concatenated controls plus per-edge slacks.

    ``qp.H`` is a ``BlockDiagonal``: ``H.blocks`` stacks each vehicle's
    Np x Np tracking block over the controls, and ``H.diag`` is zero over the
    slacks, from ``H.split`` on; ``qp.G`` is dense.
    """

    qp: DenseQp
    vehicle_ids: tuple[int, ...]
    np_steps: int

    @property
    def n_controls(self) -> int:
        return len(self.vehicle_ids) * self.np_steps

    def controls(self, u_full: np.ndarray) -> dict:
        out = {}
        for idx, vid in enumerate(self.vehicle_ids):
            out[vid] = np.asarray(u_full[idx * self.np_steps:(idx + 1) * self.np_steps],
                                  dtype=float).copy()
        return out


def build_centralized(local_problems, edge_problems) -> CentralizedQp:
    """Stack all tracking blocks and softened edge constraints into one QP.

    Either argument may be the stacked container or a plain dict of problems.
    """
    if not local_problems:
        raise ParameterError("the fleet must hold at least one vehicle")
    local = LocalProblems.stack(local_problems)
    edge = EdgeProblems.stack(edge_problems, local.ids)
    vids = local.ids
    np_steps = local.horizon
    n_u = len(vids) * np_steps
    n = n_u + len(edge) * np_steps
    m = len(local.h) + len(edge) * np_steps

    f = np.zeros(n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    G = np.zeros((m, n))
    h = np.empty(m)
    r = 0
    for v in range(len(vids)):
        c = v * np_steps
        f[c:c + np_steps] = local.f0[v]
        lb[c:c + np_steps] = local.steer_lb[v]
        ub[c:c + np_steps] = local.steer_ub[v]
        start, end = local.starts[v], local.starts[v + 1]
        rows = end - start
        G[r:r + rows, c:c + np_steps] = local.G[start:end]
        h[r:r + rows] = local.h[start:end]
        r += rows

    for k, (i, j) in enumerate((edge.pairs * np_steps).tolist()):
        ep_G = edge.G[k]
        s_col = n_u + k * np_steps
        f[s_col:s_col + np_steps] = edge.slack_penalty[k]
        lb[s_col:s_col + np_steps] = 0.0
        G[r:r + np_steps, i:i + np_steps] = ep_G[:, :np_steps]
        G[r:r + np_steps, j:j + np_steps] = ep_G[:, np_steps:]
        np.fill_diagonal(G[r:r + np_steps, s_col:s_col + np_steps], -1.0)
        h[r:r + np_steps] = edge.h[k]
        r += np_steps

    # H is block diagonal: one tracking block per vehicle, then zero slack entries
    H = BlockDiagonal(local.H0, np.zeros(n - n_u))
    qp = DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub)
    return CentralizedQp(qp=qp, vehicle_ids=vids, np_steps=np_steps)
