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
mask, reading everything that does not change in a run (weights, position
limits, pruning radii, steering boxes) from ``LocalConstants``, built once
per run; ``make_edge_problems`` linearizes the separation of all E edges at
all Np steps in one pass over (E, Np), including the coincident-seed
fallback.  Each product is the per-vehicle function's own, issued as one
stacked ``matmul``, so the data equals that of ``make_local_problem`` and
``make_edge_problem`` bit for bit; those two stay as the reference
formulation.  The fleet arrays are what the builders return: ``LocalProblems``
and ``EdgeProblems`` keep them stacked, in sorted id and key order, and the
batches, ``fleet_objective`` and ``build_centralized`` take them as they
are, with no per-vehicle or per-edge record in between.  They are the
solvers' only input form.

The problems are frozen records of a cycle's input data; everything the ADMM
nodes derive from them lives in the batches.  ``LocalBatch`` holds the
tracking problems; rho takes few values in a cycle (overtake: 5 changes in
200 cycles; intersection: at most 5 values in one cycle), so it keeps
P = H0 + rho I per rho.  ``LocalBatch.solve`` answers every vehicle whose
unconstrained minimizer meets all its rows in one stacked pass;
``LocalBatch.solve_node`` solves any one vehicle on ``qp._BoxDual``'s dual,
whose kernel it builds once per vehicle and rho.

``EdgeBatch`` holds the edge problems.  The edge objective is proximal in
the steering copies, x = (u_i, u_j), v = z - lam:

    min  rho/2 |x - v|^2 + c 1's   s.t.  G x - s <= h,  s >= 0,

and an edge's G holds only the steering copies' columns; the slacks' -I
block is implied.  Rows no steering input moves (the step-1 separation) are
fixed by ``qp._elastic_fixed``; the other rows are ``qp._BoxDual``'s
problem with P = rho I, no bounds and caps c, whose docstring gives the
dual.  ``EdgeBatch.solve`` answers, in one stacked pass, every edge whose
other rows are all inactive at x = v (their multipliers are 0);
``EdgeBatch.solve_node`` solves any one edge on the kernel, which it builds
once per edge and rho.  Each ``solve_node`` returns, bit for bit, the row
its batched pass returns for an answered node; no node reaches
``solve_qp``.  ``build_local`` and ``build_edge`` stay the primal reference:
a node's KKT residual is the one ``kkt_residual`` gives the built QP, formed
for a vehicle by ``qp._kkt_measure`` and for an edge by ``_edge_kkt``, which
writes that measure's terms out for both edge paths.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .dynamics import STATE_DIM, CondensedPrediction, FleetPrediction
from .errors import DegenerateSeedError, ParameterError
from .qp import (BlockDiagonal, DenseQp, _block_shifts, _BoxDual, _elastic_fixed, _elastic_slack,
                 _kkt_measure)
from .scenario import VehicleSpec

_COINCIDENT_TOL = 1e-9
_NODE_OPTIMAL_KKT = 1e-8     # a node's answer is optimal at or below this KKT residual


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


class LocalProblems:
    """N vehicles' tracking problems as stacked arrays.

    Row n of ``H0`` (N, Np, Np), ``f0`` (N, Np), ``const0`` (N,),
    ``steer_lb`` and ``steer_ub`` (N, Np) belongs to ``ids[n]``, and the ids
    are sorted.  ``G`` (M, Np) and ``h`` (M,) hold every vehicle's position
    rows, vehicle n's in rows ``starts[n]:starts[n + 1]``.
    """

    def __init__(self, ids, H0, f0, const0, G, h, starts, steer_lb, steer_ub):
        self.ids = tuple(ids)
        self.H0, self.f0, self.const0 = H0, f0, const0
        self.G, self.h, self.starts = G, h, starts
        self.steer_lb, self.steer_ub = steer_lb, steer_ub

    @property
    def horizon(self) -> int:
        return self.f0.shape[1]


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


class LocalConstants:
    """A fleet's per-run data of its tracking problems, built once from its specs.

    ``specs`` must be in sorted id order (else ParameterError), as ``ids``
    and every row here are.  ``wvec`` (3 Np,) weighs the stacked prediction
    rows, ``r_eye`` is r_steer I (Np, Np), and ``steer_lb``/``steer_ub``
    (N, Np) are the steering boxes.  ``limits`` (N, 4) holds each vehicle's
    candidate position rows, in ``make_local_problem``'s order x <= x_max,
    x >= x_min, y <= y_max, y >= y_min, with ``finite`` marking the finite
    ones, and ``radius`` (N,) is the pruning radius at sample time ``ts``.
    The arrays are read-only: every cycle's ``LocalProblems`` shares the
    steering boxes.
    """

    def __init__(self, specs, weights: CostWeights, np_steps: int, ts: float):
        self.ids = tuple(spec.id for spec in specs)
        if list(self.ids) != sorted(self.ids):
            raise ParameterError("the specs must be in sorted id order")
        if weights.q_pos <= 0 and weights.q_heading <= 0 and weights.r_steer <= 0:
            raise ParameterError("cost must be nontrivial: some weight must be positive")
        n = len(specs)
        self.wvec = np.tile([weights.q_pos, weights.q_pos, weights.q_heading], np_steps)
        self.r_eye = weights.r_steer * np.eye(np_steps)
        self.limits = np.array([[s.bounds.x_max, s.bounds.x_min, s.bounds.y_max, s.bounds.y_min]
                                for s in specs], dtype=float).reshape(n, 4)
        self.finite = np.isfinite(self.limits)
        speed = np.array([spec.speed for spec in specs], dtype=float)
        self.radius = 2.0 * speed * np_steps * ts + 5.0
        steer = np.array([[spec.steer_min, spec.steer_max] for spec in specs],
                         dtype=float).reshape(n, 2)
        self.steer_lb = np.repeat(steer[:, :1], np_steps, axis=1)
        self.steer_ub = np.repeat(steer[:, 1:], np_steps, axis=1)
        for a in (self.wvec, self.r_eye, self.limits, self.finite, self.radius,
                  self.steer_lb, self.steer_ub):
            a.flags.writeable = False


# candidate position rows per step, in make_local_problem's order x <= hi,
# x >= lo, y <= hi, y >= lo: the coordinate each bounds, and its sign (a
# lower-bound row is the negated upper-bound row)
_LIMIT_COORD = np.array([0, 0, 1, 1])
_LIMIT_SIGN = np.array([1.0, -1.0, 1.0, -1.0])


def make_local_problems(constants: LocalConstants, prediction: FleetPrediction, references,
                        x0) -> LocalProblems:
    """``make_local_problem(..., x0, ts)`` for N vehicles at once, as ``LocalProblems``.

    Row n of ``prediction``, ``references`` (N, 3*Np) and ``x0`` (N, 2)
    belongs to ``constants.ids[n]``.  H0, f0 and const0 come from one
    batched product over the fleet, and the position-bound rows are selected
    by one mask with the same order, pruning radius and zero-row rule as
    ``make_local_problem``.
    """
    Phi, gamma = prediction.Phi, prediction.gamma
    n, _, np_steps = Phi.shape
    ref = np.asarray(references, dtype=float).reshape(n, STATE_DIM * np_steps)
    x0 = np.asarray(x0, dtype=float).reshape(n, -1)
    wvec, lim = constants.wvec, constants.limits

    WPhi = wvec[:, None] * Phi
    H0 = 2.0 * (np.matmul(Phi.transpose(0, 2, 1), WPhi) + constants.r_eye)
    resid = gamma - ref
    f0 = 2.0 * np.matmul(WPhi.transpose(0, 2, 1), resid[:, :, None])[:, :, 0]
    const0 = np.matmul(resid[:, None, :], (wvec * resid)[:, :, None])[:, 0, 0]

    P = Phi.reshape(n, np_steps, STATE_DIM, np_steps)[:, :, :2]     # (N, Np, 2, Np)
    q4 = gamma.reshape(n, np_steps, STATE_DIM)[:, :, _LIMIT_COORD]  # (N, Np, 4)
    rhs = np.where(_LIMIT_SIGN > 0, lim[:, None, :] - q4, q4 - lim[:, None, :])
    # |hi - x| and |x - lo| of make_local_problem: a difference and its
    # negation round alike, so one |lim - x| has their bits
    dist = np.abs(lim - x0[:, _LIMIT_COORD])
    keep = constants.finite & (dist <= constants.radius[:, None])
    veh, step, cand = np.nonzero(np.repeat(keep[:, None, :], np_steps, axis=1))
    G_all = _LIMIT_SIGN[cand, None] * P[veh, step, _LIMIT_COORD[cand]]
    h_all = rhs[veh, step, cand]
    # zero rows that hold trivially are dropped; only kept candidates are tested
    row = ~((np.abs(G_all).max(axis=1) < 1e-14) & (h_all >= -1e-9))
    G_all, h_all, veh = G_all[row], h_all[row], veh[row]
    starts = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(veh, minlength=n), out=starts[1:])
    return LocalProblems(constants.ids, H0, f0, const0, G_all, h_all, starts,
                         constants.steer_lb, constants.steer_ub)


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


class LocalBatch:
    """N tracking problems stacked for one closed-form pass per ADMM iteration.

    At penalty rho a vehicle's Hessian is P = H0s + rho I, H0s = (H0 + H0')/2,
    plus 1e-9 I when P - 1e-10 I has no Cholesky factor (``qp._block_shifts``,
    the rule ``solve_qp`` applies).  The first solve at a rho forms the
    (N, Np, Np) stack of P and probes it with one stacked Cholesky; the stack
    is kept for the cycle under its rho, so an iteration at a rho already
    seen forms nothing.  ``solve`` is ``solve_node``'s closed-form case for
    every vehicle at once, each solve issued as one stacked call, so an
    answered row equals ``solve_node``'s bit for bit; all position rows'
    products are one call, reduced to each vehicle's largest violation.
    Construction reads the ``LocalProblems`` arrays as they are.
    """

    def __init__(self, problems: LocalProblems):
        H0 = problems.H0
        self.H0s = 0.5 * (H0 + H0.transpose(0, 2, 1))
        self.f0, self.lb, self.ub = problems.f0, problems.steer_lb, problems.steer_ub
        self.G, self.h, self.starts = problems.G, problems.h, problems.starts
        rows = np.diff(self.starts)
        self.vehicle = np.repeat(np.arange(len(self.f0)), rows)  # row -> vehicle
        self.rowless = rows == 0     # vehicles with no position row
        self.hessians: dict = {}   # rho -> (P stack, per-vehicle shift) once solved at rho
        self.duals: dict = {}      # (vehicle, rho) -> qp._BoxDual once handed

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
        Gx = np.matmul(self.G[:, None, :], x[self.vehicle][:, :, None])[:, 0, 0]
        # each vehicle's worst row; reduceat reads one entry past an empty
        # segment, so a vehicle without rows is set to -inf after it
        row_max = np.maximum.reduceat(np.concatenate((Gx - self.h, [-np.inf])), self.starts[:-1])
        row_max[self.rowless] = -np.inf
        # unpinned, the bound gaps are <= 0 and w = y = 0: the KKT residual is
        # the largest of |grad|, the row violations and 0
        kkt = np.maximum(np.maximum(np.abs(grad).max(axis=1), row_max), 0.0)
        pinned = ((x < self.lb) | (x > self.ub)).any(axis=1)
        done = (shift == 0.0) & ~pinned & (kkt <= _NODE_OPTIMAL_KKT) & (row_max <= 0.0)
        return x, kkt, done

    def solve_node(self, i: int, z, lam, rho: float, warm_mult=None):
        """(x, kkt, multipliers): vehicle i's ``build_local`` QP solved exactly on its dual.

        The dual is ``qp._BoxDual``'s over P (from ``hessian``), the position
        rows and the steering box, every multiplier uncapped.  Its kernel is
        built the first time vehicle i is handed over at this rho, and warm
        started from ``warm_mult`` (an earlier solve's multipliers; None or
        all zero starts cold).  kkt is the KKT residual as ``kkt_residual``
        defines it for the built QP, and the multipliers are [z, w, y] as in
        ``solve_qp``: the next iteration's warm start.
        """
        f0, lb, ub = self.f0[i], self.lb[i], self.ub[i]
        np_steps = len(f0)
        z = np.asarray(z, dtype=float).reshape(np_steps)
        lam = np.asarray(lam, dtype=float).reshape(np_steps)
        start, end = self.starts[i], self.starts[i + 1]
        G, h = self.G[start:end], self.h[start:end]
        kernel = self.duals.get((i, rho))
        if kernel is None:
            _check_rho(rho)
            kernel = self.duals[i, rho] = _BoxDual(self.hessian(rho)[0][i][None], G, h, np.inf,
                                                   lb, ub)
        f = f0 + rho * (lam - z)
        x0 = -np.linalg.solve(self.hessians[rho][0][i], f[:, None])[:, 0]
        x, mu = kernel.solve(x0, None if warm_mult is None else kernel.rows(warm_mult))
        mult = kernel.multipliers(mu)
        m = len(h)
        grad = self.H0s[i] @ x + rho * x + f
        stat = grad + G.T @ mult[:m] if np.any(mult[:m]) else grad
        return x, _kkt_measure(stat, G @ x - h, x, lb, ub, mult), mult


def tracking_objective(problem: LocalProblem, u: np.ndarray) -> float:
    """Tracking-plus-effort cost of one vehicle at steering sequence u."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * u @ problem.H0 @ u + problem.f0 @ u + problem.const0)


def fleet_objective(problems: LocalProblems, controls) -> float:
    """Convexified fleet cost (sum of tracking terms) at the given controls.

    ``controls`` maps each id to its steering, or is the (N, Np) array of
    them in sorted id order.  Each vehicle's term is
    ``tracking_objective``'s, its products issued for the fleet as stacked
    ``matmul`` calls, and the terms are summed in vehicle-id order, so the
    value equals the sum of ``tracking_objective`` over the sorted ids bit
    for bit.
    """
    if not problems.ids:
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


class EdgeProblems:
    """E edges' separation problems as stacked arrays.

    Row k of ``pairs`` (E, 2), ``G`` (E, Np, 2 Np), ``h`` (E, Np) and
    ``slack_penalty`` (E,) belongs to ``edges[k]``, and the keys are sorted.
    ``pairs[k]`` holds the fleet rows of edge k's endpoints, e[0] then e[1],
    where row n is the fleet's n-th vehicle in sorted id order.
    """

    def __init__(self, edges, pairs, G, h, slack_penalty):
        self.edges = tuple(edges)
        self.pairs, self.G, self.h, self.slack_penalty = pairs, G, h, slack_penalty


def _check_fleet(keys, pairs: np.ndarray, n: int) -> None:
    """Raise ParameterError on no vehicle, or naming an edge with an endpoint row outside 0..n-1."""
    if n == 0:
        raise ParameterError("the fleet must hold at least one vehicle")
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if len(outside):
        raise ParameterError(f"edge {keys[outside[0]]} has an endpoint outside the fleet")


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
    ``make_edge_problem``.  The keys must be sorted, as the result's rows
    are; unsorted keys raise ParameterError.  G and h come from one pass
    over (E, Np).
    """
    edges = [tuple(e) for e in edges]
    Phi = prediction.Phi
    np_steps = Phi.shape[2]
    n_edges = len(edges)
    pairs = np.asarray(pairs, dtype=int).reshape(n_edges, 2)
    if edges != sorted(edges):
        raise ParameterError("the edges must be in sorted key order")
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

    Construction reads G_u (the edges' G, (E, Np, 2Np)), h (E, Np) and the
    slack penalties from the ``EdgeProblems`` arrays as they are and finds
    every edge's fixed rows.  ``solve`` screens all edges on G_u v - h, the
    kernel's q, from the stacked product G_u v that the KKT residual reads
    too, with the fixed rows masked.  When it is <= 0 on every other row and
    no warm multiplier on one of them is nonzero, the kernel's active set
    returns mu = 0 on its first guess, so ``solve_node``'s answer is x = v
    with the fixed rows' multipliers and slacks in closed form; the kernel
    and G_u' mu (zero: mu is nonzero only on rows whose G_u row is zero) are
    skipped.  Each product is ``solve_node``'s own, issued as one stacked
    ``matmul``, so an answered row equals ``solve_node``'s bit for bit.
    """

    def __init__(self, problems: EdgeProblems):
        self.G_u, self.h, self.c = problems.G, problems.h, problems.slack_penalty
        self.c_col, self.priced = self.c[:, None], self.c > 0.0
        self.fixed, self.mu_fixed = _elastic_fixed(self.G_u, self.h, self.c_col)
        self.duals: dict = {}      # (edge, rho) -> (unfixed rows, qp._BoxDual) once handed

    def solve(self, v, rho: float, warm_mu=None):
        """(x, s, mu, kkt, done) for the rows v = z - lam (E, 2Np) of all edges.

        ``warm_mu`` (E, Np) holds each edge's last row multipliers, or None.
        ``done`` marks the edges answered here; ``solve_node`` answers the rest.
        """
        x = v
        G_ux = np.matmul(self.G_u, x[:, :, None])[:, :, 0]
        gap = G_ux - self.h
        inactive = gap <= 0.0
        if warm_mu is not None:
            inactive &= warm_mu == 0.0
        mu = self.mu_fixed.copy()
        s = _elastic_slack(gap, mu, self.c_col)
        # mu is nonzero only on rows whose G_u row is zero, so G_u' mu = 0
        kkt = _edge_kkt(rho * x + -rho * v, G_ux, self.h, s, mu, self.c_col)
        done = ((inactive | self.fixed).all(axis=1) & np.isfinite(v).all(axis=1) & self.priced
                & (kkt <= _NODE_OPTIMAL_KKT))
        return x, s, mu, kkt, done

    def solve_node(self, k: int, v, rho: float, warm_mu=None):
        """(x, s, mu, kkt): edge k's ``build_edge`` QP at v = z - lam (2Np,), solved on its dual.

        The dual is ``qp._BoxDual``'s over P = rho I (2Np blocks of 1 x 1)
        and the unfixed rows with their h, each capped by c, with no
        bounds, solved at x0 = v.  Its kernel is built the first time edge k
        is handed over at this rho.  ``warm_mu`` (the row multipliers of an
        earlier solve, a length-Np array) seeds the active-set guess.  The
        answer is the row ``solve`` returns for an answered edge.
        """
        G_u, h, c = self.G_u[k], self.h[k], self.c[k]
        built = self.duals.get((k, rho))
        if built is None:
            _check_rho(rho)
            rows = np.flatnonzero(~self.fixed[k])
            n = G_u.shape[1]
            built = self.duals[k, rho] = (rows, _BoxDual(np.full((n, 1, 1), rho), G_u[rows],
                                                         h[rows], c))
        rows, kernel = built
        x, mult = kernel.solve(v, None if warm_mu is None else warm_mu[rows])
        mu = self.mu_fixed[k].copy()
        mu[rows] = mult
        G_ux = G_u @ x
        s = _elastic_slack(G_ux - h, mu, c)
        return x, s, mu, _edge_kkt(rho * x + -rho * v + G_u.T @ mu, G_ux, h, s, mu, c)


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


def build_centralized(local: LocalProblems, edge: EdgeProblems) -> CentralizedQp:
    """Stack all tracking blocks and softened edge constraints into one QP; see ``_check_fleet``."""
    vids = local.ids
    _check_fleet(edge.edges, edge.pairs, len(vids))
    np_steps = local.horizon
    n_u = len(vids) * np_steps
    n = n_u + len(edge.edges) * np_steps
    m = len(local.h) + len(edge.edges) * np_steps

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
