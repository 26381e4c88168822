"""Dense convex QP solver: minimize 0.5 u'Hu + f'u  s.t.  Gu <= h,  lb <= u <= ub.

The solver is a Mehrotra predictor-corrector primal-dual interior-point
method.  Inequality rows keep their dual in an augmented KKT system that is
LU-factorized once per iteration (predictor and corrector share the
factorization); box bounds are eliminated analytically into a diagonal term,
which keeps the factorized system at size n + m regardless of how many bounds
are finite.  Everything is deterministic: no randomization, fixed pivoting.

Problems here are small by construction (the fleet decomposition caps
subproblem size), with the exception of the centralized baseline.  Two exact
shortcut paths cover the hot cases before the interior-point loop runs: a
bound-pinning guess for problems where only box bounds are active, and a warm
active-set guess seeded by a previous solution's multipliers.  Both verify
the full KKT conditions and fall back to the interior-point method when the
guess is not optimal.  ``QpSolution.path`` records which one answered.

The centralized Hessian is block diagonal (one tracking block per vehicle,
then a zero block for the slacks), so H is split into its contiguous
diagonal blocks once per solve.  The regularization probe and the
bound-pinning guess factor and solve those blocks, same-size blocks as one
batched stack, and never the n x n whole; the guess is still verified
against the dense H.  A centralized cycle that ends on the bound shortcut
therefore costs O(n^2) for the block search and the checks, plus the blocks'
own factorizations; one that reaches the interior-point method is dominated
by its per-iteration LU of the (n + m) KKT matrix.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ParameterError

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"

_EIG_FLOOR = 1e-10       # below this smallest-eigenvalue estimate, regularize
_REG_SHIFT = 1e-9
_STOP_KKT = 1e-8         # absolute KKT residual target
_OPTIMAL_KKT = 1e-6      # status=optimal requires at most this
_OPTIMAL_PVIOL = 1e-8


@dataclass(eq=False)
class DenseQp:
    """Problem data; H is symmetrized on construction, bounds default to open.

    An H that is already exactly symmetric is kept as given (no copy), so the
    problem may share it with its caller; nothing in this module writes into
    ``H`` in place.
    """

    H: np.ndarray
    f: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ParameterError("H must be a square matrix")
        n = H.shape[0]
        self.H = H if np.array_equal(H, H.T) else 0.5 * (H + H.T)
        self.f = np.asarray(self.f, dtype=float).reshape(n)
        self.G = (np.zeros((0, n)) if self.G is None
                  else np.asarray(self.G, dtype=float).reshape(-1, n))
        m = self.G.shape[0]
        self.h = (np.zeros(0) if self.h is None
                  else np.asarray(self.h, dtype=float).reshape(m))
        if self.h.shape[0] != m:
            raise ParameterError("G and h row counts differ")
        self.lb = (np.full(n, -np.inf) if self.lb is None
                   else np.asarray(self.lb, dtype=float).reshape(n))
        self.ub = (np.full(n, np.inf) if self.ub is None
                   else np.asarray(self.ub, dtype=float).reshape(n))
        for name, arr in (("H", self.H), ("f", self.f), ("G", self.G), ("h", self.h)):
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be finite")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise ParameterError("bounds must not be NaN")
        if np.any(self.lb > self.ub):
            raise ParameterError("need lb <= ub componentwise")

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[0]

    def objective(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ self.H @ u + self.f @ u)


@dataclass(eq=False)
class QpSolution:
    u_star: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    multipliers: np.ndarray          # [z (m), w (n, lower), y (n, upper)]
    iterations: int = 0
    trace: list = field(default_factory=list, repr=False)
    fallback: bool = False           # a structured solver handed over to solve_qp
    # which solve_qp path answered: "bound", "active_set", "ipm", "pinned_only"
    # (every variable fixed by lb == ub) or "zero_row" (an unsatisfiable zero
    # row of G); None when a structured node solver answered without solve_qp
    # (an edge fallback carries the path of the solve_qp call on its dual)
    path: str | None = None


def kkt_residual(problem: DenseQp, u: np.ndarray, multipliers: np.ndarray) -> float:
    """Worst violation among stationarity, primal/dual feasibility, complementarity."""
    u = np.asarray(u, dtype=float).reshape(problem.n)
    return _kkt_residual(problem, u, multipliers, problem.H @ u)


def _kkt_residual(problem: DenseQp, u: np.ndarray, multipliers, Hu: np.ndarray) -> float:
    """``kkt_residual`` with the Hessian product Hu supplied by the caller."""
    n, m = problem.n, problem.m
    mult = np.asarray(multipliers, dtype=float).reshape(m + 2 * n)
    z, w, y = mult[:m], mult[m:m + n], mult[m + n:]

    stat = Hu + problem.f + problem.G.T @ z - w + y
    res = float(np.max(np.abs(stat))) if n else 0.0

    lo = np.isfinite(problem.lb)
    hi = np.isfinite(problem.ub)
    slack_g = problem.G @ u - problem.h
    if m:
        res = max(res, float(np.max(slack_g)), float(np.max(-z)))
        res = max(res, float(np.max(np.abs(z * slack_g))))
    if np.any(lo):
        gap = problem.lb[lo] - u[lo]
        res = max(res, float(np.max(gap)), float(np.max(-w[lo])),
                  float(np.max(np.abs(w[lo] * gap))))
    if np.any(hi):
        gap = u[hi] - problem.ub[hi]
        res = max(res, float(np.max(gap)), float(np.max(-y[hi])),
                  float(np.max(np.abs(y[hi] * gap))))
    return max(res, 0.0)


def _primal_violation(problem: DenseQp, u: np.ndarray) -> float:
    viol = 0.0
    if problem.m:
        viol = max(viol, float(np.max(problem.G @ u - problem.h)))
    lo = np.isfinite(problem.lb)
    hi = np.isfinite(problem.ub)
    if np.any(lo):
        viol = max(viol, float(np.max(problem.lb[lo] - u[lo])))
    if np.any(hi):
        viol = max(viol, float(np.max(u[hi] - problem.ub[hi])))
    return max(viol, 0.0)


def _diagonal_blocks(H: np.ndarray) -> np.ndarray:
    """Start index of each contiguous diagonal block of the symmetric H, then n.

    A block ends after index i when no nonzero H[r, c] has r <= i < c.  By
    symmetry that holds when every row below i has its first nonzero column
    beyond i, so the first nonzero column of each row and their suffix
    minimum, O(n^2) in all, find every boundary.  An all-zero row is a block
    of its own; a dense H is one block.
    """
    n = H.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.intp)
    nz = H != 0.0
    first = np.where(nz.any(axis=1), nz.argmax(axis=1), n)
    reach = np.minimum.accumulate(first[::-1])[::-1]    # min first column of rows >= j
    ends = np.flatnonzero(reach[1:] > np.arange(n - 1))
    return np.concatenate([[0], ends + 1, [n]])


def _block_groups(H: np.ndarray, starts: np.ndarray) -> list:
    """[(idx, Hb)] per block size s: idx (k, s) indices, Hb (k, s, s) copies of the blocks."""
    sizes = np.diff(starts)
    groups = []
    for s in np.unique(sizes):
        idx = starts[:-1][sizes == s][:, None] + np.arange(s)
        groups.append((idx, H[idx[:, :, None], idx[:, None, :]]))
    return groups


def _positive_definite(Hb: np.ndarray) -> bool:
    """Whether every block of the (k, s, s) stack has a Cholesky factor."""
    if Hb.shape[1] == 1:
        return bool(np.all(Hb[:, 0, 0] > 0.0))   # a 1 x 1 Cholesky fails iff a <= 0
    try:
        np.linalg.cholesky(Hb)
    except np.linalg.LinAlgError:
        return False
    return True


def _hessian_shift(groups: list) -> float:
    """1e-9 when some block fails the Cholesky probe of H_b - 1e-10 I, else 0.

    A block-diagonal matrix's eigenvalues are its blocks' eigenvalues, so
    this is the decision of the same probe on the whole H.
    """
    for _, Hb in groups:
        if not _positive_definite(Hb - _EIG_FLOOR * np.eye(Hb.shape[1])):
            return _REG_SHIFT
    return 0.0


def _shifted(problem: DenseQp, shift: float) -> DenseQp:
    """problem with H + shift I (problem itself when shift is 0)."""
    if not shift:
        return problem
    # problem is validated and H symmetric, as is H + shift I: no re-check
    work = copy.copy(problem)
    work.H = problem.H.copy()
    work.H.flat[::problem.n + 1] += shift
    return work


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _interior_start(warm, lb, ub, n):
    x = np.zeros(n) if warm is None else np.asarray(warm, dtype=float).reshape(n).copy()
    both = np.isfinite(lb) & np.isfinite(ub)
    margin = np.where(both, np.minimum(1e-3 * (ub - lb), 1.0), 1e-3)
    lo_only = np.isfinite(lb) & ~both
    hi_only = np.isfinite(ub) & ~both
    x[both] = np.clip(x[both], (lb + margin)[both], (ub - margin)[both])
    x[lo_only] = np.maximum(x[lo_only], (lb + margin)[lo_only])
    x[hi_only] = np.minimum(x[hi_only], (ub - margin)[hi_only])
    return x


def _bound_shortcut(problem: DenseQp, groups: list, shift: float) -> tuple | None:
    """Exact solution of the problem with H + shift I when only box bounds are active.

    Solves the unconstrained problem block by block, pins bound violators,
    re-solves once the free part of each block that holds both pinned and
    free entries (no other block changes) and verifies the full KKT
    conditions against the dense H.  Returns (x, multipliers, kkt,
    objective), or None when a block is not positive definite or the guess
    is not optimal.
    """
    H, f, lb, ub = problem.H, problem.f, problem.lb, problem.ub
    x = np.empty(problem.n)
    blocks = []
    for idx, Hb in groups:
        if shift:
            Hb = Hb + shift * np.eye(Hb.shape[1])
        if not _positive_definite(Hb):
            return None
        if Hb.shape[1] == 1:
            x[idx[:, 0]] = -f[idx[:, 0]] / Hb[:, 0, 0]
        else:
            x[idx] = -np.linalg.solve(Hb, f[idx][..., None])[..., 0]
            blocks.append((idx, Hb))

    at_lo = x < lb
    at_hi = x > ub
    pinned = at_lo | at_hi
    if np.any(pinned):
        x = np.where(at_lo, lb, np.where(at_hi, ub, x))
        for idx, Hb in blocks:          # a 1 x 1 block is pinned or free, never both
            pin = pinned[idx]
            for b in np.flatnonzero(pin.any(axis=1) & ~pin.all(axis=1)):
                p, fr = pin[b], ~pin[b]
                rhs = f[idx[b, fr]] + Hb[b][np.ix_(fr, p)] @ x[idx[b, p]]
                try:
                    x[idx[b, fr]] = -np.linalg.solve(Hb[b][np.ix_(fr, fr)], rhs)
                except np.linalg.LinAlgError:
                    return None

    Hx = H @ x + shift * x
    grad = Hx + f
    w = np.where(at_lo, np.maximum(grad, 0.0), 0.0)
    y = np.where(at_hi, np.maximum(-grad, 0.0), 0.0)
    mult = np.concatenate([np.zeros(problem.m), w, y])
    if _primal_violation(problem, x) > 1e-10:
        return None
    kkt = _kkt_residual(problem, x, mult, Hx)
    if kkt > _STOP_KKT:
        return None
    return x, mult, kkt, float(0.5 * x @ Hx + f @ x)


def _active_set_shortcut(problem: DenseQp, warm_multipliers: np.ndarray) -> tuple | None:
    """Exact solve assuming the warm solution's active set still holds.

    Solves the equality-constrained QP over the previously active rows and
    bounds, then verifies multiplier signs, feasibility and the full KKT
    conditions.  Returns None whenever the guess is not optimal.
    """
    n, m = problem.n, problem.m
    mult = np.asarray(warm_multipliers, dtype=float)
    if mult.shape != (m + 2 * n,):
        return None
    z_g, w_g, y_g = mult[:m], mult[m:m + n], mult[m + n:]
    act_rows = z_g > 1e-8
    act_lo = (w_g > 1e-8) & np.isfinite(problem.lb)
    act_hi = (y_g > 1e-8) & np.isfinite(problem.ub)
    if np.any(act_lo & act_hi):
        return None

    pinned = act_lo | act_hi
    free = ~pinned
    u = np.where(act_lo, problem.lb, np.where(act_hi, problem.ub, 0.0))
    H, f, G, h = problem.H, problem.f, problem.G, problem.h
    na = int(act_rows.sum())
    nf = int(free.sum())
    nu = np.zeros(m)
    try:
        if nf:
            A = G[act_rows][:, free]
            rhs_top = -(f[free] + H[np.ix_(free, pinned)] @ u[pinned])
            rhs_bot = h[act_rows] - G[act_rows][:, pinned] @ u[pinned]
            kkt = np.zeros((nf + na, nf + na))
            kkt[:nf, :nf] = H[np.ix_(free, free)]
            if na:
                kkt[:nf, nf:] = A.T
                kkt[nf:, :nf] = A
            sol = np.linalg.solve(kkt, np.concatenate([rhs_top, rhs_bot]))
            u[free] = sol[:nf]
            nu[act_rows] = sol[nf:]
        elif na:
            return None  # all variables pinned yet rows active: ambiguous guess
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(u)):
        return None
    if np.any(nu < -1e-9):
        return None

    grad = H @ u + f + (G.T @ nu if m else 0.0)
    w = np.where(act_lo, grad, 0.0)
    y = np.where(act_hi, -grad, 0.0)
    if np.any(w[act_lo] < -1e-9) or np.any(y[act_hi] < -1e-9):
        return None
    full = np.concatenate([np.maximum(nu, 0.0), np.maximum(w, 0.0), np.maximum(y, 0.0)])
    if _primal_violation(problem, u) > 1e-9:
        return None
    kkt_res = kkt_residual(problem, u, full)
    if kkt_res > _STOP_KKT:
        return None
    return u, full, kkt_res


def _feasibility_gap(problem: DenseQp, max_iter: int) -> float:
    """Minimum total violation of Gu <= h over the box; > 0 means infeasible."""
    n, m = problem.n, problem.m
    if m == 0:
        return 0.0
    He = np.eye(n + m) * 1e-8
    fe = np.concatenate([np.zeros(n), np.ones(m)])
    Ge = np.hstack([problem.G, -np.eye(m)])
    lbe = np.concatenate([problem.lb, np.zeros(m)])
    ube = np.concatenate([problem.ub, np.full(m, np.inf)])
    elastic = DenseQp(H=He, f=fe, G=Ge, h=problem.h.copy(), lb=lbe, ub=ube)
    sol = _solve(elastic, None, max_iter, allow_probe=False)
    return float(np.sum(np.maximum(sol.u_star[n:], 0.0)))


def solve_qp(problem: DenseQp, warm_start: np.ndarray | None = None,
             max_iter: int = 100,
             warm_multipliers: np.ndarray | None = None) -> QpSolution:
    """Solve the QP to KKT optimality; deterministic for identical inputs.

    status is ``optimal`` when the KKT residual is at most 1e-6 with primal
    violation at most 1e-8, ``infeasible`` when an elastic relaxation proves
    the constraints inconsistent, and ``max_iter`` otherwise (best iterate is
    still returned).  ``warm_multipliers`` (layout as in QpSolution) lets a
    caller re-solving a perturbed problem seed the active-set guess.
    """
    return _solve(problem, warm_start, max_iter, allow_probe=True,
                  warm_multipliers=warm_multipliers)


def _solve(problem: DenseQp, warm_start, max_iter: int, allow_probe: bool,
           warm_multipliers=None) -> QpSolution:
    n = problem.n
    groups = _block_groups(problem.H, _diagonal_blocks(problem.H))
    shift = _hessian_shift(groups)

    # variables pinned by lb == ub are eliminated exactly
    pinned = (problem.ub - problem.lb) <= 1e-9
    if np.any(pinned):
        return _solve_with_pinned(_shifted(problem, shift), pinned, warm_start, max_iter,
                                  allow_probe)

    # a zero row with negative offset can never be satisfied
    if problem.m:
        zero_rows = np.max(np.abs(problem.G), axis=1) == 0.0
        if np.any(problem.h[zero_rows] < -1e-12):
            work = _shifted(problem, shift)
            u = _interior_start(warm_start, work.lb, work.ub, n)
            mult = np.zeros(work.m + 2 * n)
            return QpSolution(u_star=u, objective=work.objective(u), status=INFEASIBLE,
                              kkt_residual=kkt_residual(work, u, mult), multipliers=mult,
                              path="zero_row")

    shortcut = _bound_shortcut(problem, groups, shift)
    if shortcut is not None:
        x, mult, kkt, objective = shortcut
        return QpSolution(u_star=x, objective=objective, status=OPTIMAL,
                          kkt_residual=kkt, multipliers=mult, iterations=0,
                          trace=[(objective, _primal_violation(problem, x))], path="bound")

    work = _shifted(problem, shift)
    if warm_multipliers is not None:
        shortcut = _active_set_shortcut(work, warm_multipliers)
        if shortcut is not None:
            x, mult, kkt = shortcut
            return QpSolution(u_star=x, objective=work.objective(x), status=OPTIMAL,
                              kkt_residual=kkt, multipliers=mult, iterations=0,
                              trace=[(work.objective(x), _primal_violation(work, x))],
                              path="active_set")

    sol = _ipm(work, warm_start, max_iter)
    if sol.status == MAX_ITER and allow_probe and _primal_violation(work, sol.u_star) > 1e-8:
        if _feasibility_gap(work, max_iter) > 1e-6 * (1.0 + float(np.max(np.abs(work.h), initial=0.0))):
            sol.status = INFEASIBLE
    return sol


def _solve_with_pinned(problem: DenseQp, pinned, warm_start, max_iter, allow_probe):
    n = problem.n
    free = ~pinned
    x_pin = problem.lb[pinned]
    if not np.any(free):
        x = problem.lb.copy()
        grad = problem.H @ x + problem.f
        mult = np.concatenate([np.zeros(problem.m), np.maximum(grad, 0.0),
                               np.maximum(-grad, 0.0)])
        return QpSolution(u_star=x, objective=problem.objective(x), status=OPTIMAL,
                          kkt_residual=kkt_residual(problem, x, mult), multipliers=mult,
                          path="pinned_only")

    sub = DenseQp(
        H=problem.H[np.ix_(free, free)],
        f=problem.f[free] + problem.H[np.ix_(free, pinned)] @ x_pin,
        G=problem.G[:, free] if problem.m else None,
        h=(problem.h - problem.G[:, pinned] @ x_pin) if problem.m else None,
        lb=problem.lb[free], ub=problem.ub[free])
    warm = None if warm_start is None else np.asarray(warm_start, dtype=float)[free]
    sub_sol = _solve(sub, warm, max_iter, allow_probe)

    x = np.empty(n)
    x[free] = sub_sol.u_star
    x[pinned] = x_pin
    m = problem.m
    z = sub_sol.multipliers[:m]
    w = np.zeros(n)
    y = np.zeros(n)
    w[free] = sub_sol.multipliers[m:m + free.sum()]
    y[free] = sub_sol.multipliers[m + free.sum():]
    grad = problem.H @ x + problem.f + (problem.G.T @ z if m else 0.0)
    w[pinned] = np.maximum(grad[pinned], 0.0)
    y[pinned] = np.maximum(-grad[pinned], 0.0)
    mult = np.concatenate([z, w, y])
    return QpSolution(u_star=x, objective=problem.objective(x), status=sub_sol.status,
                      kkt_residual=kkt_residual(problem, x, mult), multipliers=mult,
                      iterations=sub_sol.iterations, trace=sub_sol.trace, path=sub_sol.path)


def _ipm(problem: DenseQp, warm_start, max_iter: int) -> QpSolution:
    H, f, G, h = problem.H, problem.f, problem.G, problem.h
    lb, ub = problem.lb, problem.ub
    n, m = problem.n, problem.m
    lo = np.isfinite(lb)
    hi = np.isfinite(ub)
    n_comp = m + int(lo.sum()) + int(hi.sum())

    x = _interior_start(warm_start, lb, ub, n)
    if n_comp == 0:
        x = -np.linalg.solve(H, f)
        mult = np.zeros(m + 2 * n)
        return QpSolution(u_star=x, objective=problem.objective(x), status=OPTIMAL,
                          kkt_residual=kkt_residual(problem, x, mult), multipliers=mult,
                          path="ipm")

    s = np.maximum(h - G @ x, 1.0) if m else np.zeros(0)
    z = np.ones(m)
    w = np.where(lo, 1.0, 0.0)
    y = np.where(hi, 1.0, 0.0)

    dim = n + m
    K = np.zeros((dim, dim))
    K[:n, :n] = H
    if m:
        K[:n, n:] = G.T
        K[n:, :n] = G
    diag_n = np.arange(n)
    diag_m = np.arange(n, dim)
    h_diag = np.diag(H).copy()

    best = None
    trace = []
    kkt_hist = []
    it = 0
    for it in range(1, max_iter + 1):
        p = np.where(lo, x - lb, 1.0)
        q = np.where(hi, ub - x, 1.0)
        r_d = H @ x + f + (G.T @ z if m else 0.0) - w + y
        r_p = (G @ x + s - h) if m else np.zeros(0)
        mu = (float(s @ z) + float(np.sum(p * w * lo)) + float(np.sum(q * y * hi))) / n_comp

        mult = np.concatenate([z, w, y])
        kkt = kkt_residual(problem, x, mult)
        pviol = _primal_violation(problem, x)
        trace.append((problem.objective(x), pviol))
        if best is None or kkt < best[2]:
            best = (x.copy(), mult.copy(), kkt)
        kkt_hist.append(kkt)
        if kkt <= _STOP_KKT:
            break
        stalled = (len(kkt_hist) > 6 and kkt > 0.9 * kkt_hist[-6]
                   and mu <= 1e-13 * (1.0 + abs(problem.objective(x))))
        if stalled:
            break

        K[diag_n, diag_n] = h_diag + np.where(lo, w / p, 0.0) + np.where(hi, y / q, 0.0)
        if m:
            K[diag_m, diag_m] = -s / z
        try:
            lu = lu_factor(K, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            break

        def newton(rc_z, rc_l, rc_u):
            b_x = -r_d - np.where(lo, rc_l / p, 0.0) + np.where(hi, rc_u / q, 0.0)
            if m:
                b_z = -r_p + rc_z / z
                sol = lu_solve(lu, np.concatenate([b_x, b_z]), check_finite=False)
                dx, dz = sol[:n], sol[n:]
                ds = -r_p - G @ dx
            else:
                dx = lu_solve(lu, b_x, check_finite=False)
                dz = np.zeros(0)
                ds = np.zeros(0)
            dw = np.where(lo, -(rc_l + w * dx) / p, 0.0)
            dy = np.where(hi, (y * dx - rc_u) / q, 0.0)
            return dx, ds, dz, dw, dy

        # predictor
        rc_z = s * z
        rc_l = np.where(lo, p * w, 0.0)
        rc_u = np.where(hi, q * y, 0.0)
        dx, ds, dz, dw, dy = newton(rc_z, rc_l, rc_u)
        if not np.all(np.isfinite(dx)):
            break
        alpha = min(
            _max_step(s, ds), _max_step(z, dz),
            _max_step(p[lo], dx[lo]), _max_step(q[hi], -dx[hi]),
            _max_step(w[lo], dw[lo]), _max_step(y[hi], dy[hi]), 1e10)
        alpha_aff = min(1.0, alpha)
        mu_aff = (float((s + alpha_aff * ds) @ (z + alpha_aff * dz))
                  + float(np.sum((p + alpha_aff * dx) * (w + alpha_aff * dw) * lo))
                  + float(np.sum((q - alpha_aff * dx) * (y + alpha_aff * dy) * hi))) / n_comp
        sigma = np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8) if mu > 0 else 0.0

        # corrector
        rc_z = s * z + ds * dz - sigma * mu
        rc_l = np.where(lo, p * w + dx * dw - sigma * mu, 0.0)
        rc_u = np.where(hi, q * y + (-dx) * dy - sigma * mu, 0.0)
        dx, ds, dz, dw, dy = newton(rc_z, rc_l, rc_u)
        if not np.all(np.isfinite(dx)):
            break

        alpha = min(
            _max_step(s, ds), _max_step(z, dz),
            _max_step(p[lo], dx[lo]), _max_step(q[hi], -dx[hi]),
            _max_step(w[lo], dw[lo]), _max_step(y[hi], dy[hi]), 1e10)
        mu_rel = mu / (1.0 + abs(problem.objective(x)))
        tau = max(0.995, 1.0 - 100.0 * mu_rel)
        step = min(1.0, tau * alpha)
        x += step * dx
        s += step * ds
        z += step * dz
        w += step * dw
        y += step * dy

    x_best, mult_best, kkt_best = best
    pviol = _primal_violation(problem, x_best)
    status = OPTIMAL if (kkt_best <= _OPTIMAL_KKT and pviol <= _OPTIMAL_PVIOL) else MAX_ITER
    return QpSolution(u_star=x_best, objective=problem.objective(x_best), status=status,
                      kkt_residual=kkt_best, multipliers=mult_best,
                      iterations=it, trace=trace, path="ipm")
