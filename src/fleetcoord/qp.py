"""Dense convex QP solver: minimize 0.5 u'Hu + f'u  s.t.  Gu <= h,  lb <= u <= ub.

Every problem is solved cold, by one pipeline: the regularization probe, the
zero-row exit, the bound shortcut, then the dual active set.  The
regularization shift is decided and applied once, to a copy of the problem
that every later step works on.  Each exact stage returns only an answer
verified against the full KKT conditions and otherwise passes the problem
on; ``QpSolution.path`` records which stage answered.  Everything is
deterministic: no randomization.

- ``bound``: a bound-pinning guess for problems where only box bounds are
  active.
- ``dual``: each diagonal column that is an elastic slack is eliminated
  into a cap on its row's multiplier, and Goldfarb & Idnani's dual method
  (Math. Programming 27, 1983) solves the rest over P: H's blocks and the
  other diagonal entries, each a 1 x 1 block.  From the unconstrained
  minimizer it adds one violated row per step, the most violated first,
  keeping the active rows linearly independent; a multiplier that reaches
  its cap lets the row's slack in.  A step costs one product G x plus
  O(n q) work on the q active rows.  On the fleet QPs of the shipped scenes
  and of 8- and 16-vehicle crossings, q ended at 29 or fewer, where G has
  up to 1215 rows, and every answer verified as it came.  An answer that
  does not verify is polished: re-solved exactly on its active set by one
  dense KKT solve.  When the method gives no answer (P^-1 so large that
  rounding turns a step's curvature negative) or the polish fails, it runs
  once more on the proximal P + delta I (Rockafellar, SIAM J. Control Optim.
  14, 1976), delta = ``_PROX`` max|H|, and that run's active set is
  polished on the problem itself.

Where neither stage answers, an elastic infeasibility probe, itself solved
by the dual stage, tells an infeasible problem from one no stage could
answer.

``DenseQp`` holds H as ``BlockDiagonal(blocks, diag)``: k equal diagonal
blocks stacked (k, s, s), then a diagonal.  The centralized baseline passes
one tracking block per vehicle and a zero diagonal over the slacks, so it
never allocates an n x n H; the edge QP and the elastic probe pass only a
diagonal, and a dense H is one block.  The regularization probe, the
bound-pinning guess and the dual factor and solve the blocks as one batched
stack and read the diagonal entry by entry, and their answers are verified
with H x formed block by block.  G stays dense and is stored as given.  A
centralized cycle that ends on the bound shortcut therefore costs the
blocks' own factorizations, one finiteness pass over G and one dense product
with it.  One on the dual copies G's block columns once and adds one
product with them per step; it keeps P^-1 a and the inverse Gram matrix
only for the active rows.  Only the active-set polish builds the dense H,
once per call, and its KKT solve over the free variables and active rows
costs O(n^3).  A variable with lb == ub is an ordinary pair of bound rows.

``_BoxDual`` is the kernel every ADMM node uses: a node's box-constrained
dual, solved warm by ``_box_active_set``, a primal-dual active set
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002) continued by a
primal active set.

``_kkt_measure`` is the one definition of the KKT residual: ``solve_qp``
and the ADMM vehicle nodes hand it their own stationarity and row vectors,
and ``subproblems._edge_kkt`` writes its terms out, in its order, for the
edge QP's primal vectors.  The module needs numpy alone.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"

_EIG_FLOOR = 1e-10       # below this smallest-eigenvalue estimate, regularize
_REG_SHIFT = 1e-9
_STOP_KKT = 1e-8         # absolute KKT residual target; status=optimal requires at most this
_PROX = 1e-6             # _dual_active_set's retry: P + _PROX max|H| I
_PROBE_CURVATURE = 1e-8  # _feasibility_gap: the probe's curvature on u
_ACTIVE_SET_MAX_ITERS = 50
_SINGULAR_GROWTH = 1e10  # _box_active_set: max|M| / lambda_min of a singular free block
_GI_TOL = 1e-10          # _goldfarb_idnani: a row's violation past this adds it
_GI_DEPENDENT = 1e-10    # _goldfarb_idnani: d / a'P^-1 a below this, a is in the active span


class BlockDiagonal:
    """A symmetric n x n matrix held as k equal diagonal blocks, then a diagonal.

    ``blocks`` (k, s, s) holds the blocks over [0, k s), ``split`` = k s, and
    ``diag`` the entries over [split, n); every other entry is zero.  Either
    part may be empty.  Construction checks the shapes, replaces an
    asymmetric block B by 0.5 (B + B') and checks that every entry is finite.
    The arrays are kept as given when already float and symmetric; nothing
    in this package writes into them.  ``DenseQp`` keeps a dense H as the
    single block H[None].

    ``H @ x`` (x of length n) multiplies block by block and ``np.asarray(H)``
    builds the dense matrix.
    """

    def __init__(self, blocks=None, diag=None):
        blocks = np.zeros((0, 0, 0)) if blocks is None else np.asarray(blocks, dtype=float)
        diag = np.zeros(0) if diag is None else np.asarray(diag, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or diag.ndim != 1:
            raise ParameterError("H's blocks must be a (k, s, s) stack and its diagonal "
                                 "a vector")
        mirror = blocks.transpose(0, 2, 1)
        asym = (blocks != mirror).any(axis=(1, 2))
        if asym.any():
            with np.errstate(over="ignore", invalid="ignore"):  # caught below
                blocks = np.where(asym[:, None, None], 0.5 * (blocks + mirror), blocks)
        if not (np.isfinite(blocks).all() and np.isfinite(diag).all()):
            raise ParameterError("H must be finite")
        self.blocks = blocks
        self.diag = diag
        self.split = blocks.shape[0] * blocks.shape[1]
        self.n = self.split + len(diag)

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        k, s, _ = self.blocks.shape
        top = self.blocks @ x[:self.split].reshape(k, s, 1)
        return np.concatenate([top.reshape(self.split), self.diag * x[self.split:]])

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros((self.n, self.n), dtype=dtype)
        s = self.blocks.shape[1]
        for b, B in enumerate(self.blocks):
            dense[b * s:(b + 1) * s, b * s:(b + 1) * s] = B
        np.fill_diagonal(dense[self.split:, self.split:], self.diag)
        return dense

    def shifted(self, shift: float) -> BlockDiagonal:
        """This matrix plus shift I, without re-validation."""
        blocks = self.blocks.copy()
        i = np.arange(blocks.shape[1])
        blocks[:, i, i] += shift
        return _unchecked(blocks, self.diag + shift)


def _unchecked(blocks: np.ndarray, diag: np.ndarray) -> BlockDiagonal:
    """BlockDiagonal(blocks, diag) for symmetric, finite parts built here, without re-validation."""
    out = BlockDiagonal.__new__(BlockDiagonal)
    out.blocks, out.diag = blocks, diag
    out.split = blocks.shape[0] * blocks.shape[1]
    out.n = out.split + len(diag)
    return out


@dataclass(eq=False)
class DenseQp:
    """Problem data: H as blocks and a diagonal, G dense; bounds default to open.

    H is a ``BlockDiagonal``, kept as the caller passed it (the centralized
    baseline passes its tracking blocks and a zero slack diagonal, so no
    n x n array is allocated); a square ndarray H is kept as the one block
    H[None].  Either way an asymmetric block becomes 0.5 (B + B') and
    non-finite entries raise ``ParameterError``.  G must be m x n, f, lb and
    ub must have n entries and h m; G, f and h must be finite, lb must not be
    NaN or +inf, ub must not be NaN or -inf, and lb <= ub.  A caller's arrays
    are kept uncopied when already float, and nothing in this package writes
    into them.
    """

    H: BlockDiagonal
    f: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.H, BlockDiagonal):
            H = np.asarray(self.H, dtype=float)
            if H.ndim != 2 or H.shape[0] != H.shape[1]:
                raise ParameterError("H must be a square matrix")
            self.H = BlockDiagonal(H[None])
        n = self.H.n
        if self.G is None:
            self.G = np.zeros((0, n))
        else:
            self.G = np.asarray(self.G, dtype=float)
            if self.G.ndim != 2 or self.G.shape[1] != n:
                raise ParameterError(f"G must be a 2-D array with {n} columns, "
                                     f"got shape {self.G.shape}")
        m = self.G.shape[0]
        self.f = _vector(self.f, n, "f")
        self.h = np.zeros(0) if self.h is None else _vector(self.h, m, "h")
        self.lb = np.full(n, -np.inf) if self.lb is None else _vector(self.lb, n, "lb")
        self.ub = np.full(n, np.inf) if self.ub is None else _vector(self.ub, n, "ub")
        for name, arr in (("f", self.f), ("G", self.G), ("h", self.h)):
            if not np.isfinite(arr).all():
                raise ParameterError(f"{name} must be finite")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ParameterError("bounds must not be NaN")
        if (self.lb == np.inf).any() or (self.ub == -np.inf).any():
            raise ParameterError("lb must not be +inf and ub must not be -inf")
        if (self.lb > self.ub).any():
            raise ParameterError("need lb <= ub componentwise")

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[0]

    def objective(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ (self.H @ u) + self.f @ u)


def _vector(a, size: int, name: str) -> np.ndarray:
    """a as a float vector of ``size`` entries; ParameterError naming it otherwise."""
    a = np.asarray(a, dtype=float)
    if a.size != size:
        raise ParameterError(f"{name} must have {size} entries, got shape {a.shape}")
    return a.reshape(size)


@dataclass(eq=False)
class QpSolution:
    u_star: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    multipliers: np.ndarray          # [z (m), w (n, lower), y (n, upper)]
    iterations: int = 0              # always 0: every stage is exact, none iterates to a tolerance
    # which solve_qp stage answered: "bound", "dual" or "zero_row" (an
    # unsatisfiable zero row of G); "dual" also when no stage answered, with a
    # status other than optimal.  Only solve_qp builds a QpSolution
    path: str | None = None


def kkt_residual(problem: DenseQp, u: np.ndarray, multipliers: np.ndarray) -> float:
    """Worst violation among stationarity, primal/dual feasibility, complementarity."""
    u = np.asarray(u, dtype=float).reshape(problem.n)
    return _kkt_residual(problem, u, multipliers, problem.H @ u)


def _kkt_residual(problem: DenseQp, u: np.ndarray, multipliers, Hu: np.ndarray,
                  Gu: np.ndarray | None = None) -> float:
    """``kkt_residual`` with the products Hu and (optionally) Gu supplied by the caller.

    A z of all zeros adds only signed zeros to the stationarity row, whose
    magnitude is all that is read, so G'z is formed only when z has a nonzero.
    """
    n, m = problem.n, problem.m
    mult = np.asarray(multipliers, dtype=float).reshape(m + 2 * n)
    z = mult[:m]
    stat = Hu + problem.f
    if z.any():
        stat = stat + problem.G.T @ z
    row = (problem.G @ u if Gu is None else Gu) - problem.h
    return _kkt_measure(stat, row, u, problem.lb, problem.ub, mult)


def _kkt_measure(stat, row, u, lb, ub, multipliers) -> float:
    """Worst violation of the KKT conditions of a QP with rows G u <= h and lb <= u <= ub.

    ``stat`` is H u + f + G'z and ``row`` is G u - h, as the caller forms
    them; ``multipliers`` is [z (rows), w (lower), y (upper)].  The terms:
    stationarity |stat - w + y|, row feasibility row, dual sign -z,
    complementarity |z row|, and on every finite bound its gap (lb - u or
    u - ub), the sign of its multiplier and their product.  Every term is
    0 at an exact optimum; the residual is the largest, and at least 0.
    """
    n, m = len(u), len(row)
    z, w, y = multipliers[:m], multipliers[m:m + n], multipliers[m + n:]
    lo = np.isfinite(lb)
    hi = np.isfinite(ub)
    gap_lo = lb[lo] - u[lo]
    gap_hi = u[hi] - ub[hi]
    w_lo, y_hi = w[lo], y[hi]
    return float(np.concatenate([
        np.abs(stat - w + y), row, -z, np.abs(z * row), gap_lo, -w_lo, np.abs(w_lo * gap_lo),
        gap_hi, -y_hi, np.abs(y_hi * gap_hi)]).max(initial=0.0))


def _primal_violation(problem: DenseQp, u: np.ndarray, Gu: np.ndarray | None = None) -> float:
    viol = 0.0
    if problem.m:
        viol = max(viol, float(((problem.G @ u if Gu is None else Gu) - problem.h).max()))
    lo = np.isfinite(problem.lb)
    hi = np.isfinite(problem.ub)
    if lo.any():
        viol = max(viol, float((problem.lb[lo] - u[lo]).max()))
    if hi.any():
        viol = max(viol, float((u[hi] - problem.ub[hi]).max()))
    return max(viol, 0.0)


def _factorable(blocks: np.ndarray, floor: float = 0.0) -> bool:
    """Whether the matrix, or every matrix of a stack, less floor I has a Cholesky factor."""
    try:
        np.linalg.cholesky(blocks - floor * np.eye(blocks.shape[-1]) if floor else blocks)
    except np.linalg.LinAlgError:
        return False
    return True


def _positive_definite(H: BlockDiagonal, floor: float = 0.0) -> bool:
    """Whether H - floor I has a Cholesky factor.

    A block-diagonal matrix's eigenvalues are its blocks' eigenvalues and
    its diagonal entries, so the diagonal is compared with floor (first: it
    needs no factorization) and the blocks are factored as one stack.
    """
    return bool((H.diag > floor).all()) and _factorable(H.blocks, floor)


def _hessian_shift(H: BlockDiagonal) -> float:
    """1e-9 when H - 1e-10 I fails the Cholesky probe, else 0."""
    return 0.0 if _positive_definite(H, _EIG_FLOOR) else _REG_SHIFT


def _block_shifts(blocks: np.ndarray) -> np.ndarray:
    """``_hessian_shift`` of each matrix of a (k, s, s) stack, as if each were an H alone.

    One stacked Cholesky probe decides for the whole stack; only when it
    fails is each matrix probed on its own.
    """
    shifts = np.zeros(len(blocks))
    if not _factorable(blocks, _EIG_FLOOR):
        for n, block in enumerate(blocks):
            if not _factorable(block, _EIG_FLOOR):
                shifts[n] = _REG_SHIFT
    return shifts


def _shifted(problem: DenseQp, shift: float) -> DenseQp:
    """problem with H + shift I (problem itself when shift is 0)."""
    if not shift:
        return problem
    # problem is validated and H symmetric, as is H + shift I: no re-check
    work = copy.copy(problem)
    work.H = problem.H.shifted(shift)
    return work


def _bound_shortcut(problem: DenseQp) -> tuple | None:
    """Exact solution of the problem when only box bounds are active.

    Solves the unconstrained problem block by block, pins bound violators,
    re-solves once the free part of each block that holds both pinned and
    free entries (no other block changes, and a diagonal entry is pinned or
    free) and verifies the full KKT conditions, forming H x (block by block)
    and G x once each.  Returns (x, multipliers, kkt, objective, primal
    violation), or None when H is not positive definite or the guess is not
    optimal.
    """
    H, f, lb, ub = problem.H, problem.f, problem.lb, problem.ub
    if not _positive_definite(H):
        return None
    k, s, _ = H.blocks.shape
    split = H.split
    x = np.concatenate([-np.linalg.solve(H.blocks, f[:split].reshape(k, s, 1)).reshape(split),
                        -f[split:] / H.diag])

    at_lo = x < lb
    at_hi = x > ub
    pinned = at_lo | at_hi
    if pinned.any():
        x = np.where(at_lo, lb, np.where(at_hi, ub, x))
        pin = pinned[:split].reshape(k, s)
        for b in np.flatnonzero(pin.any(axis=1) & ~pin.all(axis=1)):
            p, fr = pin[b], ~pin[b]
            Hb, xb, fb = H.blocks[b], x[b * s:(b + 1) * s], f[b * s:(b + 1) * s]
            try:
                xb[fr] = -np.linalg.solve(Hb[np.ix_(fr, fr)], fb[fr] + Hb[np.ix_(fr, p)] @ xb[p])
            except np.linalg.LinAlgError:
                return None

    Hx = H @ x
    grad = Hx + f
    w = np.where(at_lo, np.maximum(grad, 0.0), 0.0)
    y = np.where(at_hi, np.maximum(-grad, 0.0), 0.0)
    mult = np.concatenate([np.zeros(problem.m), w, y])
    Gx = problem.G @ x
    pviol = _primal_violation(problem, x, Gx)
    if pviol > 1e-10:
        return None
    kkt = _kkt_residual(problem, x, mult, Hx, Gx)
    if kkt > _STOP_KKT:
        return None
    return x, mult, kkt, float(0.5 * x @ Hx + f @ x), pviol


def _elastic_fixed(G, h, c):
    """(fixed, mu): the rows no column of G moves, and their multipliers.

    Such an elastic row G x - s <= h (slack cost c per unit) holds whatever x
    is, or its slack takes the violation: mu = c where h < 0 (+inf for a hard
    row: no answer), else 0.  Works over G's last axis, so on a stack too.
    """
    fixed = ~G.any(axis=-1)
    return fixed, np.where(fixed & (h < 0.0), c, 0.0)


def _elastic_slack(gap, mu, c):
    """Elastic rows' slacks from their violations ``gap``: max(gap, 0) where mu = c, else 0.

    Only where the penalty binds (mu = c) may a slack be positive: elsewhere
    complementarity with its bound multiplier c - mu > 0 requires s = 0, and
    rounding must not leak into s.
    """
    return np.where(mu >= c, np.maximum(gap, 0.0), 0.0)


class _BoxDual:
    """The dual of min 1/2 x'Px + f'x  s.t.  G x <= h,  lb <= x <= ub, P a (k, s, s) block stack.

    With the rows A x <= b = [G; -I on finite lb; I on finite ub] and the
    unconstrained minimizer x0 = -P^-1 f, the Lagrangian's minimizer is
    x = x0 - P^-1 A'mu, and the dual is the box QP

        min 1/2 mu'M mu - q'mu  over 0 <= mu <= c,   M = A P^-1 A',  q = A x0 - b,

    where G's rows are capped by c (the unit cost of an elastic row's
    slack, +inf for a hard row) and the bound rows are uncapped.  This is
    the ADMM nodes' kernel (``subproblems.LocalBatch`` and ``EdgeBatch``);
    the fleet QP's ``dual`` stage forms no M and uses ``_goldfarb_idnani``.
    Construction forms P^-1 A' with one stacked solve and M as
    [G P^-1 A'; -(P^-1 A')[lo]; (P^-1 A')[hi]]: the bound rows only select
    rows of P^-1 A'.  Both depend on P, G and the bounds alone, so a caller
    keeps the kernel while only f and h change.  An ADMM edge node is the
    case P = rho I (1 x 1 blocks), no bounds and x0 = v: M = G G' / rho,
    q = G v - h and x = v - G'mu / rho, every row capped by the slack cost.
    """

    def __init__(self, P_blocks, G, lb, ub):
        k, s, _ = P_blocks.shape
        self.G, self.lb, self.ub = G, lb, ub
        self.lo = np.flatnonzero(np.isfinite(lb))
        self.hi = np.flatnonzero(np.isfinite(ub))
        eye = np.eye(k * s)
        A = np.concatenate([G, -eye[self.lo], eye[self.hi]])
        self.PA = np.linalg.solve(P_blocks, A.T.reshape(k, s, -1)).reshape(k * s, -1)
        self.M = np.concatenate([G @ self.PA, -self.PA[self.lo], self.PA[self.hi]])

    def solve(self, x0, h, c, start=None):
        """(x, [z, w, y]) at x0 = -P^-1 f and right-hand sides h, G's rows capped by c.

        ``_box_active_set`` solves the dual, warm started from ``start`` (an
        earlier answer's multipliers; None or all zero starts cold).  Then
        x = x0 - P^-1 A'mu, each bound with a positive multiplier met
        exactly; x0 itself when mu = 0.
        """
        G, lo, hi, lb, ub = self.G, self.lo, self.hi, self.lb, self.ub
        m, n = G.shape
        bounded = len(lo) or len(hi)
        q = G @ x0 - h
        if bounded:
            q = np.concatenate([q, lb[lo] - x0[lo], x0[hi] - ub[hi]])
        if start is None or not np.any(start):
            start = None
        elif bounded:
            start = np.concatenate([start[:m], start[m + lo], start[m + n + hi]])
        else:
            start = start[:m]
        caps = np.full(len(q), np.inf)
        caps[:m] = c
        dual = _box_active_set(self.M, q, caps, start)
        mult = np.zeros(m + 2 * n)
        if not dual.any():
            return x0, mult
        mult[:m] = dual[:m]
        x = x0 - self.PA @ dual
        if not bounded:                    # an edge node: no bound to scatter or meet
            return x, mult
        mult[m + lo] = dual[m:m + len(lo)]
        mult[m + n + hi] = dual[m + len(lo):]
        return np.where(mult[m:m + n] > 0.0, lb, np.where(mult[m + n:] > 0.0, ub, x)), mult


def _dual_active_set(problem: DenseQp, shift: float = 0.0) -> tuple | None:
    """Exact solution of the problem by Goldfarb-Idnani's dual method, the elastic slacks eliminated.

    A diagonal column j is an elastic slack when its entry is ``shift`` alone
    (0 before the regularization shift), lb_j = 0, ub_j = +inf, f_j > 0,
    and its one nonzero in G, G_rj, is negative, in a row r that holds no
    other slack.  Minimizing over s_j >= 0 then caps row r's multiplier at
    c_r = f_j / -G_rj, exactly.  Every other column stays: H's blocks and
    the remaining diagonal entries, each a 1 x 1 block, make up P, and
    ``_goldfarb_idnani`` solves over them, cold, with P^-1 from the blocks'
    Cholesky factors.  Rows with no coefficient on P's columns are fixed
    first by ``_elastic_fixed`` (None when one is violated with
    c = +inf).  The slacks are ``_elastic_slack`` of their rows' gaps / -G_rj,
    and a slack's bound multiplier is f_j + G_rj mu_r.

    An answer that does not verify (primal violation above 1e-9 or KKT
    residual above the target: the slacks' own ``shift`` curvature, which
    the caps leave out, can be enough) is re-solved exactly on its active
    set by ``_active_set_shortcut``.  When the method gives no answer or
    that polish fails, it runs once more on P + delta I, delta =
    ``_PROX`` max|H|, a proximal step that bounds P^-1 where P is singular
    to rounding, and that run's active set is polished on the problem
    itself.  Returns ``_bound_shortcut``'s tuple, or None when P is not
    positive definite or no verified answer is found.
    """
    H, f, G, h, lb, ub = problem.H, problem.f, problem.G, problem.h, problem.lb, problem.ub
    n, m, split = problem.n, problem.m, H.split
    tail = np.arange(split, n)
    nz = G[:, split:] != 0.0
    is_slack = ((H.diag == shift) & (lb[split:] == 0.0) & (ub[split:] == np.inf)
                & (f[split:] > 0.0) & (nz.sum(axis=0) == 1))     # never with m = 0
    row = nz.argmax(axis=0) if m else np.zeros(n - split, dtype=int)
    if m:
        is_slack &= G[row, tail] < 0.0
        is_slack &= np.bincount(row[is_slack], minlength=m)[row] == 1     # alone in its row
    slack, row = tail[is_slack], row[is_slack]
    g = G[row, slack]
    P = _unchecked(H.blocks, H.diag[~is_slack])
    cols = np.concatenate([np.arange(split), tail[~is_slack]])       # P's columns
    G_x = G[:, :split] if len(cols) == split else G[:, cols]         # a view where it can be
    c = np.full(m, np.inf)
    with np.errstate(all="ignore"):                  # every answer is verified below
        c[row] = f[slack] / -g
        fixed, mu = _elastic_fixed(G_x, h, c)
        if np.isinf(mu).any():
            return None
        keep = np.flatnonzero(~fixed)

        def solve_over(P_inv):
            """(u, [z, w, y]) of the problem from the method's run with P^-1; None without one."""
            if P_inv is None:
                return None
            try:
                answer = _goldfarb_idnani(P_inv, f[cols], G_x[keep], h[keep], c[keep],
                                          lb[cols], ub[cols])
            except np.linalg.LinAlgError:
                return None
            if answer is None:
                return None
            x, dual = answer
            r, q = len(keep), len(cols)
            z = mu.copy()
            z[keep] = dual[:r]
            mult = np.zeros(m + 2 * n)
            mult[:m] = z
            mult[m + cols] = dual[r:r + q]
            mult[m + slack] = f[slack] + g * z[row]
            mult[m + n + cols] = dual[r + q:]
            u = np.zeros(n)
            u[cols] = x
            u[slack] = _elastic_slack((G_x @ x - h)[row] / -g, z[row], c[row])
            return u, mult

        P_inv = _inverse(P)
        if P_inv is None:
            return None
        first = solve_over(P_inv)
        if first is not None:
            answer = _verified(problem, *first) or _active_set_shortcut(problem, first[1])
            if answer is not None:
                return answer
        largest = max(np.abs(H.blocks).max(initial=0.0), np.abs(H.diag).max(initial=0.0))
        retry = solve_over(_inverse(P.shifted(_PROX * largest)))
        return None if retry is None else _active_set_shortcut(problem, retry[1])


def _inverse(P: BlockDiagonal) -> BlockDiagonal | None:
    """P^-1, the blocks' from their Cholesky factors; None when P is not positive definite."""
    if not (P.diag > 0.0).all():
        return None
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(P.blocks))
    except np.linalg.LinAlgError:
        return None
    return _unchecked(L_inv.transpose(0, 2, 1) @ L_inv, 1.0 / P.diag)   # symmetric by construction


def _verified(problem: DenseQp, u: np.ndarray, mult: np.ndarray) -> tuple | None:
    """(u, mult, kkt, objective, primal violation) when u is feasible to 1e-9 and KKT-optimal."""
    Hu = problem.H @ u
    Gu = problem.G @ u
    pviol = _primal_violation(problem, u, Gu)
    if not pviol <= 1e-9:
        return None
    kkt = _kkt_residual(problem, u, mult, Hu, Gu)
    if not kkt <= _STOP_KKT:
        return None
    return u, mult, kkt, float(0.5 * u @ Hu + problem.f @ u), pviol


def _goldfarb_idnani(P_inv, f, G, h, c, lb, ub):
    """(x, [z, w, y]) for min 1/2 x'Px + f'x  s.t.  G x <= h,  lb <= x <= ub,  z_r capped by c_r.

    Goldfarb & Idnani's dual method (Math. Programming 27, 1983) over the
    rows a'x <= b of [G; -I on finite lb; I on finite ub], with P^-1 given
    as a ``BlockDiagonal``.  It starts at x = -P^-1 f with no active row.
    Each step adds the most violated row p and raises its multiplier by t:
    x moves by -t z and the active multipliers by -t r, where
    r = S^-1 W a_p and z = P^-1 a_p - W'r.  Here N holds the active rows'
    normals, W = N P^-1 and S = N P^-1 N' is their Gram matrix, so the
    active rows stay met.  The step stops at the first of:

    - p is met: p joins the active set;
    - an active multiplier reaches 0: its row leaves and p's step goes on;
    - a multiplier reaches its cap c_r: the row's slack enters.  c_r a_r
      joins the linear term and the row is kept reversed, -a'x <= -b with
      multiplier c_r - z_r, to be added again if its gap turns negative.
      An active row that reaches its cap leaves and p's step goes on.

    If p's normal lies in the span of the active ones (d = a_p'z at
    rounding level), p cannot be met and only the multipliers move.  A row
    counts as violated past ``_GI_TOL``.  A reversed row's gap multiplies
    c_r in the complementarity term, so it counts past 1e-9 / c_r.  Only
    the active rows' N and W and S^-1 are held; S^-1 is updated by bordering
    on each change.  One refinement step on the active rows ends the run.
    Returns None on a hard row that no step can meet, or at the step cap.
    It runs under ``_dual_active_set``'s ``np.errstate``: an r_i of 0
    divides by zero.
    """
    m, n = G.shape
    lo, hi = np.flatnonzero(np.isfinite(lb)), np.flatnonzero(np.isfinite(ub))
    col = np.concatenate([lo, hi])         # bound row m + i is coef_i x_col_i <= b_(m + i)
    coef = np.repeat([-1.0, 1.0], [len(lo), len(hi)])
    b = np.concatenate([h, -lb[lo], ub[hi]])
    caps = np.concatenate([c, np.full(len(col), np.inf)])
    sign = np.ones(len(b))                 # -1 on a row kept reversed
    tol = np.full(len(b), _GI_TOL)         # +inf on an active row
    x = -(P_inv @ f)
    active = []
    # row i of each: active row i's normal, P^-1 normal, multiplier and cap
    N, W, lam_a, cap_a = np.empty((8, n)), np.empty((8, n)), np.empty(8), np.empty(8)
    S_inv = np.empty((0, 0))
    viol = np.empty(len(b))
    steps = 0
    while len(b):
        np.matmul(G, x, out=viol[:m])
        np.multiply(coef, x[col], out=viol[m:])
        viol -= b
        viol *= sign
        viol -= tol
        p = int(viol.argmax())
        if not viol[p] > 0.0:
            break
        if p < m:
            a = sign[p] * G[p]
        else:
            a = np.zeros(n)
            a[col[p - m]] = coef[p - m]
        b_p, cap = sign[p] * b[p], caps[p]
        v = P_inv @ a
        av = a @ v
        t_p = 0.0
        while True:
            steps += 1
            if steps > _ACTIVE_SET_MAX_ITERS + 4 * len(b):
                return None
            q = len(active)
            t, j = cap - t_p, -1
            if q:
                r = S_inv @ (N[:q] @ v)
                z = v - r @ W[:q]
                # each active multiplier's room to 0 (r > 0) or to its cap (r < 0)
                room = np.where(r > 0.0, lam_a[:q], cap_a[:q] - lam_a[:q]) / np.abs(r)
                room[r == 0.0] = np.inf
                j = int(room.argmin())
                if room[j] < t:
                    t = max(room[j], 0.0)
                else:
                    j = -1
            else:
                r, z = np.zeros(0), v
            d = a @ z
            full = max(a @ x - b_p, 0.0) / d if d > _GI_DEPENDENT * av else np.inf
            if full <= t:
                t, j = full, -2
            if not t < np.inf:
                return None                # a hard row no step can meet
            x -= t * z
            lam_a[:q] -= t * r
            t_p += t
            if j == -2:                    # p is met: it joins the active set
                if q == len(N):
                    N, W = np.concatenate([N, N]), np.concatenate([W, W])
                    lam_a, cap_a = np.concatenate([lam_a, lam_a]), np.concatenate([cap_a, cap_a])
                N[q], W[q], lam_a[q], cap_a[q] = a, v, t_p, cap
                rd = r / d
                grown = np.empty((q + 1, q + 1))
                grown[:q, :q] = S_inv + rd[:, None] * r
                grown[:q, q] = grown[q, :q] = -rd
                grown[q, q] = 1.0 / d
                S_inv = grown
                active.append(p)
                tol[p] = np.inf
                break
            if j == -1:                    # p's multiplier reached its cap
                sign[p] = -sign[p]
                tol[p] = _GI_TOL if sign[p] > 0.0 else 0.1 * _STOP_KKT / cap
                break
            i = active.pop(j)              # an active multiplier reached 0 or its cap
            if r[j] < 0.0:
                sign[i] = -sign[i]
            tol[i] = _GI_TOL if sign[i] > 0.0 else 0.1 * _STOP_KKT / caps[i]
            for B in (N, W, lam_a, cap_a):
                B[j:q - 1] = B[j + 1:q]
            keep = np.arange(q) != j
            border = S_inv[keep, j]
            S_inv = S_inv[np.ix_(keep, keep)] - border[:, None] * (border / S_inv[j, j])
    lam = np.zeros(len(b))
    q = len(active)
    if q:                                  # meet the active rows again, past the steps' rounding
        step = np.linalg.solve(N[:q] @ W[:q].T, N[:q] @ x - (sign * b)[active])
        lam[active] = lam_a[:q] + step
        x -= step @ W[:q]
    mult = np.zeros(m + 2 * n)
    mult[:m] = np.where(sign[:m] > 0.0, lam[:m], c - lam[:m])
    mult[m + lo] = lam[m:m + len(lo)]
    mult[m + n + hi] = lam[m + len(lo):]
    return np.where(mult[m:m + n] > 0.0, lb, np.where(mult[m + n:] > 0.0, ub, x)), mult


def _active_set_shortcut(problem: DenseQp, mult: np.ndarray) -> tuple | None:
    """Exact solve assuming the rows and bounds with a multiplier in ``mult`` are active.

    ``mult`` has the QpSolution layout.  Solves the equality-constrained QP
    over those rows and bounds with the dense H, then checks the multipliers'
    signs and, by ``_verified``, feasibility and the full KKT conditions.
    Returns ``_verified``'s tuple, or None whenever the guess is not optimal.
    """
    n, m = problem.n, problem.m
    z_g, w_g, y_g = mult[:m], mult[m:m + n], mult[m + n:]
    act_rows = z_g > 1e-8
    act_lo = (w_g > 1e-8) & np.isfinite(problem.lb)
    act_hi = (y_g > 1e-8) & np.isfinite(problem.ub)
    if np.any(act_lo & act_hi):
        return None

    pinned = act_lo | act_hi
    free = ~pinned
    u = np.where(act_lo, problem.lb, np.where(act_hi, problem.ub, 0.0))
    H, f, G, h = np.asarray(problem.H), problem.f, problem.G, problem.h
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
    return _verified(problem, u, np.concatenate([np.maximum(nu, 0.0), np.maximum(w, 0.0),
                                                 np.maximum(y, 0.0)]))


def _box_active_set(M, q, c, start=None):
    """Minimizer of 1/2 mu'M mu - q'mu over 0 <= mu <= c (M PSD, c > 0 per row, may be inf).

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
                rhs = rhs - M[np.ix_(free, at_hi)] @ c[at_hi]
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
    abs_M = np.abs(M)
    lo, hi = mu <= 0.0, mu >= c
    mu = np.where(lo, 0.0, np.where(hi, c, mu))
    at_min = False
    for _ in range(_ACTIVE_SET_MAX_ITERS + 4 * len(q)):
        free = np.flatnonzero(~(lo | hi))
        g = M @ mu - q
        tol = 1e-14 * (abs_M @ np.abs(mu) + np.abs(q))        # rounding level of g
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
                                np.where(p > 0.0, (c[free] - mu[free]) / p, np.inf))
            k = int(np.argmin(room))
            if not linear and room[k] >= 1.0:
                mu[free] += p
                at_min = True
            elif np.isfinite(room[k]):
                mu[free] = np.clip(mu[free] + max(room[k], 0.0) * p, 0.0, c[free])
                mu[free[k]] = 0.0 if p[k] < 0.0 else c[free[k]]
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


def _feasibility_gap(problem: DenseQp) -> float | None:
    """Least total violation of G u <= h over the box, > 0 when infeasible; None without an answer.

    The probe is min eps/2 |u|^2 + sum sigma  s.t.  G u - sigma <= h, the box
    on u, sigma >= 0, with eps = ``_PROBE_CURVATURE`` (on u alone: each sigma
    is an elastic slack of zero curvature, eliminated into a unit cap on its
    row's multiplier), and ``_dual_active_set`` solves it.
    """
    n, m = problem.n, problem.m
    if m == 0:
        return 0.0
    probe = DenseQp(H=BlockDiagonal(diag=np.concatenate([np.full(n, _PROBE_CURVATURE),
                                                         np.zeros(m)])),
                    f=np.concatenate([np.zeros(n), np.ones(m)]),
                    G=np.hstack([problem.G, -np.eye(m)]), h=problem.h,
                    lb=np.concatenate([problem.lb, np.zeros(m)]),
                    ub=np.concatenate([problem.ub, np.full(m, np.inf)]))
    answer = _dual_active_set(probe)
    return None if answer is None else float(np.sum(answer[0][n:]))


def solve_qp(problem: DenseQp) -> QpSolution:
    """Solve the QP to KKT optimality; deterministic for identical inputs.

    Runs the module's pipeline on the regularized problem.  status is
    ``optimal`` when a stage's answer verifies (KKT residual at most 1e-8,
    primal violation at most 1e-9); ``infeasible`` when an unsatisfiable
    zero row or ``_feasibility_gap`` proves the constraints inconsistent;
    ``max_iter`` when no stage answers and the probe proves nothing.  Without
    an answer u is the origin clipped into the box, with zero multipliers.
    ``iterations`` is always 0.
    """
    shift = _hessian_shift(problem.H)
    work = _shifted(problem, shift)

    # a zero row with negative offset can never be satisfied
    negative = work.h < -1e-12
    if negative.any() and not work.G[negative].any(axis=1).all():
        return _unanswered(work, INFEASIBLE, "zero_row")

    path, answer = "bound", _bound_shortcut(work)
    if answer is None:
        path, answer = "dual", _dual_active_set(work, shift)
    if answer is None:
        gap = _feasibility_gap(work)
        limit = 1e-6 * (1.0 + float(np.max(np.abs(work.h), initial=0.0)))
        return _unanswered(work, INFEASIBLE if gap is not None and gap > limit else MAX_ITER,
                           path)
    u, mult, kkt, objective, _ = answer
    return QpSolution(u_star=u, objective=objective, status=OPTIMAL, kkt_residual=kkt,
                      multipliers=mult, path=path)


def _unanswered(work: DenseQp, status: str, path: str) -> QpSolution:
    """The origin clipped into the box, with zero multipliers, reported on the regularized problem."""
    u = np.clip(np.zeros(work.n), work.lb, work.ub)
    mult = np.zeros(work.m + 2 * work.n)
    return QpSolution(u_star=u, objective=work.objective(u), status=status,
                      kkt_residual=kkt_residual(work, u, mult), multipliers=mult, path=path)
