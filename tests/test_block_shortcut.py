"""The centralized QP's bound shortcut and regularization probe, per diagonal block.

Hessians are block diagonal with blocks of size 1-5: positive definite ones,
zero blocks (the slack block of the fleet QP), singular PSD blocks, and
blocks whose smallest eigenvalue sits at 5e-11 or 2e-10, just below and just
above the 1e-10 probe floor.  A shuffled variable order interleaves the
blocks, which merge into larger contiguous blocks.  Each instance's H is
handed over as the contiguous blocks that a dense ``H != 0`` scan finds, so
the shortcut works block by block.  The references are dense: one Cholesky
probe of H - 1e-10 I and one bound-pinning shortcut on the whole H.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from fleetcoord import OPTIMAL, BlockDiagonal, DenseQp, kkt_residual, solve_qp
from fleetcoord import qp as qp_mod

from instances import lanes_centralized
from oracles import dense_diagonal_blocks, enumerate_qp

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

KINDS = ("pd", "zero", "singular", "below_floor", "above_floor")


def _block(rng, size, kind):
    if kind == "zero":
        return np.zeros((size, size))
    lam = rng.uniform(0.5, 3.0, size)
    if kind == "singular":
        lam[:int(rng.integers(1, size + 1))] = 0.0
    elif kind == "below_floor":
        lam[0] = 5e-11
    elif kind == "above_floor":
        lam[0] = 2e-10
    Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    B = (Q * lam) @ Q.T
    return 0.5 * (B + B.T)


def instance_arrays(seed, specs, shuffle, m):
    """Dense data of a block-diagonal QP from (size, kind) specs, every variable boxed.

    Tracking-like variables get steering-like boxes around zero; variables of
    zero blocks get slack-like boxes [0, c] and a positive cost.  Rows of G
    are random and hold at an interior anchor point.
    """
    rng = np.random.default_rng(seed)
    n = sum(size for size, _ in specs)
    H = np.zeros((n, n))
    f = rng.normal(size=n)
    lb = -rng.uniform(0.05, 0.6, n)
    ub = rng.uniform(0.05, 0.6, n)
    start = 0
    for size, kind in specs:
        blk = slice(start, start + size)
        H[blk, blk] = _block(rng, size, kind)
        if kind == "zero":
            f[blk] = rng.uniform(0.1, 2.0, size)
            lb[blk] = 0.0
            ub[blk] = rng.uniform(0.5, 2.0, size)
        start += size
    if shuffle:
        perm = rng.permutation(n)
        H, f, lb, ub = H[np.ix_(perm, perm)], f[perm], lb[perm], ub[perm]
    G = rng.normal(size=(m, n))
    anchor = rng.uniform(lb + 0.25 * (ub - lb), ub - 0.25 * (ub - lb))
    h = G @ anchor + rng.uniform(0.05, 1.0, m)
    return {"H": H, "f": f, "G": G, "h": h, "lb": lb, "ub": ub}


def dense_instances(max_blocks):
    return st.builds(
        instance_arrays,
        seed=st.integers(0, 2 ** 32 - 1),
        specs=st.lists(st.tuples(st.integers(1, 5), st.sampled_from(KINDS)),
                       min_size=1, max_size=max_blocks),
        shuffle=st.booleans(),
        m=st.integers(0, 3),
    )


def cut_into_blocks(H):
    """H's diagonal blocks as ``BlockDiagonal`` stacks, cut where the dense scan ends them."""
    starts = dense_diagonal_blocks(H)
    sizes = np.diff(starts)
    groups = []
    for s in sorted(set(sizes.tolist()), reverse=True):
        idx = starts[:-1][sizes == s][:, None] + np.arange(s)
        groups.append((idx, H[idx[:, :, None], idx[:, None, :]]))
    return BlockDiagonal(H.shape[0], groups)


def instances(max_blocks):
    """``dense_instances`` with H passed as its diagonal blocks, as the fleet QP passes it."""
    return dense_instances(max_blocks).map(
        lambda data: DenseQp(**{**data, "H": cut_into_blocks(data["H"])}))


def small_instances():
    return instances(3).filter(lambda qp: qp.n <= 6)


def _starts(H):
    return DenseQp(H=H, f=np.zeros(H.shape[0])).H.starts


def dense_probe_shifts(H):
    """The dense probe: shift unless H - 1e-10 I has a Cholesky factor."""
    try:
        np.linalg.cholesky(H - 1e-10 * np.eye(H.shape[0]))
    except np.linalg.LinAlgError:
        return True
    return False


def dense_bound_shortcut(problem):
    """The bound shortcut on the whole regularized H: (x, objective) or None."""
    n = problem.n
    work = copy.copy(problem)
    work.H = np.asarray(problem.H)
    if dense_probe_shifts(work.H):
        work.H = work.H + 1e-9 * np.eye(n)
    H, f, lb, ub = work.H, work.f, work.lb, work.ub
    try:
        chol = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    x = -cho_solve((chol, True), f)
    at_lo = x < lb
    at_hi = x > ub
    if np.any(at_lo) or np.any(at_hi):
        x = np.where(at_lo, lb, np.where(at_hi, ub, x))
        free = ~(at_lo | at_hi)
        if np.any(free):
            rhs = f[free] + H[np.ix_(free, ~free)] @ x[~free]
            try:
                x[free] = -np.linalg.solve(H[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                return None
    grad = H @ x + f
    w = np.where(at_lo, np.maximum(grad, 0.0), 0.0)
    y = np.where(at_hi, np.maximum(-grad, 0.0), 0.0)
    mult = np.concatenate([np.zeros(work.m), w, y])
    if qp_mod._primal_violation(work, x) > 1e-10:
        return None
    if kkt_residual(work, x, mult) > 1e-8:
        return None
    return x, work.objective(x)


@SETTINGS
@given(dense_instances(10))
def test_blocks_partition_indices_and_hold_every_nonzero(data):
    H = data["H"]
    qp = DenseQp(**{**data, "H": cut_into_blocks(H)})
    n = qp.n
    starts = qp.H.starts
    assert starts[0] == 0 and starts[-1] == n
    assert np.all(np.diff(starts) > 0)           # every index in exactly one block
    block_of = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    rows, cols = np.nonzero(H)
    assert np.array_equal(block_of[rows], block_of[cols])   # no nonzero crosses blocks
    for a, b in zip(starts[:-1], starts[1:]):    # and no block splits further
        for i in range(a, b - 1):
            assert np.any(H[a:i + 1, i + 1:b] != 0.0)
    for idx, Hb in qp.H.groups:
        assert Hb.tobytes() == H[idx[:, :, None], idx[:, None, :]].tobytes()
    assert np.array_equal(np.asarray(qp.H), H)


@SETTINGS
@given(dense_instances(10))
def test_stored_starts_match_dense_scan(data):
    qp = DenseQp(**{**data, "H": cut_into_blocks(data["H"])})
    assert np.array_equal(qp.H.starts, dense_diagonal_blocks(data["H"]))


def test_dense_and_empty_hessians():
    # a dense H is one block, whatever its pattern
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6))
    assert _starts(A @ A.T).tolist() == [0, 6]
    assert _starts(np.zeros((3, 3))).tolist() == [0, 3]
    assert _starts(np.zeros((0, 0))).tolist() == [0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_centralized_starts_match_dense_scan(seed):
    central = lanes_centralized(16, seed)
    qp, np_steps = central.qp, central.np_steps
    assert np.array_equal(qp.H.starts, dense_diagonal_blocks(np.asarray(qp.H)))
    # one tracking block per vehicle, then one 1 x 1 zero block per slack
    sizes = np.diff(qp.H.starts).tolist()
    assert sizes == [np_steps] * 16 + [1] * (qp.n - central.n_controls)


@pytest.mark.parametrize("seed", [0, 1])
def test_shifted_copy_solves_from_the_same_starts(seed):
    qp = lanes_centralized(16, seed).qp
    shift = qp_mod._hessian_shift(qp.H)
    assert shift == 1e-9                 # the zero slack blocks fail the probe
    work = qp_mod._shifted(qp, shift)
    H, shifted = np.asarray(qp.H), np.asarray(work.H)
    slack = np.flatnonzero(np.diag(H) == 0.0)
    assert len(slack) and np.all(np.diag(shifted)[slack] == 1e-9)
    want = H.copy()
    want.flat[::qp.n + 1] += shift
    assert shifted.tobytes() == want.tobytes()   # the dense shift, value for value
    assert np.array_equal(work.H.starts, qp.H.starts)
    assert np.array_equal(work.H.starts, dense_diagonal_blocks(shifted))
    assert qp_mod._hessian_shift(work.H) == 0.0
    want, got = solve_qp(qp), solve_qp(work)
    assert got.path == want.path == "bound" and got.status == OPTIMAL
    assert np.array_equal(got.u_star, want.u_star)


@SETTINGS
@given(instances(10))
def test_regularization_decision_matches_dense_probe(qp):
    shift = qp_mod._hessian_shift(qp.H)
    assert shift in (0.0, 1e-9)
    assert (shift > 0.0) == dense_probe_shifts(np.asarray(qp.H))


@SETTINGS
@given(instances(10))
def test_block_shortcut_matches_dense_shortcut(qp):
    got = qp_mod._bound_shortcut(qp, qp_mod._hessian_shift(qp.H))
    want = dense_bound_shortcut(qp)
    assert (got is None) == (want is None)
    if got is None:
        return
    x, mult, kkt, objective, pviol = got
    assert pviol == qp_mod._primal_violation(qp, x)
    assert np.max(np.abs(x - want[0])) <= 1e-9
    assert abs(objective - want[1]) <= 1e-9 * (1.0 + abs(want[1]))
    assert kkt <= 1e-8
    sol = solve_qp(qp)
    assert sol.path == "bound" and sol.status == OPTIMAL and sol.iterations == 0
    assert np.array_equal(sol.u_star, x)


@SETTINGS
@given(small_instances())
def test_solve_qp_matches_enumeration(qp):
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert sol.path in ("bound", "ipm")
    assert qp_mod._primal_violation(qp, sol.u_star) <= 1e-8
    ref = enumerate_qp(qp.H, qp.f, qp.G, qp.h, qp.lb, qp.ub)
    assert ref is not None
    j = qp.objective(sol.u_star)
    assert abs(j - ref[1]) <= 1e-6 * (1.0 + abs(ref[1]))
