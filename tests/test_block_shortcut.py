"""The centralized QP's bound shortcut and regularization probe, per block and diagonal.

Hessians are k diagonal blocks of one size s (1-5), then a diagonal tail.
Each block is of a sampled kind: positive definite, zero (a slack block),
singular PSD, or with its smallest eigenvalue at 5e-11 or 2e-10, just below
and just above the 1e-10 probe floor.  The tail's entries are zero (the
slack diagonal of the fleet QP), positive, 5e-11 or 2e-10.  Each instance's
H is built dense and handed over as the blocks and tail cut from it, so the
shortcut works block by block.  The references are dense: one Cholesky
probe of H - 1e-10 I and one bound-pinning shortcut on the whole H.  The
zero-row exit, the shortcut and the dual active set all report on the one
regularized copy of the problem.
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
from oracles import enumerate_qp

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

KINDS = ("pd", "zero", "singular", "below_floor", "above_floor")
TAIL = ("zero", "positive", "below_floor", "above_floor")


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


def _entry(rng, kind):
    return {"zero": 0.0, "below_floor": 5e-11, "above_floor": 2e-10}.get(
        kind, float(rng.uniform(0.5, 3.0)))


def instance_arrays(seed, size, kinds, tail, m):
    """Dense data of a QP with len(kinds) blocks of ``size``, then the ``tail`` entries.

    Every variable is boxed.  Tracking-like variables get steering-like
    boxes around zero; variables of zero blocks and zero tail entries get
    slack-like boxes [0, c] and a positive cost.  Rows of G are random and
    hold at an interior anchor point.  ``split`` is where the tail starts.
    """
    rng = np.random.default_rng(seed)
    split = size * len(kinds)
    n = split + len(tail)
    H = np.zeros((n, n))
    f = rng.normal(size=n)
    lb = -rng.uniform(0.05, 0.6, n)
    ub = rng.uniform(0.05, 0.6, n)
    slack = np.zeros(n, dtype=bool)
    for b, kind in enumerate(kinds):
        blk = slice(b * size, (b + 1) * size)
        H[blk, blk] = _block(rng, size, kind)
        slack[blk] = kind == "zero"
    for i, kind in enumerate(tail, start=split):
        H[i, i] = _entry(rng, kind)
        slack[i] = kind == "zero"
    f[slack] = rng.uniform(0.1, 2.0, slack.sum())
    lb[slack] = 0.0
    ub[slack] = rng.uniform(0.5, 2.0, slack.sum())
    G = rng.normal(size=(m, n))
    anchor = rng.uniform(lb + 0.25 * (ub - lb), ub - 0.25 * (ub - lb))
    h = G @ anchor + rng.uniform(0.05, 1.0, m)
    return {"H": H, "split": split, "size": size,
            "f": f, "G": G, "h": h, "lb": lb, "ub": ub}


def dense_instances(max_blocks):
    return st.builds(
        instance_arrays,
        seed=st.integers(0, 2 ** 32 - 1),
        size=st.integers(1, 5),
        kinds=st.lists(st.sampled_from(KINDS), max_size=max_blocks),
        tail=st.lists(st.sampled_from(TAIL), max_size=6),
        m=st.integers(0, 3),
    ).filter(lambda data: len(data["f"]))


def cut(data):
    """The dense H of ``instance_arrays`` as its blocks and tail, as the fleet QP passes it."""
    H, split, s = data["H"], data["split"], data["size"]
    blocks = np.array([H[a:a + s, a:a + s] for a in range(0, split, s)]).reshape(-1, s, s)
    return BlockDiagonal(blocks, np.diag(H)[split:].copy())


def problem(data):
    return DenseQp(H=cut(data), **{k: data[k] for k in ("f", "G", "h", "lb", "ub")})


def instances(max_blocks):
    return dense_instances(max_blocks).map(problem)


def small_instances():
    return instances(3).filter(lambda qp: qp.n <= 6)


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
    H, s = data["H"], data["size"]
    qp = problem(data)
    n, split = qp.n, qp.H.split
    assert split == data["split"] and split + len(qp.H.diag) == n == len(H)
    for b, Hb in enumerate(qp.H.blocks):         # the blocks hold H's values
        assert Hb.tobytes() == H[b * s:(b + 1) * s, b * s:(b + 1) * s].tobytes()
    assert np.array_equal(qp.H.diag, np.diag(H)[split:])
    assert np.array_equal(np.asarray(qp.H), H)   # and nothing lies outside them


def test_dense_and_empty_hessians():
    # a dense H is one block and no diagonal, whatever its pattern
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6))
    for H in (A @ A.T, np.zeros((3, 3)), np.zeros((0, 0))):
        kept = DenseQp(H=H, f=np.zeros(len(H))).H
        assert kept.blocks.shape == (1, *H.shape) and kept.diag.shape == (0,)
        assert kept.split == kept.n == len(H)


@pytest.mark.parametrize("seed", [0, 1])
def test_shifted_copy_solves_from_the_same_starts(seed):
    central = lanes_centralized(16, seed)
    qp = central.qp
    shift = qp_mod._hessian_shift(qp.H)
    assert shift == 1e-9                 # the zero slack diagonal fails the probe
    work = qp_mod._shifted(qp, shift)
    assert qp.H.split == work.H.split == central.n_controls
    assert work.H.blocks.shape == qp.H.blocks.shape == (16, central.np_steps, central.np_steps)
    assert not qp.H.diag.any() and np.all(work.H.diag == 1e-9)
    H, shifted = np.asarray(qp.H), np.asarray(work.H)
    want = H.copy()
    want.flat[::qp.n + 1] += shift
    assert shifted.tobytes() == want.tobytes()   # the dense shift, value for value
    assert qp_mod._hessian_shift(work.H) == 0.0
    want, got = solve_qp(qp), solve_qp(work)
    assert got.path == want.path == "bound" and got.status == OPTIMAL
    assert np.array_equal(got.u_star, want.u_star)


ROWS = {"zero_row": {"G": [[0.0, 0.0, 0.0]], "h": [-1.0]},   # a row that cannot hold
        "bound": {},
        "dual": {"G": [[-1.0, -1.0, -1.0]], "h": [-1.5]}}       # active at the optimum


@pytest.mark.parametrize("path", sorted(ROWS))
def test_every_path_answers_the_regularized_problem(path):
    # the zero slack entry fails the probe: every path reports on H + 1e-9 I
    H = BlockDiagonal(np.array([[[2.0, 0.5], [0.5, 1.0]]]), np.zeros(1))
    qp = DenseQp(H=H, f=[1.0, -0.5, 1.0], lb=[0.25, -1.0, 0.0], ub=[1.0, 1.0, 2.0], **ROWS[path])
    work = qp_mod._shifted(qp, qp_mod._hessian_shift(qp.H))
    assert np.array_equal(np.asarray(work.H), np.asarray(H) + 1e-9 * np.eye(3))
    sol = solve_qp(qp)
    assert sol.path == path
    assert sol.objective == work.objective(sol.u_star) != qp.objective(sol.u_star)
    assert sol.kkt_residual == pytest.approx(kkt_residual(work, sol.u_star, sol.multipliers),
                                             rel=1e-6, abs=1e-12)


@SETTINGS
@given(instances(10))
def test_regularization_decision_matches_dense_probe(qp):
    shift = qp_mod._hessian_shift(qp.H)
    assert shift in (0.0, 1e-9)
    assert (shift > 0.0) == dense_probe_shifts(np.asarray(qp.H))


@SETTINGS
@given(instances(10))
def test_block_shortcut_matches_dense_shortcut(qp):
    got = qp_mod._bound_shortcut(qp_mod._shifted(qp, qp_mod._hessian_shift(qp.H)))
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
    assert sol.path in ("bound", "dual")
    assert qp_mod._primal_violation(qp, sol.u_star) <= 1e-8
    ref = enumerate_qp(qp.H, qp.f, qp.G, qp.h, qp.lb, qp.ub)
    assert ref is not None
    j = qp.objective(sol.u_star)
    assert abs(j - ref[1]) <= 1e-6 * (1.0 + abs(ref[1]))
