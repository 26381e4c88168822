"""The QP's Hessian held as equal diagonal blocks plus a diagonal (``BlockDiagonal``).

``H @ x``, ``np.asarray(H)`` and ``H.shifted(c)`` agree with the dense
matrix for every split of n into k blocks of size s and a diagonal tail,
including n = 0 and k = 0.  A dense H is kept as one block: on criterion
2's random dense QPs and on the randomized fleets of ``instances.py`` it is
stored as that block and solves bit-identically to the same block passed as
a ``BlockDiagonal``.  Mis-shaped parts, a non-finite entry and an
overflowing symmetrization raise ``ParameterError`` naming H; an asymmetric
block is symmetrized as the dense path does.  A centralized cycle of the
lane grid never allocates as much as one dense n x n H.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcoord import BlockDiagonal, DenseQp, ParameterError, build_centralized, solve_qp

from instances import lanes_cycle, random_fleet_instance


def assert_same_solution(got, want):
    assert (got.status, got.path, got.iterations) == (want.status, want.path, want.iterations)
    assert got.u_star.tobytes() == want.u_star.tobytes()
    assert got.multipliers.tobytes() == want.multipliers.tobytes()
    assert got.kkt_residual == want.kkt_residual


def one_block(H):
    """The n x n H as one explicit block."""
    return BlockDiagonal(H[None])


def test_criterion_2_qps_solve_alike_dense_and_as_one_block():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        f = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        h = G @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m)
        dense = DenseQp(H=H, f=f, G=G, h=h)
        block = DenseQp(H=one_block(H), f=f, G=G, h=h)
        assert block.H.blocks.shape == dense.H.blocks.shape == (1, n, n)
        assert block.H.diag.size == dense.H.diag.size == 0
        assert_same_solution(solve_qp(block), solve_qp(dense))


def test_dense_fleet_hessian_is_kept_as_one_block():
    rng = np.random.default_rng(5)
    paths = set()
    for trial in range(13):
        local, edges, _ = random_fleet_instance(rng, np_steps=5)
        qp = build_centralized(local, edges).qp
        H = np.asarray(qp.H)
        data = {"f": qp.f, "G": qp.G, "h": qp.h, "lb": qp.lb, "ub": qp.ub}
        if trial == 12:
            # u_0 <= -1 and -u_0 <= -1 contradict: the dual is unbounded
            extra = np.zeros((2, qp.n))
            extra[:, 0] = [1.0, -1.0]
            data.update(G=np.vstack([qp.G, extra]), h=np.concatenate([qp.h, [-1.0, -1.0]]))
        dense = DenseQp(H=H, **data)
        assert dense.H.blocks.tobytes() == H[None].tobytes() and dense.H.diag.size == 0
        assert dense.H.split == qp.n
        got = solve_qp(dense)
        assert_same_solution(got, solve_qp(DenseQp(H=one_block(H), **data)))
        paths.add(got.path)
    assert paths == {"bound", "dual"}     # every solver path is compared


@st.composite
def split_hessians(draw):
    """(blocks, diag, dense H, x, shift) for k blocks of size s and a tail of diagonal entries."""
    k, s, tail = draw(st.integers(0, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(k, s, s))
    blocks = A + A.transpose(0, 2, 1)
    diag = rng.normal(size=tail) * (rng.random(tail) < 0.7)
    n = k * s + tail
    dense = np.zeros((n, n))
    for b in range(k):
        dense[b * s:(b + 1) * s, b * s:(b + 1) * s] = blocks[b]
    dense[k * s:, k * s:] = np.diag(diag)
    return blocks, diag, dense, rng.normal(size=n), draw(st.sampled_from((1e-9, 0.5, -2.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(split_hessians())
def test_product_and_dense_matrix(case):
    blocks, diag, dense, x, shift = case
    H = BlockDiagonal(blocks, diag)
    n = len(dense)
    assert H.shape == (n, n) and H.split == blocks.shape[0] * blocks.shape[1]
    assert np.asarray(H).tobytes() == dense.tobytes()
    assert np.allclose(H @ x, dense @ x, rtol=1e-14, atol=1e-14)
    assert np.array_equal((H @ x)[H.split:], diag * x[H.split:])
    want = dense.copy()
    want.flat[::n + 1] += shift
    assert np.asarray(H.shifted(shift)).tobytes() == want.tobytes()
    assert np.asarray(H).tobytes() == dense.tobytes()     # shifting leaves H as it was


@pytest.mark.parametrize("blocks, diag", [
    (np.eye(2), None),
    (np.ones((1, 2, 3)), None),
    (np.ones((1, 1, 2, 2)), None),
    (np.ones(2), None),
    (None, np.ones((2, 1))),
    (None, 1.0),
], ids=["stack-2d", "stack-not-square", "stack-4d", "stack-1d", "diag-2d", "diag-scalar"])
def test_misshaped_parts_are_rejected(blocks, diag):
    with pytest.raises(ParameterError, match="H's blocks must be a"):
        BlockDiagonal(blocks, diag)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_blocks_are_rejected(bad):
    B = np.eye(2)[None].repeat(2, axis=0)
    B[1, 0, 1] = B[1, 1, 0] = bad
    with pytest.raises(ParameterError, match="H must be finite"):
        BlockDiagonal(B, np.ones(2))
    with pytest.raises(ParameterError, match="H must be finite"):
        BlockDiagonal(np.eye(2)[None], np.array([1.0, bad, 1.0]))


def test_overflowing_symmetrization_is_rejected():
    B = np.array([[[1.0, 1.5e308], [1.0e308, 1.0]]])   # finite, but the mean overflows
    with pytest.raises(ParameterError, match="H must be finite"):
        BlockDiagonal(B)


def test_asymmetric_block_is_symmetrized():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    S = np.array([[3.0, 0.25], [0.25, 1.0]])
    stack = np.stack([S, A])
    H = BlockDiagonal(stack, np.array([4.0]))
    assert H.blocks[0].tobytes() == S.tobytes()                     # kept as given
    assert H.blocks[1].tobytes() == (0.5 * (A + A.T)).tobytes()
    assert stack[1].tobytes() == A.tobytes()                        # the caller's stays
    dense = np.zeros((5, 5))
    dense[:2, :2], dense[2:4, 2:4], dense[4, 4] = S, A, 4.0
    assert np.asarray(H).tobytes() == np.asarray(DenseQp(H=dense, f=np.zeros(5)).H).tobytes()


def test_symmetric_float_stacks_are_kept_uncopied():
    B, d = np.eye(2)[None] * 2.0, np.array([1.0, 0.0])
    H = BlockDiagonal(B, d)
    assert H.blocks is B and H.diag is d
    assert H.split == 2 and H.n == 4


def test_empty_hessian():
    for H in (BlockDiagonal(), DenseQp(H=np.zeros((0, 0)), f=np.zeros(0)).H):
        assert H.n == H.split == 0 and np.asarray(H).shape == (0, 0)
        assert (H @ np.zeros(0)).shape == (0,)


def test_lane_grid_cycle_never_holds_a_dense_hessian():
    # tracemalloc sees numpy's buffers: the peak of one centralized cycle,
    # assembly and solve, stays below the bytes of one dense n x n H
    local, edges = lanes_cycle(64, 1)
    tracemalloc.start()
    try:
        central = build_centralized(local, edges)
        sol = solve_qp(central.qp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = central.qp.n
    assert n == 1905 and sol.path == "bound"
    assert peak < n * n * 8, f"peak {peak / 1e6:.1f} MB, one dense H {n * n * 8 / 1e6:.1f} MB"
