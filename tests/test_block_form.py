"""The QP's Hessian held as its diagonal blocks (``BlockDiagonal``).

A dense H is kept as one block: on criterion 2's random dense QPs and on
the randomized fleets of ``instances.py`` it is stored as that block and
solves bit-identically to the same block passed as a ``BlockDiagonal``.
Blocks that do not tile [0, n), that hold a non-finite entry or that are
mis-shaped raise ``ParameterError`` naming H; an asymmetric block is
symmetrized as the dense path does.  A centralized cycle of the lane grid
never allocates as much as one dense n x n H.
"""

import tracemalloc

import numpy as np
import pytest

from fleetcoord import BlockDiagonal, DenseQp, ParameterError, build_centralized, solve_qp
from fleetcoord import qp as qp_mod

from instances import lanes_cycle, random_fleet_instance


def assert_same_solution(got, want):
    assert (got.status, got.path, got.iterations) == (want.status, want.path, want.iterations)
    assert got.u_star.tobytes() == want.u_star.tobytes()
    assert got.multipliers.tobytes() == want.multipliers.tobytes()
    assert got.kkt_residual == want.kkt_residual


def one_block(H):
    """The n x n H as one explicit block."""
    n = H.shape[0]
    return BlockDiagonal(n, [(np.arange(n)[None], H[None])])


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
        assert block.H.starts.tolist() == dense.H.starts.tolist() == [0, n]
        assert_same_solution(solve_qp(block), solve_qp(dense))


def test_dense_fleet_hessian_is_kept_as_one_block():
    rng = np.random.default_rng(5)
    paths = set()
    for _ in range(12):
        local, edges, _ = random_fleet_instance(rng, np_steps=5)
        qp = build_centralized(local, edges).qp
        H = np.asarray(qp.H)
        data = {"f": qp.f, "G": qp.G, "h": qp.h, "lb": qp.lb, "ub": qp.ub}
        dense = DenseQp(H=H, **data)
        ((idx, blocks),) = dense.H.groups
        assert idx.tolist() == [list(range(qp.n))] and blocks.tobytes() == H[None].tobytes()
        assert dense.H.starts.tolist() == [0, qp.n]
        got = solve_qp(dense)
        assert_same_solution(got, solve_qp(DenseQp(H=one_block(H), **data)))
        paths.add(got.path)
    assert paths == {"bound", "ipm"}     # both solver paths are compared


def test_product_and_dense_matrix():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3))
    H = BlockDiagonal(6, [(np.array([[0, 1, 2]]), (A + A.T)[None]),
                          (np.array([[3], [4], [5]]), rng.normal(size=(3, 1, 1)))])
    dense = np.asarray(H)
    assert dense.shape == H.shape == (6, 6)
    assert np.array_equal(dense[:3, 3:], np.zeros((3, 3)))
    x = rng.normal(size=6)
    assert np.allclose(H @ x, dense @ x, rtol=1e-14, atol=0.0)
    assert np.array_equal((H @ x)[3:], np.diag(dense)[3:] * x[3:])
    shifted = np.asarray(H.shifted(1e-9))
    want = dense.copy()
    want.flat[::7] += 1e-9
    assert shifted.tobytes() == want.tobytes()
    assert np.asarray(H).tobytes() == dense.tobytes()     # shifting leaves H as it was


def _pair(idx):
    idx = np.asarray(idx)
    return idx, np.broadcast_to(np.eye(idx.shape[1]), (*idx.shape, idx.shape[1]))


@pytest.mark.parametrize("n, groups", [
    (3, [_pair([[0, 1], [1, 2]])]),                  # overlap
    (4, [_pair([[0, 1]]), _pair([[3]])]),            # gap
    (3, [_pair([[0, 1], [2, 3]])]),                  # overrun
    (3, [_pair([[1, 2]]), _pair([[3]])]),            # does not start at 0
    (3, [_pair([[0, 2]]), _pair([[1]])]),            # indices not contiguous
    (2, [_pair([[0], [0]]), _pair([[1]])]),          # one index twice
    (2, []),                                         # nothing covers n > 0
    (0, [_pair([[0]])]),
])
def test_blocks_must_tile_the_indices(n, groups):
    with pytest.raises(ParameterError, match="H's blocks must tile"):
        BlockDiagonal(n, groups)


@pytest.mark.parametrize("groups", [
    [(np.array([0, 1]), np.eye(2)[None])],                        # 1-D indices
    [(np.array([[0, 1]]), np.eye(2))],                            # 2-D values
    [(np.array([[0, 1]]), np.ones((1, 2, 3)))],                   # not square
    [(np.array([[0, 1]]), np.eye(2)[None].repeat(2, axis=0))],    # k disagrees
    [(np.array([[0.0, 1.0]]), np.eye(2)[None])],                  # float indices
    [(np.zeros((1, 0), dtype=int), np.zeros((1, 0, 0)))],         # size 0
])
def test_misshaped_stacks_are_rejected(groups):
    with pytest.raises(ParameterError, match="H's blocks must be stacks"):
        BlockDiagonal(2, groups)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_blocks_are_rejected(bad):
    B = np.eye(2)[None].repeat(2, axis=0)
    B[1, 0, 1] = B[1, 1, 0] = bad
    with pytest.raises(ParameterError, match="H must be finite"):
        BlockDiagonal(4, [(np.array([[0, 1], [2, 3]]), B)])
    with pytest.raises(ParameterError, match="H must be finite"):
        BlockDiagonal(3, [(np.array([[0], [1], [2]]), np.full((3, 1, 1), bad))])


def test_overflowing_symmetrization_is_rejected():
    B = np.array([[[1.0, 1.5e308], [1.0e308, 1.0]]])   # finite, but the mean overflows
    with pytest.raises(ParameterError, match="H must be finite"):
        BlockDiagonal(2, [(np.array([[0, 1]]), B)])


def test_asymmetric_block_is_symmetrized():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    S = np.array([[3.0, 0.25], [0.25, 1.0]])
    stack = np.stack([S, A])
    H = BlockDiagonal(4, [(np.array([[0, 1], [2, 3]]), stack)])
    sym = H.groups[0][1]
    assert sym[0].tobytes() == S.tobytes()                          # kept as given
    assert sym[1].tobytes() == (0.5 * (A + A.T)).tobytes()
    assert stack[1].tobytes() == A.tobytes()                        # the caller's stays
    dense = np.zeros((4, 4))
    dense[:2, :2], dense[2:, 2:] = S, A
    assert np.asarray(H).tobytes() == np.asarray(DenseQp(H=dense, f=np.zeros(4)).H).tobytes()


def test_symmetric_float_stacks_are_kept_uncopied():
    idx, B = np.array([[0, 1]]), np.eye(2)[None] * 2.0
    H = BlockDiagonal(2, [(idx, B)])
    assert H.groups[0][1] is B
    assert np.array_equal(H.starts, [0, 2])


def test_empty_hessian():
    H = BlockDiagonal(0, [])
    assert H.starts.tolist() == [0] and np.asarray(H).shape == (0, 0)
    assert (H @ np.zeros(0)).shape == (0,)


def test_lane_grid_cycle_never_holds_a_dense_hessian():
    # tracemalloc sees numpy's buffers: the peak of one centralized cycle,
    # assembly and solve, stays below the bytes of one dense n x n H
    local, edges = lanes_cycle(64, 1)
    qp_mod._lapack()                     # scipy's import is not the cycle's
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
