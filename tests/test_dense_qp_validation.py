"""DenseQp validates its data as the full-matrix rules do.

The references: keep H when ``array_equal(H, H.T)``, else use
``0.5 * (H + H.T)``; then require ``isfinite`` everywhere; a row of G is
zero when ``max(abs(G), axis=1) == 0``, and one with a negative offset makes
the problem infeasible.  A dense H is kept as one block, which must hold the
kept H's values bit for bit.  Hessians are block diagonal, dense or
asymmetric, passed as C-ordered, transposed or strided arrays, with entries
poked in mirrored pairs: NaN, +-inf, -0.0 against 0.0, and values near the
largest float whose symmetrized mean overflows.  Mis-shaped data and bounds
infinite on the wrong side raise ``ParameterError`` naming the field.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetcoord import INFEASIBLE, OPTIMAL, DenseQp, ParameterError, solve_qp

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

SPECIAL = (0.0, -0.0, 1.0, -2.5, np.nan, np.inf, -np.inf, 1.5e308, 1.0e308, -1.7e308)


def reference_hessian(H):
    """(the H a problem keeps, or the ParameterError message) by the full-matrix rule."""
    H = np.asarray(H, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        kept = H if np.array_equal(H, H.T) else 0.5 * (H + H.T)
    if not np.all(np.isfinite(kept)):
        return None, "H must be finite"
    return kept, None


def _outcome(build):
    try:
        return build(), None
    except ParameterError as err:
        return None, str(err)


@st.composite
def hessians(draw):
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("blocks", "dense", "asymmetric", "zero")))
    H = np.zeros((n, n))
    if kind == "blocks":
        start = 0
        while start < n:
            size = int(rng.integers(1, n - start + 1))
            A = rng.normal(size=(size, size)) * (rng.random((size, size)) < 0.7)
            H[start:start + size, start:start + size] = A + A.T
            start += size
    elif kind == "dense":
        A = rng.normal(size=(n, n))
        H = A + A.T
    elif kind == "asymmetric":
        H = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
    pokes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from(SPECIAL), st.sampled_from(SPECIAL)),
                          max_size=3))
    for i, j, value, mirror in pokes:
        H[j, i] = mirror
        H[i, j] = value
    layout = draw(st.sampled_from(("c", "transposed", "strided", "list")))
    if layout == "transposed":
        return np.ascontiguousarray(H.T).T          # Fortran order, same values
    if layout == "strided":
        big = np.full((2 * n, 2 * n), 7.0)
        big[::2, ::2] = H
        return big[::2, ::2]
    if layout == "list":
        return H.tolist()
    return H


@SETTINGS
@given(hessians())
def test_hessian_validation_matches_full_matrix_rule(H):
    want, want_err = reference_hessian(H)
    qp, err = _outcome(lambda: DenseQp(H=H, f=np.zeros(len(H))))
    assert err == want_err
    if err is not None:
        return
    assert qp.H.blocks.tobytes() == want[None].tobytes()    # the block holds the kept values
    dense = np.asarray(qp.H)                         # and nothing lies outside them
    assert np.array_equal(dense, want)               # (a -0.0 there reads back as 0.0)
    assert np.array_equal(dense, dense.T)


def test_nan_and_inf_whose_mirror_is_zero_are_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        H = np.eye(3)
        H[0, 2] = bad
        with pytest.raises(ParameterError, match="H must be finite"):
            DenseQp(H=H, f=np.zeros(3))


def test_negative_zero_mirrors_zero():
    H = np.eye(3)
    H[0, 1] = -0.0
    qp = DenseQp(H=H, f=np.zeros(3))
    assert qp.H.blocks.shape == (1, 3, 3) and qp.H.diag.size == 0
    assert qp.H.blocks[0].tobytes() == H.tobytes()          # symmetric: kept as given
    assert np.array_equal(np.asarray(qp.H), np.eye(3))


def test_overflowing_symmetrization_is_rejected():
    H = np.eye(2)
    H[0, 1], H[1, 0] = 1.5e308, 1.0e308             # finite, but their mean overflows
    with pytest.raises(ParameterError, match="H must be finite"):
        DenseQp(H=H, f=np.zeros(2))


@st.composite
def row_matrices(draw):
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
    for _ in range(draw(st.integers(0, 2))):
        if m:
            G[rng.integers(m), rng.integers(n)] = draw(st.sampled_from(SPECIAL))
    return G


@SETTINGS
@given(row_matrices())
def test_row_validation_matches_full_matrix_rule(G):
    m, n = G.shape
    qp, err = _outcome(lambda: DenseQp(H=np.eye(n), f=np.zeros(n), G=G, h=np.zeros(m)))
    finite = bool(np.all(np.isfinite(G)))
    assert err == (None if finite else "G must be finite")
    if finite:
        zero_row = bool(m) and bool(np.any(np.max(np.abs(G), axis=1) == 0.0))
        # the same zeros (-0.0 kept) and +-1 elsewhere, so the solve cannot overflow
        signs = np.where(G != 0.0, np.sign(G), G)
        sol = solve_qp(DenseQp(H=np.eye(n), f=np.zeros(n), G=signs, h=-np.ones(m)))
        assert (sol.path == "zero_row") == zero_row
        if zero_row:
            assert sol.status == INFEASIBLE


def test_zero_row_is_infeasible_only_with_a_negative_offset():
    G = np.array([[1.0, 0.0], [0.0, 0.0]])
    for h1, path in ((-1e-9, "zero_row"), (-1e-13, "bound"), (0.0, "bound")):
        sol = solve_qp(DenseQp(H=np.eye(2), f=np.ones(2), G=G, h=[1.0, h1]))
        assert sol.path == path
        assert sol.status == (INFEASIBLE if path == "zero_row" else OPTIMAL)


@pytest.mark.parametrize("field, value", [
    ("G", np.arange(6.0).reshape(2, 3)),     # the transposed shape, once read as 3 x 2
    ("G", np.ones((3, 3))),
    ("G", np.ones(2)),
    ("G", np.ones((1, 1, 2))),
    ("f", np.ones(3)),
    ("f", np.ones(1)),
    ("h", np.ones(4)),
    ("lb", -np.ones(3)),
    ("ub", np.ones(1)),
])
def test_misshaped_data_is_rejected_by_name(field, value):
    data = {"H": np.eye(2), "f": np.zeros(2), "G": np.ones((3, 2)), "h": np.ones(3),
            "lb": -np.ones(2), "ub": np.ones(2)}
    data[field] = value
    message = {"G": "G must be a 2-D array with 2 columns", "h": "h must have 3 entries"}
    with pytest.raises(ParameterError, match=message.get(field, f"{field} must have 2 entries")):
        DenseQp(**data)


def test_bounds_infinite_on_the_wrong_side_are_rejected():
    message = "lb must not be \\+inf and ub must not be -inf"
    with pytest.raises(ParameterError, match=message):
        DenseQp(H=np.eye(2), f=np.zeros(2), lb=[np.inf, -1.0])
    with pytest.raises(ParameterError, match=message):     # with a row x0 <= -1
        DenseQp(H=np.eye(2), f=np.zeros(2), G=[[1.0, 0.0]], h=[-1.0], lb=[np.inf, -1.0])
    with pytest.raises(ParameterError, match=message):
        DenseQp(H=np.eye(2), f=np.zeros(2), ub=[1.0, -np.inf])
    # +inf above and -inf below are open bounds
    sol = solve_qp(DenseQp(H=np.eye(2), f=np.ones(2), lb=[-np.inf, -np.inf],
                           ub=[np.inf, np.inf]))
    assert sol.status == OPTIMAL and np.array_equal(sol.u_star, [-1.0, -1.0])
