"""DenseQp's one nonzero-pattern pass validates as the full-matrix rule does.

The reference is the rule it replaced: keep H when ``array_equal(H, H.T)``,
else use ``0.5 * (H + H.T)``; then require ``isfinite`` everywhere; find G's
zero rows as ``max(abs(G), axis=1) == 0``.  The problem keeps H as its
diagonal blocks, which must hold the kept H's values bit for bit.  Hessians are block diagonal,
dense or asymmetric, passed as C-ordered, transposed or strided arrays, with
entries poked in mirrored pairs: NaN, +-inf, -0.0 against 0.0, and values
near the largest float whose symmetrized mean overflows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetcoord import DenseQp, ParameterError

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
    for idx, B in qp.H.groups:                       # the blocks hold the kept values
        assert B.tobytes() == want[idx[:, :, None], idx[:, None, :]].tobytes()
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
    assert qp.block_starts.tolist() == [0, 1, 2, 3]
    assert np.asarray(qp.H).tobytes() == np.eye(3).tobytes()


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
        want = np.max(np.abs(G), axis=1) == 0.0 if m else np.zeros(0, dtype=bool)
        assert np.array_equal(qp.zero_rows, want)
