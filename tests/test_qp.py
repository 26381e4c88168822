import warnings

import numpy as np
import pytest

from fleetcoord import (INFEASIBLE, OPTIMAL, DenseQp, ParameterError,
                        kkt_residual, solve_qp)

from fleetcoord import qp as qp_mod

from oracles import enumerate_qp


def random_strictly_convex(rng, n, m, with_bounds=False):
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    f = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    lb = ub = None
    anchor = rng.normal(size=n)
    if with_bounds:
        lb = rng.uniform(-3.0, -1.0, size=n)
        ub = rng.uniform(1.0, 3.0, size=n)
        anchor = rng.uniform(lb + 0.1, ub - 0.1)   # keep the rows satisfiable in the box
    h = G @ anchor + rng.uniform(0.1, 1.0, size=m)
    return DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub)


def test_active_bound_example():
    # min (u - 1)^2 subject to u <= 0; in QP form H=2, f=-2 (constant dropped)
    sol = solve_qp(DenseQp(H=[[2.0]], f=[-2.0], G=[[1.0]], h=[0.0]))
    assert sol.status == OPTIMAL
    assert abs(sol.u_star[0]) <= 1e-6
    assert abs(sol.objective) <= 2e-6   # 0.5*H*u^2 + f*u at u*=0


def test_unconstrained_stationarity():
    b = np.array([0.5, -1.25, 2.0, 3.5])
    sol = solve_qp(DenseQp(H=np.eye(4), f=-b))
    assert sol.status == OPTIMAL
    assert np.allclose(sol.u_star, b, atol=1e-9)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for trial in range(15):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        qp = random_strictly_convex(rng, n, m)
        sol = solve_qp(qp)
        ref = enumerate_qp(qp.H, qp.f, qp.G, qp.h)
        assert ref is not None
        assert sol.status == OPTIMAL
        assert np.max(np.abs(sol.u_star - ref[0])) <= 1e-6
        assert sol.kkt_residual <= 1e-6


def test_bounds_equal_explicit_rows():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        qp = random_strictly_convex(rng, n, 3, with_bounds=True)
        rows = np.vstack([qp.G, np.eye(n), -np.eye(n)])
        rhs = np.concatenate([qp.h, qp.ub, -qp.lb])
        alt = DenseQp(H=qp.H, f=qp.f, G=rows, h=rhs)
        a = solve_qp(qp)
        b = solve_qp(alt)
        assert a.status == OPTIMAL and b.status == OPTIMAL
        assert np.max(np.abs(a.u_star - b.u_star)) <= 1e-6
        ref = enumerate_qp(qp.H, qp.f, qp.G, qp.h, qp.lb, qp.ub)
        assert np.max(np.abs(a.u_star - ref[0])) <= 1e-6


def test_kkt_residual_detects_perturbation():
    sol = solve_qp(DenseQp(H=[[2.0]], f=[-2.0], G=[[1.0]], h=[0.0]))
    qp = DenseQp(H=[[2.0]], f=[-2.0], G=[[1.0]], h=[0.0])
    assert kkt_residual(qp, sol.u_star, sol.multipliers) <= 1e-6
    assert kkt_residual(qp, sol.u_star + 0.1, sol.multipliers) > 1e-3


def test_kkt_residual_at_oracle_solution():
    rng = np.random.default_rng(29)
    qp = random_strictly_convex(rng, 4, 5)
    ref = enumerate_qp(qp.H, qp.f, qp.G, qp.h)
    sol = solve_qp(qp)
    assert abs(sol.objective - ref[1]) <= 1e-6 * (1 + abs(ref[1]))


def test_row_scaling_invariance():
    rng = np.random.default_rng(41)
    qp = random_strictly_convex(rng, 4, 6)
    scale = rng.uniform(0.01, 100.0, size=6)
    scaled = DenseQp(H=qp.H, f=qp.f, G=scale[:, None] * qp.G, h=scale * qp.h)
    a = solve_qp(qp)
    b = solve_qp(scaled)
    assert np.max(np.abs(a.u_star - b.u_star)) <= 1e-6


def test_infeasible_rows_detected():
    # u <= -1 and -u <= -1 cannot hold together
    sol = solve_qp(DenseQp(H=[[2.0]], f=[0.0], G=[[1.0], [-1.0]], h=[-1.0, -1.0]))
    assert sol.status == INFEASIBLE


@pytest.mark.parametrize("h, gap", [([-1.0, -3.0], 4.0), ([-0.5, 0.0], 0.5), ([1.0, 0.0], 0.0)])
def test_feasibility_gap_is_the_least_total_row_violation(h, gap):
    # over 0 <= u <= 1, the rows u <= h0 and -u <= h1 miss by (u - h0)+ + (-u - h1)+
    qp = DenseQp(H=[[1.0]], f=[0.0], G=[[1.0], [-1.0]], h=h, lb=[0.0], ub=[1.0])
    assert qp_mod._feasibility_gap(qp) == pytest.approx(gap, abs=1e-6)


def test_zero_row_infeasibility_detected():
    sol = solve_qp(DenseQp(H=np.eye(2), f=[0.0, 0.0],
                           G=[[0.0, 0.0]], h=[-1.0]))
    assert sol.status == INFEASIBLE


def test_semidefinite_hessian_guard():
    # slack-style variable with zero curvature and a linear cost
    qp = DenseQp(H=np.diag([1.0, 0.0]), f=[0.0, 1e4],
                 G=[[-1.0, -1.0]], h=[-3.0], lb=[-np.inf, 0.0])
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert sol.u_star[0] == pytest.approx(3.0, abs=1e-5)
    assert sol.u_star[1] == pytest.approx(0.0, abs=1e-7)


def test_pinned_variable_eliminated():
    qp = DenseQp(H=np.eye(2), f=[1.0, -4.0], lb=[0.5, -10.0], ub=[0.5, 10.0])
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert sol.u_star[0] == pytest.approx(0.5)
    assert sol.u_star[1] == pytest.approx(4.0)


def test_pinned_variables_are_ordinary_bounds():
    # criterion-2 data (H = MM' + I, rows satisfiable at an anchor, at least
    # one row) with a random non-empty subset pinned by lb == ub at the
    # anchor: the one pipeline answers each like any bounded QP.  n <= 5 and
    # m <= 6 keep the oracle's enumeration over m + 2 |pinned| rows small.
    rng = np.random.default_rng(71)
    for trial in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        f = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        anchor = rng.normal(size=n)
        h = G @ anchor + rng.uniform(0.1, 1.0, size=m)
        pinned = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        lb = np.full(n, -np.inf)
        ub = np.full(n, np.inf)
        lb[pinned] = ub[pinned] = anchor[pinned]
        qp = DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub)
        sol = solve_qp(qp)
        ref = enumerate_qp(H, f, G, h, lb, ub)
        assert ref is not None, trial
        assert sol.status == OPTIMAL, trial
        assert kkt_residual(qp, sol.u_star, sol.multipliers) <= 1e-8, trial
        assert np.max(np.abs(sol.u_star - ref[0])) <= 1e-6, trial


def test_all_pinned_with_a_violated_row_is_infeasible():
    # u = (1, 1) is forced by the bounds, and u1 + u2 <= 0 rejects it
    qp = DenseQp(H=np.eye(2), f=[0.0, 0.0], G=[[1.0, 1.0]], h=[0.0],
                 lb=[1.0, 1.0], ub=[1.0, 1.0])
    assert solve_qp(qp).status == INFEASIBLE


def test_overflowing_newton_matrix_ends_without_a_warning():
    # finite data whose products G'z and a'P^-1 a overflow: no stage answers
    qp = DenseQp(H=np.eye(1), f=np.zeros(1), G=[[1.5e308]], h=[-1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_qp(qp)
    assert sol.path == "dual" and sol.status != OPTIMAL
    assert np.all(np.isfinite(sol.u_star))


def test_validation_errors():
    with pytest.raises(ParameterError):
        DenseQp(H=[[1.0, 0.0]], f=[0.0])                 # not square
    with pytest.raises(ParameterError):
        DenseQp(H=[[np.nan]], f=[0.0])
    with pytest.raises(ParameterError):
        DenseQp(H=[[1.0]], f=[0.0], lb=[1.0], ub=[-1.0])  # lb > ub


def test_deterministic_repeat():
    rng = np.random.default_rng(53)
    qp = random_strictly_convex(rng, 5, 6, with_bounds=True)
    a = solve_qp(qp)
    b = solve_qp(qp)
    assert np.array_equal(a.u_star, b.u_star)
    assert a.objective == b.objective


def stiff_strictly_convex(rng, n, m):
    """H's eigenvalues span 1e-9 to 1e3, so the dual's Hessian G H^-1 G' reaches 1e13."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * np.logspace(-9, 3, n)) @ Q.T
    G = rng.normal(size=(m, n)) * 100.0
    h = G @ rng.normal(size=n) + rng.uniform(0.0, 1.0, m)
    return DenseQp(H=0.5 * (H + H.T), f=rng.normal(size=n) * 100.0, G=G, h=h)


def test_callers_hessian_is_left_unchanged():
    # an exactly symmetric H is stored value for value as its blocks, and
    # neither construction nor any solve_qp stage writes into the caller's
    # array: the bound shortcut and the dual (whose kernel reads H through
    # H[None] views) alike.  The third instance's unconstrained minimizer
    # lies inside its box; the fourth is so stiff that the dual method gives
    # up on P and answers through its proximal retry and the polish
    rng = np.random.default_rng(21)
    instances = [random_strictly_convex(rng, 6, 4, with_bounds=wb) for wb in (False, True)]
    inside = random_strictly_convex(rng, 6, 4)
    instances += [DenseQp(H=inside.H, f=inside.f, lb=np.full(6, -1e3), ub=np.full(6, 1e3)),
                  stiff_strictly_convex(rng, 6, 8)]
    paths = []
    for qp in instances:
        H = np.asarray(qp.H)
        assert np.array_equal(H, H.T)
        before = H.tobytes()
        kept = DenseQp(H=H, f=qp.f, G=qp.G, h=qp.h, lb=qp.lb, ub=qp.ub)
        assert np.asarray(kept.H).tobytes() == before
        sol = solve_qp(kept)
        assert sol.status == OPTIMAL
        assert H.tobytes() == before
        paths.append(sol.path)
    assert paths == ["dual", "dual", "bound", "dual"]


def test_asymmetric_hessian_is_still_symmetrized():
    H = np.array([[2.0, 1.0], [0.0, 2.0]])
    qp = DenseQp(H=H, f=[0.0, 0.0])
    assert np.asarray(qp.H).tobytes() == np.array([[2.0, 0.5], [0.5, 2.0]]).tobytes()
    assert H.tobytes() == np.array([[2.0, 1.0], [0.0, 2.0]]).tobytes()
    with pytest.raises(ParameterError):
        DenseQp(H=[[1.0, np.nan], [0.0, 1.0]], f=[0.0, 0.0])
