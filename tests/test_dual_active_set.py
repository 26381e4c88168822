"""The centralized QP solved by its dual active set, the elastic slack columns eliminated.

Instances have the fleet QP's slack pattern: steering-like boxed variables
in one to three positive definite blocks, then one slack column per row
with a zero Hessian entry, lb = 0, no upper bound and a positive linear
cost from 1 to 1e4; its one coefficient in G is negative.  With several
blocks each row's steering part spans two of them, as a separation row
spans two vehicles.  Row 0 cannot hold within the steering box, so its
slack is positive and the bound shortcut cannot answer; a row whose
steering part is zero is fixed in closed form.  ``solve_qp`` must answer
them on the ``dual`` path, KKT-verified, at the objective that exhaustive
enumeration finds on the regularized problem.  A diagonal column that
breaks the pattern stays in the dual as a 1 x 1 block.  One dual
solve of a recorded crossing fleet QP stays within half the memory of the
dual Hessian over all its rows.  The ADMM nodes' kernel, ``qp._BoxDual``,
is checked on its own against the same enumeration, its capped rows posed
as slack columns, also in an edge node's shape.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetcoord import (OPTIMAL, BlockDiagonal, DenseQp, generate_crossing_scenario, kkt_residual,
                        run_simulation, solve_qp)
from fleetcoord import qp as qp_mod

from oracles import enumerate_qp

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def slack_data(seed, shape, costs, fixed_row=False):
    """k steering blocks of size s (shape), one slack per row at costs[r], as arrays.

    With k > 1 each row's steering part spans two blocks, the way an edge
    row spans its two vehicles' steering.
    """
    rng = np.random.default_rng(seed)
    k, s = shape
    n_steer, m = k * s, len(costs)
    B = rng.normal(size=(k, s, s))
    blocks = B @ B.transpose(0, 2, 1) + 0.1 * np.eye(s)
    f = np.concatenate([rng.normal(size=n_steer), costs])
    G_u = rng.normal(size=(m, n_steer))
    if k > 1:
        for r in range(m):
            G_u[r] *= np.repeat(np.isin(np.arange(k), rng.choice(k, 2, replace=False)), s)
    h = rng.uniform(-3.0, 1.0, m)
    box = rng.uniform(0.1, 0.7, n_steer)
    h[0] = -np.abs(G_u[0]) @ box - rng.uniform(0.1, 2.0)   # beyond the box
    if fixed_row and m > 1:
        G_u[1] = 0.0
    return {"blocks": blocks, "f": f,
            "G": np.hstack([G_u, -np.eye(m) * rng.uniform(0.5, 2.0, m)]),
            "h": h, "lb": np.concatenate([-box, np.zeros(m)]),
            "ub": np.concatenate([box, np.full(m, np.inf)]), "diag": np.zeros(m)}


def problem(data):
    return DenseQp(H=BlockDiagonal(data["blocks"], data["diag"]),
                   **{k: data[k] for k in ("f", "G", "h", "lb", "ub")})


def solve_quietly(qp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_qp(qp)


@SETTINGS
@given(seed=st.integers(0, 2 ** 31 - 1),
       shape=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2)]),
       log_costs=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3), fixed_row=st.booleans())
def test_slack_pattern_qps_are_answered_on_the_dual(seed, shape, log_costs, fixed_row):
    # each row's slack costs 1 to 1e4 per unit, so a multiplier may reach its
    # cap while its row is active, or as its row is added
    assert_dual_matches_enumeration(
        problem(slack_data(seed, shape, 10.0 ** np.array(log_costs), fixed_row)))


def assert_dual_matches_enumeration(qp):
    sol = solve_quietly(qp)
    assert sol.path == "dual" and sol.status == OPTIMAL and sol.iterations == 0
    work = qp_mod._shifted(qp, qp_mod._hessian_shift(qp.H))
    assert kkt_residual(work, sol.u_star, sol.multipliers) == sol.kkt_residual <= 1e-8
    assert qp_mod._primal_violation(work, sol.u_star) <= 1e-9
    ref = enumerate_qp(np.asarray(work.H), work.f, work.G, work.h, work.lb, work.ub)
    assert ref is not None
    assert abs(sol.objective - ref[1]) <= 1e-6 * (1.0 + abs(ref[1]))


def _second_row(data):
    # slack 0 also enters a new row of its own
    G = np.vstack([data["G"], np.zeros(data["G"].shape[1])])
    G[-1, len(data["f"]) - len(data["diag"])] = -1.0
    return {**data, "G": G, "h": np.append(data["h"], 5.0)}


def _free_slack(data):
    f = data["f"].copy()
    f[len(data["f"]) - len(data["diag"])] = 0.0
    return {**data, "f": f}


def _curved_slack(data):
    diag = data["diag"].copy()
    diag[0] = 1.0
    return {**data, "diag": diag}


@pytest.mark.parametrize("breaks", [_second_row, _free_slack, _curved_slack],
                         ids=["two_rows", "zero_cost", "nonzero_entry"])
def test_a_column_outside_the_slack_pattern_is_kept_as_a_block(breaks):
    # the column is no slack: it stays among the dual's columns as a 1 x 1
    # block of P, and the other slacks are still eliminated
    data = slack_data(3, (1, 3), np.full(3, 100.0))
    assert solve_quietly(problem(data)).path == "dual"
    assert_dual_matches_enumeration(problem(breaks(data)))


def test_a_fleet_dual_solve_takes_under_half_the_memory_of_its_dual_hessian(monkeypatch):
    # the fleet QPs that 2 s of centralized crossing of 8 vehicles hands to
    # the dual stage, regularized as ``solve_qp`` hands them; the one with
    # the most rows is solved again under tracemalloc, after a first call
    # that pays numpy's one-time allocations.  A dual Hessian over all its
    # rows (those of G with a steering coefficient, plus the finite steering
    # bounds) would take 8 rows^2 bytes
    recorded = []
    dual = qp_mod._dual_active_set

    def recording(problem, shift=0.0):
        recorded.append((problem, shift))
        return dual(problem, shift)

    monkeypatch.setattr(qp_mod, "_dual_active_set", recording)
    run_simulation(generate_crossing_scenario(8, 0, sim_duration=2.0), "centralized")
    problem, shift = max(recorded, key=lambda pair: pair[0].m)
    split = problem.H.split
    rows = (np.count_nonzero(problem.G[:, :split].any(axis=1))
            + np.count_nonzero(np.isfinite(problem.lb[:split]))
            + np.count_nonzero(np.isfinite(problem.ub[:split])))
    assert dual(problem, shift) is not None
    tracemalloc.start()
    try:
        answer = dual(problem, shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer is not None and answer[2] <= 1e-8
    assert peak < 0.5 * 8 * rows ** 2


def box_dual_data(seed, k, s, m, capped, bounded):
    """P (k, s, s), f, G (m, k s), h, lb, ub and row caps c for ``qp._BoxDual``.

    Hard rows hold with margin at a point inside the box, so every instance
    is feasible; a capped row may be violated there.  Each entry of x has a
    finite lower and upper bound with probability ``bounded``.
    """
    rng = np.random.default_rng(seed)
    n = k * s
    B = rng.normal(size=(k, s, s))
    P = B @ B.transpose(0, 2, 1) + 0.5 * np.eye(s)
    lb = np.where(rng.random(n) < bounded, -rng.uniform(0.2, 2.0, n), -np.inf)
    ub = np.where(rng.random(n) < bounded, rng.uniform(0.2, 2.0, n), np.inf)
    G = rng.normal(size=(m, n))
    anchor = rng.uniform(-0.1, 0.1, n)
    c = np.where(rng.random(m) < capped, rng.uniform(0.5, 10.0, m), np.inf)
    h = G @ anchor + np.where(np.isfinite(c), rng.uniform(-2.0, 1.0, m), rng.uniform(0.1, 1.0, m))
    return P, rng.normal(size=n) * rng.choice([1.0, 5.0]), G, h, lb, ub, c


def elastic_form(P, f, G, h, lb, ub, c):
    """The kernel's problem with a slack column (cost c_r, coefficient -1) per finite cap."""
    cap = np.flatnonzero(np.isfinite(c))
    E = np.zeros((len(G), len(cap)))
    E[cap, np.arange(len(cap))] = -1.0
    return DenseQp(H=BlockDiagonal(P, np.zeros(len(cap))), f=np.concatenate([f, c[cap]]),
                   G=np.hstack([G, E]), h=h, lb=np.concatenate([lb, np.zeros(len(cap))]),
                   ub=np.concatenate([ub, np.full(len(cap), np.inf)])), cap


@SETTINGS
@given(seed=st.integers(0, 2 ** 31 - 1),
       shape=st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)]), m=st.integers(0, 3),
       capped=st.sampled_from([0.0, 0.5, 1.0]),
       bounded=st.sampled_from([0.0, 0.5, 1.0]), start=st.sampled_from([None, "random", "warm"]),
       log_rho=st.one_of(st.none(), st.floats(-3.0, 3.0)))
def test_box_dual_matches_enumeration(seed, shape, m, capped, bounded, start, log_rho):
    # the kernel's answer, its capped rows' slacks posed as slack columns, is
    # a KKT point of the elastic QP at exhaustive enumeration's optimum, cold
    # or warm started.  With log_rho the draw has an edge node's shape:
    # P = rho I as 1 x 1 blocks, f = -rho v, no bounds and every row capped
    k, s = shape
    if log_rho is not None:
        k, s, capped, bounded = k * s, 1, 1.0, 0.0
    n = k * s
    P, f, G, h, lb, ub, c = box_dual_data(seed, k, s, m, capped, bounded)
    if log_rho is not None:
        rho = 10.0 ** log_rho
        P, f = np.full((k, 1, 1), rho), rho * f
    box = qp_mod._BoxDual(P, G, lb, ub)
    x0 = -np.linalg.solve(P, f.reshape(k, s, 1)).reshape(n)
    warm = {None: None,
            "random": np.random.default_rng(seed).uniform(0.0, 2.0, m + 2 * n),
            "warm": box.solve(x0, h + 0.3, c)[1]}[start]
    x, mult = box.solve(x0, h, c, warm)
    z = mult[:m]
    assert np.all(z >= 0.0) and np.all(z <= c)
    # a violated row's slack is positive only where its multiplier is at the
    # cap, c exactly, as ``_elastic_slack`` tests it
    violated = G @ x - h > 1e-9
    assert np.all(z[violated] == c[violated])

    qp, cap = elastic_form(P, f, G, h, lb, ub, c)
    slack = qp_mod._elastic_slack((G @ x - h)[cap], z[cap], c[cap])
    u = np.concatenate([x, slack])
    ns = len(cap)
    full = np.concatenate([z, mult[m:m + n], c[cap] - z[cap], mult[m + n:], np.zeros(ns)])
    assert kkt_residual(qp, u, full) <= 1e-8
    # the slacks' zero curvature makes some enumerated KKT systems singular
    H = np.asarray(qp.H) + np.diag(np.r_[np.zeros(n), np.full(ns, 1e-12)])
    ref = enumerate_qp(H, qp.f, qp.G, qp.h, qp.lb, qp.ub)
    assert ref is not None
    assert abs(qp.objective(u) - ref[1]) <= 1e-6 * (1.0 + abs(ref[1]))
