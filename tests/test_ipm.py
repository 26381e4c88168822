"""The interior-point method on its own, with the solve_qp shortcuts bypassed.

Instances call ``qp._ipm`` directly: random positive definite Hessians
scaled by rho in [1e-3, 1e5] with random rows of G and boxed variables, and
the centralized slack pattern (lower-bound-only columns with 1e-9 curvature,
linear cost up to 1e4, one per row).  Every run is made with warnings turned
into errors, so an overflow or a division by zero inside the method fails
the test.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetcoord import INFEASIBLE, MAX_ITER, OPTIMAL, DenseQp, kkt_residual, solve_qp
from fleetcoord import qp as qp_mod

from oracles import enumerate_qp

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def run_ipm(problem, warm):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = qp_mod._ipm(problem, warm, 100)
    assert all(np.isfinite(obj) and np.isfinite(viol) for obj, viol in sol.trace)
    assert np.all(np.isfinite(sol.u_star)) and np.all(np.isfinite(sol.multipliers))
    return sol


def assert_matches_oracle(problem, sol):
    assert sol.status == OPTIMAL
    assert sol.path == "ipm"
    assert kkt_residual(problem, sol.u_star, sol.multipliers) == sol.kkt_residual <= 1e-8
    ref = enumerate_qp(problem.H, problem.f, problem.G, problem.h, problem.lb, problem.ub)
    assert ref is not None
    assert abs(sol.objective - ref[1]) <= 1e-6 * (1.0 + abs(ref[1]))


def scaled_instance(seed, n, m, rho, boxed):
    """rho * (PD H), random rows that hold with margin at an anchor, some boxes."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = rho * (Q * rng.uniform(0.1, 3.0, n)) @ Q.T
    H = 0.5 * (H + H.T)
    f = rho * rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
    lb = np.where(boxed, -rng.uniform(0.05, 2.0, n), -np.inf)
    ub = np.where(boxed & rng.choice([True, False], n), rng.uniform(0.05, 2.0, n), np.inf)
    anchor = np.where(boxed, 0.5 * (np.maximum(lb, -2.0) + np.minimum(ub, 2.0)), 0.0)
    G = rng.normal(size=(m, n))
    h = G @ anchor + rng.uniform(0.0, 1.0, m)
    return DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub), rng


def slack_instance(seed, n_steer, cost):
    """Steering-like boxed variables, then one slack column per row.

    Row i reads g_i u - e_i <= h_i with the slack e_i >= 0, curvature 1e-9
    and linear cost ``cost``; the rows are set so that some of them bind
    beyond what the box allows, as the separation rows of the fleet QP do.
    """
    rng = np.random.default_rng(seed)
    m = n_steer
    n = n_steer + m
    H = np.zeros((n, n))
    M = rng.normal(size=(n_steer, n_steer))
    H[:n_steer, :n_steer] = M @ M.T + 0.1 * np.eye(n_steer)
    H[np.arange(n_steer, n), np.arange(n_steer, n)] = 1e-9
    f = np.concatenate([rng.normal(size=n_steer), np.full(m, cost)])
    G = np.hstack([rng.normal(size=(m, n_steer)), -np.eye(m)])
    h = rng.uniform(-3.0, 1.0, m)
    box = rng.uniform(0.1, 0.7, n_steer)
    lb = np.concatenate([-box, np.zeros(m)])
    ub = np.concatenate([box, np.full(m, np.inf)])
    return DenseQp(H=H, f=f, G=G, h=h, lb=lb, ub=ub), rng


def warm_point(rng, n, kind):
    if kind == "none":
        return None
    scale = 0.1 if kind == "near" else 10.0          # far: outside most boxes
    return scale * rng.normal(size=n)


@SETTINGS
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), m=st.integers(0, 5),
       log_rho=st.floats(-3.0, 5.0), boxed=st.lists(st.booleans(), min_size=5, max_size=5),
       warm=st.sampled_from(["none", "near", "far"]))
def test_scaled_hessian_matches_enumeration(seed, n, m, log_rho, boxed, warm):
    problem, rng = scaled_instance(seed, n, m, 10.0 ** log_rho, np.array(boxed[:n]))
    sol = run_ipm(problem, warm_point(rng, n, warm))
    assert_matches_oracle(problem, sol)


@SETTINGS
@given(seed=st.integers(0, 2**31 - 1), n_steer=st.integers(1, 3),
       log_cost=st.floats(0.0, 4.0), warm=st.sampled_from(["none", "near", "far"]))
def test_slack_columns_converge_in_few_iterations(seed, n_steer, log_cost, warm):
    problem, rng = slack_instance(seed, n_steer, 10.0 ** log_cost)
    sol = run_ipm(problem, warm_point(rng, problem.n, warm))
    assert sol.iterations <= 25
    assert_matches_oracle(problem, sol)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), log_rho=st.floats(-3.0, 5.0))
def test_infeasible_rows_come_back_infeasible_without_warnings(seed, n, log_rho):
    # g u <= -1 and -g u <= -1 contradict, whatever else holds
    problem, rng = scaled_instance(seed, n, 2, 10.0 ** log_rho, np.ones(n, dtype=bool))
    g = rng.normal(size=n)
    infeasible = DenseQp(H=problem.H, f=problem.f, G=np.vstack([problem.G, g, -g]),
                         h=np.concatenate([problem.h, [-1.0, -1.0]]),
                         lb=problem.lb, ub=problem.ub)
    sol = run_ipm(infeasible, None)
    assert sol.status == MAX_ITER
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_qp(infeasible).status == INFEASIBLE
