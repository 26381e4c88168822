"""``solve_qp`` over scaled Hessians, slack columns and infeasible rows.

Instances: random positive definite Hessians scaled by rho in [1e-3, 1e5]
with random rows of G and boxed variables, and the centralized slack
pattern with the slacks' 1e-9 curvature inside one dense H
(lower-bound-only columns, linear cost up to 1e4, one per row), which the
dual stage keeps in P instead of eliminating.  Every run is made with
warnings turned into errors, so an overflow or a division by zero inside a
stage fails the test.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetcoord import INFEASIBLE, OPTIMAL, DenseQp, kkt_residual, solve_qp

from oracles import enumerate_qp

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def solve_quietly(problem):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_qp(problem)
    assert np.all(np.isfinite(sol.u_star)) and np.all(np.isfinite(sol.multipliers))
    return sol


def assert_matches_oracle(problem, sol):
    assert sol.status == OPTIMAL
    assert sol.path in ("bound", "dual") and sol.iterations == 0
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


@SETTINGS
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), m=st.integers(0, 5),
       log_rho=st.floats(-3.0, 5.0), boxed=st.lists(st.booleans(), min_size=5, max_size=5))
def test_scaled_hessian_matches_enumeration(seed, n, m, log_rho, boxed):
    problem, _ = scaled_instance(seed, n, m, 10.0 ** log_rho, np.array(boxed[:n]))
    sol = solve_quietly(problem)
    assert_matches_oracle(problem, sol)


@SETTINGS
@given(seed=st.integers(0, 2**31 - 1), n_steer=st.integers(1, 3),
       log_cost=st.floats(0.0, 4.0))
def test_curved_slack_columns_match_enumeration(seed, n_steer, log_cost):
    problem, _ = slack_instance(seed, n_steer, 10.0 ** log_cost)
    assert_matches_oracle(problem, solve_quietly(problem))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), log_rho=st.floats(-3.0, 5.0))
def test_infeasible_rows_come_back_infeasible_without_warnings(seed, n, log_rho):
    # g u <= -1 and -g u <= -1 contradict, whatever else holds
    problem, rng = scaled_instance(seed, n, 2, 10.0 ** log_rho, np.ones(n, dtype=bool))
    g = rng.normal(size=n)
    infeasible = DenseQp(H=problem.H, f=problem.f, G=np.vstack([problem.G, g, -g]),
                         h=np.concatenate([problem.h, [-1.0, -1.0]]),
                         lb=problem.lb, ub=problem.ub)
    assert solve_quietly(infeasible).status == INFEASIBLE
