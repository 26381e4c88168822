"""The centralized QP solved on its dual, the elastic slack columns eliminated.

Instances have the fleet QP's slack pattern: steering-like boxed variables
in one positive definite block, then one slack column per row with a zero
Hessian entry, lb = 0, no upper bound and a positive linear cost; its one
coefficient in G is negative.  Row 0 cannot hold within the steering box,
so its slack is positive and the bound shortcut cannot answer; a row whose
steering part is zero is fixed in closed form.  ``solve_qp`` must answer
them on the ``dual`` path, KKT-verified, at the objective that exhaustive
enumeration finds on the regularized problem.  A diagonal column that
breaks the pattern sends the QP to the interior-point method.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetcoord import OPTIMAL, BlockDiagonal, DenseQp, kkt_residual, solve_qp
from fleetcoord import qp as qp_mod

from oracles import enumerate_qp

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def slack_data(seed, n_steer, cost, fixed_row=False):
    """Steering block, one slack per row (zero curvature, cost ``cost``), as arrays."""
    rng = np.random.default_rng(seed)
    m = n_steer
    B = rng.normal(size=(n_steer, n_steer))
    block = B @ B.T + 0.1 * np.eye(n_steer)
    f = np.concatenate([rng.normal(size=n_steer), np.full(m, cost)])
    G_u = rng.normal(size=(m, n_steer))
    h = rng.uniform(-3.0, 1.0, m)
    box = rng.uniform(0.1, 0.7, n_steer)
    h[0] = -np.abs(G_u[0]) @ box - rng.uniform(0.1, 2.0)   # beyond the box
    if fixed_row and m > 1:
        G_u[1] = 0.0
    return {"block": block, "f": f, "G": np.hstack([G_u, -np.eye(m) * rng.uniform(0.5, 2.0, m)]),
            "h": h, "lb": np.concatenate([-box, np.zeros(m)]),
            "ub": np.concatenate([box, np.full(m, np.inf)]), "diag": np.zeros(m)}


def problem(data):
    return DenseQp(H=BlockDiagonal(data["block"][None], data["diag"]),
                   **{k: data[k] for k in ("f", "G", "h", "lb", "ub")})


def solve_quietly(qp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_qp(qp)


@SETTINGS
@given(seed=st.integers(0, 2 ** 31 - 1), n_steer=st.integers(1, 3),
       log_cost=st.floats(0.0, 4.0), fixed_row=st.booleans())
def test_slack_pattern_qps_are_answered_on_the_dual(seed, n_steer, log_cost, fixed_row):
    qp = problem(slack_data(seed, n_steer, 10.0 ** log_cost, fixed_row))
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
    G[-1, len(data["block"])] = -1.0
    return {**data, "G": G, "h": np.append(data["h"], 5.0)}


def _free_slack(data):
    f = data["f"].copy()
    f[len(data["block"])] = 0.0
    return {**data, "f": f}


def _curved_slack(data):
    diag = data["diag"].copy()
    diag[0] = 1.0
    return {**data, "diag": diag}


@pytest.mark.parametrize("breaks", [_second_row, _free_slack, _curved_slack],
                         ids=["two_rows", "zero_cost", "nonzero_entry"])
def test_a_column_outside_the_slack_pattern_goes_to_the_ipm(breaks):
    data = slack_data(3, 3, 100.0)
    assert solve_quietly(problem(data)).path == "dual"
    qp = problem(breaks(data))
    shift = qp_mod._hessian_shift(qp.H)
    assert qp_mod._dual_active_set(qp_mod._shifted(qp, shift), shift) is None
    sol = solve_quietly(qp)
    assert sol.path == "ipm" and sol.status == OPTIMAL
