"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -q -s`` to see the per-criterion
lines.  Every criterion finishes in seconds; criterion 6 (the scaling
benchmark) takes about 1 s.
"""

import time

import numpy as np
import pytest

from fleetcoord import (AdmmConfig, AdmmState, adapt_rho, admm_solve,
                        build_centralized, fleet_objective, init_admm_state, kkt_residual,
                        lateral_deviation, linearize, linearize_collision,
                        load_scenario_file, path_progress, rollout,
                        run_benchmark, run_simulation, solve_qp, step_nonlinear)
from fleetcoord.qp import OPTIMAL, DenseQp
from fleetcoord.scenario import VehicleState

from instances import random_fleet_instance
from oracles import enumerate_qp
from reference import residuals, to_dicts


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --------------------------------------------------------------------------
def test_criterion_1_admm_centralized_equivalence():
    """20 randomized convexified instances: consensus objective within 1e-2."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    worst_slack = 0.0
    for _ in range(20):
        local_problems, edge_problems, seeds = random_fleet_instance(rng, np_steps=5)
        res = admm_solve(local_problems, edge_problems,
                         AdmmConfig(eps_abs=0.01, eps_rel=0.01, max_iters=200),
                         init_admm_state(seeds, edge_problems, 1.0, ids=local_problems.ids))
        central = build_centralized(local_problems, edge_problems)
        sol = solve_qp(central.qp)
        j_cent = fleet_objective(local_problems, central.controls(sol.u_star))
        j_admm = fleet_objective(local_problems, res.consensus)
        slack = float(np.max(sol.u_star[central.n_controls:], initial=0.0))
        slack = max(slack, res.report.slack_max)
        assert res.report.converged
        worst_gap = max(worst_gap, abs(j_admm - j_cent) / (1.0 + abs(j_cent)))
        worst_slack = max(worst_slack, slack)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-2 and worst_slack <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"worst relative gap {worst_gap:.2e} (<= 1e-2), "
                   f"max slack {worst_slack:.1e}, {elapsed:.1f}s (< 10 s)")


# --------------------------------------------------------------------------
def test_criterion_2_qp_solver_against_enumeration():
    """50 random dense QPs match exhaustive active-set enumeration to 1e-6."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_diff = 0.0
    worst_kkt = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        f = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        h = G @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m)
        qp = DenseQp(H=H, f=f, G=G, h=h)
        sol = solve_qp(qp)
        ref = enumerate_qp(H, f, G, h)
        assert sol.status == OPTIMAL and ref is not None
        worst_diff = max(worst_diff, float(np.max(np.abs(sol.u_star - ref[0]))))
        worst_kkt = max(worst_kkt, kkt_residual(qp, sol.u_star, sol.multipliers))
    elapsed = time.perf_counter() - t0
    ok = worst_diff <= 1e-6 and worst_kkt <= 1e-6 and elapsed < 5.0
    _report(2, ok, f"worst |u - oracle| {worst_diff:.2e} (<= 1e-6), "
                   f"worst KKT {worst_kkt:.2e} (<= 1e-6), {elapsed:.1f}s (< 5 s)")


# --------------------------------------------------------------------------
def test_criterion_3_linearization_validity():
    """Jacobians vs central differences; halfspace conservativeness."""
    rng = np.random.default_rng(11)
    h = 1e-6
    worst_rel = 0.0
    for _ in range(1000):
        x0 = VehicleState(*rng.uniform(-10, 10, size=2), rng.uniform(-2.5, 2.5))
        delta = float(rng.uniform(-0.4, 0.4))
        v = float(rng.uniform(9, 14))
        L = float(rng.uniform(2.0, 3.0))
        seed = rollout(x0, [delta], v, L, 0.1)
        m = linearize(seed, v, L, 0.1)[0]
        A_fd = np.zeros((3, 3))
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = h
            plus = step_nonlinear(VehicleState(*(x0.as_array() + bump)), delta, v, L, 0.1)
            minus = step_nonlinear(VehicleState(*(x0.as_array() - bump)), delta, v, L, 0.1)
            A_fd[:, i] = (plus.as_array() - minus.as_array()) / (2 * h)
        B_fd = (step_nonlinear(x0, delta + h, v, L, 0.1).as_array()
                - step_nonlinear(x0, delta - h, v, L, 0.1).as_array()) / (2 * h)
        worst_rel = max(
            worst_rel,
            float(np.max(np.abs(A_fd - m.A))) / (1 + float(np.max(np.abs(m.A)))),
            float(np.max(np.abs(B_fd - m.B))) / (1 + float(np.max(np.abs(m.B)))))

    violations = 0
    for _ in range(1000):
        p_i0 = rng.uniform(-20, 20, size=2)
        offset = rng.normal(size=2)
        offset = offset / max(np.linalg.norm(offset), 1e-12) * rng.uniform(0.05, 15.0)
        p_j0 = p_i0 + offset
        d_safe = float(rng.uniform(1.0, 10.0))
        hs = linearize_collision(p_i0, p_j0, d_safe)
        a = hs.a
        a_unit = a / np.linalg.norm(a)
        perp = np.array([-a_unit[1], a_unit[0]])
        diff = ((hs.rhs / (2 * a @ a)) * a
                + float(rng.uniform(0, 8)) * a_unit + float(rng.normal() * 4) * perp)
        assert hs.margin(diff, np.zeros(2)) >= -1e-9   # sampled inside the halfspace
        if np.linalg.norm(diff) < d_safe:
            violations += 1
    ok = worst_rel <= 1e-5 and violations == 0
    _report(3, ok, f"worst Jacobian relative error {worst_rel:.2e} (<= 1e-5), "
                   f"{violations} conservativeness violations (must be 0)")


# --------------------------------------------------------------------------
def test_criterion_4_overtaking_scenario():
    """20 s overtake: distances >= d_safe - 0.2, lateral settle < 0.3 m."""
    t0 = time.perf_counter()
    sc = load_scenario_file("scenarios/overtake.scn")
    run = run_simulation(sc, "parallel_admm", duration=20.0)
    elapsed = time.perf_counter() - t0
    min_dist = float(np.min(run.min_pairwise))
    final_idx = range(len(run.times) - 20, len(run.times))
    worst_final_dev = max(
        lateral_deviation(sc.vehicle(vid), run.states[vid][k][:2])
        for vid in run.vehicle_ids for k in final_idx)
    ok = (min_dist >= sc.config.d_safe - 0.2 and worst_final_dev < 0.3
          and elapsed < 60.0)
    _report(4, ok, f"min distance {min_dist:.3f} m (>= {sc.config.d_safe - 0.2}), "
                   f"final-2s deviation {worst_final_dev:.3f} m (< 0.3), "
                   f"{elapsed:.1f}s (< 60 s)")


# --------------------------------------------------------------------------
def test_criterion_5_intersection_scenario():
    """Crossing scenario: distances >= d_safe - 0.2, progress increases."""
    t0 = time.perf_counter()
    sc = load_scenario_file("scenarios/intersection.scn")
    run = run_simulation(sc, "parallel_admm")
    elapsed = time.perf_counter() - t0
    min_dist = float(np.min(run.min_pairwise))
    strictly_increasing = True
    for vid in run.vehicle_ids:
        prog = np.array([path_progress(sc.vehicle(vid), run.states[vid][k][:2])
                         for k in range(len(run.times))])
        if not np.all(np.diff(prog) > 0):
            strictly_increasing = False
    ok = (min_dist >= sc.config.d_safe - 0.2 and strictly_increasing
          and elapsed < 60.0)
    _report(5, ok, f"min distance {min_dist:.3f} m (>= {sc.config.d_safe - 0.2}), "
                   f"progress strictly increasing: {strictly_increasing}, "
                   f"{elapsed:.1f}s (< 60 s)")


# --------------------------------------------------------------------------
def test_criterion_6_scaling_benchmark():
    """Parallel per-cycle time flat (<= 3x), centralized grows (>= 10x)."""
    t0 = time.perf_counter()
    records = run_benchmark([4, 8, 16, 32, 64], seed=0, cycles=10)
    elapsed = time.perf_counter() - t0
    med = {}
    for rec in records:
        med[(rec.mode, rec.n_vehicles)] = float(np.median(rec.per_cycle_times))
    flat = med[("parallel_admm", 64)] / med[("parallel_admm", 4)]
    growth = med[("centralized", 64)] / med[("centralized", 4)]
    ok = flat <= 3.0 and growth >= 10.0 and elapsed < 900.0
    _report(6, ok, f"parallel 64/4 ratio {flat:.2f} (<= 3), "
                   f"centralized 64/4 ratio {growth:.1f} (>= 10), "
                   f"{elapsed:.0f}s (< 900 s)")


# --------------------------------------------------------------------------
def test_criterion_7_stopping_conformance():
    """Flag agrees with recomputed residuals; fixed rho=1 converges <= 200."""
    rng = np.random.default_rng(42)
    flag_ok = True
    fixed_ok = True
    for _ in range(20):
        local_problems, edge_problems, seeds = random_fleet_instance(rng, np_steps=5)
        res = admm_solve(local_problems, edge_problems,
                         AdmmConfig(eps_abs=0.01, eps_rel=0.01, max_iters=200),
                         init_admm_state(seeds, edge_problems, 1.0, ids=local_problems.ids))
        final = to_dicts(res.state)
        rep = residuals(final, final.z_prev, eps_abs=0.01, eps_rel=0.01)
        if rep.converged != res.report.converged:
            flag_ok = False
        res_fixed = admm_solve(local_problems, edge_problems,
                               AdmmConfig(eps_abs=0.01, eps_rel=0.01, max_iters=200,
                                          adapt_rho=False),
                               init_admm_state(seeds, edge_problems, 1.0, ids=local_problems.ids))
        if not (res_fixed.report.converged
                and res_fixed.report.iterations_used <= 200):
            fixed_ok = False
    ok = flag_ok and fixed_ok
    _report(7, ok, f"converged flag matches recomputation: {flag_ok}; "
                   f"fixed rho=1 converges within 200 iterations: {fixed_ok}")


# --------------------------------------------------------------------------
def test_criterion_8_adaptive_rho_rule():
    """tau=2, mu=5 behavior plus dual-rescaling continuity."""
    rule_ok = (adapt_rho(1.0, 10.0, 1.0) == 2.0        # r > 5s doubles
               and adapt_rho(1.0, 1.0, 10.0) == 0.5     # s > 5r halves
               and adapt_rho(2.5, 3.0, 3.0) == 2.5      # balanced unchanged
               and adapt_rho(4.0, 5.0, 1.0) == 4.0)     # boundary is strict

    rng = np.random.default_rng(3)
    state = AdmmState([1, 2], [(1, 2)], np.zeros((2, 6)), rho=2.0, pairs=np.array([[0, 1]]))
    state.L = rng.normal(size=state.L.shape)   # vehicle rows 0-1, then edge rows
    lam = state.L.copy()
    state.rescale(1.0)   # halving event
    scaled_ok = state.rho == 1.0 and all(
        np.allclose(1.0 * state.L[row], 2.0 * lam[row]) for row in range(len(lam)))
    ok = rule_ok and scaled_ok
    _report(8, ok, f"rule table correct: {rule_ok}; "
                   f"unscaled dual rho*lambda continuous across update: {scaled_ok}")


# --------------------------------------------------------------------------
def test_criterion_9_determinism():
    """Identical inputs give identical outputs and residuals on a repeat run."""
    sc = load_scenario_file("scenarios/overtake.scn")
    run1 = run_simulation(sc, "parallel_admm", duration=3.0)
    run2 = run_simulation(sc, "parallel_admm", duration=3.0)
    same_repeat = all(np.array_equal(run1.states[v], run2.states[v])
                      and np.array_equal(run1.applied_controls[v],
                                         run2.applied_controls[v])
                      for v in run1.vehicle_ids)
    residual_match = len(run1.cycles) == len(run2.cycles) and all(
        a.admm_report.r_norm == b.admm_report.r_norm
        and a.admm_report.s_norm == b.admm_report.s_norm
        for a, b in zip(run1.cycles, run2.cycles))
    ok = same_repeat and residual_match
    _report(9, ok, f"repeat-run identical: {same_repeat}; "
                   f"residuals identical: {residual_match}")
