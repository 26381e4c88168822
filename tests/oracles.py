"""Independent reference implementations used only to check the library.

Each oracle recomputes a quantity by a different route than the production
code: high-resolution RK4 integration for the Euler plant, exhaustive
active-set enumeration for QPs, all-pairs distance scans for graphs.
"""

import itertools
import math

import numpy as np


def bicycle_rhs(state, delta, v, L):
    return np.array([v * math.cos(state[2]), v * math.sin(state[2]),
                     (v / L) * math.tan(delta)])


def rk4_fine_step(state, delta, v, L, ts, substeps=100):
    """Sub-stepped RK4 integration of the continuous bicycle kinematics."""
    x = np.asarray(state, dtype=float).copy()
    dt = ts / substeps
    for _ in range(substeps):
        k1 = bicycle_rhs(x, delta, v, L)
        k2 = bicycle_rhs(x + 0.5 * dt * k1, delta, v, L)
        k3 = bicycle_rhs(x + 0.5 * dt * k2, delta, v, L)
        k4 = bicycle_rhs(x + dt * k3, delta, v, L)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def enumerate_qp(H, f, G=None, h=None, lb=None, ub=None, tol=1e-8):
    """Global QP minimum by enumerating candidate active sets.

    Folds finite bounds into inequality rows, then solves the KKT equality
    system for every row subset of size <= n, keeping points that are primal
    feasible with nonnegative multipliers.  Any such point is a KKT point of
    the convex QP, hence optimal.  Returns (u, objective) or None.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    n = H.shape[0]
    rows = []
    rhs = []
    if G is not None and len(G):
        for g_i, h_i in zip(np.asarray(G, dtype=float), np.asarray(h, dtype=float)):
            rows.append(np.asarray(g_i, dtype=float))
            rhs.append(float(h_i))
    if lb is not None:
        for i, b in enumerate(np.asarray(lb, dtype=float)):
            if np.isfinite(b):
                e = np.zeros(n)
                e[i] = -1.0
                rows.append(e)
                rhs.append(-b)
    if ub is not None:
        for i, b in enumerate(np.asarray(ub, dtype=float)):
            if np.isfinite(b):
                e = np.zeros(n)
                e[i] = 1.0
                rows.append(e)
                rhs.append(b)
    A = np.array(rows) if rows else np.zeros((0, n))
    b = np.array(rhs)
    m = len(A)

    best = None
    for size in range(0, min(n, m) + 1):
        for subset in itertools.combinations(range(m), size):
            idx = list(subset)
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = H
            if size:
                kkt[:n, n:] = A[idx].T
                kkt[n:, :n] = A[idx]
            r = np.concatenate([-f, b[idx]])
            try:
                sol = np.linalg.solve(kkt, r)
            except np.linalg.LinAlgError:
                continue
            u, mult = sol[:n], sol[n:]
            if not np.all(np.isfinite(u)):
                continue
            if m and np.max(A @ u - b) > tol:
                continue
            if size and np.min(mult) < -tol:
                continue
            obj = 0.5 * u @ H @ u + f @ u
            if best is None or obj < best[1] - 1e-12:
                best = (u, obj)
    return best


def brute_force_edges(positions: dict, d_perc: float):
    """All-pairs distance scan over {id: (x, y)}."""
    ids = sorted(positions)
    edges = set()
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            pa, pb = positions[ids[a]], positions[ids[b]]
            if math.hypot(pa[0] - pb[0], pa[1] - pb[1]) <= d_perc:
                edges.add((ids[a], ids[b]))
    return edges
