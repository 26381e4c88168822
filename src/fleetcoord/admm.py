"""Three-step consensus ADMM over the fleet decomposition.

Every iteration: (1) all vehicle tracking problems and all edge separation
problems are solved, each depending only on the previous consensus and duals,
so they may run concurrently in any order; (2) each vehicle averages its own
copy and the incident edge copies into a new consensus value; (3) scaled
duals absorb the remaining disagreement.  Stopping uses primal/dual residual
norms against absolute-plus-relative tolerances, and the penalty rho adapts
by factor 2 whenever one residual exceeds five times the other.

The iteration is accelerated.  Steps 1-3 are a fixed-point map g on
x = (Z, L), the consensus and the scaled duals, and after each plain step
``Anderson`` fits the last ``ANDERSON_MEMORY`` = 6 differences of the steps
to choose the next point (safeguarded type-II Anderson acceleration; Zhang, O'Donoghue & Boyd, SIAM J.
Optim. 2020, and Fu, Zhang & Boyd, SIAM J. Sci. Comput. 2020, for ADMM).
The stop test always reads the plain step g(x), so the state a cycle ends
in, and carries, is a plain iterate.  The memory is cleared when rho changes
and starts empty in each MPC cycle.  The plain step from an accelerated point
is judged against the step before it: if it leaves a larger ||g(x) - x||, the
point is dropped, the loop goes on from the plain image it was made from, and
the memory is cleared.  On the shipped overtake scene this takes 589
iterations where the plain iteration takes 1223.  A cycle that converges at
the first iteration does no acceleration work.

A receding-horizon caller warm starts each MPC cycle from the last one's
final state (``init_admm_state(..., previous=state)``): copies and consensus
start at the new seeds, rho is the last final rho (rho0 when the last cycle
had no edge), each edge that persists keeps its scaled duals shifted one
step, and a new edge starts at zero.  A vehicle's own dual is not carried
but set to minus the sum of its edge duals, so every vehicle's scaled duals
(local copy plus incident edge copies) sum to zero, which a carried vehicle
dual would break whenever an edge leaves the graph.  The consensus is then
the plain mean of the copies (Boyd et al. 2011, section 7.1) and does not
read the duals; the dual step alone keeps their sum, since it adds each
copy's gap to that mean and those gaps sum to zero.  Both per-vehicle sums,
the mean and the reset of the vehicle duals, are one scatter over ``owner``.

``admm_solve`` runs step 1 as one batched pass over the fleet.  The cycle's
problems arrive stacked (``LocalProblems``, ``EdgeProblems``), and the
batches read those arrays as they are: building them re-stacks nothing.
``LocalBatch`` holds the tracking problems and, for each rho the cycle has
solved at, their Hessians H0 + rho I, formed and probed with one stacked
Cholesky by the first pass at that rho; it answers every vehicle that pins
no steering bound.  ``EdgeBatch`` holds the edge problems and answers every
edge with no active row that steering can move.  Only the remaining nodes
are handed, one after another in the calling thread, to the batches'
``solve_node``, which solves the node's dual box QP exactly, warm started
from the node's previous multipliers, and returns the node's row as the
batched pass would, bit for bit; no per-iteration QP is assembled or reaches
``solve_qp``.  A handed edge's kernel is built once per edge and rho and
keeps the edge's unfixed rows, their h and caps, and P^-1 G' = G' / rho,
formed by one multiply; a handed edge call is then one G v - h, one box
active set and, only when some multiplier is positive, x = v - P^-1 G' mu,
before its slacks and KKT residual.  Parallelism is accounted, not
executed: each iteration is charged its slowest node.  The iterates live in
``AdmmState`` as arrays, one (N + 2E, Np) row per copy and its scaled dual
and one (N, Np) consensus, and its methods are steps 2 and 3, the residuals
and the rho rescaling.  Edge k's two copies are rows N + 2k and N + 2k + 1,
its endpoints in key order, so the edge rows reshape to and from the edge
batch's (E, 2Np) rows without a gather.  The final state is carried into
the next cycle as it is: ``init_admm_state`` takes the (N, Np) seed array and the edge container,
whose ``pairs`` are the endpoint rows, finds each persisting edge by its key
and shifts its dual rows.  Accounted time charges each node an equal share
of its batched pass, plus its own per-node solve when it was handed over:
the loop sums each pass's share as one number and each handed node's own
time.  So the Hessians formed at a new rho are charged to the vehicles of
the iteration whose pass forms them, and a handed vehicle's dual data to
that vehicle.  The consensus average, the dual step and the Anderson step
are coordinator work: no node is charged for them.

Every node answer's KKT residual is checked against 1e-8, the batched
passes' own target: non-optimal answers and handed nodes are counted in the
``ResidualReport`` with the worst node KKT residual, and a warning names
each non-optimal node and its residual as it enters consensus.  The checks,
and the one for non-finite iterates, are whole-array reductions; node names
are formed only when one fails.  The report also counts the accelerated
points that were accepted and rejected, and the DEBUG line of each
iteration names its point ``plain``, ``accepted`` or ``rejected``.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalFailureError, ParameterError
from .subproblems import (_NODE_OPTIMAL_KKT, EdgeBatch, EdgeProblems, LocalBatch, LocalProblems,
                          _check_fleet)
# build_edge, build_local and solve_qp are not called here; they stay
# importable from this module for span tracers that wrap them by name.
from .qp import solve_qp  # noqa: F401
from .subproblems import build_edge, build_local  # noqa: F401

logger = logging.getLogger(__name__)

_RHO_SCALE = 2.0    # tau: rho is doubled or halved
_RHO_RATIO = 5.0    # mu: when one residual exceeds this multiple of the other
ANDERSON_MEMORY = 6  # m: the Anderson step mixes the last m differences
_STATE_MISMATCH = "the ADMM state must hold the problems' vehicles, edges and horizon"


@dataclass
class AdmmConfig:
    """ADMM settings: stopping tolerances, iteration cap, penalty rule.

    The starting penalty is the start state's ``rho`` (see
    ``init_admm_state``).  With ``adapt_rho`` set, the penalty follows the
    residual-balancing rule of the function ``adapt_rho`` (Boyd et al. 2011,
    section 3.4.1, with tau = 2 and mu = 5); without it rho stays at the
    start state's ``rho`` for the cycle.
    """

    eps_abs: float = 0.01
    eps_rel: float = 0.01
    max_iters: int = 200
    adapt_rho: bool = True


@dataclass
class ResidualReport:
    r_norm: float
    s_norm: float
    eps_pri: float
    eps_dual: float
    converged: bool
    iterations_used: int
    per_node_solve_times: dict = field(default_factory=dict)
    slack_max: float = 0.0
    parallel_time: float = 0.0   # sum over iterations of max node solve time
    nonoptimal_nodes: int = 0    # node answers with KKT residual above 1e-8, all iterations
    local_handed: int = 0        # vehicle nodes the batched pass left to solve_node
    edge_handed: int = 0         # edge nodes the batched pass left to solve_node
    kkt_max: float = 0.0         # worst node KKT residual, all iterations
    anderson_accepted: int = 0   # accelerated points whose plain step was kept
    anderson_rejected: int = 0   # accelerated points dropped by the safeguard


@dataclass
class AdmmResult:
    consensus: dict
    report: ResidualReport
    state: AdmmState


class Anderson:
    """Safeguarded type-II Anderson acceleration of the ADMM map g: (Z, L) -> (Z, L).

    One ADMM iteration is a fixed-point map on x = (Z, L): step 1 reads only
    the consensus, the scaled duals and rho.  After the plain step from x to
    g(x), with residual f = g(x) - x, the next point is
    g(x) - sum_j gamma_j (g_{j+1} - g_j), where gamma fits the last
    ``ANDERSON_MEMORY`` differences of f to f in least squares (Walker & Ni
    2011; Zhang, O'Donoghue & Boyd 2020).  It is an affine combination of
    plain images, so each vehicle's scaled duals still sum to zero.  The
    safeguard: when the plain step from an accelerated point leaves a larger
    ||f|| than the step before it, that point is dropped, the next point is
    the plain image it was extrapolated from, and the memory is cleared.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Forget every difference; the next point is a plain image."""
        self.dF: deque = deque(maxlen=ANDERSON_MEMORY)
        self.dG: deque = deque(maxlen=ANDERSON_MEMORY)
        self.f = self.g = None    # the last kept step's residual and image, flat
        self.norm = math.inf      # ||f|| of the last kept step
        self.plain = None         # (Z, L) the current accelerated point came from

    def step(self, Z, L, Zg, Lg, extrapolate: bool) -> tuple:
        """Judge the plain step from (Z, L) to (Zg, Lg) and choose the next point.

        Returns the next (Z, L) and the kind of the point (Z, L): ``"plain"``,
        ``"accepted"`` (accelerated, and its plain step is kept) or
        ``"rejected"`` (accelerated, and dropped for the plain image it came
        from).  Without ``extrapolate`` the plain step is kept as it is and
        nothing is computed.
        """
        kind = "plain" if self.plain is None else "accepted"
        if not extrapolate:
            self.plain = None
            return Zg, Lg, kind
        g = np.concatenate([Zg.ravel(), Lg.ravel()])
        f = g - np.concatenate([Z.ravel(), L.ravel()])
        norm = _norm(f)
        if kind == "accepted" and norm > self.norm:
            Z, L = self.plain
            self.clear()
            return Z, L, "rejected"
        if self.f is not None:
            self.dF.append(f - self.f)
            self.dG.append(g - self.g)
        self.f, self.g, self.norm = f, g, norm
        if not self.dF:
            self.plain = None
            return Zg, Lg, kind
        gamma = np.linalg.lstsq(np.array(self.dF).T, f, rcond=None)[0]
        x = g - gamma @ np.array(self.dG)
        self.plain = (Zg, Lg)
        return x[:Zg.size].reshape(Zg.shape), x[Zg.size:].reshape(Lg.shape), kind


class AdmmState:
    """All ADMM iterates as arrays, one row per copy.

    ``C`` and ``L`` (N + 2E, Np) hold every copy and its scaled dual: the N
    local copies (``vids``, sorted), then edge k's copies of its endpoints
    e[0] and e[1] in rows N + 2k and N + 2k + 1 (``ekeys``, sorted), so
    ``C[N:]`` reshapes to the edge batch's (E, 2Np) rows.  ``Z`` (N, Np) is
    the consensus and ``Z_prev`` the one before the last update; ``owner``
    maps a row to its vehicle's row of ``Z`` (``pairs`` for the edge rows),
    and ``count`` counts each vehicle's rows.  ``anderson`` is the cycle's
    acceleration memory, and ``carried`` counts the edges whose duals
    ``init_admm_state`` carried in.  A new state starts every copy at ``Z``
    with zero duals.  The fleet must hold at least one vehicle, and an
    endpoint row outside ``Z`` raises ParameterError naming its edge.
    """

    def __init__(self, vids: list, ekeys: list, Z: np.ndarray, rho: float, pairs: np.ndarray):
        _check_fleet(ekeys, pairs, len(vids))
        self.vids, self.ekeys = vids, ekeys
        self.owner = np.concatenate([np.arange(len(vids)), pairs.reshape(-1)])
        self.count = np.bincount(self.owner)[:, None]
        self.carried = 0
        self.Z = Z
        self.Z_prev = None
        self.z_rows = self.gap = None    # update's consensus per row and gap, for residuals
        self.C = Z[self.owner]
        self.L = np.zeros_like(self.C)
        self.rho = rho
        self.iteration = 0
        self.anderson = Anderson()

    def consensus(self) -> np.ndarray:
        """Each vehicle's mean of its copies: its local copy and its edge copies."""
        total = np.zeros_like(self.Z)
        np.add.at(total, self.owner, self.C)
        return total / self.count

    def update(self, z_new: np.ndarray) -> None:
        """Scaled dual ascent on the new consensus, which then replaces ``Z``.

        The consensus per copy row, ``z_rows``, and the gap C - z_rows that
        the step adds to L are kept for ``residuals``.
        """
        self.z_rows = z_new[self.owner]
        self.gap = self.C - self.z_rows
        self.L = self.L + self.gap
        self.Z_prev, self.Z = self.Z, z_new

    def residuals(self, eps_abs: float, eps_rel: float) -> ResidualReport:
        """Primal/dual residual norms and tolerances over all copies, after ``update``.

        There is one consensus constraint per copy row, (N + 2E) Np scalars,
        and the consensus and its last change are taken per row as well, so
        the dimension factor sqrt((N + 2E) Np) matches the residual space.
        """
        r_norm = _norm(self.gap)
        s_norm = float(self.rho * _norm((self.Z - self.Z_prev)[self.owner]))
        dim = math.sqrt(self.C.size)
        eps_pri = eps_abs * dim + eps_rel * max(_norm(self.C), _norm(self.z_rows))
        eps_dual = eps_abs * dim + eps_rel * _norm(self.L) / self.rho
        converged = (r_norm <= eps_pri) and (s_norm <= eps_dual)
        return ResidualReport(r_norm=r_norm, s_norm=s_norm, eps_pri=eps_pri,
                              eps_dual=eps_dual, converged=converged,
                              iterations_used=self.iteration)

    def rescale(self, new_rho: float) -> None:
        """Install a new penalty, rescaling scaled duals so rho*lam is continuous.

        A new rho is a new map, so the Anderson memory is cleared.
        """
        if new_rho != self.rho:
            self.L = self.L * (self.rho / new_rho)
            self.rho = new_rho
            self.anderson.clear()


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a C-ordered array, by its own sqrt(a.a), without its checks."""
    a = a.ravel()
    return math.sqrt(a.dot(a))


def init_admm_state(seeds: np.ndarray, edges: EdgeProblems, rho0: float,
                    previous: AdmmState | None = None, *, ids) -> AdmmState:
    """Start at the seed steering: all copies and the consensus equal the seeds.

    ``seeds`` is the (N, Np) array of the seed steering, row n belonging to
    ``ids[n]``; the ids must be sorted.  ``edges`` gives the edge keys as
    its ``edges`` and their endpoint rows as its ``pairs``.  The fleet must
    hold at least one vehicle, and an edge endpoint without a seed raises
    ParameterError.

    With no ``previous`` state every dual is zero and rho is ``rho0``.  With
    the final state of the previous MPC cycle, rho is its final rho (the scaled
    duals were stored at it) when that cycle had an edge, and ``rho0`` when it
    had none: with no edge the primal residual is zero, so an uncoupled cycle
    only ever halves rho and says nothing about the coupling to come.  Each
    edge still in ``edges`` keeps its two scaled duals shifted one step (the
    last repeated), and a new edge starts at zero.  Each vehicle's own dual is
    then the negated sum of its edge duals, so a vehicle's scaled duals sum to
    zero, as every ADMM iteration leaves them; a vehicle without edges starts
    at zero.  ``carried`` counts the edges that kept their duals.
    """
    rho = rho0 if previous is None or not previous.ekeys else previous.rho
    if not (math.isfinite(rho) and rho > 0):
        raise ParameterError(f"rho0 must be finite and positive, got {rho!r}")
    ids = list(ids)
    if len(ids) != len(seeds) or ids != sorted(ids):
        raise ParameterError("the seeds need their rows' ids, sorted")
    state = AdmmState(ids, list(edges.edges), np.array(seeds, dtype=float), rho, edges.pairs)
    if previous is not None and previous.ekeys and state.ekeys:
        # an edge persists when its key is among the last cycle's edges.  Coded
        # by endpoint rows of this cycle's fleet, key = row(e[0]) (N+1) +
        # row(e[1]), with row N for a vehicle that left it, the sorted new
        # keys have sorted codes, so one search finds every old key among them
        L, n, m = state.L, len(ids), len(previous.vids)
        vids, old_ids = np.asarray(ids), np.asarray(previous.vids)
        row = np.searchsorted(vids, old_ids)
        row[vids.take(row, mode="clip") != old_ids] = n
        old_code = row[previous.owner[m::2]] * (n + 1) + row[previous.owner[m + 1::2]]
        new_code = state.owner[n::2] * (n + 1) + state.owner[n + 1::2]
        at = np.searchsorted(new_code, old_code)
        kept = new_code.take(at, mode="clip") == old_code
        k_new, k_old = at[kept], np.flatnonzero(kept)
        # edge k's copies are rows N + 2k and N + 2k + 1: (E, 2, Np) views
        edge_L = L[n:].reshape(-1, 2, L.shape[1])
        last = previous.L[m:].reshape(-1, 2, L.shape[1])[k_old]
        edge_L[k_new] = np.concatenate([last[..., 1:], last[..., -1:]], axis=2)
        np.subtract.at(L, state.owner[n:], L[n:])
        state.carried = len(k_new)
    return state


def adapt_rho(rho: float, r_norm: float, s_norm: float) -> float:
    """Double rho when the primal residual exceeds 5 times the dual, halve in the mirror case."""
    if r_norm > _RHO_RATIO * s_norm:
        return rho * _RHO_SCALE
    if s_norm > _RHO_RATIO * r_norm:
        return rho / _RHO_SCALE
    return rho


def _check_config(config: AdmmConfig) -> None:
    """Raise ParameterError naming the first AdmmConfig field out of its range."""
    max_iters = config.max_iters
    if (isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer))
            or max_iters < 1):
        raise ParameterError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    for name in ("eps_abs", "eps_rel"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value >= 0):
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


def _node_names(vids: list, ekeys: list) -> list:
    """Every node's name: ``local/<id>`` for the N vehicles, then ``edge/<i>-<j>``."""
    return [f"local/{v}" for v in vids] + [f"edge/{e[0]}-{e[1]}" for e in ekeys]


def admm_solve(local_problems: LocalProblems, edge_problems: EdgeProblems,
               config: AdmmConfig, init: AdmmState) -> AdmmResult:
    """Run consensus ADMM from ``init`` until the stopping criterion or the iteration cap.

    ``init`` is the start state, from ``init_admm_state`` over the same
    vehicles, edges and horizon (at the seeds, or carried from the last
    cycle); any other raises ParameterError.  Its ``rho`` is the starting
    penalty.  The result is independent of subproblem execution
    order within a step: every solve reads only the previous barrier's
    state.  Each iteration answers the nodes with one ``LocalBatch`` and one
    ``EdgeBatch`` pass, hands the nodes they leave to the batches'
    ``solve_node`` (vehicles first, each warm started from its previous
    multipliers), and updates the arrays of ``init`` in place; the result
    holds that state.  After each plain step that goes on at the same rho,
    the state's ``Anderson`` chooses the next point.  Building the batches
    is charged to the first iteration's nodes; they read the stacked
    problems' arrays as they are, so that is the symmetrized H0, each
    position row's vehicle and each edge's fixed rows.  Forming the
    vehicle Hessians at a rho is charged to the nodes of the iteration whose
    pass is the first at that rho.  Each iteration's residuals and the kind
    of its point are logged at DEBUG level.
    """
    _check_config(config)
    state = init
    vids, ekeys = list(local_problems.ids), list(edge_problems.edges)
    n, n_edges, np_steps = len(vids), len(ekeys), local_problems.horizon
    if state.vids != vids or state.ekeys != ekeys or state.Z.shape != (n, np_steps):
        raise ParameterError(_STATE_MISMATCH)

    t0 = time.perf_counter()
    local = LocalBatch(local_problems)
    t1 = time.perf_counter()
    edge = EdgeBatch(edge_problems)
    setup_local, setup_edge = t1 - t0, time.perf_counter() - t1
    # accounted time: each pass's equal share, summed over the iterations,
    # plus each handed node's own solves (vehicles, then edges)
    share_local = share_edge = 0.0
    own_time = np.zeros(n + n_edges)
    # each vehicle's last multipliers (None where the batched pass answered:
    # they are all zero), and every edge's last row multipliers (E, Np)
    warm_local, warm_mu = [None] * n, None
    report = None
    parallel_time = 0.0
    nonoptimal = 0
    local_handed = edge_handed = 0
    kkt_max = 0.0
    accepted = rejected = 0
    for k in range(1, config.max_iters + 1):
        rho, Z, L = state.rho, state.Z, state.L

        # Step 1: all local and edge solves, mutually independent
        t0 = time.perf_counter()
        u, kkt_local, done_local = local.solve(Z, L[:n], rho)
        t1 = time.perf_counter()
        v = (Z[state.owner[n:]] - L[n:]).reshape(n_edges, 2 * np_steps)
        x_edge, slack, mu, kkt_edge, done_edge = edge.solve(v, rho, warm_mu)
        t2 = time.perf_counter()
        local_share = (t1 - t0 + setup_local) / n
        edge_share = (t2 - t1 + setup_edge) / max(n_edges, 1)
        setup_local = setup_edge = 0.0
        share_local += local_share
        share_edge += edge_share
        slowest = max(local_share, edge_share) if n_edges else local_share
        handed_local = (~done_local).nonzero()[0].tolist()
        handed_edge = (~done_edge).nonzero()[0].tolist()
        last_local, warm_local = warm_local, [None] * n
        for i in handed_local:
            t = time.perf_counter()
            u[i], kkt_local[i], warm_local[i] = local.solve_node(i, Z[i], L[i], rho,
                                                                 warm_mult=last_local[i])
            dt = time.perf_counter() - t
            own_time[i] += dt
            slowest = max(slowest, local_share + dt)
        for j in handed_edge:
            t = time.perf_counter()
            # x_edge is v itself: solve edge j from a copy of its row
            x_edge[j], slack[j], mu[j], kkt_edge[j] = edge.solve_node(
                j, v[j].copy(), rho, warm_mu=None if warm_mu is None else warm_mu[j])
            dt = time.perf_counter() - t
            own_time[n + j] += dt
            slowest = max(slowest, edge_share + dt)
        warm_mu = mu
        if not (np.isfinite(u).all() and np.isfinite(x_edge).all() and np.isfinite(slack).all()):
            finite = np.concatenate([np.all(np.isfinite(u), axis=1),
                                     np.all(np.isfinite(x_edge), axis=1)
                                     & np.all(np.isfinite(slack), axis=1)])
            raise NumericalFailureError(
                f"non-finite iterate from {_node_names(vids, ekeys)[int(np.argmin(finite))]} "
                f"at iteration {k}", iteration=k)
        local_handed += len(handed_local)
        edge_handed += len(handed_edge)
        kkt_max = max(kkt_max, float(np.fmax.reduce(kkt_local, initial=0.0)),
                      float(np.fmax.reduce(kkt_edge, initial=0.0)))
        parallel_time += slowest
        # not <=: a NaN residual is flagged too
        if not ((kkt_local <= _NODE_OPTIMAL_KKT).all() and (kkt_edge <= _NODE_OPTIMAL_KKT).all()):
            kkt = np.concatenate([kkt_local, kkt_edge])
            names = _node_names(vids, ekeys)
            flagged = [f"{names[i]} (kkt {kkt[i]:.2e})"
                       for i in np.flatnonzero(~(kkt <= _NODE_OPTIMAL_KKT))]
            nonoptimal += len(flagged)
            logger.warning("ADMM iteration %d: non-optimal node solution(s) enter "
                           "consensus: %s", k, ", ".join(flagged))
        state.C[:n] = u
        state.C[n:] = x_edge.reshape(2 * n_edges, np_steps)

        # Step 2: consensus averaging; step 3: dual ascent
        state.update(state.consensus())
        state.iteration = k

        # the stop test reads the plain step; only a step that goes on at the
        # same rho is extrapolated, so the final state is always a plain one
        report = state.residuals(config.eps_abs, config.eps_rel)
        rho_next = rho
        if config.adapt_rho and not report.converged:
            rho_next = adapt_rho(rho, report.r_norm, report.s_norm)
        state.Z, state.L, kind = state.anderson.step(
            Z, L, state.Z, state.L,
            extrapolate=not report.converged and rho_next == rho and k < config.max_iters)
        accepted += kind == "accepted"
        rejected += kind == "rejected"
        logger.debug("admm k=%d r=%.6e s=%.6e rho=%.3e tmax=%.6e step=%s",
                     k, report.r_norm, report.s_norm, rho, slowest, kind)
        if report.converged:
            break
        state.rescale(rho_next)

    if not report.converged:
        logger.warning("ADMM hit the iteration cap (%d) without converging: "
                       "r=%.3e (eps=%.3e) s=%.3e (eps=%.3e); using last consensus iterate",
                       state.iteration, report.r_norm, report.eps_pri,
                       report.s_norm, report.eps_dual)
    node_time = own_time + np.repeat([share_local, share_edge], [n, n_edges])
    report = replace(report, per_node_solve_times=dict(zip(_node_names(vids, ekeys),
                                                           node_time.tolist())),
                     slack_max=float(np.max(slack, initial=0.0)), parallel_time=parallel_time,
                     nonoptimal_nodes=nonoptimal, local_handed=local_handed,
                     edge_handed=edge_handed, kkt_max=kkt_max,
                     anderson_accepted=accepted, anderson_rejected=rejected)
    consensus = {v: z.copy() for v, z in zip(vids, state.Z)}
    return AdmmResult(consensus=consensus, report=report, state=state)
