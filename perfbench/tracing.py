"""Span recording around fleetcoord's public calls, installed from outside.

The closed loop calls its layers through module attributes of
``fleetcoord.simulation`` and ``fleetcoord.admm``.  ``Tracer.install``
replaces those attributes with wrappers that record one span per call
(name, start, end, parent span, cycle index); ``Tracer.restore`` puts the
originals back.  Spans stay in memory until ``write``.  Nothing in the
program is edited.
"""

from __future__ import annotations

import statistics
import time

# (attribute, span name) per module; ``solve_qp`` is wrapped in both modules
# under one span name.
SIMULATION_CALLS = (
    ("build_constraint_graph", "graph.build"),
    ("make_seed", "simulation.seed"),
    ("convexify_cycle", "simulation.convexify"),
    ("reference_window", "simulation.reference"),
    ("linearize", "dynamics.linearize"),
    ("condense", "dynamics.condense"),
    ("rollout", "dynamics.rollout"),
    ("make_local_problem", "subproblems.make_local"),
    ("make_edge_problem", "subproblems.make_edge"),
    ("admm_solve", "admm.solve"),
    ("build_centralized", "subproblems.build_centralized"),
    ("solve_qp", "qp.solve"),
    ("fleet_objective", "subproblems.objective"),
)
ADMM_CALLS = (
    ("build_local", "subproblems.build_local"),
    ("build_edge", "subproblems.build_edge"),
    ("solve_qp", "qp.solve"),
)
ROOT_SPAN = "simulation.run"


def _qp_info(args, kwargs, sol):
    return (sol.iterations, sol.status, sol.kkt_residual)


def _graph_info(args, kwargs, graph):
    return graph.num_edges


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.cycles: list = []
        self.starts: list = []
        self.ends: list = []
        self.info: dict = {}
        self.admm_inputs: list = []      # (local, edge, consensus) per admm_solve
        self.cycle = -1
        self._open = [-1]
        self._saved: list = []

    def span(self, name, fn, *args, on_return=None, starts_cycle=False, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if starts_cycle:
            self.cycle += 1
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.cycles.append(self.cycle)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.starts[sid] = start
            self.ends[sid] = end
        if on_return is not None:
            self.info[sid] = on_return(args, kwargs, result)
        return result

    def _wrap(self, module, attr, name):
        original = getattr(module, attr)
        on_return = {"qp.solve": _qp_info, "graph.build": _graph_info,
                     "admm.solve": self._admm_info}.get(name)
        starts_cycle = name == "graph.build"

        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, on_return=on_return,
                             starts_cycle=starts_cycle, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _admm_info(self, args, kwargs, result):
        self.admm_inputs.append((args[0], args[1], result.consensus))
        rep = result.report
        return (rep.iterations_used, rep.converged, rep.parallel_time, rep.slack_max)

    def install(self):
        import fleetcoord.admm
        import fleetcoord.simulation
        for attr, name in SIMULATION_CALLS:
            self._wrap(fleetcoord.simulation, attr, name)
        for attr, name in ADMM_CALLS:
            self._wrap(fleetcoord.admm, attr, name)

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        """One CSV line per span: id, parent, cycle, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,cycle,name,start_s,end_s\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid},{self.parents[sid]},{self.cycles[sid]},{name},"
                         f"{self.starts[sid]:.9f},{self.ends[sid]:.9f}\n")

    def self_times(self) -> tuple[list, list]:
        """Per-span duration and self time (duration minus child spans)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[sid]
        return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals from the recorded spans; run.PER_LAYER gives the units."""
    dur, self_t = tracer.self_times()
    total: dict = {}
    self_total: dict = {}
    calls: dict = {}
    for sid, name in enumerate(tracer.names):
        total[name] = total.get(name, 0.0) + dur[sid]
        self_total[name] = self_total.get(name, 0.0) + self_t[sid]
        calls[name] = calls.get(name, 0) + 1

    ipm_s = shortcut_s = 0.0
    ipm_calls = ipm_iters = nonoptimal = 0
    kkt_max = 0.0
    edges: list = []
    admm_reports: list = []
    for sid, info in tracer.info.items():
        name = tracer.names[sid]
        if name == "qp.solve":
            iters, status, kkt = info
            if iters > 0:
                ipm_s += dur[sid]
                ipm_calls += 1
                ipm_iters += iters
            else:
                shortcut_s += dur[sid]
            nonoptimal += status != "optimal"
            kkt_max = max(kkt_max, kkt)
        elif name == "graph.build":
            edges.append(info)
        elif name == "admm.solve":
            admm_reports.append(info)

    qp_calls = calls.get("qp.solve", 0)
    admm_calls = len(admm_reports)
    accounted = sum(r[2] for r in admm_reports)
    admm_s = total.get("admm.solve", 0.0)
    return {
        "qp.ipm_s": ipm_s,
        "qp.ipm_calls": ipm_calls,
        "qp.ipm_iters": ipm_iters,
        "qp.shortcut_s": shortcut_s,
        "qp.shortcut_ratio": (qp_calls - ipm_calls) / qp_calls if qp_calls else 0.0,
        "qp.calls": qp_calls,
        "qp.nonoptimal": nonoptimal,
        "qp.kkt_max": kkt_max,
        "subproblems.node_build_s": (total.get("subproblems.build_local", 0.0)
                                     + total.get("subproblems.build_edge", 0.0)),
        "subproblems.node_build_calls": (calls.get("subproblems.build_local", 0)
                                         + calls.get("subproblems.build_edge", 0)),
        "subproblems.centralized_build_s": total.get("subproblems.build_centralized", 0.0),
        "subproblems.make_local_s": total.get("subproblems.make_local", 0.0),
        "subproblems.make_edge_s": total.get("subproblems.make_edge", 0.0),
        "subproblems.objective_s": total.get("subproblems.objective", 0.0),
        "dynamics.rollout_s": total.get("dynamics.rollout", 0.0),
        "dynamics.linearize_s": total.get("dynamics.linearize", 0.0),
        "dynamics.condense_s": total.get("dynamics.condense", 0.0),
        "dynamics.calls": sum(calls.get(n, 0) for n in
                              ("dynamics.rollout", "dynamics.linearize",
                               "dynamics.condense")),
        "simulation.reference_s": total.get("simulation.reference", 0.0),
        "simulation.seed_s": self_total.get("simulation.seed", 0.0),
        "simulation.convexify_self_s": self_total.get("simulation.convexify", 0.0),
        "simulation.self_s": self_total.get(ROOT_SPAN, 0.0),
        "graph.build_s": total.get("graph.build", 0.0),
        "graph.edges_mean": statistics.fmean(edges) if edges else 0.0,
        "admm.solve_s": admm_s,
        "admm.self_s": self_total.get("admm.solve", 0.0),
        "admm.calls": admm_calls,
        "admm.iters": sum(r[0] for r in admm_reports),
        "admm.iters_max": max((r[0] for r in admm_reports), default=0),
        "admm.converged_ratio": (sum(r[1] for r in admm_reports) / admm_calls
                                 if admm_calls else 0.0),
        "admm.wall_over_accounted": admm_s / accounted if accounted > 0 else 0.0,
        "admm.slack_max_m": max((r[3] for r in admm_reports), default=0.0),
        "trace.spans": len(tracer.names),
    }


def objective_gaps(admm_inputs) -> list:
    """Relative gap of each ADMM cycle to the centralized QP on the same data.

    Uses the package's own functions (never the wrapped attributes), so the
    solves here add no span and no ``qp.*`` count.
    """
    from fleetcoord.qp import solve_qp
    from fleetcoord.subproblems import build_centralized, fleet_objective

    gaps = []
    for local, edge, consensus in admm_inputs:
        central = build_centralized(local, edge)
        sol = solve_qp(central.qp)
        j_central = fleet_objective(local, central.controls(sol.u_star))
        j_admm = fleet_objective(local, consensus)
        gaps.append((j_admm - j_central) / abs(j_central))
    return gaps
