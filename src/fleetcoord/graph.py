"""Proximity-based constraint topology over the fleet.

Vehicles are graph nodes; an edge couples every pair whose rear-axle points
are within the sensing radius ``d_perc``.  The graph is built from a snapshot
of true positions and then held fixed for one whole prediction horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScenarioError
from .scenario import VehicleState


@dataclass(frozen=True)
class ConstraintGraph:
    """Immutable proximity graph: sorted node ids, sorted unordered edges."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(neighbors(self, i))


def build_constraint_graph(states, d_perc: float, d_safe: float) -> ConstraintGraph:
    """Build the coupling graph from current vehicle positions.

    ``states`` is either a mapping ``{id: state}`` or an iterable of
    ``(id, state)`` pairs, where a state is a VehicleState or an array whose
    first two entries are (rx, ry).  An edge (i, j) is present exactly when
    the Euclidean distance between the two rear-axle points is <= d_perc.
    All pairwise distances are computed in one array pass; edges come out
    sorted.
    """
    for name, value in (("d_perc", d_perc), ("d_safe", d_safe)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and positive, got {value!r}")
    if d_perc < d_safe:
        raise ParameterError(f"d_perc ({d_perc}) must be >= d_safe ({d_safe})")

    if isinstance(states, dict):
        pairs = list(states.items())
    else:
        pairs = list(states)
    if not pairs:
        raise ScenarioError("need at least one vehicle to build a graph")
    ids = [i for i, _ in pairs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ScenarioError(f"duplicate vehicle id(s) {dupes}")

    ordered = sorted(pairs, key=lambda kv: kv[0])
    nodes = tuple(i for i, _ in ordered)
    pos = np.array([(s.rx, s.ry) if isinstance(s, VehicleState) else (s[0], s[1])
                    for _, s in ordered], dtype=float)

    diff = pos[:, None, :] - pos[None, :, :]
    close = np.triu(np.hypot(diff[:, :, 0], diff[:, :, 1]) <= d_perc, k=1)
    a, b = np.nonzero(close)
    edges = tuple((nodes[i], nodes[j]) for i, j in zip(a.tolist(), b.tolist()))
    return ConstraintGraph(nodes=nodes, edges=edges)


def neighbors(graph: ConstraintGraph, i: int) -> set[int]:
    """All vehicles sharing a coupling edge with vehicle ``i``; a scan of the edges."""
    if i not in graph.nodes:
        raise KeyError(f"unknown vehicle id {i}")
    return {b if a == i else a for a, b in graph.edges if i in (a, b)}
