import numpy as np
import pytest

from fleetcoord import (ParameterError, ScenarioError, build_constraint_graph,
                        neighbors)
from fleetcoord.scenario import VehicleState

from oracles import brute_force_edges


def _states(positions):
    return {i: VehicleState(x, y, 0.0) for i, (x, y) in positions.items()}


def test_two_vehicles_within_range():
    g = build_constraint_graph(_states({1: (0, 0), 2: (3, 0)}), d_perc=50, d_safe=5)
    assert g.edges == ((1, 2),)


def test_single_vehicle_no_edges():
    g = build_constraint_graph(_states({1: (0, 0)}), d_perc=50, d_safe=5)
    assert g.edges == ()
    assert neighbors(g, 1) == set()


def test_random_graph_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pos = {i + 1: tuple(rng.uniform(0, 200, size=2)) for i in range(10)}
        g = build_constraint_graph(_states(pos), d_perc=50, d_safe=5)
        assert set(g.edges) == brute_force_edges(pos, 50.0)


def test_neighbors_symmetry_and_oracle():
    rng = np.random.default_rng(11)
    pos = {i + 1: tuple(rng.uniform(0, 120, size=2)) for i in range(10)}
    g = build_constraint_graph(_states(pos), d_perc=60, d_safe=5)
    for i in g.nodes:
        for j in neighbors(g, i):
            assert i in neighbors(g, j)
        # direct scan over the edge list
        assert neighbors(g, i) == {b if a == i else a for a, b in g.edges if i in (a, b)}


def test_monotonicity_in_d_perc():
    rng = np.random.default_rng(7)
    pos = {i + 1: tuple(rng.uniform(0, 100, size=2)) for i in range(8)}
    radii = [10.0, 25.0, 50.0, 100.0]
    edge_sets = [set(build_constraint_graph(_states(pos), r, 5.0).edges) for r in radii]
    for smaller, larger in zip(edge_sets, edge_sets[1:]):
        assert smaller <= larger


def test_unknown_id_raises_keyerror():
    g = build_constraint_graph(_states({1: (0, 0), 2: (3, 0)}), d_perc=50, d_safe=5)
    with pytest.raises(KeyError):
        neighbors(g, 99)


def test_nonpositive_distances_rejected():
    with pytest.raises(ParameterError):
        build_constraint_graph(_states({1: (0, 0)}), d_perc=-1, d_safe=5)
    with pytest.raises(ParameterError):
        build_constraint_graph(_states({1: (0, 0)}), d_perc=10, d_safe=0)
    with pytest.raises(ParameterError, match="d_perc"):
        build_constraint_graph(_states({1: (0, 0)}), d_perc=3, d_safe=5)


@pytest.mark.parametrize("d_perc, d_safe, name", [
    (float("nan"), 5.0, "d_perc"), (float("inf"), 5.0, "d_perc"),
    (30.0, float("nan"), "d_safe"), (30.0, float("-inf"), "d_safe"),
])
def test_non_finite_distances_rejected(d_perc, d_safe, name):
    # a NaN d_perc gave a graph with no edges
    with pytest.raises(ParameterError, match=name):
        build_constraint_graph(_states({1: (0, 0), 2: (1, 0)}), d_perc, d_safe)


def test_duplicate_ids_rejected():
    pairs = [(1, VehicleState(0, 0, 0)), (1, VehicleState(3, 0, 0))]
    with pytest.raises(ScenarioError, match="duplicate"):
        build_constraint_graph(pairs, d_perc=50, d_safe=5)


def test_empty_fleet_rejected():
    with pytest.raises(ScenarioError):
        build_constraint_graph({}, d_perc=50, d_safe=5)


def test_edge_exactly_at_d_perc_included():
    g = build_constraint_graph(_states({1: (0, 0), 2: (50, 0)}), d_perc=50, d_safe=5)
    assert g.edges == ((1, 2),)
