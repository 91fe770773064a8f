from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, shortest_path

from obroute.cmcf import solve_cmcf_min_congestion
from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import demand_battery
from obroute.graph import (
    CapacitatedGraph,
    DemandMatrix,
    GraphFormatError,
    generate_graph,
    graph_stats,
    grid_graph,
    parse_graph,
)
from obroute.optimum import optimal_congestion
from obroute.routing import ReferenceBackend, route_demands
from helpers import connected_graphs, single_edge


def test_stats_2x3_grid():
    g = generate_graph("grid", rows=2, cols=3)
    # oracle by hand: 4 horizontal + 3 vertical edges, corner degree 2, middle 3
    assert graph_stats(g) == {"n": 6, "m": 7, "W": 1, "max_degree": 3}


def test_grid_2x2():
    g = generate_graph("grid", rows=2, cols=2)
    assert (g.n, g.m) == (4, 4)


def test_hypercube_counts():
    g = generate_graph("hypercube", dim=3)
    assert (g.n, g.m) == (8, 12)
    assert all(g.degree(v) == 3 for v in range(g.n))


def test_torus_counts_and_validation():
    g = generate_graph("torus", rows=3, cols=4)
    assert (g.n, g.m) == (12, 24)
    assert all(g.degree(v) == 4 for v in range(g.n))
    with pytest.raises(GraphFormatError):
        generate_graph("torus", rows=2, cols=4)


def test_random_regular_is_regular_and_seeded():
    g1 = generate_graph("random_regular", n=8, deg=3, seed=7)
    g2 = generate_graph("random_regular", n=8, deg=3, seed=7)
    assert g1.edges == g2.edges
    assert all(g1.degree(v) == 3 for v in range(8))
    with pytest.raises(GraphFormatError):
        generate_graph("random_regular", n=7, deg=3, seed=0)  # odd stub count


def test_grid_capacity_range_seeded():
    g = generate_graph("grid", rows=3, cols=3, cap_range=(1, 4), seed=5)
    h = generate_graph("grid", rows=3, cols=3, cap_range=(1, 4), seed=5)
    assert g.edges == h.edges
    assert 1 <= min(c for _, _, c in g.edges) and max(c for _, _, c in g.edges) <= 4


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("2 1\n0 0 1\n", "self-loop"),
        ("2 1\n0 1 0\n", "positive"),
        ("2 1\n0 1 -3\n", "positive"),
        ("2 2\n0 1 1\n0 1 2\n", "duplicate"),
        ("3 1\n0 1 1\n", "disconnected"),
        ("2 1\n0 5 1\n", "outside"),
        ("2 2\n0 1 1\n", "declares"),
        ("2 1\n0 1 x\n", "integers"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(text)


def test_parse_accepts_comments_and_blanks():
    g = parse_graph("# capacitated graph\n\n2 1\n0 1 3  # the only edge\n")
    assert g.edges == [(0, 1, 3)]


def test_single_vertex_graph():
    g = parse_graph("1 0\n")
    assert (g.n, g.m, g.max_capacity, g.max_degree) == (1, 0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_serialize_parse_round_trip(g):
    assert parse_graph(g.serialize()).edges == g.edges


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_degree_sum_is_twice_m(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


@st.composite
def graphs_with_subsets(draw):
    g = draw(connected_graphs())
    within = draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    sources = draw(st.sets(st.sampled_from(sorted(within)), min_size=1))
    return g, within, sources


@settings(max_examples=100, deadline=None)
@given(graphs_with_subsets())
def test_hop_distances_match_scipy_on_induced_subgraph(case):
    g, within, sources = case
    order = sorted(within)
    pos = {v: i for i, v in enumerate(order)}
    inside = [(pos[u], pos[v]) for u, v, _ in g.edges if u in within and v in within]
    rows = [a for a, _ in inside]
    cols = [b for _, b in inside]
    adj = sp.csr_matrix((np.ones(len(inside)), (rows, cols)), shape=(len(order),) * 2)
    hops = shortest_path(adj, directed=False, unweighted=True,
                         indices=[pos[s] for s in sorted(sources)]).min(axis=0)
    expected = {v: int(hops[pos[v]]) for v in order if np.isfinite(hops[pos[v]])}
    assert g.hop_distances(sorted(sources), within) == expected

    n_parts, _ = connected_components(adj, directed=False)
    start = min(within)
    assert (len(g.hop_distances([start], within)) == len(within)) == (n_parts == 1)


def test_hop_distances_small_path():
    g = CapacitatedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert g.hop_distances([0]) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert g.hop_distances([0, 3]) == {0: 0, 3: 0, 1: 1, 2: 1}
    # path 0-1-2-3 without vertex 1: {0, 2, 3} falls apart, {2, 3} does not
    assert len(g.hop_distances([0], {0, 2, 3})) != 3
    assert len(g.hop_distances([2], {2, 3})) == 2


def test_demand_matrix_validation():
    with pytest.raises(ValueError, match="itself"):
        DemandMatrix({(1, 1): 2.0})
    with pytest.raises(ValueError, match=">= 0"):
        DemandMatrix({(0, 1): -1.0})
    with pytest.raises(ValueError, match="finite"):
        DemandMatrix({(0, 1): float("inf")})
    d = DemandMatrix({(0, 1): 2.0, (1, 0): 0.0})
    assert d.entries == {(0, 1): 2.0}          # the zero entry is dropped


@pytest.fixture(scope="module")
def entry_points():
    """Congestion of a demand set on grid 3x3 from each entry point that
    takes demands."""
    g = grid_graph(3, 3)
    tree = build_tree(g, seed=0)
    backend = ReferenceBackend(g, tree, certify_congestion(g, tree, store_solutions=True).solutions)
    return {"route_demands": lambda d: route_demands(g, tree, backend, d).congestion,
            "optimal_congestion": lambda d: optimal_congestion(g, d),
            "solve_cmcf_min_congestion":
                lambda d: solve_cmcf_min_congestion(g, d, set(range(g.n))).congestion}


@pytest.mark.parametrize("name", ["route_demands", "optimal_congestion",
                                  "solve_cmcf_min_congestion"])
@pytest.mark.parametrize("demands, match", [
    ({(0, 8): 1.0, (1, 2): -5.0}, "must be finite and >= 0"),
    ({(0, 8): float("nan")}, "must be finite and >= 0"),
    ({(0, 8): float("inf")}, "must be finite and >= 0"),
    ({(0, 8): 1.0, (1, 1): 3.0}, "to itself"),
    ({(0, 9): 1.0}, "out of vertex range 0..8"),
    ({(-1, 4): 1.0}, "out of vertex range 0..8"),
])
def test_entry_points_reject_the_same_bad_demands(entry_points, name, demands, match):
    with pytest.raises(ValueError, match=match):
        entry_points[name](demands)


@pytest.mark.parametrize("name", ["route_demands", "optimal_congestion",
                                  "solve_cmcf_min_congestion"])
def test_entry_points_name_the_first_bad_pair_of_a_battery(entry_points, name):
    entries = dict(demand_battery("gravity", grid_graph(3, 3), 0).entries)
    entries[(4, 9)] = 1.0
    with pytest.raises(ValueError, match=r"^demand pair \(4,9\) out of vertex range 0\.\.8$"):
        entry_points[name](entries)
    entries[(-1, 2)] = 1.0
    with pytest.raises(ValueError, match=r"^demand pair \(4,9\) out of vertex range"):
        entry_points[name](entries)
    del entries[(4, 9)]
    with pytest.raises(ValueError, match=r"^demand pair \(-1,2\) out of vertex range"):
        entry_points[name](DemandMatrix(entries))


def test_entry_points_read_a_plain_dict_as_its_demand_matrix(entry_points):
    demands = {(0, 8): 1.0, (2, 6): 2, (1, 2): 0.0}
    for name, congestion in entry_points.items():
        assert congestion(demands) == congestion(DemandMatrix(demands)) > 0, name


def test_edges_inside():
    g = generate_graph("grid", rows=2, cols=2)
    inside = g.edges_inside({0, 1})
    assert [g.edges[i][:2] for i in inside] == [(0, 1)]


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.data())
def test_edges_inside_matches_full_edge_scan(g, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1)))
    scan = [idx for idx, (u, v, _) in enumerate(g.edges) if u in members and v in members]
    assert g.edges_inside(members) == scan


def test_unknown_kind_rejected():
    with pytest.raises(GraphFormatError, match="unknown"):
        generate_graph("petersen")


def test_uniform_capacity_probe():
    assert single_edge().uniform_capacities()
    assert not single_edge(cap=3).uniform_capacities()
