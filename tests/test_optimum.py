from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obroute import cmcf, optimum
from obroute.cli import main
from obroute.experiment import demand_battery
from obroute.graph import (CapacitatedGraph, DemandMatrix, grid_graph, hypercube_graph,
                           torus_graph)
from obroute.optimum import competitive_ratio, optimal_congestion
import helpers
from helpers import (arc_lp_congestion, brute_force_congestion, connected_graphs, cycle_graph,
                     single_edge, triangle)


# oracle battery: values derived by hand from the two-path split argument
# (split x on the short route, 1-x on the long one; optimum at the balance point)

def test_single_edge_demand_three():
    assert optimal_congestion(single_edge(), DemandMatrix({(0, 1): 3.0})) == pytest.approx(3.0, abs=1e-9)


def test_triangle_unit_demand():
    got = optimal_congestion(triangle(), DemandMatrix({(0, 1): 1.0}))
    assert got == pytest.approx(0.5, abs=1e-6)


def test_four_cycle_adjacent():
    got = optimal_congestion(cycle_graph(4), DemandMatrix({(0, 1): 1.0}))
    assert got == pytest.approx(0.5, abs=1e-6)


def test_four_cycle_opposite():
    got = optimal_congestion(cycle_graph(4), DemandMatrix({(0, 2): 1.0}))
    assert got == pytest.approx(0.5, abs=1e-6)


def test_brute_force_matches_lp_on_battery():
    cases = [
        (single_edge(), {(0, 1): 3.0}),
        (triangle(), {(0, 1): 1.0}),
        (cycle_graph(4), {(0, 1): 1.0}),
        (cycle_graph(4), {(0, 2): 1.0}),
        (cycle_graph(4), {(0, 1): 1.0, (2, 3): 2.0}),
        (triangle(), {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}),
    ]
    for g, demands in cases:
        lp = optimal_congestion(g, DemandMatrix(dict(demands)))
        brute = brute_force_congestion(g, DemandMatrix(dict(demands)))
        assert brute == pytest.approx(lp, abs=1e-3), (demands, lp, brute)


def test_brute_force_is_exact_in_both_path_orders(monkeypatch):
    # a search over path splits stopped above 1.0 here, by an amount that
    # depended on the order of the enumerated paths; the path LP does not
    demands = DemandMatrix({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    assert brute_force_congestion(triangle(), demands) == pytest.approx(1.0, abs=1e-9)
    natural = helpers.all_simple_paths
    monkeypatch.setattr(helpers, "all_simple_paths",
                        lambda g, s, t: natural(g, s, t)[::-1])
    assert brute_force_congestion(triangle(), demands) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_rejects_big_instances():
    from obroute.graph import generate_graph
    g = generate_graph("grid", rows=3, cols=3)
    with pytest.raises(ValueError, match="n <= 6"):
        brute_force_congestion(g, DemandMatrix({(0, 8): 1.0}))
    with pytest.raises(ValueError, match="3 commodities"):
        brute_force_congestion(cycle_graph(4),
                               DemandMatrix({(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1}))


def test_demand_scale_covariance():
    g = cycle_graph(5)
    d = DemandMatrix({(0, 2): 1.0, (1, 4): 2.0})
    one = optimal_congestion(g, d)
    two = optimal_congestion(g, {p: 2.0 * x for p, x in d.entries.items()})
    assert two == pytest.approx(2.0 * one, rel=1e-7)


def test_competitive_ratio_conventions():
    assert competitive_ratio(0.0, 0.0) == 1.0
    assert competitive_ratio(4.0, 2.0) == 2.0
    with pytest.raises(ValueError, match="inconsistent"):
        competitive_ratio(1.0, 0.0)


# column generation against the source-aggregated arc LP (tests/helpers.py)

@pytest.mark.parametrize("g, battery", [
    (grid_graph(8, 8), "gravity"),
    (grid_graph(8, 8), "permutation"),
    (grid_graph(10, 10), "uniform_pairs:24"),
    (grid_graph(6, 6, cap_range=(1, 5), seed=0), "gravity"),
    (torus_graph(6, 6), "gravity"),
    (hypercube_graph(5), "gravity"),
], ids=["grid8-gravity", "grid8-permutation", "grid10-uniform24", "grid6-caps1to5",
        "torus6-gravity", "hypercube5-gravity"])
def test_matches_arc_lp(g, battery):
    demands = demand_battery(battery, g, 0)
    arc = arc_lp_congestion(g, demands, set(range(g.n)))
    assert optimal_congestion(g, demands) == pytest.approx(arc, rel=1e-9)


@st.composite
def graphs_with_two_way_demands(draw):
    g = draw(connected_graphs().filter(lambda g: g.n >= 2))
    vertex = st.integers(0, g.n - 1)
    amount = st.floats(0.25, 8.0)
    s, t = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    entries = {(s, t): draw(amount), (t, s): draw(amount)}
    for a, b, d in draw(st.lists(st.tuples(vertex, vertex, amount), max_size=10)):
        if a != b:
            entries[(a, b)] = d
    return g, DemandMatrix(entries)


@settings(max_examples=60, deadline=None)
@given(graphs_with_two_way_demands())
def test_matches_arc_lp_on_random_graphs(case):
    g, demands = case
    arc = arc_lp_congestion(g, demands, set(range(g.n)))
    assert optimal_congestion(g, demands) == pytest.approx(arc, rel=1e-9)


def test_zero_dual_length_edge_stays_traversable(monkeypatch):
    # the wide edge 2-3 has slack at the optimum, so its dual length is 0,
    # yet every route from 0 to 3 crosses it; the unit triangle 0-1-2 makes
    # the graph no tree, whose routing would be forced without a master LP
    g = CapacitatedGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 100)])
    lengths = []
    solve = cmcf._TreePool.solve_master

    def recorded(pool, caps):
        x, sigma, w = solve(pool, caps)
        lengths.append(w.copy())
        return x, sigma, w

    monkeypatch.setattr(cmcf._TreePool, "solve_master", recorded)
    assert optimal_congestion(g, DemandMatrix({(0, 3): 1.0})) == pytest.approx(0.5, rel=1e-12)
    assert lengths and lengths[-1][g.edge_index(2, 3)] == 0.0


@pytest.mark.parametrize("g, battery, master_lps", [
    (grid_graph(10, 10), "uniform_pairs:24", 5),
    (hypercube_graph(5), "gravity", 6),
], ids=["grid10-uniform24", "hypercube5-gravity"])
def test_seeding_saves_master_lps(monkeypatch, g, battery, master_lps):
    # seeded with hop-shortest trees alone, these took 12 and 21 master LPs
    calls = []
    solve = cmcf._TreePool.solve_master

    def counted(pool, caps):
        calls.append(caps)
        return solve(pool, caps)

    monkeypatch.setattr(cmcf._TreePool, "solve_master", counted)
    optimal_congestion(g, demand_battery(battery, g, 0))
    assert len(calls) == master_lps


def test_empty_demands_cost_nothing():
    g = grid_graph(3, 3)
    assert optimal_congestion(g, DemandMatrix({})) == 0.0
    assert optimal_congestion(g, {}) == 0.0
    assert optimal_congestion(g, {(0, 4): 0.0}) == 0.0


def test_rejects_pairs_outside_the_graph():
    with pytest.raises(ValueError, match="out of vertex range 0..2"):
        optimal_congestion(triangle(), {(0, 3): 1.0})


def test_round_cap_raises(monkeypatch):
    # torus 3x3 with gravity demand needs 5 master LPs
    g = torus_graph(3, 3)
    monkeypatch.setattr(cmcf, "_MAX_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 master LPs"):
        optimal_congestion(g, demand_battery("gravity", g, 0))


def test_gap_to_dual_bound_raises(monkeypatch):
    # a tie-break term as long as the duals themselves leaves the bound loose
    g = grid_graph(4, 4)
    monkeypatch.setattr(cmcf, "_TIE", 1.0)
    with pytest.raises(RuntimeError, match="not within relative gap"):
        optimal_congestion(g, demand_battery("gravity", g, 0))


def test_route_exits_2_when_the_oracle_fails(tmp_path, monkeypatch, capsys):
    # grid 3x3 with 4 uniform pairs (seed 0) needs 6 master LPs; the cap
    # holds in the oracle only, after certification
    solve = optimum.solve_cmcf_min_congestion

    def capped(*args):
        monkeypatch.setattr(cmcf, "_MAX_ROUNDS", 1)
        return solve(*args)

    monkeypatch.setattr(optimum, "solve_cmcf_min_congestion", capped)
    code = main(["route", "--generate", "grid:3x3", "--demands", "uniform_pairs:4",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err


def test_tree_pool_builds_its_columns_once_per_add():
    # the master LP and the routing loads of one round read one set of
    # column arrays; an add that stores a new tree replaces them with the
    # arrays of every stored tree, an add of stored trees only keeps them
    pool = cmcf._TreePool(2, 3)
    preds = np.zeros((2, 4), dtype=np.int32)    # not read by the columns
    assert pool.add(np.array([0, 1]), preds, np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    first = pool._columns()
    assert pool._columns() is first
    assert np.array_equal(pool.loads(np.array([1.0, 2.0])), [1.0, 6.0, 2.0])
    assert not pool.add(np.array([1]), preds[:1], np.array([[0.0, 3.0, 0.0]]))
    assert pool._columns() is first
    assert pool.add(np.array([0]), preds[:1], np.array([[0.0, 1.0, 1.0]]))
    assert len(pool.preds) == 3
    index, value, lengths = pool._columns()
    dense = np.zeros((3, 3))
    dense[index, np.repeat(np.arange(3), lengths)] = value
    assert np.array_equal(dense, [[1.0, 0.0, 0.0], [0.0, 3.0, 1.0], [2.0, 0.0, 1.0]])
