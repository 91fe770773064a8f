from __future__ import annotations

import numpy as np
import pytest

from obroute.graph import CapacitatedGraph, DemandMatrix
from obroute.optimum import competitive_ratio, optimal_congestion
import helpers
from helpers import brute_force_congestion, cycle_graph, single_edge, triangle


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
    two = optimal_congestion(g, d.scaled(2.0))
    assert two == pytest.approx(2.0 * one, rel=1e-7)


def test_competitive_ratio_conventions():
    assert competitive_ratio(0.0, 0.0) == 1.0
    assert competitive_ratio(4.0, 2.0) == 2.0
    with pytest.raises(ValueError, match="inconsistent"):
        competitive_ratio(1.0, 0.0)
