from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from obroute.flows import (
    SNK,
    SRC,
    FlowAssignment,
    cancel_cycles,
    decompose_by_sink,
    max_flow_integral,
    sample_path,
)
from helpers import brute_force_min_cut


def undirected_arcs(edges):
    out = []
    for u, v, c in edges:
        out.append((u, v, c))
        out.append((v, u, c))
    return out


DIAMOND_EDGES = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]


def test_max_flow_diamond_value_and_integrality():
    fa = max_flow_integral(undirected_arcs(DIAMOND_EDGES), 0, 3)
    assert fa.value == 2  # oracle: two vertex-disjoint unit routes
    assert all(float(f).is_integer() for f in fa.arcs.values())
    assert fa.conservation_violations() == {}


def test_max_flow_path_bottleneck():
    arcs = undirected_arcs([(0, 1, 5), (1, 2, 2), (2, 3, 7)])
    fa = max_flow_integral(arcs, 0, 3)
    assert fa.value == 2


def test_max_flow_matches_brute_force_min_cut():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(3, 7))
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.5:
                    arcs.append((u, v, int(rng.integers(1, 6))))
        s, t = 0, n - 1
        fa = max_flow_integral(arcs, s, t)
        assert fa.value == brute_force_min_cut(n, arcs, s, t)
        assert fa.conservation_violations() == {}
        for (u, v), f in fa.arcs.items():
            assert f >= 0 and float(f).is_integer()


def test_max_flow_rejects_s_equals_t():
    with pytest.raises(ValueError, match="distinct"):
        max_flow_integral([(0, 1, 1)], 0, 0)


def test_max_flow_with_super_terminals_no_graph_edges():
    # isolated vertex fed by the super-terminals only
    fa = max_flow_integral([(SRC, 5, 4), (5, SNK, 4)], SRC, SNK)
    assert fa.value == 4


def test_cancel_cycles_removes_opposite_and_cyclic_flow():
    arcs = {
        (SRC, 0): 1.0, (0, 1): 2.0, (1, 0): 1.0,  # opposite-arc pair
        (1, 2): 3.0, (2, 3): 2.0, (3, 1): 2.0,    # directed 3-cycle
        (2, SNK): 1.0,
    }
    fa = FlowAssignment(arcs=arcs, source=SRC, sink=SNK, value=1.0)
    clean = cancel_cycles(fa)
    assert clean.value == 1.0
    assert clean.is_acyclic()
    assert clean.conservation_violations() == {}
    for k, f in clean.arcs.items():
        assert f <= arcs[k] + 1e-12  # loads never increase
    assert clean.arcs == {(SRC, 0): 1.0, (0, 1): 1.0, (1, 2): 1.0, (2, SNK): 1.0}


def test_cancel_cycles_preserves_integrality():
    arcs = {(SRC, 0): 2, (0, 1): 3, (1, 2): 1, (2, 0): 1, (1, SNK): 2}
    fa = FlowAssignment(arcs=arcs, source=SRC, sink=SNK, value=2)
    clean = cancel_cycles(fa)
    assert all(float(f).is_integer() for f in clean.arcs.values())
    assert clean.conservation_violations() == {}


def two_route_flow():
    # 2:1 split at vertex 0 over routes via 1 and via 2
    arcs = {(SRC, 0): 3.0, (0, 1): 2.0, (0, 2): 1.0, (1, 3): 2.0, (2, 3): 1.0, (3, SNK): 3.0}
    return FlowAssignment(arcs=arcs, source=SRC, sink=SNK, value=3.0)


def test_sample_path_split_proportions():
    fa = two_route_flow()
    rng = np.random.default_rng(11)
    n_draws = 100_000
    via_1 = sum(sample_path(fa, 0, "forward", rng)[1] == 1 for _ in range(n_draws))
    # oracle law: first hop to 1 with probability 2/3; chi-square on the two counts
    chi = stats.chisquare([via_1, n_draws - via_1], [n_draws * 2 / 3, n_draws / 3])
    assert chi.pvalue > 1e-6
    assert abs(via_1 / n_draws - 2 / 3) < 0.01


def test_sample_path_backward_mirrors_forward():
    fa = two_route_flow()
    reversed_arcs = {(b, a): f for (a, b), f in fa.arcs.items()}
    rev = FlowAssignment(arcs=reversed_arcs, source=SNK, sink=SRC, value=3.0)
    rng = np.random.default_rng(5)
    n_draws = 40_000
    back = sum(sample_path(fa, 3, "backward", rng)[1] == 1 for _ in range(n_draws))
    fwd = sum(sample_path(rev, 3, "forward", rng)[1] == 1 for _ in range(n_draws))
    # both walk the same reversed law; compare against the 2/3 oracle
    for count in (back, fwd):
        assert abs(count / n_draws - 2 / 3) < 0.015


def test_sample_path_requires_flow_at_start():
    fa = two_route_flow()
    with pytest.raises(ValueError, match="no forward flow"):
        sample_path(fa, 7, "forward", np.random.default_rng(0))


def test_sample_path_rejects_cyclic_flow():
    arcs = {(SRC, 0): 1.0, (0, 1): 2.0, (1, 0): 1.0, (1, SNK): 1.0}
    fa = FlowAssignment(arcs=arcs, source=SRC, sink=SNK, value=1.0)
    with pytest.raises(ValueError, match="acyclic"):
        sample_path(fa, 0, "forward", np.random.default_rng(0))


def test_decompose_by_sink_groups():
    # two trees from vertex 0 of the diamond 0-1-3, 0-2-3 plus the pendant
    # 3-4: they agree on the path to 1 and differ on the paths to 3 and 4
    preds = np.array([[-9999, 0, 0, 1, 3], [-9999, 0, 0, 2, 3]])
    names = np.array([10, 11, 12, 13, 14])
    groups = decompose_by_sink(preds, np.array([0.75, 0.25]), np.array([1, 3, 4]), names)
    assert groups == {11: [([10, 11], 1.0)],
                      13: [([10, 11, 13], 0.75), ([10, 12, 13], 0.25)],
                      14: [([10, 11, 13, 14], 0.75), ([10, 12, 13, 14], 0.25)]}
