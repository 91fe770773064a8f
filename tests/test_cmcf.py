from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obroute import cmcf
from obroute.cmcf import CMCFSolution, PathGroup, round_paths, solve_cmcf_min_congestion
from obroute.decomposition import build_tree, certify_congestion, cmcf_instance
from obroute.flows import decompose_by_sink
from obroute.graph import CapacitatedGraph, generate_graph, grid_graph
from obroute.impl_b import build_cube_scheme
from obroute.optimum import optimal_congestion
from helpers import (
    all_simple_paths,
    arc_lp_congestion,
    assert_groups_route,
    connected_graphs,
    cycle_graph,
    diamond,
    dict_path_group,
    dict_tree_groups,
    dict_unit_loads,
    single_edge,
)


def test_single_edge_both_directions():
    # demand 0.5 each way shares one unit edge: congestion exactly 1
    demands = {(0, 1): 0.5, (1, 0): 0.5}
    sol = solve_cmcf_min_congestion(single_edge(), demands, {0, 1})
    assert sol.congestion == pytest.approx(1.0, abs=1e-9)
    assert_groups_route(single_edge(), sol, demands, {0, 1})


def test_cycle_both_directions():
    # 0.5 each way between neighbours of a unit 4-cycle: a quarter of each
    # direction takes the 3-hop detour, so every edge carries 0.5
    g = cycle_graph(4)
    demands = {(0, 1): 0.5, (1, 0): 0.5}
    sol = solve_cmcf_min_congestion(g, demands, set(range(g.n)))
    assert sol.congestion == pytest.approx(0.5, abs=1e-9)
    for u, v, _ in g.edges:
        assert sol.edge_loads[(min(u, v), max(u, v))] == pytest.approx(0.5, abs=1e-9)
    assert_groups_route(g, sol, demands, set(range(g.n)))


@st.composite
def tree_instances(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(min_value=0, max_value=v - 1))], label[v],
              draw(st.integers(min_value=1, max_value=5))) for v in range(1, n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=6))
    amount = st.floats(min_value=0.1, max_value=5.0)
    demands = {}
    for a, b in pairs:
        demands[(a, b)] = draw(amount)
        demands[(b, a)] = draw(amount)
    return CapacitatedGraph(n, edges), demands


@settings(max_examples=80, deadline=None)
@given(tree_instances())
def test_tree_routing_is_forced_without_lp(case):
    g, demands = case

    def no_lp(*args, **kwargs):
        raise AssertionError("a spanning-tree restriction reached linprog")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cmcf, "linprog", no_lp)
        sol = solve_cmcf_min_congestion(g, demands, set(range(g.n)))
    expected: dict[tuple[int, int], float] = {}
    for (s, t), d in demands.items():
        (path,) = all_simple_paths(g, s, t)
        for a, b in zip(path, path[1:]):
            key = (min(a, b), max(a, b))
            expected[key] = expected.get(key, 0.0) + d
    assert set(sol.edge_loads) == set(expected)
    for key, load in expected.items():
        assert abs(sol.edge_loads[key] - load) <= 1e-12
    assert sol.congestion == pytest.approx(arc_lp_congestion(g, demands, set(range(g.n))),
                                           abs=1e-9)
    assert_groups_route(g, sol, demands, set(range(g.n)))


def _count_linprog(monkeypatch) -> list[int]:
    # one entry per master LP, its variable count
    calls: list[int] = []
    real = cmcf.linprog

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cmcf, "linprog", counting)
    return calls


def test_lp_only_off_trees(monkeypatch):
    # grid 2x3: {0, 1, 3, 4} induces a 4-cycle, {0, 1, 2, 5} the path 0-1-2-5
    g = generate_graph("grid", rows=2, cols=3)
    calls = _count_linprog(monkeypatch)
    cyc = solve_cmcf_min_congestion(g, {(0, 4): 1.0}, restrict={0, 1, 3, 4})
    assert len(calls) == 1
    assert cyc.congestion == pytest.approx(0.5, abs=1e-9)
    path = solve_cmcf_min_congestion(g, {(0, 5): 1.0}, restrict={0, 1, 2, 5})
    assert len(calls) == 1
    assert path.edge_loads == {(0, 1): 1.0, (1, 2): 1.0, (2, 5): 1.0}


def test_lp_calls_grid_8x8(monkeypatch):
    # 35 of the 59 clusters that need a solve induce trees; the other 24
    # take 29 master LPs in certification, and the impl-b cubes, drawn from
    # those solutions, take none
    calls = _count_linprog(monkeypatch)
    g = grid_graph(8, 8)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    assert len(calls) == 29
    build_cube_scheme(g, tree, cert, np.random.default_rng(0))
    assert len(calls) == 29


@pytest.mark.parametrize("kind, side", [("grid", 8), ("torus", 6)])
def test_certify_batch_matches_one_by_one(kind, side):
    # certification is the clusters' half instances solved one by one
    g = generate_graph(kind, rows=side, cols=side)
    tree = build_tree(g, target_arity=2, seed=0)
    expect = {}
    for c in tree.clusters:
        if c.size > 1 and c.total_weight > 0:
            half = {(u, v): 2.0 * d for (u, v), d in cmcf_instance(c).entries.items() if u < v}
            expect[c.id] = solve_cmcf_min_congestion(g, half, restrict=set(c.vertices))
    per_cluster = [(c.id, expect[c.id].congestion if c.id in expect else 0.0)
                   for c in tree.clusters]
    cert = certify_congestion(g, tree, store_solutions=True)
    assert list(cert.per_cluster.items()) == per_cluster
    assert list(cert.solutions) == list(expect)
    for cid, sol in expect.items():
        got = cert.solutions[cid]
        assert got.edge_loads == sol.edge_loads
        assert np.array_equal(got.vertices, sol.vertices)
        for s in sol.trees:
            assert np.array_equal(got.trees[s], sol.trees[s])
            assert np.array_equal(got.weights[s], sol.weights[s])
            assert np.array_equal(got.sinks[s], sol.sinks[s])


def test_failed_cluster_lp_raises(monkeypatch):
    # the first master LP of a small cluster fails
    g = grid_graph(6, 6)
    tree = build_tree(g, target_arity=2, seed=0)
    sizes = _count_linprog(monkeypatch)
    certify_congestion(g, tree)
    smallest = min(sizes)
    assert smallest < max(sizes)
    counting = cmcf.linprog

    def failing(*args, **kwargs):
        if len(args[0]) == smallest:
            return SimpleNamespace(status=4, message="numerical difficulties")
        return counting(*args, **kwargs)

    monkeypatch.setattr(cmcf, "linprog", failing)
    with pytest.raises(RuntimeError, match="LP solver failed"):
        certify_congestion(g, tree)


def test_congestion_matches_recomputation_and_lp():
    g = cycle_graph(4)
    demands = {(0, 2): 1.0, (1, 3): 1.0}
    sol = solve_cmcf_min_congestion(g, demands, set(range(g.n)))
    recomputed = max(sol.edge_loads.get((u, v), 0.0) / c for u, v, c in g.edges)
    assert sol.congestion == pytest.approx(recomputed, abs=1e-12)
    assert sol.congestion == pytest.approx(arc_lp_congestion(g, demands, set(range(g.n))),
                                           rel=1e-9)


def test_restriction_solves_inside_subgraph_only():
    g = generate_graph("grid", rows=2, cols=3)
    sub = {0, 1, 3, 4}
    sol = solve_cmcf_min_congestion(g, {(0, 4): 1.0}, restrict=sub)
    assert_groups_route(g, sol, {(0, 4): 1.0}, sub)
    assert sol.vertices.tolist() == [0, 1, 3, 4]


def test_restriction_rejections():
    g = generate_graph("grid", rows=2, cols=3)
    with pytest.raises(ValueError, match="outside"):
        solve_cmcf_min_congestion(g, {(0, 5): 1.0}, restrict={0, 1})
    with pytest.raises(ValueError, match="disconnected"):
        solve_cmcf_min_congestion(g, {(0, 5): 1.0}, restrict={0, 5})


def test_restricted_solve_checks_the_dual_bound(monkeypatch):
    # outside the restriction every distance is infinite; the bound must
    # still be finite, so a negative gap fails the check
    g = grid_graph(4, 4)
    sub = {0, 1, 2, 4, 5, 6}
    demands = {(0, 6): 1.0, (2, 4): 1.0}
    assert solve_cmcf_min_congestion(g, demands, sub).congestion == pytest.approx(
        arc_lp_congestion(g, demands, sub), rel=1e-9)
    monkeypatch.setattr(cmcf, "_GAP", -1.0)
    with pytest.raises(RuntimeError, match="not within relative gap"):
        solve_cmcf_min_congestion(g, demands, sub)


def test_no_demands_trivial():
    sol = solve_cmcf_min_congestion(single_edge(), {}, {0, 1})
    assert sol.congestion == 0.0 and sol.trees == {} and sol.edge_loads == {}


def test_flows_are_cycle_free_and_conserved():
    # every path is simple, and the groups' loads are the solution's
    g = cycle_graph(6)
    demands = {(0, 3): 1.0, (1, 4): 0.5}
    sol = solve_cmcf_min_congestion(g, demands, set(range(g.n)))
    assert_groups_route(g, sol, demands, set(range(g.n)))


def test_path_groups_normalized():
    sol = solve_cmcf_min_congestion(cycle_graph(4), {(0, 2): 1.0}, set(range(4)))
    group = sol.path_groups(0)[2]
    assert sum(group.probs) == pytest.approx(1.0)
    assert group.cum[-1] == pytest.approx(1.0)
    for p in group.paths:
        assert p[0] == 0 and p[-1] == 2


def _assert_tables_match_oracle(g: CapacitatedGraph, sol: CMCFSolution) -> int:
    """Every source of sol against its trees walked one at a time: the same
    paths, weights and sink order, and per group the same probabilities,
    cumulative sums and unit loads, all to the last bit. Returns the groups
    checked."""
    checked = 0
    for s, preds in sol.trees.items():
        oracle = dict_tree_groups(preds, sol.weights[s], sol.sinks[s], sol.vertices)
        got = decompose_by_sink(preds, sol.weights[s], sol.sinks[s], sol.vertices)
        assert list(got.items()) == list(oracle.items())
        groups = sol.path_groups(s)
        assert list(groups) == list(oracle)
        for t, entries in oracle.items():
            paths, probs, cum = dict_path_group(entries)
            group = groups[t]
            assert group.paths == paths
            assert group.probs == probs.tolist()
            assert group.cum == cum
            ids, loads = group.unit_loads(g)
            assert (ids.tolist(), loads.tolist()) == dict_unit_loads(g, paths, probs)
            checked += 1
    return checked


def test_decomposition_tables_match_the_dict_oracle():
    # every certification solution of grids 8x8 and 10x10 (tree seed 0)
    checked = 0
    for side in (8, 10):
        g = grid_graph(side, side)
        tree = build_tree(g, target_arity=2, seed=0)
        cert = certify_congestion(g, tree, store_solutions=True)
        assert len(cert.solutions) > 10
        checked += sum(_assert_tables_match_oracle(g, sol) for sol in cert.solutions.values())
    assert checked > 1000


@st.composite
def _weighted_trees(draw):
    """One source's shortest-path trees on a random connected graph, each
    under random small integer lengths (so trees tie and repeat), with
    random weights and a random set of sinks."""
    g = draw(connected_graphs().filter(lambda g: g.n >= 2))
    source = draw(st.integers(0, g.n - 1))
    sinks = draw(st.lists(st.integers(0, g.n - 1).filter(lambda t: t != source),
                          min_size=1, max_size=g.n - 1, unique=True))
    preds = []
    for _ in range(draw(st.integers(1, 4))):
        lengths = [draw(st.integers(1, 3)) for _ in range(g.m)]
        preds.append(_shortest_tree(g, source, lengths))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(preds), max_size=len(preds)))
    return g, CMCFSolution(vertices=np.arange(g.n), sinks={source: np.array(sorted(sinks))},
                           trees={source: np.array(preds)}, weights={source: np.array(weights)},
                           edge_loads={}, congestion=0.0)


def _shortest_tree(g: CapacitatedGraph, source: int, lengths: list[int]) -> list[int]:
    """Predecessors of a Bellman-Ford shortest-path tree from source, -9999
    at the root as scipy writes it."""
    dist, pred = [float("inf")] * g.n, [-9999] * g.n
    dist[source] = 0
    for _ in range(g.n):
        for (u, v, _), w in zip(g.edges, lengths):
            for a, b in ((u, v), (v, u)):
                if dist[a] + w < dist[b]:
                    dist[b], pred[b] = dist[a] + w, a
    return pred


@settings(max_examples=150, deadline=None)
@given(_weighted_trees())
def test_decomposition_tables_match_the_dict_oracle_on_random_trees(case):
    g, sol = case
    assert _assert_tables_match_oracle(g, sol) >= 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=40))
def test_path_group_probabilities_are_numpy_division_by_numpy_sum(widths):
    # below 8 values NumPy's sum adds left to right, from 8 on pairwise
    group = PathGroup([([0], w) for w in widths])
    w = np.array(widths)
    assert group.probs == (w / w.sum()).tolist()


def test_broken_master_solution_raises(monkeypatch):
    # zeroing the largest tree weight of every master LP's result leaves a
    # routing its dual bound does not match
    real = cmcf.linprog

    def broken(*args, **kwargs):
        res = real(*args, **kwargs)
        x = res.x.copy()
        x[int(np.argmax(x[:-1]))] = 0.0     # the last variable is lambda
        res.x = x
        return res

    monkeypatch.setattr(cmcf, "linprog", broken)
    with pytest.raises(RuntimeError, match="not within relative gap"):
        solve_cmcf_min_congestion(cycle_graph(6), {(0, 3): 1.0, (1, 4): 0.5}, set(range(6)))


def _edge_counts(paths: list[list[int]]) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _pair_edge_probs(sol, pair: tuple[int, int]) -> dict[tuple[int, int], float]:
    """Probability that one draw for `pair` uses each edge, from path_groups."""
    group = sol.path_groups(pair[0])[pair[1]]
    out: dict[tuple[int, int], float] = {}
    for path, p in zip(group.paths, group.probs):
        for key in _edge_counts([path]):
            out[key] = out.get(key, 0.0) + p
    return out


def test_round_paths_binomial_means():
    # 10 draws of one pair split 50/50 over the two diamond routes:
    # each route edge load is Binomial(10, 0.5); mean over trials within 3 sigma of 5
    g = diamond()
    sol = solve_cmcf_min_congestion(g, {(0, 3): 10.0}, set(range(g.n)))
    route_edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
    for key in route_edges:
        assert sol.edge_loads[key] == pytest.approx(5.0, abs=1e-6)
    trials = 1000
    rng = np.random.default_rng(42)
    sums = {key: 0 for key in route_edges}
    for _ in range(trials):
        counts = _edge_counts(round_paths(sol, [(0, 3)] * 10, rng))
        assert max(counts.values()) <= 10
        for key in route_edges:
            sums[key] += counts.get(key, 0)
    sigma_mean = np.sqrt(10 * 0.25 / trials)  # sd of the trial-mean of Binomial(10,.5)
    for key in route_edges:
        assert abs(sums[key] / trials - 5.0) <= 3 * sigma_mean


def test_round_paths_chernoff_margin():
    # fractional max load mu=8 on a 64-edge graph: 16 draws of one pair split
    # over the diamond, padded with a 60-edge path so ln(m) matches the target
    edges = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]
    base = 4
    for i in range(60):
        edges.append((base + i - 1 if i else 3, base + i, 1))
    g = CapacitatedGraph(64, edges)
    assert g.m == 64
    sol = solve_cmcf_min_congestion(g, {(0, 3): 16.0}, set(range(g.n)))
    assert max(sol.edge_loads.values()) == pytest.approx(8.0, abs=1e-6)
    bound = 8 + 3 * np.log(g.m)
    assert bound == pytest.approx(20.477, abs=0.01)
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(50):
        if max(_edge_counts(round_paths(sol, [(0, 3)] * 16, rng)).values()) <= bound:
            hits += 1
    assert hits >= 25


def test_round_paths_unbiased_loads():
    g = cycle_graph(4)
    sol = solve_cmcf_min_congestion(g, {(0, 2): 2.0, (1, 3): 1.0}, set(range(g.n)))
    pairs = [(0, 2)] * 2 + [(1, 3)]
    frac: dict[tuple[int, int], float] = {}
    variance: dict[tuple[int, int], float] = {}
    for pair in pairs:
        for key, p in _pair_edge_probs(sol, pair).items():
            frac[key] = frac.get(key, 0.0) + p
            variance[key] = variance.get(key, 0.0) + p * (1.0 - p)
    for key, load in sol.edge_loads.items():
        assert frac.get(key, 0.0) == pytest.approx(load, abs=1e-9)
    rng = np.random.default_rng(3)
    trials = 4000
    acc: dict[tuple[int, int], float] = {}
    for _ in range(trials):
        for k, v in _edge_counts(round_paths(sol, pairs, rng)).items():
            acc[k] = acc.get(k, 0.0) + v
    for key, expect in frac.items():
        mean = acc.get(key, 0.0) / trials
        se = np.sqrt(variance[key] / trials) + 1e-9
        assert abs(mean - expect) <= 4 * se + 1e-6
