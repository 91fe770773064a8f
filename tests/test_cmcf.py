from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obroute import cmcf
from obroute.cmcf import CMCFSolution, PathGroup, round_paths, solve_cmcf_min_congestion
from obroute.decomposition import build_tree, certify_congestion, cmcf_instance
from obroute.flows import SNK, SRC, cancel_cycles, decompose_by_sink, max_flow_integral
from obroute.graph import CapacitatedGraph, DemandMatrix, generate_graph, grid_graph
from obroute.impl_b import build_cube_scheme
from obroute.optimum import optimal_congestion
from helpers import (
    all_simple_paths,
    connected_graphs,
    cycle_graph,
    diamond,
    dict_decompose_by_sink,
    dict_path_group,
    dict_unit_loads,
    path_graph,
    single_edge,
)


def test_single_edge_both_directions():
    # demand 0.5 each way shares one unit edge: congestion exactly 1
    sol = solve_cmcf_min_congestion(single_edge(), {(0, 1): 0.5, (1, 0): 0.5}, {0, 1})
    assert sol.congestion == pytest.approx(1.0, abs=1e-9)
    assert all(fa.conservation_violations(tol=1e-9) == {} for fa in sol.source_flows.values())


def test_cycle_both_directions():
    # 0.5 each way between neighbours of a unit 4-cycle: a quarter of each
    # direction takes the 3-hop detour, so every edge carries 0.5
    g = cycle_graph(4)
    sol = solve_cmcf_min_congestion(g, {(0, 1): 0.5, (1, 0): 0.5}, set(range(g.n)))
    assert sol.congestion == pytest.approx(0.5, abs=1e-9)
    for u, v, _ in g.edges:
        assert sol.edge_loads[(min(u, v), max(u, v))] == pytest.approx(0.5, abs=1e-9)
    for fa in sol.source_flows.values():
        assert fa.is_acyclic()
        assert fa.conservation_violations(tol=1e-9) == {}


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
    assert sol.congestion == pytest.approx(optimal_congestion(g, demands), abs=1e-9)
    assert sol.lp_objective == sol.congestion
    for fa in sol.source_flows.values():
        assert fa.is_acyclic()
        assert fa.conservation_violations(tol=1e-9) == {}


def _count_linprog(monkeypatch) -> list[int]:
    # one entry per call, its variable count; list.append is atomic, and
    # batches call from several threads
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
    # 35 of the 59 clusters that need a solve induce trees; the others take
    # one LP each in certification, and the impl-b cubes, drawn from those
    # flows, take none
    calls = _count_linprog(monkeypatch)
    g = grid_graph(8, 8)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    assert len(calls) == 24
    build_cube_scheme(g, tree, cert, np.random.default_rng(0))
    assert len(calls) == 24


@pytest.fixture
def scrambled(monkeypatch):
    """Batch solves that finish out of order: each solve sleeps 0-2 ms by its
    restriction, and the interpreter switches threads every 10 us."""
    real = cmcf.solve_cmcf_min_congestion

    def delayed(g, demands, restrict=None):
        time.sleep(0.001 * (min(restrict) % 3))
        return real(g, demands, restrict)

    monkeypatch.setattr(cmcf, "solve_cmcf_min_congestion", delayed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _flows(sol):
    return {s: (fa.arcs, fa.value) for s, fa in sol.source_flows.items()}


@pytest.mark.parametrize("kind, side", [("grid", 8), ("torus", 6)])
def test_certify_batch_matches_one_by_one(monkeypatch, scrambled, kind, side):
    g = generate_graph(kind, rows=side, cols=side)
    tree = build_tree(g, target_arity=2, seed=0)
    expect = {}
    for c in tree.clusters:
        if c.size > 1 and c.total_weight > 0:
            half = {(u, v): 2.0 * d for (u, v), d in cmcf_instance(c).entries.items() if u < v}
            expect[c.id] = solve_cmcf_min_congestion(g, half, restrict=set(c.vertices))
    per_cluster = [(c.id, expect[c.id].congestion if c.id in expect else 0.0)
                   for c in tree.clusters]
    for cpus in (1, 2, 4):
        monkeypatch.setattr(cmcf, "_usable_cpus", lambda cpus=cpus: cpus)
        cert = certify_congestion(g, tree, store_solutions=True)
        assert list(cert.per_cluster.items()) == per_cluster
        assert list(cert.solutions) == list(expect)
        for cid, sol in expect.items():
            assert cert.solutions[cid].edge_loads == sol.edge_loads
            assert _flows(cert.solutions[cid]) == _flows(sol)


@pytest.mark.parametrize("kind, side", [("grid", 8), ("torus", 6)])
def test_cube_scheme_repeats_under_any_finishing_order(monkeypatch, scrambled, kind, side):
    g = generate_graph(kind, rows=side, cols=side)
    tree = build_tree(g, target_arity=2, seed=0)
    builds = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(cmcf, "_usable_cpus", lambda cpus=cpus: cpus)
        cert = certify_congestion(g, tree, store_solutions=True)
        scheme = build_cube_scheme(g, tree, cert, np.random.default_rng(5))
        builds.append([(cid, maps.edge_paths, maps.fractional_congestion)
                       for cubes in (scheme.mains, scheme.shuffles)
                       for cid, maps in cubes.items()])
    assert builds[0] == builds[1] == builds[2]


def test_failed_cluster_lp_raises_and_stops_the_pool(monkeypatch):
    # the certification LP of a small cluster, solved on a pool thread, fails
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
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="LP solver failed"):
        certify_congestion(g, tree)
    assert threading.active_count() == before


def test_batch_failure_cancels_pending_solves(monkeypatch):
    # the caller's own, largest instance fails at once, while the one pool
    # thread is at most in its first 50 ms solve: the other 19 never start
    started = []

    def fake(g, demands, restrict=None):
        started.append(len(restrict))
        if len(restrict) == 3:
            raise RuntimeError("LP solver failed")
        time.sleep(0.05)

    monkeypatch.setattr(cmcf, "solve_cmcf_min_congestion", fake)
    monkeypatch.setattr(cmcf, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="LP solver failed"):
        cmcf.solve_cmcf_batch(path_graph(3), [({}, {0, 1})] * 20 + [({}, {0, 1, 2})])
    assert threading.active_count() == before
    assert 3 in started and len(started) <= 2


def test_congestion_matches_recomputation_and_lp():
    g = cycle_graph(4)
    sol = solve_cmcf_min_congestion(g, {(0, 2): 1.0, (1, 3): 1.0}, set(range(g.n)))
    recomputed = max(sol.edge_loads.get((u, v), 0.0) / c for u, v, c in g.edges)
    assert sol.congestion == pytest.approx(recomputed, abs=1e-12)
    # cycle cancellation can only help, never hurt, the LP objective
    assert sol.congestion <= sol.lp_objective + 1e-9


def test_restriction_solves_inside_subgraph_only():
    g = generate_graph("grid", rows=2, cols=3)
    sub = {0, 1, 3, 4}
    sol = solve_cmcf_min_congestion(g, {(0, 4): 1.0}, restrict=sub)
    for fa in sol.source_flows.values():
        for (a, b) in fa.arcs:
            assert a in sub | {-1, -2} and b in sub | {-1, -2}


def test_restriction_rejections():
    g = generate_graph("grid", rows=2, cols=3)
    with pytest.raises(ValueError, match="outside"):
        solve_cmcf_min_congestion(g, {(0, 5): 1.0}, restrict={0, 1})
    with pytest.raises(ValueError, match="disconnected"):
        solve_cmcf_min_congestion(g, {(0, 5): 1.0}, restrict={0, 5})


def test_no_demands_trivial():
    sol = solve_cmcf_min_congestion(single_edge(), {}, {0, 1})
    assert sol.congestion == 0.0 and sol.source_flows == {}


def test_flows_are_cycle_free_and_conserved():
    g = cycle_graph(6)
    sol = solve_cmcf_min_congestion(g, {(0, 3): 1.0, (1, 4): 0.5}, set(range(g.n)))
    for fa in sol.source_flows.values():
        assert fa.is_acyclic()
        assert fa.conservation_violations(tol=1e-8) == {}


def test_path_groups_normalized():
    sol = solve_cmcf_min_congestion(cycle_graph(4), {(0, 2): 1.0}, set(range(4)))
    group = sol.path_groups(0)[2]
    assert sum(group.probs) == pytest.approx(1.0)
    assert group.cum[-1] == pytest.approx(1.0)
    for p in group.paths:
        assert p[0] == 0 and p[-1] == 2


def _assert_tables_match_oracle(g: CapacitatedGraph, sol: CMCFSolution) -> int:
    """Every source of sol against the dict decomposition: the same paths,
    widths and sink order, and per group the same probabilities, cumulative
    sums and unit loads, all to the last bit. Returns the groups checked."""
    checked = 0
    for s, fa in sol.source_flows.items():
        oracle = dict_decompose_by_sink(fa)
        assert list(decompose_by_sink(fa).items()) == list(oracle.items())
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
    # every certification flow of grids 8x8 and 10x10 (tree seed 0)
    checked = 0
    for side in (8, 10):
        g = grid_graph(side, side)
        tree = build_tree(g, target_arity=2, seed=0)
        cert = certify_congestion(g, tree, store_solutions=True)
        assert len(cert.solutions) > 10
        checked += sum(_assert_tables_match_oracle(g, sol) for sol in cert.solutions.values())
    assert checked > 1000


@st.composite
def _integer_flows(draw):
    """A cycle-free integral max flow on a random connected graph, from one
    vertex to several sinks, each sink's arc to SNK of random capacity."""
    g = draw(connected_graphs())
    source = draw(st.integers(0, g.n - 1))
    sinks = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True))
    arcs = ([(u, v, c) for u, v, c in g.edges] + [(v, u, c) for u, v, c in g.edges]
            + [(SRC, source, 100)] + [(t, SNK, draw(st.integers(1, 9))) for t in sinks])
    return g, source, cancel_cycles(max_flow_integral(arcs, SRC, SNK))


@settings(max_examples=150, deadline=None)
@given(_integer_flows())
def test_decomposition_tables_match_the_dict_oracle_on_integer_flows(case):
    g, source, fa = case
    sol = CMCFSolution(source_flows={source: fa}, edge_loads={}, congestion=0.0,
                       lp_objective=0.0)
    assert _assert_tables_match_oracle(g, sol) >= 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=40))
def test_path_group_probabilities_are_numpy_division_by_numpy_sum(widths):
    # below 8 values NumPy's sum adds left to right, from 8 on pairwise
    group = PathGroup([([0], w) for w in widths])
    w = np.array(widths)
    assert group.probs == (w / w.sum()).tolist()


def test_solver_flows_violating_demands_raise(monkeypatch):
    # zeroing the largest arc flow of the real LP result breaks conservation
    real = cmcf.linprog

    def broken(*args, **kwargs):
        res = real(*args, **kwargs)
        x = res.x.copy()
        x[int(np.argmax(x[:-1]))] = 0.0     # the last variable is lambda
        res.x = x
        return res

    monkeypatch.setattr(cmcf, "linprog", broken)
    with pytest.raises(RuntimeError, match="violating demands"):
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
