"""Hypercube scheme tests.

Frozen node layouts are recomputed by hand in comments from the documented
deterministic construction rules. Distribution checks compare Monte-Carlo
counts against laws computed exactly from node ownership, never against the
sampler itself.
"""
import copy
from collections import Counter

import numpy as np
import pytest

from helpers import cycle_graph, dict_route_demands, tree_from_spec
from obroute import impl_b
from obroute.cmcf import round_paths
from obroute.decomposition import Cluster, build_tree, certify_congestion
from obroute.experiment import _build_backend, demand_battery
from obroute.graph import grid_graph, hypercube_graph, random_regular_graph
from obroute.impl_a import _cluster_id_bits, _table_fields, build_flow_tables
from obroute.impl_b import (CubeScheme, _bit_fix, _ceil_log2, _cube_edges, _weight_cube,
                            audit_cube_scheme, build_cube_scheme, build_embedding,
                            hypercube_loads, hypercube_route, measure_table_bits_b)
from obroute.routing import route_demands


def _mock_cluster(border_total: int, weights: dict[int, int]) -> Cluster:
    return Cluster(id=0, level=0, vertices=tuple(weights), parent=None, children=[],
                   cluster_weight=weights, border_weight={0: border_total})


def _arc_counts(maps) -> Counter:
    """Stored paths leaving a on edge (a, b), per arc, counted path by path."""
    counts: Counter = Counter()
    for path in maps.edge_paths.values():
        for a, b in zip(path, path[1:]):
            counts[(a, b)] += 1
    return counts


def _walked_path_id_bits(scheme) -> int:
    """ceil(log2) of the most stored paths on one arc of any cube, at least 1,
    from _arc_counts."""
    most = max(max(_arc_counts(maps).values(), default=1)
               for maps in (*scheme.mains.values(), *scheme.shuffles.values()))
    return max(1, _ceil_log2(most))


@pytest.fixture(scope="module")
def four_cycle():
    g = cycle_graph(4)
    tree = tree_from_spec(g, [[0, 1], [2, 3]])
    cert = certify_congestion(g, tree, store_solutions=True)
    scheme = build_cube_scheme(g, tree, cert, np.random.default_rng(42))
    return g, tree, scheme


@pytest.fixture(scope="module")
def grid_scheme():
    g = grid_graph(4, 4)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    scheme = build_cube_scheme(g, tree, cert, np.random.default_rng(7))
    return g, tree, scheme


# ---------------------------------------------------------------------------
# exact-weight layout
# ---------------------------------------------------------------------------

def test_dimension_is_ceil_log2_of_total():
    # the cube dimension is ceil(log2) of the summed run lengths
    weights = {0: 3, 1: 3}
    cluster = _mock_cluster(0, weights)

    def dim(*runs):
        return _weight_cube(list(runs), cluster).dimension

    assert dim({0: 2, 1: 2}, {0: 2}) == 3       # total 6 still needs 8 nodes
    assert dim({0: 2, 1: 2}) == 2
    assert dim({0: 3, 1: 3}, {0: 2}) == 3       # total 8 fits exactly
    assert dim({0: 1}) == 0


def test_range_intervals_follow_layout_order():
    # ranges back to back in run order, each vertex's nodes in id order with
    # exactly its run weight; the 7 padding nodes up to 16 repeat the cluster
    # weight run 0,1,1,1,2 and are cut where the cube ends
    cluster = _mock_cluster(0, {2: 1, 0: 1, 1: 3})
    maps = _weight_cube([{1: 1, 0: 2}, {}, {2: 1, 1: 2}, {0: 1, 1: 2}], cluster)
    assert maps.ranges == [(0, 3), (3, 3), (3, 6), (6, 9)]
    assert maps.dimension == 4
    assert maps.node_owner == [0, 0, 1, 1, 1, 2, 0, 1, 1,
                               0, 1, 1, 1, 2, 0, 1]
    assert maps.node_map(3).vertex_nodes[2] == [5, 13]


def test_four_cycle_node_layout(four_cycle):
    g, tree, scheme = four_cycle
    # cluster {0,1}: own border {0:1, 1:1}; each singleton child has border 2
    # (two incident unit edges), so w = {0:2, 1:2}. Totals 2+2+2 = 6 -> 8
    # nodes, d=3. ranges: own [0,2) -> 0,1; child {0} [2,4) -> 0,0; child {1}
    # [4,6) -> 1,1; padding 6,7 repeats the weight run 0,0,1,1 -> 0,0.
    left = tree.leaf_path(0)[1]
    assert scheme.mains[left].ranges == [(0, 2), (2, 4), (4, 6)]
    assert scheme.mains[left].dimension == 3
    assert scheme.mains[left].node_owner == [0, 1, 0, 0, 1, 1, 0, 0]
    # root: no own border, child borders {0:1,1:1} and {2:1,3:1}; four nodes
    # exactly cover the ranges, no padding.
    assert scheme.mains[tree.root].ranges == [(0, 0), (0, 2), (2, 4)]
    assert scheme.mains[tree.root].node_owner == [0, 1, 2, 3]
    # shuffle cube of {0,1}: w = {0:2, 1:2}, total 4 -> dimension 2, one
    # range over all four nodes: 0,0,1,1
    assert scheme.shuffles[left].dimension == 2
    assert scheme.shuffles[left].ranges == [(0, 4)]
    assert scheme.shuffles[left].node_owner == [0, 0, 1, 1]


def test_audit_clean(four_cycle, grid_scheme):
    for _, _, scheme in (four_cycle, grid_scheme):
        assert audit_cube_scheme(scheme) == []


def test_audit_flags_a_vertex_over_4w_nodes(grid_scheme):
    # hand the lightest vertex of a cluster every main-cube node
    _, tree, scheme = grid_scheme
    scheme = copy.deepcopy(scheme)
    cid = next(iter(scheme.mains))
    weights = tree.cluster(cid).cluster_weight
    v = min(weights, key=weights.get)
    maps = scheme.mains[cid]
    maps.node_owner = [v] * len(maps.node_owner)
    assert len(maps.node_owner) > 4 * weights[v]
    assert (f"cluster {cid} main cube: vertex {v} holds {len(maps.node_owner)} nodes "
            f"> 4*w = {4 * weights[v]}") in audit_cube_scheme(scheme)


def test_a_replaced_node_owner_is_seen_by_the_kernel(grid_scheme):
    # the kernel and the sampler read one cached node map: once node_owner
    # is replaced, a hop to a range ends on its new owners in both, and a
    # vertex left without a node can start neither
    g, tree, scheme = grid_scheme
    scheme = copy.deepcopy(scheme)
    maps = scheme.mains[tree.root]
    first, v = np.flatnonzero(tree.law(tree.root))[:2]
    maps.node_owner = [v] * len(maps.node_owner)
    lo, hi = maps.ranges[1]
    end = hypercube_loads(g, [(maps, lo, hi)], np.eye(g.n)[v][None])[1][0]
    assert end.tolist() == np.eye(g.n)[v].tolist()
    assert scheme.sample((False, tree.root, 1), v, np.random.default_rng(0))[1] == v
    with pytest.raises(ValueError, match=f"vertex {first} owns no cube nodes"):
        hypercube_loads(g, [(maps, lo, hi)], tree.law(tree.root)[None])
    with pytest.raises(ValueError, match=f"^vertex {first} owns no cube nodes$"):
        scheme.sample((False, tree.root, 1), first, np.random.default_rng(0))


def test_audit_flags_path_ids_too_narrow(grid_scheme):
    # one stored path made to cross its first arc (a, b) again and again, as
    # a, b, a, b, ...: one path more on that arc than path_id_bits can number
    _, _, scheme = grid_scheme
    scheme = copy.deepcopy(scheme)
    cid = next(iter(scheme.mains))
    maps = scheme.mains[cid]
    key, path = next(iter(maps.edge_paths.items()))
    a, b = path[0], path[1]
    extra = (1 << scheme.path_id_bits) + 1 - _arc_counts(maps)[(a, b)]
    maps.edge_paths[key] = [a] + [b, a] * extra + path[1:]
    assert audit_cube_scheme(scheme) == [
        f"cluster {cid} main cube: {(1 << scheme.path_id_bits) + 1} stored paths leave "
        f"{a} for {b}, more than {scheme.path_id_bits}-bit path ids can number"]


def test_path_id_bits_number_the_busiest_arc():
    # the width comes from the stored paths: d*C does not bound them, and on
    # grid 12x12 at seed 1, as `obroute audit` builds it, ceil(log2(d*C))
    # bits were once too few
    g = grid_graph(12, 12)
    tree = build_tree(g, target_arity=2, seed=1)
    cert = certify_congestion(g, tree, store_solutions=True)
    scheme, *_, audits = _build_backend("impl-b", g, tree, cert, 1)
    assert audits == []
    assert scheme.path_id_bits == _walked_path_id_bits(scheme)


@pytest.mark.parametrize("g", [hypercube_graph(3), random_regular_graph(16, 3, seed=5)])
def test_audit_clean_on_generators(g):
    tree = build_tree(g, target_arity=2, seed=1)
    cert = certify_congestion(g, tree, store_solutions=True)
    scheme = build_cube_scheme(g, tree, cert, np.random.default_rng(3))
    assert audit_cube_scheme(scheme) == []


def test_endpoint_envelope_exact(grid_scheme):
    # every range of either cube holds exactly its run's weight per vertex,
    # so the end law of a hop to it is the run's law
    g, tree, scheme = grid_scheme
    checked = 0
    for cid, main in scheme.mains.items():
        cluster = tree.cluster(cid)
        runs = [cluster.border_weight,
                *(tree.cluster(child).border_weight for child in cluster.children)]
        for maps, laws in ((main, runs), (scheme.shuffles[cid], [cluster.cluster_weight])):
            assert len(maps.ranges) == len(laws)
            for (lo, hi), law in zip(maps.ranges, laws):
                assert Counter(maps.node_owner[lo:hi]) == +Counter(law)
                checked += 1
    assert checked > 4


def test_leave_and_spread_end_on_the_exact_law():
    # criterion 3's graphs: from the cluster law, a leave step's end law is
    # the target's border law and a spread's the cluster law, to 1e-12
    instances = [grid_graph(4, 4), grid_graph(8, 8), random_regular_graph(8, 3, seed=2),
                 random_regular_graph(32, 3, seed=3), random_regular_graph(64, 3, seed=4)]
    for i, g in enumerate(instances):
        tree = build_tree(g, target_arity=2, seed=i)
        cert = certify_congestion(g, tree, store_solutions=True)
        scheme = build_cube_scheme(g, tree, cert, np.random.default_rng((303, i)))
        for cid, main in scheme.mains.items():
            start = tree.law(cid)
            for index, (lo, hi) in enumerate(main.ranges):
                if hi > lo:
                    end = hypercube_loads(g, [(main, lo, hi)], start[None])[1][0]
                    target = tree.target(cid, index).id
                    assert np.abs(end - tree.law(target, border=True)).max() < 1e-12
            lo, hi = scheme.shuffles[cid].ranges[0]
            end = hypercube_loads(g, [(scheme.shuffles[cid], lo, hi)], start[None])[1][0]
            assert np.abs(end - start).max() < 1e-12


# ---------------------------------------------------------------------------
# cube routing
# ---------------------------------------------------------------------------

def test_bit_fix_length_and_order():
    seq = _bit_fix(0b000, 0b101, 3)
    assert seq == [0b000, 0b001, 0b101]          # dimensions fixed ascending
    for a, b in [(0, 7), (3, 3), (5, 2), (6, 1)]:
        seq = _bit_fix(a, b, 3)
        assert len(seq) == 1 + bin(a ^ b).count("1")
        assert seq[0] == a and seq[-1] == b


def _identity_cube_maps(dim):
    """Cube graph where each cube edge is the matching graph edge."""
    from obroute.impl_b import CubeMaps
    n = 1 << dim
    edge_paths = {}
    for x in range(n):
        for k in range(dim):
            y = x ^ (1 << k)
            if x < y:
                edge_paths[(x, y)] = [x, y]
    return CubeMaps(dimension=dim, node_owner=list(range(n)), ranges=[(0, n)],
                    edge_paths=edge_paths, fractional_congestion=1.0)


def test_valiant_route_hop_counts():
    # one-phase: on the identity cube the route is the bit-fixing node
    # sequence itself, exactly Hamming(a, b) hops, for every ordered pair
    maps = _identity_cube_maps(3)
    for a in range(8):
        for b in range(8):
            path = hypercube_route(maps, a, b)
            assert path == _bit_fix(a, b, 3), (a, b)
            assert len(path) - 1 == bin(a ^ b).count("1")


def test_valiant_degenerate_pair():
    assert hypercube_route(_identity_cube_maps(3), 5, 5) == [5]


def test_hypercube_loads_point_to_point_is_the_bit_fix_path():
    # a point start law and a one-node range leave no randomness: the exact
    # kernel loads the cube edges of the bit-fixing path once each, and
    # nothing else
    g = hypercube_graph(3)
    maps = _identity_cube_maps(3)
    pairs = [(0, 7), (5, 2), (6, 1), (3, 3), (1, 5)]
    loads, ends = hypercube_loads(g, [(maps, b, b + 1) for _, b in pairs],
                                  np.eye(g.n)[[a for a, _ in pairs]])
    for (a, b), row, end in zip(pairs, loads, ends):
        seq = _bit_fix(a, b, 3)
        expect = np.zeros(g.m)
        expect[[g.edge_index(x, y) for x, y in zip(seq, seq[1:])]] = 1.0
        assert row.dtype == np.float64 and np.array_equal(row, expect), (a, b)
        assert end.tolist() == np.eye(g.n)[b].tolist()


def test_route_to_border_path_validity_and_law(four_cycle):
    g, tree, scheme = four_cycle
    rng = np.random.default_rng(99)
    counts = {0: 0, 1: 0}
    n = 20_000
    for _ in range(n):
        path, end = scheme.sample((False, tree.root, 1), 2, rng)
        assert path[0] == 2 and path[-1] == end
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
        counts[end] += 1
    # root range for child 1 holds one node per border vertex: exact law 1/2, 1/2
    for v in (0, 1):
        assert abs(counts[v] / n - 0.5) < 0.02


def test_route_to_border_errors(four_cycle):
    g, tree, scheme = four_cycle
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="no border nodes"):
        scheme.sample((False, tree.root, 0), 0, rng)
    left = tree.leaf_path(0)[1]
    with pytest.raises(ValueError, match="owns no cube nodes"):
        scheme.sample((False, left, 0), 2, rng)


def test_rerandomize_exact_law(four_cycle):
    g, tree, scheme = four_cycle
    left = tree.leaf_path(0)[1]
    rng = np.random.default_rng(5)
    n = 100_000
    hits = {0: 0, 1: 0}
    for _ in range(n):
        path, end = scheme.sample((True, left, 0), 0, rng)
        assert path[0] == 0 and path[-1] == end
        hits[end] += 1
    # w = {0:2, 1:2}: exactly uniform; binomial 4-sigma band
    sigma = (n * 0.25) ** 0.5
    assert abs(hits[0] - n / 2) < 4 * sigma

    # applying it twice cannot change the law: the second hop starts from a
    # w-distributed vertex and lands uniformly on the same first-block nodes
    twice = {0: 0, 1: 0}
    for _ in range(20_000):
        _, mid = scheme.sample((True, left, 0), 1, rng)
        _, end = scheme.sample((True, left, 0), mid, rng)
        twice[end] += 1
    assert abs(twice[0] / 20_000 - 0.5) < 0.02


# ---------------------------------------------------------------------------
# cube paths drawn from the certification flows
# ---------------------------------------------------------------------------

def test_one_stored_path_per_cube_edge(four_cycle, grid_scheme):
    for _, _, scheme in (four_cycle, grid_scheme):
        for maps in (*scheme.mains.values(), *scheme.shuffles.values()):
            expect = set()
            for x in range(1 << maps.dimension):
                for k in range(maps.dimension):
                    y = x ^ (1 << k)
                    if x < y and maps.node_owner[x] != maps.node_owner[y]:
                        expect.add((x, y))
            assert set(maps.edge_paths) == expect


def test_one_draw_per_cube_edge(monkeypatch):
    # each cube edge (x, y) stores a path of the certification group of
    # {owner(x), owner(y)}, from owner(x) to owner(y); the build draws once
    # per cube edge, cluster by cluster, main cube then shuffle cube in
    # _cube_edges order, and takes exactly one uniform from the rng per draw
    drawn = []

    def recording(sol, pairs, rng):
        drawn.append((sol, pairs))
        return round_paths(sol, pairs, rng)

    monkeypatch.setattr(impl_b, "round_paths", recording)
    g = grid_graph(4, 4)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    rng = np.random.default_rng(7)
    scheme = build_cube_scheme(g, tree, cert, rng)
    edges = 0
    for (sol, pairs), cid in zip(drawn, scheme.mains, strict=True):
        assert sol is cert.solutions[cid]
        cube_edges = [(maps, x, y, a, b) for maps in (scheme.mains[cid], scheme.shuffles[cid])
                      for x, y, a, b in _cube_edges(maps.node_owner, maps.dimension)]
        assert pairs == [(min(a, b), max(a, b)) for *_, a, b in cube_edges]
        for maps, x, y, a, b in cube_edges:
            stored = maps.edge_paths[(x, y)]
            assert (stored[0], stored[-1]) == (a, b)
            group = sol.path_groups(min(a, b))[max(a, b)]
            assert (stored if a < b else stored[::-1]) in group.paths
        edges += len(cube_edges)
    assert edges == 457
    uniforms = np.random.default_rng(7)
    uniforms.random(edges)
    assert rng.bit_generator.state == uniforms.bit_generator.state


def test_fractional_congestion_is_the_expected_load_of_the_draws(grid_scheme):
    # the largest expected edge load of one draw per cube edge of both cubes,
    # summed path by path from the certification groups' probabilities
    g, tree, scheme = grid_scheme
    cert = certify_congestion(g, tree, store_solutions=True)
    for cid, main in scheme.mains.items():
        loads: dict[tuple[int, int], float] = {}
        for maps in (main, scheme.shuffles[cid]):
            for _, _, a, b in _cube_edges(maps.node_owner, maps.dimension):
                group = cert.solutions[cid].path_groups(min(a, b))[max(a, b)]
                for path, p in zip(group.paths, group.probs):
                    for e in zip(path, path[1:]):
                        key = e if e[0] < e[1] else e[::-1]
                        loads[key] = loads.get(key, 0.0) + p
        expect = max(loads.values())
        assert main.fractional_congestion == pytest.approx(expect, rel=1e-12)
        assert scheme.shuffles[cid].fractional_congestion == main.fractional_congestion


def test_build_is_deterministic():
    g = cycle_graph(4)
    tree = tree_from_spec(g, [[0, 1], [2, 3]])
    cert = certify_congestion(g, tree, store_solutions=True)
    a = build_cube_scheme(g, tree, cert, np.random.default_rng(1))
    b = build_cube_scheme(g, tree, cert, np.random.default_rng(1))
    c = build_cube_scheme(g, tree, cert, np.random.default_rng(2))
    for cid in a.mains:
        assert a.mains[cid].node_owner == b.mains[cid].node_owner
        assert a.mains[cid].edge_paths == b.mains[cid].edge_paths
        # node maps never depend on the rng, only sampled paths do
        assert a.mains[cid].node_owner == c.mains[cid].node_owner
        assert a.shuffles[cid].node_owner == c.shuffles[cid].node_owner


def test_rejects_capacitated_graphs():
    g = cycle_graph(4, cap=2)
    tree = tree_from_spec(g, [[0, 1], [2, 3]])
    cert = certify_congestion(g, tree, store_solutions=True)
    with pytest.raises(ValueError, match="uniform unit"):
        build_cube_scheme(g, tree, cert, np.random.default_rng(0))


def test_rejects_a_certificate_without_solutions():
    g = cycle_graph(4)
    tree = tree_from_spec(g, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="store_solutions=True"):
        build_cube_scheme(g, tree, certify_congestion(g, tree), np.random.default_rng(0))


def test_oversized_cube_signals_weight_bug(four_cycle):
    _, tree, _ = four_cycle
    # border total 64 forces a 64-node cube against 4*w(S) = 8
    broken = _mock_cluster(64, weights={0: 1, 1: 1})
    with pytest.raises(RuntimeError, match="weight tables"):
        build_embedding(tree, broken)


# ---------------------------------------------------------------------------
# table accounting
# ---------------------------------------------------------------------------

def test_bits_zero_without_structures(four_cycle):
    g, tree, _ = four_cycle
    empty = CubeScheme(graph=g, tree=tree, path_id_bits=1, mains={}, shuffles={})
    bits = measure_table_bits_b(empty)
    assert bits.total_bits == 0 and bits.max_bits == 0


def test_bits_per_path_entry_constant(grid_scheme):
    # one build-wide path id width: ceil(log2) of the most stored paths
    # leaving on one arc of any cube, at least 1 bit
    _, _, scheme = grid_scheme
    most = max(max(_arc_counts(maps).values(), default=1)
               for maps in (*scheme.mains.values(), *scheme.shuffles.values()))
    assert most > 2
    assert 1 << (scheme.path_id_bits - 1) < most <= 1 << scheme.path_id_bits


def _documented_bits(g, tree, scheme, id_f):
    """Per vertex, the bits of the documented layout with cluster ids id_f
    wide and the scheme's path ids, counted path by path."""
    def clog2(x):
        return (x - 1).bit_length() if x > 1 else 0

    weight_f = max(1, (2 * g.m * max(1, g.max_capacity)).bit_length())
    path_f = scheme.path_id_bits
    groups: dict[tuple[int, int, int], int] = {}
    for cid in scheme.mains:
        for flag, maps in ((0, scheme.mains[cid]), (1, scheme.shuffles[cid])):
            for path in maps.edge_paths.values():
                for v in path[:-1]:
                    groups[(v, cid, flag)] = groups.get((v, cid, flag), 0) + 1
    count_f = max(1, max(groups.values(), default=1).bit_length())
    expected = dict.fromkeys(range(g.n), 0)
    for cid, main in scheme.mains.items():
        # one weight field per range: own border, then each child's
        for v in tree.cluster(cid).vertices:
            expected[v] += len(main.ranges) * weight_f
    for (v, cid, flag), paths in groups.items():
        entry = max(1, clog2(max(2, g.degree(v)))) + path_f
        expected[v] += id_f + 1 + count_f + paths * entry
    return expected


def test_bits_match_documented_layout(four_cycle):
    # a cluster id takes ceil(log2 #clusters) bits: 3 for the four-cycle's 7
    # clusters, 7 for the 123 of grid 8x8 at tree seed 0, in the tables of
    # both schemes
    g8 = grid_graph(8, 8)
    tree8 = build_tree(g8, target_arity=2, seed=0)
    cert8 = certify_congestion(g8, tree8, store_solutions=True)
    grid8 = (g8, tree8, build_cube_scheme(g8, tree8, cert8, np.random.default_rng(1)))
    for (g, tree, scheme), clusters, id_f in ((four_cycle, 7, 3), (grid8, 123, 7)):
        assert len(tree.clusters) == clusters
        assert scheme.path_id_bits == _walked_path_id_bits(scheme)
        expected = _documented_bits(g, tree, scheme, id_f)
        bits = measure_table_bits_b(scheme)
        assert bits.per_vertex == expected
        assert bits.total_bits == sum(expected.values())
        assert bits.max_bits == max(expected.values())
    # impl-a: every table opens with the id of a cluster on the vertex's leaf path
    tables = build_flow_tables(g8, tree8, cert8.int_value)
    for v, fields in _table_fields(tables, range(g8.n)):
        cid, width = fields[0]
        assert cid in tree8.leaf_path(v) and width == 7


def test_bits_positive_and_stable(grid_scheme):
    g, tree, scheme = grid_scheme
    bits = measure_table_bits_b(scheme)
    assert bits.total_bits > 0
    assert measure_table_bits_b(scheme).per_vertex == bits.per_vertex


# ---------------------------------------------------------------------------
# readers of the path slots
# ---------------------------------------------------------------------------

_COUNT_GRAPHS = {
    # criterion 3's graphs, and the grids of both benchmark workloads
    "grid-4x4": lambda: grid_graph(4, 4),
    "grid-8x8": lambda: grid_graph(8, 8),
    "random-regular-8-3": lambda: random_regular_graph(8, 3, seed=2),
    "random-regular-32-3": lambda: random_regular_graph(32, 3, seed=3),
    "random-regular-64-3": lambda: random_regular_graph(64, 3, seed=4),
    "grid-10x10": lambda: grid_graph(10, 10),
}


@pytest.mark.parametrize("name", list(_COUNT_GRAPHS))
def test_slot_counts_match_a_per_path_walk(name):
    # path_id_bits, the table bits and the audit's overflow lines count arcs
    # over the path slots; a plain walk over the stored paths must agree
    g = _COUNT_GRAPHS[name]()
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    scheme = _build_backend("impl-b", g, tree, cert, 1)[0]
    assert scheme.path_id_bits == _walked_path_id_bits(scheme)
    assert measure_table_bits_b(scheme).per_vertex == _documented_bits(
        g, tree, scheme, _cluster_id_bits(tree))
    # with 0-bit path ids, every arc that two paths or more leave on overflows
    scheme.path_id_bits = 0
    expected = [f"cluster {cid} {cube} cube: {k} stored paths leave {a} for {b}, more "
                "than 0-bit path ids can number"
                for cid in scheme.mains
                for cube, maps in (("main", scheme.mains[cid]),
                                   ("shuffle", scheme.shuffles[cid]))
                for (a, b), k in sorted(_arc_counts(maps).items()) if k > 1]
    assert expected
    assert audit_cube_scheme(scheme) == expected


def test_an_edited_path_is_seen_by_every_reader(grid_scheme):
    # replacing one entry of edge_paths after the exact kernel has read the
    # cube rebuilds its slots: the loads, the table bits and the audit all
    # follow the edited path
    g, tree, scheme = grid_scheme
    scheme = copy.deepcopy(scheme)
    demands = demand_battery("permutation", g, 1)
    before = route_demands(g, tree, scheme, demands)
    cid = next(iter(scheme.mains))
    maps = scheme.mains[cid]
    key, path = next(iter(maps.edge_paths.items()))
    a, b = path[0], path[1]
    extra = (1 << scheme.path_id_bits) + 1 - _arc_counts(maps)[(a, b)]
    maps.edge_paths[key] = [a] + [b, a] * extra + path[1:]
    after = route_demands(g, tree, scheme, demands)
    assert after.edge_loads != before.edge_loads
    assert after.edge_loads == dict_route_demands(g, tree, scheme, demands).edge_loads
    assert measure_table_bits_b(scheme).per_vertex == _documented_bits(
        g, tree, scheme, _cluster_id_bits(tree))
    assert audit_cube_scheme(scheme) == [
        f"cluster {cid} main cube: {(1 << scheme.path_id_bits) + 1} stored paths leave "
        f"{a} for {b}, more than {scheme.path_id_bits}-bit path ids can number"]


def _loop_slots(g, maps) -> list[np.ndarray]:
    """A cube's slot arrays path by path and arc by arc: cells, edge ids
    (-1 off the graph), tails, heads and path ends."""
    side = 1 << maps.dimension
    cells, edge_ids, tails, heads = [], [], [], []
    for (x, y), path in maps.edge_paths.items():
        for a, b in zip(path, path[1:]):
            cells.append(((x ^ y).bit_length() - 1) * side + x)
            edge_ids.append(g.edge_index(a, b) if g.has_edge(a, b) else -1)
            tails.append(a)
            heads.append(b)
    ends = np.cumsum([len(path) - 1 for path in maps.edge_paths.values()], dtype=np.intp)
    return [np.array(a, dtype=np.intp) for a in (cells, edge_ids, tails, heads)] + [ends]


def _slot_arrays(slots) -> list[np.ndarray]:
    return [slots.cells, slots.edge_ids, slots.tails, slots.heads, slots.path_ends]


def _same_arrays(got, expect) -> bool:
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, expect))


def test_scheme_wide_slots_equal_the_path_loop(grid_scheme):
    # the slots that one array pass builds for every cube of the scheme
    # equal the per-path loop, and so does a cube's rebuild after one entry
    # of its edge_paths is replaced in place, by a path with an arc off the
    # graph; the other cubes keep their slots
    g, _, scheme = grid_scheme
    scheme = copy.deepcopy(scheme)
    cubes = (*scheme.mains.values(), *scheme.shuffles.values())
    assert any(maps.dimension > 1 for maps in cubes)
    for maps, slots in zip(cubes, impl_b._path_slots(g, cubes)):
        assert _same_arrays(_slot_arrays(maps.path_slots(g)), _loop_slots(g, maps))
        assert _same_arrays(_slot_arrays(slots), _loop_slots(g, maps))
    kept = {id(maps): maps.path_slots(g) for maps in cubes}
    maps = cubes[1]
    key, path = list(maps.edge_paths.items())[1]
    far = next(v for v in range(g.n) if v != path[0] and not g.has_edge(path[0], v))
    maps.edge_paths[key] = [path[0], far] + path
    rebuilt = maps.path_slots(g)
    assert rebuilt is not kept[id(maps)] and -1 in rebuilt.edge_ids.tolist()
    assert _same_arrays(_slot_arrays(rebuilt), _loop_slots(g, maps))
    assert all(other.path_slots(g) is kept[id(other)] for other in cubes if other is not maps)
