"""Decomposition tree: structure, weight tables, product demands, certificates.

Weight oracles are worked by hand on a 4-cycle with the fixed split {0,1}|{2,3}
and on the single-edge graph; the root congestion oracle enumerates the
rotation-symmetric routing family, which is optimal by averaging over the
cycle's symmetry group.
"""
import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ancestor_at, arc_lp_congestion, assert_groups_route, connected_graphs,
                     cycle_graph, path_graph, single_edge, tree_from_spec)
from obroute.decomposition import (_grow_parts, audit_tree, build_tree,
                                   certify_congestion, cmcf_instance)
from obroute.experiment import graph_from_config
from obroute.graph import (CapacitatedGraph, generate_graph, grid_graph, hypercube_graph,
                           random_regular_graph, torus_graph)


@pytest.fixture
def four_cycle_tree():
    g = cycle_graph(4)
    return g, tree_from_spec(g, [[0, 1], [2, 3]])


def scan_border(g, members, v):
    members = set(members)
    return sum(g.edges[eidx][2] for u, eidx in g.adj[v] if u not in members)


# ---------------------------------------------------------------------------
# weight tables
# ---------------------------------------------------------------------------

def test_four_cycle_weights_by_hand(four_cycle_tree):
    g, tree = four_cycle_tree
    root = tree.cluster(0)
    left = tree.cluster(1)       # {0, 1}
    assert left.vertices == (0, 1)
    # one edge (0,3) leaves {0,1} at vertex 0
    assert left.border_weight == {0: 1, 1: 1}
    # the root sees each vertex through its child's border
    assert root.cluster_weight == {0: 1, 1: 1, 2: 1, 3: 1}
    assert root.border_weight == {0: 0, 1: 0, 2: 0, 3: 0}
    # inside {0,1} the child of 0 is the singleton, so the full incident capacity counts
    assert left.cluster_weight == {0: 2, 1: 2}
    leaf0 = tree.cluster(tree.leaf_of[0])
    assert leaf0.cluster_weight == {0: 2}
    assert leaf0.border_weight == {0: 2}


def test_weight_identities_match_edge_scan(four_cycle_tree):
    g, tree = four_cycle_tree
    for c in tree.clusters:
        for v in c.vertices:
            assert c.border_weight[v] == scan_border(g, c.vertices, v)
            assert c.border_weight[v] <= c.cluster_weight[v]
        if c.children:
            assert sum(tree.cluster(i).total_border for i in c.children) == c.total_weight
            for cid in c.children:
                child = tree.cluster(cid)
                for v in child.vertices:
                    assert c.cluster_weight[v] == child.border_weight[v]
    assert all(w == 0 for w in tree.cluster(0).border_weight.values())


def test_law_is_weights_over_their_total():
    # every cluster and border law is its weight table over its total, to
    # the last bit, as one cached read-only vector indexed by vertex; the
    # root's border law is all zero and cannot be a law
    g = generate_graph("grid", rows=3, cols=3, cap_range=(1, 3), seed=2)
    tree = build_tree(g, seed=0)
    for c in tree.clusters:
        for border, weights in ((False, c.cluster_weight), (True, c.border_weight)):
            if border and c.parent is None:
                continue
            expect = [0.0] * g.n
            for v, w in weights.items():
                expect[v] = w / sum(weights.values())
            law = tree.law(c.id, border)
            assert law.dtype == np.float64 and law.tolist() == expect
            assert tree.law(c.id, border) is law
            with pytest.raises(ValueError, match="read-only"):
                law[c.vertices[0]] = 0.5
    with pytest.raises(ValueError, match="all-zero border law"):
        tree.law(tree.root, border=True)


@pytest.mark.parametrize("spec", ["grid:3x3:1-3", "grid:8x8", "torus:6x6",
                                  "random_regular:32,3,3"])
def test_law_matrix_rows_are_the_bincount_laws(spec):
    # every row of the law matrix, read by law and gathered by laws, equals
    # the per-key construction np.bincount(...) / total to the last bit, for
    # every cluster and both border flags; build_tree leaves the matrix
    # unbuilt, and the root's all-zero border law raises by either read
    g = graph_from_config({"generate": spec})
    tree = build_tree(g, seed=0)
    assert tree._laws is None
    keys, expect = [], []
    for c in tree.clusters:
        for border, weights in ((False, c.cluster_weight), (True, c.border_weight)):
            if border and c.parent is None:
                continue
            law = np.bincount(list(weights), list(weights.values()),
                              minlength=g.n) / sum(weights.values())
            assert tree.law(c.id, border).tobytes() == law.tobytes(), (c.id, border)
            assert not tree.law(c.id, border).flags.writeable
            keys.append(2 * c.id + border)
            expect.append(law)
    gathered = tree.laws(np.array(keys[::-1], dtype=np.intp))
    assert gathered.tobytes() == np.array(expect[::-1]).tobytes()
    with pytest.raises(ValueError, match=f"^cluster {tree.root} has an all-zero border law$"):
        tree.law(tree.root, border=True)
    with pytest.raises(ValueError, match=f"^cluster {tree.root} has an all-zero border law$"):
        tree.laws(np.array([keys[0], 2 * tree.root + 1], dtype=np.intp))


def test_tree_navigation(four_cycle_tree):
    _, tree = four_cycle_tree
    assert tree.height == 2
    assert tree.degree == 2
    assert tree.leaf_path(0) == [0, 1, tree.leaf_of[0]]
    assert ancestor_at(tree, 2, 1) == 4
    assert tree.child_index(0, 1) == 0
    assert tree.child_index(0, 4) == 1
    left = tree.cluster(1)
    assert [tree.cluster(i).vertices for i in left.children] == [(0,), (1,)]


def test_target_inverts_child_index():
    # index 0 is the cluster itself; index child_index + 1, the one
    # routing._steps puts in a hop's parent step, is that child
    g = generate_graph("grid", rows=4, cols=4)
    trees = [build_tree(g, seed=0),
             tree_from_spec(cycle_graph(6), [[0, 1, 2], [[3, 4], 5]])]
    for tree in trees:
        for c in tree.clusters:
            assert tree.target(c.id, 0) is c
            if c.parent is not None:
                index = tree.child_index(c.parent, c.id) + 1
                assert tree.target(c.parent, index) is c


# ---------------------------------------------------------------------------
# product demands
# ---------------------------------------------------------------------------

def test_cmcf_instance_child_cluster(four_cycle_tree):
    _, tree = four_cycle_tree
    dm = cmcf_instance(tree.cluster(1))
    assert dm.entries == {(0, 1): 1.0, (1, 0): 1.0}


def test_cmcf_instance_root(four_cycle_tree):
    _, tree = four_cycle_tree
    dm = cmcf_instance(tree.cluster(0))
    assert len(dm.entries) == 12
    assert all(d == 0.25 for d in dm.entries.values())
    assert sum(dm.entries.values()) == 3.0


def test_cmcf_instance_trivial_cases(four_cycle_tree):
    _, tree = four_cycle_tree
    assert cmcf_instance(tree.cluster(tree.leaf_of[0])).entries == {}
    lone = CapacitatedGraph(1, [])
    t1 = tree_from_spec(lone, [0])
    assert cmcf_instance(t1.cluster(0)).entries == {}
    bare = tree_from_spec(cycle_graph(4), [[0, 1], [2, 3]])
    bare.cluster(0).cluster_weight = {}
    with pytest.raises(ValueError, match="weight tables"):
        cmcf_instance(bare.cluster(0))


# ---------------------------------------------------------------------------
# congestion certificates
# ---------------------------------------------------------------------------

def four_cycle_root_symmetric_optimum() -> float:
    # Adjacent ordered pairs (8 of them, demand 1/4) route x directly and the
    # rest the long way; opposite pairs always use two edges. Symmetry makes
    # every edge carry volume/4.
    best = math.inf
    for x in np.linspace(0.0, 0.25, 2501):
        volume = 8 * (x + 3 * (0.25 - x)) + 4 * 0.25 * 2
        best = min(best, volume / 4)
    return best


def test_certificate_single_edge():
    g = single_edge()
    tree = tree_from_spec(g, [0, 1])
    cert = certify_congestion(g, tree)
    assert cert.value == pytest.approx(1.0, abs=1e-7)
    assert cert.int_value == 1
    assert cert.per_cluster[0] == pytest.approx(1.0, abs=1e-7)
    for c in tree.clusters:
        if c.id != 0:
            assert cert.per_cluster[c.id] == 0.0


def test_certificate_four_cycle(four_cycle_tree):
    g, tree = four_cycle_tree
    cert = certify_congestion(g, tree, store_solutions=True)
    assert cert.per_cluster[0] == pytest.approx(four_cycle_root_symmetric_optimum(), abs=1e-6)
    # both units of the child instance cross the lone unit edge
    assert cert.per_cluster[1] == pytest.approx(2.0, abs=1e-7)
    assert cert.per_cluster[4] == pytest.approx(2.0, abs=1e-7)
    assert cert.value == pytest.approx(2.0, abs=1e-7)
    assert cert.int_value == 2
    assert set(cert.solutions) == {0, 1, 4}
    for cid, sol in cert.solutions.items():
        c = tree.cluster(cid)
        half = {(u, v): 2.0 * d for (u, v), d in cmcf_instance(c).entries.items() if u < v}
        assert_groups_route(g, sol, half, set(c.vertices))


@pytest.mark.parametrize("g, exact", [
    (cycle_graph(4), None),
    (grid_graph(4, 4), None),
    (grid_graph(6, 6, cap_range=(1, 5), seed=0), None),
    (grid_graph(3, 3, cap_range=(1, 3), seed=0), None),
    (torus_graph(4, 4), 4.0),
    (hypercube_graph(3), 3.0),
], ids=["four-cycle", "grid4", "grid6-caps1to5", "grid3-caps1to3", "torus4", "hypercube3"])
def test_certificate_matches_arc_lp(g, exact):
    # every cluster's congestion against the source-aggregated arc LP
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree)
    oracle = {}
    for c in tree.clusters:
        half = {(u, v): 2.0 * d for (u, v), d in cmcf_instance(c).entries.items() if u < v}
        oracle[c.id] = arc_lp_congestion(g, half, set(c.vertices)) if c.size > 1 else 0.0
    assert cert.per_cluster.keys() == oracle.keys()
    for cid, value in oracle.items():
        assert cert.per_cluster[cid] == pytest.approx(value, rel=1e-9, abs=1e-12)
    assert cert.int_value == max(1, math.ceil(max(oracle.values()) - 1e-9))
    if exact is not None:
        assert cert.value == exact


def test_certificate_scale_invariance():
    # product demands normalize by total weight, so uniform capacity scaling
    # leaves the certificate untouched
    g = single_edge(cap=3)
    tree = tree_from_spec(g, [0, 1])
    cert = certify_congestion(g, tree)
    assert cert.value == pytest.approx(1.0, abs=1e-7)
    assert cert.int_value == 1


def test_certificate_floor_on_trivial_tree():
    g = CapacitatedGraph(1, [])
    tree = tree_from_spec(g, [0])
    cert = certify_congestion(g, tree)
    assert cert.value == 0.0
    assert cert.int_value == 1


def test_certificate_pendant_triangle():
    # heavy triangle with unit pendants: inside the triangle cluster each
    # singleton child has border 21, so every ordered pair demands
    # 21*21/63 = 7; routed directly that is load 14 on capacity 10 and the
    # volume bound (42 volume over 30 capacity) shows no detour beats it.
    # The root value is pinned by any pendant cut: 10 ordered pairs at 1/6
    # over capacity 1.
    g = CapacitatedGraph(6, [(0, 1, 10), (1, 2, 10), (0, 2, 10),
                             (0, 3, 1), (1, 4, 1), (2, 5, 1)])
    tree = tree_from_spec(g, [[0, 1, 2], 3, 4, 5])
    assert tree.cluster(1).vertices == (0, 1, 2)
    cert = certify_congestion(g, tree)
    assert cert.per_cluster[1] == pytest.approx(1.4, abs=1e-7)
    assert cert.value == pytest.approx(5.0 / 3.0, abs=1e-6)
    assert cert.int_value == 2


# ---------------------------------------------------------------------------
# automatic construction
# ---------------------------------------------------------------------------

def assert_cluster_connected(g, cluster):
    members = set(cluster.vertices)
    start = cluster.vertices[0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u in members and u not in seen:
                seen.add(u)
                stack.append(u)
    assert seen == members, f"cluster {cluster.id} is disconnected"


def test_path3_height_and_leaf_depths():
    # root {0,1,2} splits into {1,2} and {0}; the singleton {0} is a leaf at
    # depth 1, while {1} and {2} sit at depth 2 = height
    g = path_graph(3)
    tree = build_tree(g, seed=0)
    assert tree.height == 2
    assert [c.children for c in tree.clusters] == [[1, 4], [2, 3], [], [], []]
    assert tree.leaf_of == {0: 4, 1: 3, 2: 2}
    depth = {v: tree.cluster(cid).level for v, cid in tree.leaf_of.items()}
    assert depth == {0: 1, 1: 2, 2: 2}
    assert tree.leaf_path(0) == [0, 4]


@pytest.mark.parametrize("kind,params", [
    ("grid", {"rows": 4, "cols": 4}),
    ("grid", {"rows": 3, "cols": 5, "cap_range": (1, 8)}),
    ("grid", {"rows": 8, "cols": 8}),
    ("random_regular", {"n": 16, "deg": 3}),
    ("hypercube", {"dim": 4}),
    ("torus", {"rows": 4, "cols": 4}),
])
def test_build_tree_audits_clean(kind, params):
    g = generate_graph(kind, seed=3, **params)
    tree = build_tree(g, seed=7)
    assert audit_tree(g, tree) == []
    assert tree.height <= math.ceil(2.5 * math.log2(g.n)) + 2
    for c in tree.clusters:
        assert_cluster_connected(g, c)
        assert c.vertices == tuple(sorted(c.vertices))
    leaves = [c for c in tree.clusters if not c.children]
    assert sorted(v for c in leaves for v in c.vertices) == list(range(g.n))
    assert sorted(tree.leaf_of.values()) == [c.id for c in leaves]
    assert tree.height == max(c.level for c in leaves)


def test_audit_flags_a_single_child_cluster(four_cycle_tree):
    # hang a copy of vertex 0's leaf under it, a one-child chain: every weight
    # identity still holds, only the shape fails
    g, tree = four_cycle_tree
    leaf = tree.cluster(tree.leaf_of[0])
    pad = copy.copy(leaf)
    pad.id, pad.level, pad.parent = len(tree.clusters), leaf.level + 1, leaf.id
    leaf.children = [pad.id]
    tree.clusters.append(pad)
    assert audit_tree(g, tree) == [f"cluster {leaf.id} has exactly one child"]


_CRITERION_3_GRAPHS = [grid_graph(4, 4), grid_graph(8, 8),
                       random_regular_graph(8, 3, seed=2),
                       random_regular_graph(32, 3, seed=3),
                       random_regular_graph(64, 3, seed=4)]


@pytest.mark.parametrize("g,seed", [
    *((g, i) for i, g in enumerate(_CRITERION_3_GRAPHS)),
    (grid_graph(8, 8), 0),          # the benchmark workloads' trees
    (grid_graph(10, 10), 0),
])
def test_build_tree_makes_no_single_child_cluster(g, seed):
    tree = build_tree(g, target_arity=2, seed=seed)
    assert [c.id for c in tree.clusters if len(c.children) == 1] == []
    assert audit_tree(g, tree) == []


def test_leaves_end_where_the_split_ends():
    # grid 8x8, tree seed 0: 123 clusters, and some singleton leaf sits
    # above the deepest level
    g = grid_graph(8, 8)
    tree = build_tree(g, seed=0)
    assert len(tree.clusters) == 123
    depths = [tree.cluster(cid).level for cid in tree.leaf_of.values()]
    assert min(depths) < tree.height == max(depths)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.integers(0, 3))
def test_build_tree_audits_clean_on_random_graphs(g, seed):
    tree = build_tree(g, seed=seed)
    assert audit_tree(g, tree) == []
    for c in tree.clusters:
        if c.children:
            assert sum(tree.cluster(cid).total_border for cid in c.children) == c.total_weight


def test_build_tree_deterministic():
    g = generate_graph("grid", rows=4, cols=4, seed=5)
    a = build_tree(g, seed=11)
    b = build_tree(g, seed=11)
    assert a.to_json() == b.to_json()


def test_build_tree_seed_sensitivity():
    g = generate_graph("grid", rows=6, cols=6, seed=5)
    trees = [build_tree(g, seed=s) for s in range(4)]
    assert len({tree.to_json() for tree in trees}) > 1
    for tree in trees:
        # every variant must still be a valid decomposition
        assert audit_tree(g, tree) == []


def test_build_tree_rejects_bad_arity():
    with pytest.raises(ValueError, match="arity"):
        build_tree(cycle_graph(4), target_arity=1)


def test_star_escalates_arity():
    # no balanced 2-split of a star keeps parts connected, so the splitter
    # widens that cluster instead of producing a giant part
    n = 9
    g = CapacitatedGraph(n, [(0, i, 1) for i in range(1, n)])
    tree = build_tree(g, seed=2)
    assert audit_tree(g, tree) == []
    root = tree.cluster(0)
    biggest = max(tree.cluster(i).size for i in root.children)
    assert biggest <= 0.75 * n


@pytest.mark.parametrize("seed", range(4))
def test_grow_parts_rejects_disconnected_vertex_set(seed):
    # in the path 0-1-2-3, the set {0, 1, 3} leaves 3 unreachable from 0 and 1
    with pytest.raises(RuntimeError, match="grow stalled"):
        _grow_parts(path_graph(4), [0, 1, 3], 2, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_to_json_content(four_cycle_tree):
    g, tree = four_cycle_tree
    cert = certify_congestion(g, tree)
    data = json.loads(tree.to_json(cert))
    assert (data["seed"], data["target_arity"], data["height"]) == (-1, 0, tree.height)
    assert [c["id"] for c in data["clusters"]] == list(range(len(tree.clusters)))
    for c, row in zip(tree.clusters, data["clusters"]):
        assert (row["level"], row["vertices"], row["parent"], row["children"]) == (
            c.level, list(c.vertices), c.parent, c.children)
        assert row["cluster_weight"] == {str(v): w for v, w in c.cluster_weight.items()}
        assert row["border_weight"] == {str(v): w for v, w in c.border_weight.items()}
    assert data["certificate"] == {
        "value": cert.value, "int_value": cert.int_value,
        "per_cluster": {str(k): v for k, v in cert.per_cluster.items()}}
    assert "certificate" not in json.loads(tree.to_json())


def test_spec_must_cover_vertices():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="cover"):
        tree_from_spec(g, [[0, 1], [2]])
    with pytest.raises(ValueError, match="cover"):
        tree_from_spec(g, [[0, 1], [2, 3, 3]])
