"""Flow-table scheme: saturation, walks, absorption laws, labels, bit accounting.

The single-edge augmented network is small enough to solve by hand: with
weights {0:1, 1:1}, target = child {0} (border 1), the only saturating flow is
source->0 (1), source->1 (1), arc 1->0 (1), 0->sink (2), value 2.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (ancestor_at, assign_labels, connected_graphs, flow_sweep, path_graph,
                     single_edge, topological, tree_from_spec)
from obroute import impl_a
from obroute.decomposition import certify_congestion, build_tree
from obroute.flows import SNK, SRC
from obroute.graph import CapacitatedGraph, generate_graph
from obroute.impl_a import (FlowTables, _cluster_flows, build_flow_tables,
                            header_bit_length, label_bit_length,
                            measure_table_bits_a, serialize_vertex_table)


def build_all(g, spec=None, seed=0):
    tree = tree_from_spec(g, spec) if spec is not None else build_tree(g, seed=seed)
    cert = certify_congestion(g, tree)
    return tree, cert, build_flow_tables(g, tree, cert.int_value)


@pytest.fixture(scope="module")
def single_edge_tables():
    g = single_edge()
    return g, *build_all(g, [0, 1])


@pytest.fixture(scope="module")
def four_cycle_tables():
    g = CapacitatedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    return g, *build_all(g, [[0, 1], [2, 3]])


def test_single_edge_worked_example(single_edge_tables):
    g, tree, cert, tables = single_edge_tables
    fa = tables.flows[(0, 1)]
    assert fa.arcs == {(SRC, 0): 1, (SRC, 1): 1, (1, 0): 1, (0, SNK): 2}
    assert fa.value == 2
    # the mirror target saturates symmetrically
    assert tables.flows[(0, 2)].value == 2
    assert tables.events == []
    # singleton clusters store nothing, and the root's own border is empty
    assert set(tables.flows) == {(0, 1), (0, 2)}


def test_single_edge_endpoint_laws(single_edge_tables):
    _, _, _, tables = single_edge_tables
    at_0, at_1 = np.eye(2)
    # forward: all mass is absorbed at the unique border vertex
    ends = [flow_sweep(tables, (False, 0, 1), at)[1] for at in (at_0, at_1)]
    assert np.array(ends).tolist() == [[1.0, 0.0], [1.0, 0.0]]
    # backward from the border: exactly the cluster distribution
    law = flow_sweep(tables, (True, 0, 1), at_0)[1]
    assert law == pytest.approx([0.5, 0.5])


def test_loads_refuse_a_law_that_is_not_the_terminal_law(four_cycle_tables):
    # a forward walk of flow (1, 0) starts on cluster 1's law and ends on its
    # border law; a backward walk starts only on that border law
    g, tree, _, tables = four_cycle_tables
    start = tree.law(1)
    ends = tables.loads([(False, 1, 0)], start[None])[1]
    assert np.abs(ends[0] - tree.law(1, True)).max() <= 1e-9
    with pytest.raises(ValueError, match=r"^cluster 1 target 0: start law is 0\.5 away "
                                         r"from the flow's sink law"):
        tables.loads([(False, 1, 0), (True, 1, 0)], np.array([start, np.eye(g.n)[0]]))


def test_loads_refuse_a_point_law_under_optimize_flag():
    # `python -O` strips assert statements; the start-law check must still raise
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                        str(root / "tests")]))
    script = (
        "import numpy as np\n"
        "from helpers import cycle_graph, tree_from_spec\n"
        "from obroute.decomposition import certify_congestion\n"
        "from obroute.impl_a import build_flow_tables\n"
        "assert False, 'asserts are live'\n"
        "g = cycle_graph(4)\n"
        "tree = tree_from_spec(g, [[0, 1], [2, 3]])\n"
        "tables = build_flow_tables(g, tree, certify_congestion(g, tree).int_value)\n"
        "tables.loads([(False, 1, 0)], np.eye(g.n)[:1])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("ValueError: cluster 1 target 0: start law is 0.5 away from the flow's "
            "source law") in proc.stderr, proc.stderr


def test_unique_flow_path_is_deterministic(single_edge_tables):
    _, _, _, tables = single_edge_tables
    rng = np.random.default_rng(3)
    for _ in range(20):
        path, end = tables.sample((False, 0, 1), 1, rng)
        assert (path, end) == ([1, 0], 0)
        path, end = tables.sample((False, 0, 1), 0, rng)
        assert (path, end) == ([0], 0)


def test_zero_flow_start_errors():
    # vertex 0 has no edge leaving child {0,1}, so its root weight is zero
    g = path_graph(3)
    tree = tree_from_spec(g, [[0, 1], [2]])
    cert = certify_congestion(g, tree)
    tables = build_flow_tables(g, tree, cert.int_value)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="no source flow"):
        tables.sample((False, 0, 1), 0, rng)
    with pytest.raises(ValueError, match="no sink flow"):
        tables.sample((True, 0, 1), 0, rng)


@pytest.mark.parametrize("kind,params", [
    ("grid", {"rows": 3, "cols": 3, "cap_range": (1, 4)}),
    ("grid", {"rows": 4, "cols": 4}),
    ("random_regular", {"n": 12, "deg": 3}),
])
def test_saturation_integrality_conservation(kind, params):
    g = generate_graph(kind, seed=9, **params)
    tree = build_tree(g, seed=1)
    cert = certify_congestion(g, tree)
    tables = build_flow_tables(g, tree, cert.int_value)
    assert tables.events == []
    for (cid, index), fa in tables.flows.items():
        cluster = tree.cluster(cid)
        if index == 0:
            out_map = cluster.border_weight
        else:
            out_map = tree.cluster(cluster.children[index - 1]).border_weight
        assert fa.value == cluster.total_weight * sum(out_map.values())
        assert all(f == int(f) and f >= 0 for f in fa.arcs.values())
        assert fa.conservation_violations() == {}
        assert fa.is_acyclic()


def mixture_law(tables, tree, cid, index, direction):
    """Endpoint law marginalized over the matching terminal distribution."""
    cluster = tree.cluster(cid)
    if direction == "forward":
        weights = cluster.cluster_weight
    else:
        if index == 0:
            weights = cluster.border_weight
        else:
            weights = tree.cluster(cluster.children[index - 1]).border_weight
    total = sum(weights.values())
    step = (direction == "backward", cid, index)
    mix: dict[int, float] = {}
    for v, w in weights.items():
        if w == 0:
            continue
        end = flow_sweep(tables, step, np.eye(tables.graph.n)[v])[1]
        for x in np.flatnonzero(end).tolist():
            mix[x] = mix.get(x, 0.0) + end[x] * w / total
    return mix


@pytest.mark.parametrize("builder", [
    lambda: (CapacitatedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]), [[0, 1], [2, 3]]),
    lambda: (path_graph(3), [[0, 1], [2]]),
    lambda: (generate_graph("grid", rows=3, cols=3, cap_range=(1, 3), seed=2), None),
])
def test_endpoint_laws_exact_everywhere(builder):
    g, spec = builder()
    tree, cert, tables = build_all(g, spec)
    for (cid, index) in tables.flows:
        cluster = tree.cluster(cid)
        if index == 0:
            out_map = cluster.border_weight
        else:
            out_map = tree.cluster(cluster.children[index - 1]).border_weight
        out_total = sum(out_map.values())
        forward = mixture_law(tables, tree, cid, index, "forward")
        for v in cluster.vertices:
            assert abs(forward.get(v, 0.0) - out_map.get(v, 0) / out_total) < 1e-9
        backward = mixture_law(tables, tree, cid, index, "backward")
        for v in cluster.vertices:
            expect = cluster.cluster_weight[v] / cluster.total_weight
            assert abs(backward.get(v, 0.0) - expect) < 1e-9


def test_monte_carlo_tv_four_cycle_child(four_cycle_tables):
    _, tree, _, tables = four_cycle_tables
    cluster = tree.cluster(1)
    rng = np.random.default_rng(17)
    samples = 100_000
    counts = {v: 0 for v in cluster.vertices}
    starts = list(cluster.vertices)
    weights = np.array([cluster.cluster_weight[v] for v in starts], dtype=float)
    picks = rng.choice(len(starts), size=samples, p=weights / weights.sum())
    for k in picks:
        _, end = tables.sample((False, 1, 0), starts[k], rng)
        counts[end] += 1
    exact = mixture_law(tables, tree, 1, 0, "forward")
    tv = 0.5 * sum(abs(counts[v] / samples - exact.get(v, 0.0)) for v in cluster.vertices)
    assert tv < 0.02


def test_doubling_on_certificate_violation():
    # doctored weight tables make the scaled edges a genuine bottleneck:
    # sources (10000, 100, 100), sink 10200 at vertex 2, so the cut around
    # vertex 0 forces scale >= 10000/102 and the builder must double up to 128
    g = path_graph(3)
    tree = tree_from_spec(g, [[0], [1], [2]])
    root = tree.cluster(0)
    root.cluster_weight = {0: 100, 1: 1, 2: 1}
    flows, c_eff, events = _cluster_flows(g, root, [{2: 100}], 1)
    assert c_eff == 128
    assert len(events) == 7
    fa = flows[0]
    assert fa.value == 102 * 100
    assert fa.conservation_violations() == {}


def test_labels_binary_and_ternary(four_cycle_tables):
    _, tree, _, _ = four_cycle_tables
    labels = assign_labels(tree)
    assert labels == {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    assert label_bit_length(tree) == 2

    g = path_graph(9)
    t3 = tree_from_spec(g, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    labels3 = assign_labels(t3)
    assert labels3[5] == (1, 2)
    assert label_bit_length(t3) == 4
    assert len(set(labels3.values())) == 9
    # the first label coordinate identifies the level-1 ancestor
    for v, lab in labels3.items():
        assert ancestor_at(t3, v, 1) == t3.cluster(0).children[lab[0]]


def test_header_bits_formula(four_cycle_tables):
    _, tree, _, _ = four_cycle_tables
    marker = math.ceil(math.log2(tree.height + 2)) + 1 + 1
    assert header_bit_length(tree) == 2 * label_bit_length(tree) + marker


def test_bit_accounting_single_edge(single_edge_tables):
    _, _, _, tables = single_edge_tables
    counts = measure_table_bits_a(tables)
    # per vertex and table: id(2) + index(2) + count(3), entries at
    # slot(2) + amount(2) bits; vertex 0 stores 3 entries for target 1 and
    # 2 for target 2: (7 + 3*4) + (7 + 2*4) = 34, symmetric for vertex 1
    assert counts.per_vertex == {0: 34, 1: 34}
    assert counts.max_bits == 34
    assert counts.total_bits == 68


def test_bit_accounting_empty():
    g = CapacitatedGraph(1, [])
    tree = tree_from_spec(g, [0])
    tables = build_flow_tables(g, tree, 1)
    counts = measure_table_bits_a(tables)
    assert counts.max_bits == 0 and counts.total_bits == 0
    assert serialize_vertex_table(tables, 0) == b""


def test_blob_round_matches_bit_count(four_cycle_tables):
    _, _, _, tables = four_cycle_tables
    counts = measure_table_bits_a(tables)
    for v, bits in counts.per_vertex.items():
        blob = serialize_vertex_table(tables, v)
        assert len(blob) == (bits + 7) // 8
    assert serialize_vertex_table(tables, 0) == serialize_vertex_table(tables, 0)


def _decode_table(g, tree, tables, v, blob):
    """Read v's blob back with the layout of the impl_a docstring, computing
    every field width from the tree and the graph. Returns the decoded
    (cluster, index, slot, amount) records and the bits they occupy."""
    bits = "".join(f"{byte:08b}" for byte in blob)
    pos = 0

    def take(width):
        nonlocal pos
        pos += width
        return int(bits[pos - width:pos], 2)

    id_bits = max(1, math.ceil(math.log2(max(2, len(tree.clusters)))))
    index_bits = max(1, math.ceil(math.log2(tree.degree + 1)))
    deg = g.degree(v)
    count_bits = math.ceil(math.log2(2 * deg + 3))
    slot_bits = max(1, math.ceil(math.log2(2 * deg + 2)))
    records = []
    while len(bits) - pos >= 8:   # every table header is wider than the padding
        cid, index, count = take(id_bits), take(index_bits), take(count_bits)
        cluster = tree.cluster(cid)
        out_map = (cluster.border_weight if index == 0
                   else tree.cluster(cluster.children[index - 1]).border_weight)
        caps = [cap for a, b, cap in g.edges if a in cluster.vertices and b in cluster.vertices]
        biggest = max(max(caps, default=0) * cluster.total_weight * tables.cluster_c[cid],
                      max(cluster.cluster_weight.values()) * sum(out_map.values()),
                      max(out_map.values()) * cluster.total_weight)
        for _ in range(count):
            records.append((cid, index, take(slot_bits), take(biggest.bit_length())))
    assert set(bits[pos:]) <= {"0"}, "padding must be zero bits"
    return records, pos


def test_blob_decodes_to_the_stored_flows():
    g = generate_graph("grid", rows=4, cols=4)
    tree, _, tables = build_all(g)
    counts = measure_table_bits_a(tables)
    for v in range(g.n):
        records, used = _decode_table(g, tree, tables, v, serialize_vertex_table(tables, v))
        assert used == counts.per_vertex[v]
        nbrs = g.neighbors(v)
        deg = len(nbrs)
        arcs = {}
        for cid, index, slot, amount in records:
            if slot < 2 * deg:
                u = nbrs[slot // 2]
                arc = (u, v) if slot % 2 == 0 else (v, u)
            else:
                assert slot in (2 * deg, 2 * deg + 1)
                arc = (SRC, v) if slot == 2 * deg else (v, SNK)
            assert amount == tables.flows[(cid, index)].arcs.get(arc, 0) > 0
            arcs[(cid, index, arc)] = amount
        stored = {(cid, index, arc): f for (cid, index), fa in tables.flows.items()
                  for arc, f in fa.arcs.items() if v in arc and f > 0}
        assert arcs == stored


def test_measure_computes_each_amount_width_once(monkeypatch):
    g = generate_graph("grid", rows=4, cols=4)
    _, _, tables = build_all(g)
    calls = []
    width = impl_a._amount_width
    monkeypatch.setattr(impl_a, "_amount_width", lambda *key: calls.append(key) or width(*key))
    measure_table_bits_a(tables)
    assert sorted(key[1:3] for key in calls) == sorted(tables.flows)


def test_measure_scans_each_cluster_edges_once(monkeypatch):
    g = generate_graph("grid", rows=4, cols=4, cap_range=(1, 5), seed=2)
    _, _, tables = build_all(g)
    scans = []
    inside = g.edges_inside
    monkeypatch.setattr(g, "edges_inside", lambda members: scans.append(members) or inside(members))
    measure_table_bits_a(tables)
    assert 0 < len(scans) <= len({cid for cid, _ in tables.flows})


def test_serializer_rejects_amount_too_wide_for_its_field():
    g = single_edge()
    _, _, tables = build_all(g, [0, 1])
    tables.flows[(0, 1)].arcs[(SRC, 0)] = 1 << 40
    with pytest.raises(RuntimeError, match="overflows"):
        serialize_vertex_table(tables, 0)


def test_build_rejects_bad_scale(four_cycle_tables):
    g, tree, _, _ = four_cycle_tables
    with pytest.raises(ValueError, match="positive integer"):
        build_flow_tables(g, tree, 0)
    with pytest.raises(ValueError, match="positive integer"):
        build_flow_tables(g, tree, 1.5)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_stored_flows_conserve_saturate_and_order_on_random_graphs(g):
    # every stored flow conserves, saturates its terminals (value w(S) times
    # the target's border total), and has a topological order in which every
    # positive arc points forward, walked either way
    tree, _, tables = build_all(g)
    for (cid, index), fa in tables.flows.items():
        cluster, target = tree.cluster(cid), tree.target(cid, index)
        assert fa.conservation_violations(tol=0.0) == {}
        assert fa.value == cluster.total_weight * target.total_border
        assert {v: f for (a, v), f in fa.arcs.items() if a == SRC} == {
            v: w * target.total_border for v, w in cluster.cluster_weight.items() if w}
        assert {v: f for (v, b), f in fa.arcs.items() if b == SNK} == {
            v: w * cluster.total_weight for v, w in target.border_weight.items() if w}
        for direction in ("forward", "backward"):
            position = {v: k for k, v in enumerate(topological(fa, direction))}
            for (a, b), f in fa.arcs.items():
                if f > 0 and SRC not in (a, b) and SNK not in (a, b):
                    tail, head = (a, b) if direction == "forward" else (b, a)
                    assert position[tail] < position[head]
