"""Flow-table routing scheme: per-cluster integral flows walked link by link.

For a cluster S with children S_1..S_r (index 0 denotes S itself), one
single-commodity flow per target index i moves mass from the cluster
distribution of S to the border distribution of S_i. The augmented network on
the induced subgraph G[S] has

  super-source -> v   capacity cluster_weight(v) * border_total(S_i)
  v -> super-sink     capacity border_weight_{S_i}(v) * cluster_total(S)
  graph edges         capacity cap(e) * cluster_total(S) * C  (both directions)

Source and sink capacities balance by construction, and with C at least the
certified cluster congestion the integral max flow saturates the terminals.
Flows are cycle-cancelled before storage so the forwarding walk terminates.

Routing forwards a message along random outgoing links with probability
proportional to stored flow until the super-sink is chosen (the walk owner is
the endpoint); the reverse walk follows incoming links to the super-source.
Started from the matching terminal law, the endpoint law of either walk equals
the opposite terminal's proportions exactly.

Per-vertex table layout (bit-exact, used by the accounting and the blob
serializer): for every (cluster, target index) pair with stored amounts at v,
  [cluster id: ceil(log2 #clusters)] [index: ceil(log2 (degT+1)), >=1]
  [entry count: ceil(log2 (2 deg(v)+3))]
  then per entry [slot: ceil(log2 (2 deg(v)+2))] [amount: B bits]
where slots enumerate in/out per incident edge plus source and sink, and B is
the bit length of the largest capacity that flow's augmented network would
have at the cluster's final scale cluster_c[S]. A later target of the same
cluster can double the scale, so B can exceed what the flow was built with.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from obroute.decomposition import DecompositionTree
from obroute.flows import SNK, SRC, FlowAssignment, cancel_cycles, max_flow_integral, sample_path
from obroute.graph import CapacitatedGraph
from obroute.routing import Step, _first_off

__all__ = ["FlowTables", "build_flow_tables", "label_bit_length", "header_bit_length",
           "measure_table_bits_a", "serialize_vertex_table"]

_MAX_DOUBLINGS = 12


@dataclass
class FlowTables:
    """The impl-a scheme, and its own hop backend (routing.SchemeBackend):
    a step walks the (cluster, index) flow, forward from its source law along
    random outgoing links to leave, backward from its sink law to spread."""

    graph: CapacitatedGraph
    tree: DecompositionTree
    flows: dict[tuple[int, int], FlowAssignment]   # (cluster id, target index)
    cluster_c: dict[int, int]                      # effective C after any doubling
    events: list[str] = field(default_factory=list)

    def sample(self, step: Step, v: int,
               rng: np.random.Generator) -> tuple[list[int], int]:
        """Walk random links of the flow until absorbed; started on the
        matching terminal law, the end law is the opposite one exactly."""
        spread, cluster_id, index = step
        fa = self.flows[(cluster_id, index)]
        arc, end = ((v, SNK), "sink") if spread else ((SRC, v), "source")
        if fa.arcs.get(arc, 0) <= 0:
            raise ValueError(
                f"vertex {v} carries no {end} flow in cluster {cluster_id} "
                f"target {index}; walk cannot start")
        path = sample_path(fa, v, "backward" if spread else "forward", rng)
        return path, path[-1]

    def loads(self, steps: Sequence[Step],
              laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed form: started on the flow's source law (forward, leave) or
        sink law (backward, spread), each its terminal arcs over |f|, the
        walk crosses arc a->b f(a,b)/|f| times on average, by conservation,
        and ends on the opposite terminal law. So a step's loads are its
        flow's unit vector: f/|f| on every interior arc, binned by graph edge
        id in the flow's stored arc order, both directions of an edge added.
        Each distinct flow of the pass is binned once, by one bincount offset
        by flow. Raises ValueError for the first step, in the order given,
        whose start law is more than 1e-9 away from its flow's start law."""
        m, n = self.graph.m, laws.shape[1]
        # each distinct flow of the pass, numbered in order of first use
        row = {key: r for r, key in enumerate(dict.fromkeys(
            (cluster_id, index) for _, cluster_id, index in steps))}
        terminal = np.zeros((2, len(row), n))      # [source or sink, flow, vertex]
        edge_index = self.graph.edge_index
        crossed: list[int] = []
        shares: list[float] = []
        counts: list[int] = []
        for key, r in row.items():
            fa = self.flows[key]
            count = len(crossed)
            for (a, b), f in fa.arcs.items():
                if a == SRC:
                    terminal[0, r, b] = f / fa.value
                elif b == SNK:
                    terminal[1, r, a] = f / fa.value
                else:
                    crossed.append(edge_index(a, b))
                    shares.append(f / fa.value)
            counts.append(len(crossed) - count)
        bins = np.array(crossed, dtype=np.intp) + np.repeat(np.arange(len(row)) * m, counts)
        # astype: a bincount of nothing is an int array
        units = np.bincount(bins, shares, minlength=len(row) * m).astype(float, copy=False)
        flow = np.array([row[(cluster_id, index)] for _, cluster_id, index in steps], dtype=np.intp)
        spread = np.array([step[0] for step in steps], dtype=np.intp)
        if (off := _first_off(laws, terminal[spread, flow])) is not None:
            spread_i, cluster_id, index = steps[off[0]]
            raise ValueError(
                f"cluster {cluster_id} target {index}: start law is {off[1]:.3g} away "
                f"from the flow's {'sink' if spread_i else 'source'} law; a "
                f"{'backward' if spread_i else 'forward'} walk starts only on that law")
        return units.reshape(len(row), m)[flow], terminal[1 - spread, flow]


def _cluster_flows(g: CapacitatedGraph, cluster, out_maps: list[dict[int, int]],
                   c: int) -> tuple[dict[int, FlowAssignment], int, list[str]]:
    """All target flows of one cluster, doubling C on certificate violations."""
    total_w = cluster.total_weight
    members = set(cluster.vertices)
    edge_list = [g.edges[idx] for idx in g.edges_inside(members)]
    events: list[str] = []
    flows: dict[int, FlowAssignment] = {}
    c_eff = c
    for index, out_map in enumerate(out_maps):
        out_total = sum(out_map.values())
        if out_total == 0:
            continue
        target = total_w * out_total
        while True:
            arcs: list[tuple[int, int, int]] = []
            for u, v, cap in edge_list:
                scaled = cap * total_w * c_eff
                arcs.append((u, v, scaled))
                arcs.append((v, u, scaled))
            for v in cluster.vertices:
                w = cluster.cluster_weight[v]
                if w:
                    arcs.append((SRC, v, w * out_total))
                out_v = out_map.get(v, 0)
                if out_v:
                    arcs.append((v, SNK, out_v * total_w))
            fa = max_flow_integral(arcs, SRC, SNK)
            if fa.value == target:
                break
            if c_eff >= c * 2 ** _MAX_DOUBLINGS:
                raise RuntimeError(
                    f"cluster {cluster.id} target {index}: flow value {fa.value} "
                    f"< {target} even at scale {c_eff}")
            c_eff *= 2
            events.append(
                f"cluster {cluster.id} target {index}: certificate violation at "
                f"scale {c_eff // 2}, retrying with {c_eff}")
        flows[index] = cancel_cycles(fa)
    return flows, c_eff, events


def build_flow_tables(g: CapacitatedGraph, tree: DecompositionTree, c: int) -> FlowTables:
    """One integral flow per (cluster, target index); singletons store nothing."""
    if c < 1 or int(c) != c:
        raise ValueError(f"scale constant must be a positive integer, got {c}")
    tables = FlowTables(graph=g, tree=tree, flows={}, cluster_c={})
    for cluster in tree.clusters:
        if cluster.size == 1:
            continue
        out_maps = [tree.target(cluster.id, index).border_weight
                    for index in range(len(cluster.children) + 1)]
        flows, c_eff, events = _cluster_flows(g, cluster, out_maps, int(c))
        for index, fa in flows.items():
            tables.flows[(cluster.id, index)] = fa
        tables.cluster_c[cluster.id] = c_eff
        tables.events.extend(events)
    return tables


# ---------------------------------------------------------------------------
# labels and headers
# ---------------------------------------------------------------------------

def _index_bits(tree: DecompositionTree) -> int:
    return max(1, math.ceil(math.log2(max(2, tree.degree))))


def _cluster_id_bits(tree: DecompositionTree) -> int:
    return max(1, math.ceil(math.log2(max(2, len(tree.clusters)))))


def label_bit_length(tree: DecompositionTree) -> int:
    """Child indices down to the deepest leaf. Labels are prefix-free and a descent
    ends at the target's singleton, so entries past a leaf's depth are never read."""
    return tree.height * _index_bits(tree)


def header_bit_length(tree: DecompositionTree) -> int:
    """Source label + target label + marker (level, phase bit, child position)."""
    marker = math.ceil(math.log2(tree.height + 2)) + 1 + _index_bits(tree)
    return 2 * label_bit_length(tree) + marker


# ---------------------------------------------------------------------------
# bit-exact table accounting
# ---------------------------------------------------------------------------

def _max_capacity_inside(tables: FlowTables, cluster_id: int) -> int:
    members = set(tables.tree.cluster(cluster_id).vertices)
    return max((tables.graph.edges[i][2] for i in tables.graph.edges_inside(members)),
               default=0)


def _amount_width(tables: FlowTables, cluster_id: int, index: int, cap_max: int) -> int:
    """Bit length of the largest capacity of this flow's augmented network at
    the cluster's final scale, given the largest capacity inside the cluster."""
    cluster = tables.tree.cluster(cluster_id)
    total_w = cluster.total_weight
    out_map = tables.tree.target(cluster_id, index).border_weight
    out_total = sum(out_map.values())
    biggest = max(cap_max * total_w * tables.cluster_c[cluster_id],
                  max((cluster.cluster_weight[v] for v in cluster.vertices), default=0) * out_total,
                  max(out_map.values(), default=0) * total_w)
    return max(1, biggest.bit_length())


def _table_fields(tables: FlowTables,
                  vertices: Iterable[int]) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Per vertex, the (value, width) fields of its table in the documented
    layout, flows in (cluster id, target index) order."""
    tree = tables.tree
    g = tables.graph
    id_bits = _cluster_id_bits(tree)
    index_bits = max(1, math.ceil(math.log2(max(2, tree.degree + 1))))
    cap_max: dict[int, int] = {}
    widths: dict[tuple[int, int], int] = {}
    for v in vertices:
        deg = g.degree(v)
        count_bits = max(1, math.ceil(math.log2(2 * deg + 3)))
        slot_bits = max(1, math.ceil(math.log2(max(2, 2 * deg + 2))))
        # slot order: in, out per incident edge, then source, sink
        slot_arcs = [arc for u, _ in g.adj[v] for arc in ((u, v), (v, u))] + [(SRC, v), (v, SNK)]
        fields: list[tuple[int, int]] = []
        for cid in sorted(tree.leaf_path(v)):
            for index in range(len(tree.cluster(cid).children) + 1):
                fa = tables.flows.get((cid, index))
                if fa is None:
                    continue
                entries = [(slot, int(fa.arcs[arc])) for slot, arc in enumerate(slot_arcs)
                           if fa.arcs.get(arc, 0)]
                if not entries:
                    continue
                if (cid, index) not in widths:
                    if cid not in cap_max:
                        cap_max[cid] = _max_capacity_inside(tables, cid)
                    widths[(cid, index)] = _amount_width(tables, cid, index, cap_max[cid])
                fields += [(cid, id_bits), (index, index_bits), (len(entries), count_bits)]
                for slot, amount in entries:
                    fields += [(slot, slot_bits), (amount, widths[(cid, index)])]
        yield v, fields


@dataclass
class TableBits:
    per_vertex: dict[int, int]
    max_bits: int
    total_bits: int


def measure_table_bits_a(tables: FlowTables) -> TableBits:
    """Count the documented layout bit for bit; empty tables count zero."""
    per_vertex = {v: sum(width for _, width in fields)
                  for v, fields in _table_fields(tables, range(tables.graph.n))}
    return TableBits(per_vertex=per_vertex,
                     max_bits=max(per_vertex.values(), default=0),
                     total_bits=sum(per_vertex.values()))


def serialize_vertex_table(tables: FlowTables, v: int) -> bytes:
    """Pack v's tables into the documented layout, padded to whole bytes."""
    acc = 0
    nbits = 0
    [(_, fields)] = _table_fields(tables, [v])
    for value, width in fields:
        if not 0 <= value < (1 << width):
            raise RuntimeError(f"value {value} overflows {width} bits")
        acc = (acc << width) | value
        nbits += width
    pad = (-nbits) % 8
    acc <<= pad
    return (acc).to_bytes((nbits + pad) // 8, "big") if nbits else b""
