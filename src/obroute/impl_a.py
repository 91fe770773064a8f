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
from obroute.routing import Law, Step

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

    def _walk(self, step: Step, starts: Iterable[int]) -> tuple[FlowAssignment, str]:
        """The flow and direction a step walks, provided a walk can start at
        every vertex of `starts`."""
        spread, cluster_id, index = step
        fa = self.flows[(cluster_id, index)]
        for v in starts:
            arc, end = ((v, SNK), "sink") if spread else ((SRC, v), "source")
            if fa.arcs.get(arc, 0) <= 0:
                raise ValueError(
                    f"vertex {v} carries no {end} flow in cluster {cluster_id} "
                    f"target {index}; walk cannot start")
        return fa, "backward" if spread else "forward"

    def sample(self, step: Step, v: int,
               rng: np.random.Generator) -> tuple[list[int], int]:
        """Walk random links of the flow until absorbed; started on the
        matching terminal law, the end law is the opposite one exactly."""
        fa, direction = self._walk(step, (v,))
        path = sample_path(fa, v, direction, rng)
        return path, path[-1]

    def loads(self, steps: Sequence[Step],
              laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Started on the flow's source (forward) or sink (backward) law, the
        walk crosses arc a->b f(a,b)/|f| times on average. Each step's flow
        is swept on its own (_propagate); one bincount, offset by row, bins
        every crossing."""
        m = self.graph.m
        ends = np.zeros(laws.shape)
        crossed: list[int] = []
        shares: list[float] = []
        counts: list[int] = []
        for i, (step, law) in enumerate(zip(steps, laws)):
            fa, direction = self._walk(step, law.nonzero()[0].tolist())
            edges, parts, ends[i] = _propagate(self.graph, fa, law, direction)
            crossed += edges
            shares += parts
            counts.append(len(edges))
        bins = np.array(crossed, dtype=np.intp) + np.repeat(np.arange(len(counts)) * m, counts)
        # astype: a bincount of nothing is an int array
        loads = np.bincount(bins, shares, minlength=len(counts) * m).astype(float, copy=False)
        return loads.reshape(len(counts), m), ends


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


def _propagate(g: CapacitatedGraph, fa: FlowAssignment, start_law: Law,
               direction: str) -> tuple[list[int], list[float], Law]:
    """Push the start law through the acyclic flow in topological order, each
    vertex splitting its mass over its links in proportion to their flow; no
    sampling involved. The caller has checked that every start vertex can
    start a walk (FlowTables._walk). Returns the graph edge id and the mass
    of every crossing, in the order they are crossed, and the mass absorbed
    at each vertex, as a vector."""
    if not fa.is_acyclic():
        raise ValueError("absorption law requires an acyclic flow")
    if direction == "forward":
        links, terminal = fa.outgoing, SNK
    elif direction == "backward":
        links, terminal = fa.incoming, SRC
    else:
        raise ValueError(f"direction must be forward or backward, got {direction!r}")

    order = _topological(fa, direction)
    position = {v: k for k, v in enumerate(order)}
    support = start_law.nonzero()[0]
    mass = dict(zip(support.tolist(), start_law[support].tolist()))
    edge_index = g.edge_index
    crossed: list[int] = []
    shares: list[float] = []
    absorbed: dict[int, float] = {}
    first = min((position[v] for v in mass), default=len(order))
    for v in order[first:]:
        mv = mass.pop(v, 0.0)
        if mv == 0.0:
            continue
        options = links(v)
        total = sum(f for _, f in options)
        for u, f in options:
            share = mv * f / total
            if u == terminal:
                absorbed[v] = absorbed.get(v, 0.0) + share
            else:
                mass[u] = mass.get(u, 0.0) + share
                crossed.append(edge_index(v, u))
                shares.append(share)
    end = np.zeros(g.n)
    for v, p in absorbed.items():
        end[v] = p
    return crossed, shares, end


def _topological(fa: FlowAssignment, direction: str) -> list[int]:
    arcs = [(a, b) for (a, b), f in fa.arcs.items()
            if f > 0 and a not in (SRC, SNK) and b not in (SRC, SNK)]
    if direction == "backward":
        arcs = [(b, a) for a, b in arcs]
    verts = {v for arc in fa.arcs for v in arc} - {SRC, SNK}
    indeg = {v: 0 for v in verts}
    succ: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in arcs:
        indeg[b] += 1
        succ[a].append(b)
    queue = sorted(v for v, d in indeg.items() if d == 0)
    order: list[int] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    if len(order) != len(verts):
        raise RuntimeError("flow has a residual cycle")
    return order


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
