"""Hypercube routing scheme for unit-capacity graphs.

Every non-singleton cluster S carries two hypercubes embedded into G[S]:

  main cube     dimension d = ceil(log2 of the summed rounded border totals).
                It holds a node range per target index: the cluster's own
                border (index 0) and the k-th child border (index k), laid
                out own border first, then children in ascending rounded
                order. Hopping to a uniform node of a range realizes (up to
                a factor-2 skew) the matching border distribution.
  shuffle cube  dimension ceil(log2 w_S(S)), one range: the first w_S(S)
                nodes give each vertex exactly its cluster weight, so routing
                to a uniform node among them restores the exact cluster
                distribution after every hop, stopping the skew from
                compounding level by level.

Cube edges are realized as graph paths drawn from the cluster's
certification flow (decomposition.certify_congestion): the product-demand
flow between every pair of the cluster's weighted vertices, which the
paper's hierarchy routes on. Every cube node's owner has positive cluster
weight, so each cube edge (x, y) of either cube whose owners a, b differ
draws one path from the flow's path group of {a, b}, reversed where a > b
(the flow stores each pair from the smaller id); no LP is solved for the
cubes. A hop walks the main cube and then the shuffle cube of one cluster,
so both cubes record as fractional_congestion the largest expected edge load
of the cluster's draws over both. Cube routing is one-phase: it fixes the
coordinates in which the start node and the target differ, in ascending
order. This departs from the paper's two-phase routing through a uniform
intermediate node (Valiant & Brebner): a hop's start law is already the
exact cluster law and its target is already uniform on its range, so the
detour only lengthens the walk.

Per-vertex table layout (bit-exact accounting):

  sizes block, one per containing non-singleton cluster S with r children:
      (r+1) exponent fields   ceil(log2(1+E)) bits each, E = max exponent
                              representable, (2*m*W).bit_length()
      r layout fields         ceil(log2 r) bits each, child position by
                              ascending rounded size
      1 weight field          (2*m*W).bit_length() bits, holds w_S(S)
  path groups, one per (cluster, cube) whose stored paths traverse v:
      header                  cluster id + 1 cube flag bit + entry count
      one entry per path      outgoing edge index (ceil(log2 deg(v)) bits)
                              + path id on that edge (ceil(log2 d*C) bits);
                              hop-by-hop continuation, so mid-path vertices
                              need no cube-edge key

The count field width is the build-wide constant ceil(log2(1+max entries in
any group)).
"""
from __future__ import annotations

import functools
import heapq
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from obroute.cmcf import CMCFSolution, round_paths
from obroute.decomposition import Cluster, CongestionCertificate, DecompositionTree
from obroute.graph import CapacitatedGraph
from obroute.impl_a import TableBits
from obroute.routing import Law, Loads, Step

__all__ = ["CubeMaps", "CubeScheme", "build_embedding", "build_rerand_cube",
           "build_cube_scheme", "hypercube_route", "hypercube_loads",
           "audit_cube_scheme", "measure_table_bits_b"]


def _round_pow2(x: int) -> int:
    """Smallest power of two >= x; zero stays zero (4 -> 4, 5 -> 8)."""
    return 0 if x == 0 else 1 << (x - 1).bit_length()


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


def _border_ranges(border_totals: list[int]) -> list[tuple[int, int]]:
    """Main-cube node range [lo, hi) per target index, from the border totals
    in that order: each rounded up to a power of two, laid out own border
    first, then children by ascending rounded size, ties in tree order."""
    sizes = [_round_pow2(total) for total in border_totals]
    ranges = [(0, 0)] * len(sizes)
    lo = 0
    for index in [0, *sorted(range(1, len(sizes)), key=lambda k: (sizes[k], k))]:
        ranges[index] = (lo, lo + sizes[index])
        lo += sizes[index]
    return ranges


@dataclass
class _PathSlots:
    """A cube's stored paths as arrays, for the exact kernel: one slot per
    graph edge of every path, in edge_paths order, holding the (dimension,
    node) cell of the slot's cube edge, flattened as k * 2^d + x, and the
    slot's graph edge id; and the node owners."""

    edge_paths: dict[tuple[int, int], list[int]]   # the dict the slots were built from
    cells: np.ndarray
    edge_ids: np.ndarray
    owners: np.ndarray                             # node_owner as an array
    owned: np.ndarray                              # vertex -> number of nodes it owns


@dataclass
class CubeMaps:
    dimension: int
    node_owner: list[int]
    vertex_nodes: dict[int, list[int]]
    ranges: list[tuple[int, int]]                  # target index -> node range [lo, hi)
    edge_paths: dict[tuple[int, int], list[int]]   # cube edge (x<y) -> graph path
    fractional_congestion: float                   # expected, of the cluster's draws
    _slots: _PathSlots | None = field(default=None, repr=False, compare=False)

    def path_slots(self, g: CapacitatedGraph) -> _PathSlots:
        """The slot arrays of edge_paths in g, rebuilt when edge_paths is
        replaced; raises on a stored path that steps off g."""
        if self._slots is None or self._slots.edge_paths is not self.edge_paths:
            side = 1 << self.dimension
            cells: list[int] = []
            edge_ids: list[int] = []
            for (x, y), path in self.edge_paths.items():
                cell = ((x ^ y).bit_length() - 1) * side + x
                for a, b in zip(path, path[1:]):
                    try:
                        edge_ids.append(g.edge_index(a, b))
                    except KeyError:
                        raise RuntimeError(f"stored path of cube edge ({x},{y}) steps off "
                                           f"the graph at ({a},{b})") from None
                    cells.append(cell)
            owners = np.array(self.node_owner, dtype=np.intp)
            self._slots = _PathSlots(self.edge_paths, np.array(cells, dtype=np.intp),
                                     np.array(edge_ids, dtype=np.intp),
                                     owners, np.bincount(owners))
        return self._slots


@dataclass
class CubeScheme:
    """The impl-b scheme, and its own hop backend (routing.SchemeBackend): a
    step walks the main cube to a uniform node of the target's border range
    to leave, the shuffle cube to a uniform node among the first w_S(S) to
    spread, so a spread ends exactly on the cluster law, whatever the start."""

    graph: CapacitatedGraph
    tree: DecompositionTree
    c: int
    mains: dict[int, CubeMaps]
    shuffles: dict[int, CubeMaps]

    def _cube(self, step: Step) -> tuple[CubeMaps, int, int]:
        """The cube a step walks and its target node range [lo, hi)."""
        spread, cluster_id, index = step
        maps = (self.shuffles if spread else self.mains)[cluster_id]
        lo, hi = maps.ranges[0 if spread else index]
        if hi == lo:
            raise ValueError(f"cluster {cluster_id} target {index} has no border nodes")
        return maps, lo, hi

    def sample(self, step: Step, v: int,
               rng: np.random.Generator) -> tuple[list[int], int]:
        maps, lo, hi = self._cube(step)
        return _cube_hop(maps, v, lo, hi, rng)

    def loads(self, step: Step, law: Law) -> tuple[Loads, Law]:
        maps, lo, hi = self._cube(step)
        return hypercube_loads(self.graph, maps, law, lo, hi)


# ---------------------------------------------------------------------------
# node assignment
# ---------------------------------------------------------------------------

def _fill_range(out_map: dict[int, int], size: int) -> dict[int, int]:
    """Node counts per vertex: each v gets out(v) first, extras round-robin
    without exceeding 2*out(v)."""
    support = sorted(v for v, o in out_map.items() if o > 0)
    counts = {v: out_map[v] for v in support}
    extras = size - sum(counts.values())
    if not 0 <= extras <= sum(counts.values()):
        raise RuntimeError("rounded range size out of bounds")
    taken = {v: 0 for v in support}
    while extras > 0:
        progressed = False
        for v in support:
            if extras == 0:
                break
            if taken[v] < out_map[v]:
                taken[v] += 1
                counts[v] += 1
                extras -= 1
                progressed = True
        if not progressed:
            raise RuntimeError("range extras exceed the factor-2 headroom")
    return counts


def _spread_leftovers(weights: dict[int, int], amount: int) -> dict[int, int]:
    """Leftover nodes round-robin by descending remaining quota of 4*w(v)."""
    heap = [(-4 * w, v) for v, w in sorted(weights.items()) if w > 0]
    heapq.heapify(heap)
    given: dict[int, int] = {}
    for _ in range(amount):
        if not heap:
            raise RuntimeError("leftover nodes exceed the total 4*w quota")
        neg_quota, v = heapq.heappop(heap)
        given[v] = given.get(v, 0) + 1
        if neg_quota + 1 < 0:
            heapq.heappush(heap, (neg_quota + 1, v))
    return given


def _layout_owners(ranges: list[tuple[int, int]], out_maps: list[dict[int, int]],
                   weights: dict[int, int], total_nodes: int) -> list[int]:
    """Node owners: each range filled from its out-map, in layout order
    (ascending lo), then the leftover nodes spread by cluster weight."""
    owners: list[int] = []
    for (lo, hi), out_map in sorted(zip(ranges, out_maps), key=lambda pair: pair[0]):
        if hi == lo:
            continue
        counts = _fill_range(out_map, hi - lo)
        for v in sorted(counts):
            owners.extend([v] * counts[v])
    leftover = total_nodes - len(owners)
    for v, k in sorted(_spread_leftovers(weights, leftover).items()):
        owners.extend([v] * k)
    if len(owners) != total_nodes:
        raise RuntimeError(f"cube layout holds {len(owners)} nodes, expected {total_nodes}")
    return owners


# ---------------------------------------------------------------------------
# node maps, and embedding both cubes of a cluster as graph paths
# ---------------------------------------------------------------------------

def _cube_edges(node_owner: list[int], d: int) -> Iterator[tuple[int, int, int, int]]:
    """Cube edges (x, y), x < y, whose endpoints map to distinct vertices a, b,
    as (x, y, a, b) in ascending x, then dimension."""
    for x in range(1 << d):
        for k in range(d):
            y = x ^ (1 << k)
            if y > x and node_owner[x] != node_owner[y]:
                yield x, y, node_owner[x], node_owner[y]


def _draw_cube_paths(g: CapacitatedGraph, sol: CMCFSolution, cubes: tuple[CubeMaps, ...],
                     rng: np.random.Generator) -> None:
    """Give every cube edge (x, y) of a cluster's cubes whose owners a, b
    differ one path drawn from the cluster's certification flow between them,
    cube by cube in `_cube_edges` order, one uniform each. The flow stores the
    pair from the smaller id, so the path is reversed where a > b to run from
    owner(x) to owner(y). Both cubes record the busiest edge's expected load
    of these draws (unit capacities), summed from the drawn groups' unit loads."""
    draws = [(maps, x, y, a, b) for maps in cubes
             for x, y, a, b in _cube_edges(maps.node_owner, maps.dimension)]
    pairs = [(min(a, b), max(a, b)) for *_, a, b in draws]
    for (maps, x, y, a, b), path in zip(draws, round_paths(sol, pairs, rng)):
        maps.edge_paths[(x, y)] = path if a < b else path[::-1]
    ids, weights = [], []
    for (s, t), k in Counter(pairs).items():
        e, x = sol.path_groups(s)[t].unit_loads(g)
        ids.append(e)
        weights.append(k * x)
    loads = np.bincount(np.concatenate(ids), np.concatenate(weights), minlength=g.m)
    for maps in cubes:
        maps.fractional_congestion = float(loads.max())


def _node_map(node_owner: list[int], d: int, ranges: list[tuple[int, int]]) -> CubeMaps:
    vertex_nodes: dict[int, list[int]] = {}
    for node, v in enumerate(node_owner):
        vertex_nodes.setdefault(v, []).append(node)
    return CubeMaps(dimension=d, node_owner=node_owner, vertex_nodes=vertex_nodes,
                    ranges=ranges, edge_paths={}, fractional_congestion=0.0)


def build_embedding(tree: DecompositionTree, cluster: Cluster) -> CubeMaps:
    """Main cube of one cluster: border ranges and node map, no paths yet."""
    ranges = _border_ranges([cluster.total_border] +
                            [tree.cluster(cid).total_border for cid in cluster.children])
    d = _ceil_log2(max(hi for _, hi in ranges))
    if (1 << d) > 8 * cluster.total_weight:
        raise RuntimeError(
            f"cluster {cluster.id}: 2^{d} nodes exceed 8*w(S)={8 * cluster.total_weight}; "
            "weight tables are inconsistent")
    out_maps = [tree.target(cluster.id, index).border_weight for index in range(len(ranges))]
    owners = _layout_owners(ranges, out_maps, cluster.cluster_weight, 1 << d)
    return _node_map(owners, d, ranges)


def build_rerand_cube(cluster: Cluster) -> CubeMaps:
    """Shuffle cube node map: first w_S(S) nodes hold exactly w_S(v) per vertex."""
    total = cluster.total_weight
    d = _ceil_log2(total)
    owners: list[int] = []
    support = [v for v in cluster.vertices if cluster.cluster_weight[v] > 0]
    for v in support:
        owners.extend([v] * cluster.cluster_weight[v])
    rest = (1 << d) - total
    k = 0
    while len(owners) < (1 << d):
        owners.append(support[k % len(support)])
        k += 1
    if rest != k:
        raise RuntimeError(f"cluster {cluster.id}: vertex weights do not sum to w(S)")
    return _node_map(owners, d, [(0, total)])


def build_cube_scheme(g: CapacitatedGraph, tree: DecompositionTree,
                      cert: CongestionCertificate, rng: np.random.Generator) -> CubeScheme:
    """Both cubes of every non-singleton cluster, each cube edge embedded as one
    path drawn from the cluster's certification flow; no LP of its own.

    `cert` must hold its solutions (certify_congestion with
    store_solutions=True); its int_value C sizes the path id fields. The paths
    are drawn cluster by cluster in tree order.
    """
    if not g.uniform_capacities():
        raise ValueError("hypercube scheme requires uniform unit edge capacities")
    if cert.solutions is None:
        raise ValueError("hypercube scheme draws its paths from the certification "
                         "flows: certify with store_solutions=True")
    scheme = CubeScheme(graph=g, tree=tree, c=int(cert.int_value), mains={}, shuffles={})
    for cluster in tree.clusters:
        if cluster.size > 1:
            main = scheme.mains[cluster.id] = build_embedding(tree, cluster)
            shuffle = scheme.shuffles[cluster.id] = build_rerand_cube(cluster)
            _draw_cube_paths(g, cert.solutions[cluster.id], (main, shuffle), rng)
    return scheme


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def _bit_fix(a: int, b: int, d: int) -> list[int]:
    """Node sequence from a to b flipping differing coordinates in ascending order."""
    seq = [a]
    cur = a
    for k in range(d):
        if (cur ^ b) & (1 << k):
            cur ^= 1 << k
            seq.append(cur)
    return seq


def _owned_nodes(maps: CubeMaps, v: int) -> list[int]:
    nodes = maps.vertex_nodes.get(v)
    if not nodes:
        raise ValueError(f"vertex {v} owns no cube nodes")
    return nodes


def _cube_hop(maps: CubeMaps, v: int, lo: int, hi: int,
              rng: np.random.Generator) -> tuple[list[int], int]:
    """One-phase cube walk from a uniform node of v straight to a uniform node
    of [lo, hi), with no intermediate node (unlike the paper's two-phase
    routing); the owner of that node is the end vertex."""
    nodes = _owned_nodes(maps, v)
    start = nodes[int(rng.integers(len(nodes)))]
    target = int(rng.integers(lo, hi))
    return hypercube_route(maps, start, target), maps.node_owner[target]


def hypercube_route(maps: CubeMaps, h_from: int, h_to: int) -> list[int]:
    """One-phase cube route, bit fixing from h_from straight to h_to (the
    paper's routing goes through a uniform intermediate node first), realized
    as a graph walk by splicing the stored path of every traversed cube edge."""
    hops = _bit_fix(h_from, h_to, maps.dimension)
    path = [maps.node_owner[h_from]]
    for x, y in zip(hops, hops[1:]):
        a, b = maps.node_owner[x], maps.node_owner[y]
        if a == b:
            continue
        stored = maps.edge_paths[(x, y) if x < y else (y, x)]
        segment = stored if x < y else stored[::-1]
        if segment[0] != path[-1]:
            raise RuntimeError("cube edge path does not continue the walk")
        path.extend(segment[1:])
    return path


@dataclass(frozen=True)
class _WalkIndices:
    """Index arrays that evaluate, for every dimension k of a d-cube at once,
    hypercube_loads' per-k terms; row k of a (d, 2^d) array is dimension k."""

    high_at: np.ndarray     # (d, 2^d): offset of k's block sums + y >> k
    low_bins: np.ndarray    # (d * 2^d,): offset of k's residues + y mod 2^(k+1)
    low_size: int
    low_at: np.ndarray      # (d, 2^d): offset of k's residues + y_<k + (1 - y_k) 2^k
    flip: np.ndarray        # (d * 2^d,): k * 2^d + (y ^ 2^k)


@functools.cache
def _walk_indices(d: int) -> _WalkIndices:
    nodes = np.arange(1 << d)
    ks = np.arange(d)[:, None]
    high_offsets = np.concatenate([[0], np.cumsum([1 << (d - k) for k in range(d)])])
    low_offsets = np.concatenate([[0], np.cumsum([2 << k for k in range(d)])])
    bit = 1 << ks
    arrays = dict(
        high_at=high_offsets[:-1, None] + (nodes >> ks),
        low_bins=(low_offsets[:-1, None] + (nodes & ((2 << ks) - 1))).ravel(),
        low_at=low_offsets[:-1, None] + ((nodes & (bit - 1)) | (~nodes & bit)),
        flip=(ks * (1 << d) + (nodes ^ bit)).ravel())
    for a in arrays.values():
        a.setflags(write=False)     # shared by every cube of dimension d
    return _WalkIndices(low_size=int(low_offsets[-1]), **arrays)


def hypercube_loads(g: CapacitatedGraph, maps: CubeMaps, start_law: Law, lo: int,
                    hi: int) -> tuple[Loads, Law]:
    """Exact expected loads on the edges of g (a vector indexed by edge id)
    of _cube_hop from a vertex drawn from start_law to [lo, hi), and the law
    of its end vertex (a vector indexed by vertex).

    With independent start node x and target t, bit fixing crosses dimension
    k out of node y iff x>>k = y>>k, t agrees with y below k and t_k != y_k,
    with probability P(x>>k = y>>k) P(t mod 2^(k+1) = y_<k + (1 - y_k) 2^k).
    Each crossing of a cube edge loads the edges of its stored graph path:
    one bincount over the cube's path slots (CubeMaps.path_slots) sums every
    graph edge's crossings in edge_paths order. The per-k terms are
    evaluated for every k at once (_walk_indices), with the same operations
    on the same values as one k at a time. O(d 2^d) with numpy.
    """
    d = maps.dimension
    slots = maps.path_slots(g)
    for v in start_law.nonzero()[0].tolist():
        _owned_nodes(maps, v)    # raises for a vertex that owns no node
    # each node gets p(v) / #nodes of its owner v
    start = start_law[slots.owners] / slots.owned[slots.owners]
    target = np.zeros(1 << d)
    target[lo:hi] = 1.0 / (hi - lo)
    walk = _walk_indices(d)
    high = np.concatenate([start.reshape(-1, 1 << k).sum(axis=1) for k in range(d)])
    low = np.bincount(walk.low_bins, np.tile(target, d), minlength=walk.low_size)
    out = (high[walk.high_at] * low[walk.low_at]).ravel()
    crossing = out + out[walk.flip]    # [k * 2^d + y]: either direction of edge {y, y ^ 2^k}
    # astype: a bincount of nothing (a cube with no stored path) is an int array
    loads = np.bincount(slots.edge_ids, crossing[slots.cells],
                        minlength=g.m).astype(float, copy=False)
    ends = np.bincount(slots.owners[lo:hi], np.full(hi - lo, 1.0 / (hi - lo)), minlength=g.n)
    return loads, ends


# ---------------------------------------------------------------------------
# audits and accounting
# ---------------------------------------------------------------------------

def audit_cube_scheme(scheme: CubeScheme) -> list[str]:
    """Check every mapping inequality exactly; empty list means clean."""
    bad: list[str] = []
    tree = scheme.tree
    for cid, maps in scheme.mains.items():
        cluster = tree.cluster(cid)
        if (1 << maps.dimension) > 8 * cluster.total_weight:
            bad.append(f"cluster {cid}: cube larger than 8*w(S)")
        ranged_nodes = 0
        ranged_count: dict[int, int] = {}
        for index, (lo, hi) in enumerate(maps.ranges):
            out_map = tree.target(cid, index).border_weight
            ranged_nodes = max(ranged_nodes, hi)
            counts: dict[int, int] = {}
            for node in range(lo, hi):
                v = maps.node_owner[node]
                counts[v] = counts.get(v, 0) + 1
                ranged_count[v] = ranged_count.get(v, 0) + 1
            for v, k in counts.items():
                out_v = out_map.get(v, 0)
                if not out_v <= k <= 2 * out_v:
                    bad.append(f"cluster {cid} range {index}: vertex {v} "
                               f"holds {k} nodes outside [{out_v}, {2 * out_v}]")
            for v, out_v in out_map.items():
                if out_v > 0 and counts.get(v, 0) < out_v:
                    bad.append(f"cluster {cid} range {index}: vertex {v} "
                               f"holds fewer than {out_v} nodes")
        leftover: dict[int, int] = {}
        for node in range(ranged_nodes, 1 << maps.dimension):
            v = maps.node_owner[node]
            leftover[v] = leftover.get(v, 0) + 1
        for v, k in leftover.items():
            if k > 4 * cluster.cluster_weight[v]:
                bad.append(f"cluster {cid}: vertex {v} holds {k} leftover nodes "
                           f"> 4*w = {4 * cluster.cluster_weight[v]}")
        for v in cluster.vertices:
            total = ranged_count.get(v, 0) + leftover.get(v, 0)
            if total > 8 * cluster.cluster_weight[v]:
                bad.append(f"cluster {cid}: vertex {v} holds {total} nodes "
                           f"> 8*w = {8 * cluster.cluster_weight[v]}")

        shuffle = scheme.shuffles[cid]
        first: dict[int, int] = {}
        for node in range(cluster.total_weight):
            v = shuffle.node_owner[node]
            first[v] = first.get(v, 0) + 1
        for v in cluster.vertices:
            if first.get(v, 0) != cluster.cluster_weight[v]:
                bad.append(f"cluster {cid}: shuffle cube gives vertex {v} "
                           f"{first.get(v, 0)} of the first nodes, "
                           f"expected {cluster.cluster_weight[v]}")

        for cube, maps_ in (("main", maps), ("shuffle", shuffle)):
            crossings: dict[tuple[int, int], int] = {}
            for (x, y), path in maps_.edge_paths.items():
                if path[0] != maps_.node_owner[x] or path[-1] != maps_.node_owner[y]:
                    bad.append(f"cluster {cid}: stored path endpoints disagree "
                               f"with cube edge ({x},{y})")
                for a, b in zip(path, path[1:]):
                    if not scheme.graph.has_edge(a, b):
                        bad.append(f"cluster {cid}: stored path uses missing edge "
                                   f"({a},{b})")
                    crossings[(a, b)] = crossings.get((a, b), 0) + 1
            path_bits = _path_id_bits(maps_, scheme.c)
            for (a, b), k in sorted(crossings.items()):
                if k > 1 << path_bits:
                    bad.append(f"cluster {cid} {cube} cube: {k} stored paths leave "
                               f"{a} for {b}, more than {path_bits}-bit path ids can number")
    return bad


def _path_id_bits(maps: CubeMaps, c: int) -> int:
    """Width of the id that numbers a stored path on its outgoing edge."""
    return max(1, _ceil_log2(max(2, maps.dimension * c)))


def measure_table_bits_b(scheme: CubeScheme) -> TableBits:
    """Bit count of the documented layout per vertex (see module docstring)."""
    g = scheme.graph
    tree = scheme.tree
    weight_cap = 2 * g.m * max(1, g.max_capacity)   # no border total can exceed this
    exp_bits = max(1, _ceil_log2(1 + weight_cap.bit_length()))
    weight_bits = max(1, weight_cap.bit_length())
    id_bits = max(1, _ceil_log2(max(2, len(tree.clusters))))

    # continuation entries: one per stored path per vertex with an outgoing edge
    hits: dict[tuple[int, int, int], int] = {}      # (v, cluster, cube flag) -> paths
    for cid in scheme.mains:
        for flag, maps in enumerate((scheme.mains[cid], scheme.shuffles[cid])):
            for path in maps.edge_paths.values():
                for v in path[:-1]:
                    hits[(v, cid, flag)] = hits.get((v, cid, flag), 0) + 1
    count_bits = max(1, max(hits.values(), default=1).bit_length())

    per_vertex: dict[int, int] = {v: 0 for v in range(g.n)}
    for cid, main in scheme.mains.items():
        r = len(main.ranges) - 1
        block = (r + 1) * exp_bits + r * max(1, _ceil_log2(max(2, r))) + weight_bits
        for v in tree.cluster(cid).vertices:
            per_vertex[v] += block
    for (v, cid, flag), paths in hits.items():
        maps = scheme.mains[cid] if flag == 0 else scheme.shuffles[cid]
        edge_bits = max(1, _ceil_log2(max(2, g.degree(v))))
        header = id_bits + 1 + count_bits
        per_vertex[v] += header + paths * (edge_bits + _path_id_bits(maps, scheme.c))
    return TableBits(per_vertex=per_vertex,
                     max_bits=max(per_vertex.values(), default=0),
                     total_bits=sum(per_vertex.values()))
