"""Hypercube routing scheme for unit-capacity graphs.

Every non-singleton cluster S carries two hypercubes embedded into G[S],
each laid out from weight runs (_weight_cube): range k of a cube holds
exactly run_k(v) nodes of each vertex v, in id order, the ranges sit back to
back from node 0, and the padding up to the next power of two repeats the
cluster-weight run (w_S(v) nodes of each v in id order) as often as needed.

  main cube     one range per target index: the cluster's own border
                (index 0), then the k-th child's border (index k). Hopping
                to a uniform node of a range ends exactly on that border law.
  shuffle cube  one range, the cluster weights: hopping to a uniform node of
                it ends exactly on the cluster law, where every hop must
                end (see routing).

Every vertex's child border is its cluster weight and its own border is at
most that, so a main cube's ranges hold at most 2 w_S(S) nodes, the padding
is shorter than two cluster-weight runs, and no vertex holds more than
4 w_S(v) nodes of either cube.

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

The build turns the stored paths of all its cubes into path slots in one
array pass (_path_slots): one slot per arc of every path, in edge_paths order,
holding its cube edge's (dimension, node) cell, its graph edge id (-1 for an
arc off the graph, on which the exact kernel raises and which the audit
reports) and its tail and head. The exact kernel (hypercube_loads)
evaluates a pass of walks a cube dimension at a time and bins the crossings
of all of them over their slots; path_id_bits and the audit count the slots
on each arc, and measure_table_bits_b counts the slots leaving each vertex.
A cube's slots are rebuilt, by the same function, when edge_paths or any
entry of it is replaced (CubeMaps.path_slots), and its node map
(CubeMaps.node_map, which the sampler and the kernel both read) when
node_owner is, so every reader sees an edited path or node map.

Per-vertex table layout (bit-exact accounting):

  sizes block, one per containing non-singleton cluster S with r children:
      (r+1) weight fields     (2*m*W).bit_length() bits each: the border
                              totals, own then children in tree order, so
                              range k of the main cube starts at the sum of
                              the fields before k
  path groups, one per (cluster, cube) whose stored paths traverse v:
      header                  cluster id + 1 cube flag bit + entry count
      one entry per path      outgoing edge index (ceil(log2 deg(v)) bits)
                              + path id on that edge (path_id_bits);
                              hop-by-hop continuation, so mid-path vertices
                              need no cube-edge key

The count field width is the build-wide constant ceil(log2(1+max entries in
any group)), and path_id_bits the build-wide ceil(log2) of the most stored
paths leaving one vertex on one edge within one cube.
"""
from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from obroute.cmcf import CMCFSolution, round_paths
from obroute.decomposition import Cluster, CongestionCertificate, DecompositionTree
from obroute.graph import CapacitatedGraph
from obroute.impl_a import TableBits, _cluster_id_bits
from obroute.routing import Step, pass_laws

__all__ = ["CubeMaps", "CubeScheme", "build_embedding", "build_rerand_cube",
           "build_cube_scheme", "hypercube_route", "hypercube_loads",
           "audit_cube_scheme", "measure_table_bits_b"]


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


@dataclass
class _PathSlots:
    """A cube's stored paths as arrays: one slot per arc (tail, head) of
    every path, in edge_paths order, holding the (dimension, node) cell of
    the slot's cube edge, flattened as k * 2^d + x, the arc's graph edge id
    (-1 for an arc that is no edge of the graph), and its tail and head. The
    exact kernel, path_id_bits, the audit and the table bits all read these
    arrays."""

    edge_paths: dict[tuple[int, int], list[int]]   # the dict the slots were built from
    paths: list[list[int]]                         # its values when they were built
    cells: np.ndarray
    edge_ids: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    path_ends: np.ndarray                          # path -> slot past its last arc

    def arcs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct arcs in ascending (tail, head) order, keyed
        tail * n + head for an n-vertex graph, and the slots on each."""
        return np.unique(self.tails * n + self.heads, return_counts=True)


@dataclass(frozen=True)
class _NodeMap:
    """A cube's node owners over the vertices of a graph: as arrays for the
    exact kernel, and as each vertex's nodes for the sampler."""

    node_owner: list[int]                  # the list the map was built from
    owners: np.ndarray                     # node -> owner
    owned: np.ndarray                      # vertex -> number of nodes it owns
    vertex_nodes: dict[int, list[int]]     # vertex -> its nodes, ascending


@dataclass
class CubeMaps:
    dimension: int
    node_owner: list[int]
    ranges: list[tuple[int, int]]                  # target index -> node range [lo, hi)
    edge_paths: dict[tuple[int, int], list[int]]   # cube edge (x<y) -> graph path
    fractional_congestion: float                   # expected, of the cluster's draws
    _slots: _PathSlots | None = field(default=None, repr=False, compare=False)
    _nodes: _NodeMap | None = field(default=None, repr=False, compare=False)

    def node_map(self, n: int) -> _NodeMap:
        """The _NodeMap of node_owner over n vertices, rebuilt when
        node_owner is replaced (compared by identity)."""
        if self._nodes is None or self._nodes.node_owner is not self.node_owner:
            owners = np.array(self.node_owner, dtype=np.intp)
            vertex_nodes: dict[int, list[int]] = {}
            for node, v in enumerate(self.node_owner):
                vertex_nodes.setdefault(v, []).append(node)
            self._nodes = _NodeMap(self.node_owner, owners, np.bincount(owners, minlength=n),
                                   vertex_nodes)
        return self._nodes

    def path_slots(self, g: CapacitatedGraph) -> _PathSlots:
        """The slot arrays of edge_paths in g, rebuilt (_path_slots) when
        edge_paths or any of its entries is replaced (compared by identity)."""
        slots = self._slots
        if (slots is None or slots.edge_paths is not self.edge_paths
                or len(slots.paths) != len(self.edge_paths)
                or not all(map(operator.is_, slots.paths, self.edge_paths.values()))):
            slots = self._slots = _path_slots(g, [self])[0]
        return slots


def _path_slots(g: CapacitatedGraph, cubes: Sequence[CubeMaps]) -> list[_PathSlots]:
    """Each cube's _PathSlots of its edge_paths in g, built for all the cubes
    in one array pass over their paths concatenated. An arc's graph edge id
    is found by one sorted-key search over g's edges, each keyed
    min * n + max of its endpoints."""
    n, m = g.n, g.m
    counts = [len(maps.edge_paths) for maps in cubes]
    paths = [path for maps in cubes for path in maps.edge_paths.values()]
    lengths = np.fromiter(map(len, paths), np.intp, len(paths))
    vertices = np.fromiter(itertools.chain.from_iterable(paths), np.intp, int(lengths.sum()))
    # slot i is the arc from vertex at[i] of the concatenated paths to the next:
    # every vertex but the last of its path
    at = np.delete(np.arange(len(vertices)), np.cumsum(lengths) - 1)
    tails, heads = vertices[at], vertices[at + 1]
    # each path's cube edge (x, y), and the side 2^d of its cube; the edge's
    # dimension (x ^ y).bit_length() - 1 is frexp's exponent of x ^ y, less one
    xy = np.fromiter(itertools.chain.from_iterable(
        itertools.chain.from_iterable(maps.edge_paths for maps in cubes)),
        np.intp, 2 * len(paths)).reshape(-1, 2)
    side = np.repeat(np.array([1 << maps.dimension for maps in cubes], dtype=np.intp), counts)
    cells = np.repeat((np.frexp(xy[:, 0] ^ xy[:, 1])[1] - 1) * side + xy[:, 0], lengths - 1)
    keys = np.fromiter((min(u, v) * n + max(u, v) for u, v, _ in g.edges), np.intp, m)
    order = np.argsort(keys)
    low, high = np.minimum(tails, heads), np.maximum(tails, heads)
    arc_keys = low * n + high
    found = order[np.minimum(np.searchsorted(keys, arc_keys, sorter=order), m - 1)]
    # a key is an edge's only if both ends are vertices
    edge_ids = np.where((keys[found] == arc_keys) & (low >= 0) & (high < n), found, -1)
    # back into cubes: the paths of cube i are [path_cut[i], path_cut[i + 1])
    slot_ends = np.cumsum(lengths - 1)
    path_cut = np.cumsum([0, *counts])
    slot_cut = np.concatenate([[0], slot_ends])[path_cut]
    slots = []
    for i, maps in enumerate(cubes):
        lo, hi = slot_cut[i], slot_cut[i + 1]
        slots.append(_PathSlots(maps.edge_paths, list(maps.edge_paths.values()),
                                cells[lo:hi], edge_ids[lo:hi], tails[lo:hi], heads[lo:hi],
                                slot_ends[path_cut[i]:path_cut[i + 1]] - lo))
    return slots


@dataclass
class CubeScheme:
    """The impl-b scheme, and its own hop backend (routing.SchemeBackend): a
    step walks the main cube to a uniform node of the target's border range
    to leave, the shuffle cube to a uniform node among the first w_S(S) to
    spread, so each ends exactly on its law, whatever the start; loads(steps)
    evaluates a pass in one hypercube_loads call, each walk from its start law."""

    graph: CapacitatedGraph
    tree: DecompositionTree
    path_id_bits: int                   # width of a stored path's id on its edge
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
        return _cube_hop(maps, self.graph.n, v, lo, hi, rng)

    def loads(self, steps: Sequence[Step]) -> tuple[np.ndarray, np.ndarray]:
        return hypercube_loads(self.graph, [self._cube(step) for step in steps],
                               pass_laws(self.tree, steps))


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


def _weight_cube(runs: list[dict[int, int]], cluster: Cluster) -> CubeMaps:
    """Node map of a cube laid out from weight runs (module docstring): range
    k holds runs[k][v] nodes of each v in id order, back to back, and the
    padding repeats the cluster-weight run; no paths yet."""
    node_owner: list[int] = []
    ranges: list[tuple[int, int]] = []
    for run in runs:
        lo = len(node_owner)
        for v in sorted(run):
            node_owner.extend([v] * run[v])
        ranges.append((lo, len(node_owner)))
    d = _ceil_log2(len(node_owner))
    if (1 << d) > 4 * cluster.total_weight:
        raise RuntimeError(
            f"cluster {cluster.id}: 2^{d} nodes exceed 4*w(S)={4 * cluster.total_weight}; "
            "weight tables are inconsistent")
    padding = [v for v in sorted(cluster.cluster_weight)
               for _ in range(cluster.cluster_weight[v])]
    node_owner.extend(itertools.islice(itertools.cycle(padding), (1 << d) - len(node_owner)))
    return CubeMaps(dimension=d, node_owner=node_owner, ranges=ranges, edge_paths={},
                    fractional_congestion=0.0)


def _border_runs(tree: DecompositionTree, cluster: Cluster) -> list[dict[int, int]]:
    """The main cube's runs: the cluster's border, then its children's."""
    return [cluster.border_weight,
            *(tree.cluster(cid).border_weight for cid in cluster.children)]


def build_embedding(tree: DecompositionTree, cluster: Cluster) -> CubeMaps:
    """Main cube of one cluster: border ranges and node map, no paths yet."""
    return _weight_cube(_border_runs(tree, cluster), cluster)


def build_rerand_cube(cluster: Cluster) -> CubeMaps:
    """Shuffle cube of one cluster: one range of the cluster weights."""
    return _weight_cube([cluster.cluster_weight], cluster)


def build_cube_scheme(g: CapacitatedGraph, tree: DecompositionTree,
                      cert: CongestionCertificate, rng: np.random.Generator) -> CubeScheme:
    """Both cubes of every non-singleton cluster, each cube edge embedded as one
    path drawn from the cluster's certification flow; no LP of its own.

    `cert` must hold its solutions (certify_congestion with
    store_solutions=True). The paths are drawn cluster by cluster in tree
    order, and each cube's node map and path slots built once; path_id_bits
    then numbers the most paths any cube stores on one arc.
    """
    if not g.uniform_capacities():
        raise ValueError("hypercube scheme requires uniform unit edge capacities")
    if cert.solutions is None:
        raise ValueError("hypercube scheme draws its paths from the certification "
                         "flows: certify with store_solutions=True")
    scheme = CubeScheme(graph=g, tree=tree, path_id_bits=1, mains={}, shuffles={})
    for cluster in tree.clusters:
        if cluster.size > 1:
            main = scheme.mains[cluster.id] = build_embedding(tree, cluster)
            shuffle = scheme.shuffles[cluster.id] = build_rerand_cube(cluster)
            _draw_cube_paths(g, cert.solutions[cluster.id], (main, shuffle), rng)
    cubes = (*scheme.mains.values(), *scheme.shuffles.values())
    for maps, slots in zip(cubes, _path_slots(g, cubes)):
        maps.node_map(g.n)
        maps._slots = slots
    most = max((int(maps.path_slots(g).arcs(g.n)[1].max(initial=1)) for maps in cubes),
               default=1)
    scheme.path_id_bits = max(1, _ceil_log2(most))
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


def _cube_hop(maps: CubeMaps, n: int, v: int, lo: int, hi: int,
              rng: np.random.Generator) -> tuple[list[int], int]:
    """One-phase cube walk from a uniform node of v (in the node map over n
    vertices) straight to a uniform node of [lo, hi), with no intermediate
    node (unlike the paper's two-phase routing); its owner is the end vertex."""
    nodes = maps.node_map(n).vertex_nodes.get(v)
    if not nodes:
        raise ValueError(f"vertex {v} owns no cube nodes")
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


def hypercube_loads(g: CapacitatedGraph, walks: Sequence[tuple[CubeMaps, int, int]],
                    start_laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i: the exact expected loads on the edges of g (indexed by edge id)
    of _cube_hop in walks[i] = (cube, lo, hi) from a vertex drawn from
    start_laws[i] (indexed by vertex) to [lo, hi), and the law of its end
    vertex; k x m and k x n arrays for k walks.

    With independent start node x and target t, bit fixing crosses dimension
    k out of node y iff x>>k = y>>k, t agrees with y below k and t_k != y_k,
    with probability P(x>>k = y>>k) P(t mod 2^(k+1) = y_<k + (1 - y_k) 2^k).
    Each crossing of a cube edge loads the edges of its stored graph path.
    The walks are evaluated a cube dimension d at a time, and within it one
    coordinate at a time for every walk on a d-cube at once, with the same
    operations on the same values as one walk. One bincount over the path slots
    (CubeMaps.path_slots) of every walk, offset by row, sums each graph
    edge's crossings in edge_paths order. O(d 2^d) per walk with numpy.
    """
    k, m, n = len(walks), g.m, g.n
    cubes = {id(maps): maps for maps, _, _ in walks}
    cube_slots = {key: maps.path_slots(g) for key, maps in cubes.items()}
    for key, maps in cubes.items():
        s = cube_slots[key]
        off = np.flatnonzero(s.edge_ids < 0)
        if off.size:
            dim, x = divmod(int(s.cells[off[0]]), 1 << maps.dimension)
            raise RuntimeError(f"stored path of cube edge ({x},{x ^ (1 << dim)}) steps off "
                               f"the graph at ({s.tails[off[0]]},{s.heads[off[0]]})")
    slots = [cube_slots[id(maps)] for maps, _, _ in walks]
    node_maps = [maps.node_map(n) for maps, _, _ in walks]
    owned = np.array([nodes.owned for nodes in node_maps]).reshape(k, n)
    lost = np.argwhere((start_laws != 0) & (owned == 0))
    if lost.size:
        raise ValueError(f"vertex {lost[0, 1]} owns no cube nodes")
    by_dimension: dict[int, list[int]] = {}
    for i, (maps, _, _) in enumerate(walks):
        by_dimension.setdefault(maps.dimension, []).append(i)
    load_bins, load_weights, end_bins, end_weights = [], [], [], []
    for d, rows in by_dimension.items():
        r = len(rows)
        owners = np.array([node_maps[i].owners for i in rows])
        # each node gets p(v) / #nodes of its owner v
        start = (np.take_along_axis(start_laws[rows], owners, axis=1)
                 / np.take_along_axis(owned[rows], owners, axis=1))
        lo, hi = (np.array([walks[i][j] for i in rows]) for j in (1, 2))
        nodes = np.arange(1 << d)
        target = np.where((nodes >= lo[:, None]) & (nodes < hi[:, None]),
                          (1.0 / (hi - lo))[:, None], 0.0)
        # per dimension j, [row, y]: either direction of edge {y, y ^ 2^j}
        crossing = []
        for j in range(d):
            bit = 1 << j
            high = start.reshape(r, -1, bit).sum(axis=2)
            low = np.bincount(((nodes & (2 * bit - 1)) + 2 * bit * np.arange(r)[:, None]).ravel(),
                              target.ravel(), minlength=2 * bit * r).reshape(r, 2 * bit)
            out = high[:, nodes >> j] * low[:, (nodes & (bit - 1)) | (~nodes & bit)]
            crossing.append(out + out[:, nodes ^ bit])
        crossing = np.concatenate([np.empty((r, 0)), *crossing], axis=1)
        # every walk's slots in row order, each walk's in slot order
        sizes, at = [len(slots[i].cells) for i in rows], np.array(rows)
        load_bins.append(np.concatenate([slots[i].edge_ids for i in rows])
                         + np.repeat(at * m, sizes))
        load_weights.append(crossing[np.repeat(np.arange(r), sizes),
                                     np.concatenate([slots[i].cells for i in rows])])
        hit, node = np.nonzero(target)
        end_bins.append(owners[hit, node] + at[hit] * n)
        end_weights.append(target[hit, node])
    # astype: a bincount of nothing (no walk, or no stored path) is an int array
    loads, ends = (
        np.bincount(np.concatenate([np.empty(0, np.intp), *bins]),
                    np.concatenate([np.empty(0), *weights]),
                    minlength=k * size).astype(float, copy=False).reshape(k, size)
        for bins, weights, size in ((load_bins, load_weights, m), (end_bins, end_weights, n)))
    return loads, ends


# ---------------------------------------------------------------------------
# audits and accounting
# ---------------------------------------------------------------------------

def audit_cube_scheme(scheme: CubeScheme) -> list[str]:
    """Check every mapping rule exactly; empty list means clean."""
    bad: list[str] = []
    tree, n = scheme.tree, scheme.graph.n
    for cid, main in scheme.mains.items():
        cluster = tree.cluster(cid)
        shuffle = scheme.shuffles[cid]
        for cube, maps, runs in (("main", main, _border_runs(tree, cluster)),
                                 ("shuffle", shuffle, [cluster.cluster_weight])):
            if len(maps.ranges) != len(runs):
                bad.append(f"cluster {cid} {cube} cube: {len(maps.ranges)} ranges, "
                           f"expected {len(runs)}")
            for index, ((lo, hi), run) in enumerate(zip(maps.ranges, runs)):
                held = Counter(maps.node_owner[lo:hi])
                for v in sorted(held.keys() | run.keys()):
                    if held[v] != run.get(v, 0):
                        bad.append(f"cluster {cid} {cube} cube range {index}: vertex {v} "
                                   f"holds {held[v]} nodes, expected {run.get(v, 0)}")
            for v, k in sorted(Counter(maps.node_owner).items()):
                if k > 4 * cluster.cluster_weight.get(v, 0):
                    bad.append(f"cluster {cid} {cube} cube: vertex {v} holds {k} nodes "
                               f"> 4*w = {4 * cluster.cluster_weight.get(v, 0)}")
            slots = maps.path_slots(scheme.graph)
            # the slots off the graph (edge id -1), grouped by the path they are on
            missing: dict[int, list[str]] = {}
            for s in np.flatnonzero(slots.edge_ids < 0).tolist():
                missing.setdefault(int(np.searchsorted(slots.path_ends, s, side="right")),
                                   []).append(f"cluster {cid}: stored path uses missing "
                                              f"edge ({slots.tails[s]},{slots.heads[s]})")
            for i, ((x, y), path) in enumerate(maps.edge_paths.items()):
                if path[0] != maps.node_owner[x] or path[-1] != maps.node_owner[y]:
                    bad.append(f"cluster {cid}: stored path endpoints disagree "
                               f"with cube edge ({x},{y})")
                bad += missing.get(i, [])
            for arc, k in zip(*(a.tolist() for a in slots.arcs(n))):
                if k > 1 << scheme.path_id_bits:
                    bad.append(f"cluster {cid} {cube} cube: {k} stored paths leave "
                               f"{arc // n} for {arc % n}, more than "
                               f"{scheme.path_id_bits}-bit path ids can number")
    return bad


def measure_table_bits_b(scheme: CubeScheme) -> TableBits:
    """Bit count of the documented layout per vertex (see module docstring)."""
    g = scheme.graph
    tree = scheme.tree
    weight_cap = 2 * g.m * max(1, g.max_capacity)   # no border total can exceed this
    weight_bits = max(1, weight_cap.bit_length())
    id_bits = _cluster_id_bits(tree)

    # continuation entries: one per stored path per vertex with an outgoing
    # edge, so a vertex's count in a cube is the number of slots it is the tail of
    hits: dict[tuple[int, int, int], int] = {}      # (v, cluster, cube flag) -> paths
    for cid in scheme.mains:
        for flag, maps in enumerate((scheme.mains[cid], scheme.shuffles[cid])):
            paths = np.bincount(maps.path_slots(g).tails, minlength=g.n)
            for v in paths.nonzero()[0].tolist():
                hits[(v, cid, flag)] = int(paths[v])
    count_bits = max(1, max(hits.values(), default=1).bit_length())

    per_vertex: dict[int, int] = {v: 0 for v in range(g.n)}
    for cid, main in scheme.mains.items():
        block = len(main.ranges) * weight_bits
        for v in tree.cluster(cid).vertices:
            per_vertex[v] += block
    for (v, cid, flag), paths in hits.items():
        edge_bits = max(1, _ceil_log2(max(2, g.degree(v))))
        header = id_bits + 1 + count_bits
        per_vertex[v] += header + paths * (edge_bits + scheme.path_id_bits)
    return TableBits(per_vertex=per_vertex,
                     max_bits=max(per_vertex.values(), default=0),
                     total_bits=sum(per_vertex.values()))
