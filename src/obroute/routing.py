"""Demand-oblivious routing over a cluster tree: the hop skeleton, the
reference backend, path sampling and exact expected edge loads, for any hop
backend.

A route for (s, t) walks the tree path between the two leaves and crosses
every tree edge on it with one hop. A hop is made of at most two steps, each
a Step (spread, cluster id, target index) that walks inside that cluster:

  leave   (False, c, k)  toward the border law of target k of c: c's own
                         border (k = 0) or its k-th child's
  spread  (True, c, k)   from a vertex on that border law onto c's cluster law

Every backend has two methods: sample(step, v, rng) draws one walk from v,
its path and end vertex, and the exact kernel loads(steps, laws) evaluates a
pass of steps in one call, row i giving the expected edge loads of step i's
walk from a start drawn from laws[i] and the law of its end vertex. Both
resolve a step the same way:

  ReferenceBackend    _end: the law of the far endpoint, the target's border
                      law or the cluster law; a stored path of the cluster's
                      certification flow joins the start to it, drawn from
                      the pair's cmcf.PathGroup
  impl_a.FlowTables   the (cluster, index) flow, walked forward along random
                      links to leave, backward to spread. Its kernel is a
                      closed form: a walk started on the flow's terminal law
                      crosses each arc f/|f| times on average and ends on
                      the opposite terminal law, so it refuses any other
                      start law
  impl_b.CubeScheme   _cube: the main cube and the target's border range to
                      leave, the shuffle cube and its first w_S(S) nodes to
                      spread; each range holds exactly a law's weights

Every hop ends on the exact law of the cluster it enters, and a route starts
on the point law of its source leaf. So the expected loads of a hop depend
only on its tree edge and direction, not on the pair routed, and by linearity
the expected edge loads of a demand set are the sum over hops of the demand
crossing it times the loads of one hop. route_demands computes them that way,
without sampling: hop_loads gives every crossed hop's loads as one row of a
hop matrix, in two backend passes. The first pass evaluates the first step of
every hop, from the law of the cluster the hop leaves; the second the second
step of every two-step hop, from the first pass's end law. Each row adds 0,
then its first step's loads, then its second's. The end law of every first
step of a two-step hop is checked against its child's border law, and the
end law of every hop against the law of the cluster it enters, each in one
array operation.

Loads are float64 arrays over graph edge ids (length g.m) and laws over
vertices (length g.n), a cluster's laws cached by DecompositionTree.law. The
sums are array arithmetic that adds in the order of the plain dict loops, so
every load is the same to the last bit (an edge a term does not touch adds
an exact +0.0): the demand through each hop is one np.bincount per direction
over the leaf paths, sentinel-filled past each leaf, the pairs in sorted order;
each pass's loads are one bincount over graph edge ids offset by row, so each
row adds its own terms in its own step's order (ReferenceBackend over the
pass's pair tables, impl_b over the path slots each cube built with the
scheme, impl_a over the interior arcs of each distinct flow in stored order,
then a row per step); and the edge loads add demand times hop row over the
hops in sorted order.

A cluster's pair table, built on its first step, holds every ordered pair
(u, v), u != v, of its weighted vertices, u ascending, then v ascending, and
the unit loads of each pair's PathGroup, concatenated; each unordered pair's
loads are read once and placed at both of its ordered pairs. A step selects the
pairs with p_u > 0 and q_v > 0 of its start and end laws: the pairs the loop
over both supports visits, in the order it visits them, each term the same
product p·q·x, so the bincount over them adds the same floats in the same
order. A pass concatenates its steps' tables and selects the pairs of every
step at once. A law with mass on a vertex the cluster
does not weight raises.

The reference's stored paths are the certification flows decomposed: the
first read of a source decomposes its flow once, by widest-path extraction
(flows.decompose_by_sink), into one PathGroup per sink. A group holds the
vertex paths and the cumulative sums of their probabilities, which draws
search, and builds its per-unit load on each graph edge id when a pair
table first reads it. Sampling and exact loads read the same paths, so a stored
path that steps off the graph makes route_demands raise.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from obroute.cmcf import CMCFSolution
from obroute.decomposition import DecompositionTree
from obroute.graph import CapacitatedGraph, DemandMatrix

__all__ = ["SchemeBackend", "ReferenceBackend", "LoadReport", "select_path",
           "hop_loads", "route_demands"]

Step = tuple[bool, int, int]                 # (spread, cluster id, target index)
Hop = tuple[bool, int]                       # (downward, child cluster id)

ESTIMATOR = "exact"    # how route_demands obtains loads; reports name it
_LAW_TOL = 1e-9


class SchemeBackend(Protocol):
    """A scheme's hop steps, each as a sampler and as an exact kernel;
    implemented by ReferenceBackend, impl_a.FlowTables and impl_b.CubeScheme.
    A step's index names a target as DecompositionTree.target does. sample
    returns (path, end vertex) of one walk from v. loads evaluates a pass of
    k steps in one call: row i of `laws` (k x n, by vertex) is the law step
    i's start vertex is drawn from, and it returns the expected edge loads of
    the k walks (k x m, by graph edge id) and the laws of their end vertices
    (k x n), float arrays whose row i is what step i gives on its own."""

    def sample(self, step: Step, v: int,
               rng: np.random.Generator) -> tuple[list[int], int]: ...

    def loads(self, steps: Sequence[Step],
              laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


def _extend(path: list[int], seg: list[int]) -> None:
    if seg[0] != path[-1]:
        raise RuntimeError(f"hop segment starts at {seg[0]}, not at the junction "
                           f"{path[-1]}")
    path.extend(seg[1:])


def _ranges(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [first, first + count), concatenated in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts - firsts, counts)


@dataclass(frozen=True)
class _PairTable:
    """Every ordered pair (u, v), u != v, of a cluster's weighted vertices
    (the support of its cluster law), u ascending, then v ascending, and the
    unit loads of each pair's PathGroup, concatenated in pair order."""

    weighted: np.ndarray    # vertex -> whether the cluster weights it
    sources: np.ndarray     # pair -> u
    sinks: np.ndarray       # pair -> v
    lengths: np.ndarray     # pair -> number of its unit-load entries
    ids: np.ndarray         # graph edge ids of every pair's unit loads
    units: np.ndarray       # the unit loads, aligned with ids


class ReferenceBackend:
    """Hops drawn directly from the certification flow solutions."""

    def __init__(self, g: CapacitatedGraph, tree: DecompositionTree,
                 solutions: dict[int, CMCFSolution]):
        self.graph = g
        self.tree = tree
        self.solutions = solutions
        # per (cluster, border), the support of tree.law and its cumulative sums
        self._draws: dict[tuple[int, bool], tuple[list[int], list[float]]] = {}
        self._pairs: dict[int, _PairTable] = {}

    def _draw(self, cluster_id: int, border: bool, rng: np.random.Generator) -> int:
        """A vertex drawn from tree.law(cluster_id, border) by its cumulative sums."""
        key = (cluster_id, border)
        if key not in self._draws:
            law = self.tree.law(cluster_id, border)
            support = law.nonzero()[0]
            self._draws[key] = support.tolist(), np.cumsum(law[support]).tolist()
        values, cum = self._draws[key]
        return values[min(bisect_right(cum, rng.random()), len(values) - 1)]

    def _path_between(self, cluster_id: int, u: int, v: int,
                      rng: np.random.Generator) -> list[int]:
        if u == v:
            return [u]
        # solutions store each unordered pair once, sources below sinks
        group = self.solutions[cluster_id].path_groups(min(u, v))[max(u, v)]
        path = group.draw(rng.random())
        return path if u < v else path[::-1]

    def _pair_table(self, cluster_id: int) -> _PairTable:
        """The cluster's _PairTable, built on its first step. Each unordered
        pair's unit loads are read once, u < v in pair order, into both cells
        (u, v) and (v, u) of a table read row by row."""
        if cluster_id not in self._pairs:
            law = self.tree.law(cluster_id)
            vertices = law.nonzero()[0]
            groups, g = self.solutions[cluster_id].path_groups, self.graph
            vs, k = vertices.tolist(), len(vertices)
            cells: list[list] = [[None] * k for _ in range(k)]    # None on the diagonal
            for i in range(k - 1):
                row = groups(vs[i])
                for j in range(i + 1, k):
                    try:
                        cells[i][j] = cells[j][i] = row[vs[j]].unit_loads(g)
                    except RuntimeError as exc:
                        raise RuntimeError(f"cluster {cluster_id}: {exc}") from None
            pairs = [cell for cells_i in cells for cell in cells_i if cell is not None]
            starts, ends = np.nonzero(~np.eye(k, dtype=bool))
            self._pairs[cluster_id] = _PairTable(
                law > 0, vertices[starts], vertices[ends],
                np.array([len(e) for e, _ in pairs], dtype=np.intp),
                np.concatenate([np.empty(0, np.intp), *(e for e, _ in pairs)]),
                np.concatenate([np.empty(0), *(x for _, x in pairs)]))
        return self._pairs[cluster_id]

    def _between_loads(self, clusters: list[int], starts: np.ndarray,
                       ends: np.ndarray) -> np.ndarray:
        """Row i: expected loads of a stored path of cluster clusters[i]
        between independent draws from starts[i] and ends[i], the sum of
        p·q·x over the cluster's pair table: the pairs with p_u > 0 and
        q_v > 0 in pair order, x the unit loads of the pair's PathGroup. The
        steps' tables are concatenated, and one bincount, offset by row, adds
        every selected entry. Raises if a law has mass off its cluster's
        table."""
        k, m = len(clusters), self.graph.m
        if not k:
            return np.zeros((0, m))
        tables = [self._pair_table(c) for c in clusters]
        weighted = np.array([t.weighted for t in tables])
        # [step, start or end, vertex], the first in step order, then start first
        stray = np.argwhere((np.stack([starts, ends], axis=1) != 0) & ~weighted[:, None])
        if stray.size:
            i, _, v = stray[0]
            raise RuntimeError(f"cluster {clusters[i]}: a law puts mass on vertex {v}, "
                               "which is not a weighted vertex of the cluster")
        # every step's table, concatenated in step order
        sources, sinks, lengths, ids, units = (
            np.concatenate([getattr(t, name) for t in tables])
            for name in ("sources", "sinks", "lengths", "ids", "units"))
        rows = np.repeat(np.arange(k), [len(t.sources) for t in tables])
        p, q = starts[rows, sources], ends[rows, sinks]
        keep = np.flatnonzero((p > 0) & (q > 0))
        entries = _ranges((np.cumsum(lengths) - lengths)[keep], lengths[keep])
        weights = np.repeat((p * q)[keep], lengths[keep]) * units[entries]
        bins = ids[entries] + np.repeat(rows[keep] * m, lengths[keep])
        # astype: a bincount of nothing (no pair kept) is an int array
        return np.bincount(bins, weights, minlength=k * m).astype(float, copy=False).reshape(k, m)

    def _end(self, step: Step) -> tuple[int, bool]:
        """(cluster id, border) of the law a step's far endpoint is drawn
        from: the target's border law to leave, the cluster law to spread."""
        spread, cluster_id, index = step
        if spread:
            return cluster_id, False
        return self.tree.target(cluster_id, index).id, True

    def sample(self, step: Step, v: int,
               rng: np.random.Generator) -> tuple[list[int], int]:
        end = self._draw(*self._end(step), rng)
        return self._path_between(step[1], v, end, rng), end

    def loads(self, steps: Sequence[Step],
              laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ends = np.array([self.tree.law(*self._end(step)) for step in steps]).reshape(laws.shape)
        return self._between_loads([step[1] for step in steps], laws, ends), ends


# ---------------------------------------------------------------------------
# the hop skeleton, shared by the sampler and the exact evaluator
# ---------------------------------------------------------------------------

def _hops(tree: DecompositionTree, s: int, t: int) -> list[Hop]:
    """(downward, child cluster) per tree edge crossed: up from s's leaf to
    the lowest common cluster, then down to t's leaf."""
    up = tree.leaf_path(s)
    down = tree.leaf_path(t)
    shared = 0
    while shared < len(up) and up[shared] == down[shared]:
        shared += 1
    return ([(False, c) for c in reversed(up[shared:])]
            + [(True, c) for c in down[shared:]])


def _steps(tree: DecompositionTree, hop: Hop) -> list[Step]:
    """Steps of the hop across the tree edge above child_id. Upward: leave
    the child toward its own border, then spread over the parent. Downward:
    leave the parent toward the child's border, then spread over the child.
    A singleton child takes no step of its own: it is its own border and its
    own cluster law."""
    downward, child_id = hop
    child = tree.cluster(child_id)
    in_child = [(downward, child_id, 0)] if child.size > 1 else []
    in_parent = [(not downward, child.parent, tree.child_index(child.parent, child_id) + 1)]
    return in_parent + in_child if downward else in_child + in_parent


def select_path(s: int, t: int, tree: DecompositionTree, backend: SchemeBackend,
                rng: np.random.Generator) -> list[int]:
    """One sampled route: up from s's leaf to the lowest common cluster, then
    down to t's leaf. s == t yields the empty path."""
    if s == t:
        return []
    path = [s]
    cur = s
    for hop in _hops(tree, s, t):
        for step in _steps(tree, hop):
            seg, cur = backend.sample(step, cur, rng)
            _extend(path, seg)
    if cur != t or path[-1] != t:
        raise RuntimeError(f"route for ({s},{t}) ended at {cur}")
    return path


def _sides(tree: DecompositionTree, hop: Hop) -> tuple[int, int]:
    """(cluster the hop leaves, cluster it enters)."""
    downward, child_id = hop
    parent_id = tree.cluster(child_id).parent
    return (parent_id, child_id) if downward else (child_id, parent_id)


def hop_loads(tree: DecompositionTree, backend: SchemeBackend,
              hops: Sequence[Hop]) -> np.ndarray:
    """Exact expected loads of each hop started on the law of the cluster it
    leaves: a len(hops) x m matrix whose row i adds 0, then the loads of hop
    i's first step, then those of its second. Two backend passes: the first
    steps of every hop from the laws of the clusters they leave, then the
    second steps of the two-step hops from the first pass's end laws. Raises
    for the first two-step hop, in the order given, whose first step does
    not end on its child's border law, then for the first hop that does not
    end on the law of the cluster it enters."""
    n = tree.cluster(tree.root).size
    steps = [_steps(tree, hop) for hop in hops]
    sides = [_sides(tree, hop) for hop in hops]
    starts = np.array([tree.law(leaves) for leaves, _ in sides]).reshape(len(hops), n)
    first, ends = backend.loads([s[0] for s in steps], starts)
    loads = np.zeros(first.shape)
    loads += first
    two = [i for i, s in enumerate(steps) if len(s) == 2]
    if two:
        # the first step of a two-step hop leaves toward its child's border
        borders = np.array([tree.law(hops[i][1], True) for i in two])
        if (off := _first_off(ends[two], borders)) is not None:
            (downward, child_id), gap = hops[two[off[0]]], off[1]
            raise RuntimeError(f"hop {'into' if downward else 'out of'} cluster {child_id} "
                               f"ends its first step {gap:.3g} away from the law of "
                               f"cluster {child_id}'s border")
        second, later = backend.loads([steps[i][1] for i in two], ends[two])
        loads[two] += second
        ends = ends.copy()
        ends[two] = later
    laws = np.array([tree.law(enters) for _, enters in sides]).reshape(len(hops), n)
    if (off := _first_off(ends, laws)) is not None:
        (downward, child_id), (_, enters) = hops[off[0]], sides[off[0]]
        raise RuntimeError(f"hop {'into' if downward else 'out of'} cluster {child_id} "
                           f"ends {off[1]:.3g} away from the law of cluster {enters}")
    return loads


def _first_off(ends: np.ndarray, laws: np.ndarray) -> tuple[int, float] | None:
    """The first row whose end law is more than _LAW_TOL from its law in
    some vertex, and that distance; None if there is none."""
    gaps = np.abs(ends - laws).max(axis=1, initial=0.0)
    failed = np.flatnonzero(gaps > _LAW_TOL)
    return (int(failed[0]), float(gaps[failed[0]])) if failed.size else None


def _through(tree: DecompositionTree, n: int,
             entries: dict[tuple[int, int], float]) -> dict[Hop, float]:
    """Demand crossing each tree edge per direction, keyed (downward, child
    cluster) in sorted order. A pair (s, t) crosses upward the clusters of s's
    leaf path below the deepest one it shares with t's, and downward those of
    t's; each sum runs over the pairs in sorted order, one bincount per
    direction over an n x (height + 1) array of leaf paths, each filled out
    past its leaf with the sentinel id len(tree.clusters), whose bin is
    dropped. `entries` are a DemandMatrix's."""
    if not entries:
        return {}
    sources, sinks, demand = zip(*((s, t, d) for (s, t), d in sorted(entries.items())))
    sentinel = len(tree.clusters)
    paths = np.array([path + [sentinel] * (tree.height + 1 - len(path))
                      for path in map(tree.leaf_path, range(n))])
    up, down = paths[list(sources)], paths[list(sinks)]
    shared = np.logical_and.accumulate(up == down, axis=1).sum(axis=1, keepdims=True)
    crossed = np.arange(paths.shape[1]) >= shared
    weight = np.broadcast_to(np.array(demand, dtype=float)[:, None], up.shape)[crossed]
    through: dict[Hop, float] = {}
    for downward, side in ((False, up), (True, down)):
        sums = np.bincount(side[crossed], weight, minlength=sentinel + 1)[:sentinel]
        hit = np.flatnonzero(sums)
        through.update(zip(((downward, c) for c in hit.tolist()), sums[hit].tolist()))
    return through


@dataclass
class LoadReport:
    """Exact expected per-edge loads, and the per-hop terms they sum:
    `through` holds the demand crossing each hop in sorted hop order and
    row i of `hop_loads` the loads of one crossing of the i-th (hop_loads).
    edge_stderr is kept for readers of the load table; it is 0.0 for every
    loaded edge."""

    edge_loads: dict[tuple[int, int], float]
    edge_stderr: dict[tuple[int, int], float]
    edge_caps: dict[tuple[int, int], int]
    congestion: float
    through: dict[Hop, float]
    hop_loads: np.ndarray


def route_demands(g: CapacitatedGraph, tree: DecompositionTree,
                  backend: SchemeBackend, demands: DemandMatrix | dict,
                  samples: int = 1000, seed: int = 0) -> LoadReport:
    """Exact expected edge loads of routing every demand pair obliviously.

    `demands` must pass g.check_demands, or ValueError is raised. Sums the
    demand crossing each tree edge in each direction (_through), then adds
    that times the exact loads of one crossing (hop_loads), hop by hop in
    sorted order. Edges no hop loads are left out of edge_loads. No paths are
    sampled: `samples` and `seed` are ignored and kept only so that existing
    callers still work.
    """
    demands = g.check_demands(demands)
    through = _through(tree, g.n, demands.entries)
    rows = hop_loads(tree, backend, list(through))
    totals = np.zeros(g.m)
    for d, row in zip(through.values(), rows):
        totals += d * row
    hit = np.flatnonzero(totals)
    loads = {g.edges[i][:2]: x for i, x in zip(hit.tolist(), totals[hit].tolist())}

    caps = {(u, v) if u < v else (v, u): c for u, v, c in g.edges}
    worst = max((load / caps[edge] for edge, load in loads.items()), default=0.0)
    return LoadReport(edge_loads=loads,
                      edge_stderr={edge: 0.0 for edge in loads},
                      edge_caps=caps,
                      congestion=worst,
                      through=through,
                      hop_loads=rows)
