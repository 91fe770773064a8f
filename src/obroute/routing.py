"""Demand-oblivious routing over a cluster tree: the hop skeleton, the
reference backend, path sampling and exact expected edge loads, for any hop
backend.

A route for (s, t) walks the tree path between the two leaves and crosses
every tree edge on it with one hop. A hop is made of at most two steps, each
a Step (spread, cluster id, target index) that walks inside that cluster
between two fixed laws (step_laws):

  leave   (False, c, k)  from c's cluster law to the border law of target k
                         of c: c's own border (k = 0) or its k-th child's
  spread  (True, c, k)   from that border law back onto c's cluster law

Every backend has two methods: sample(step, v, rng) draws one walk from v,
its path and end vertex, and the exact kernel loads(steps) evaluates a pass
of steps in one call, row i giving the expected edge loads of step i's walk
from a start drawn from its start law, and the law of its end vertex. Both
resolve a step the same way:

  ReferenceBackend    a stored path of the cluster's certification flow
                      joins the start to a far endpoint drawn from the
                      step's end law, from the pair's cmcf.PathGroup
  impl_a.FlowTables   the (cluster, index) flow, walked forward along random
                      links to leave, backward to spread. Its kernel is a
                      closed form: a walk started on the flow's terminal law
                      crosses each arc f/|f| times on average and ends on
                      the opposite terminal law, so it raises if that
                      terminal law is not the step's start law
  impl_b.CubeScheme   _cube: the main cube and the target's border range to
                      leave, the shuffle cube and its first w_S(S) nodes to
                      spread; each range holds exactly a law's weights

A hop's first step starts on the law of the cluster it leaves, its second
starts on the law its first ends on, and its last ends on the law of the
cluster it enters, and a route starts on the point law of its source leaf.
So the expected loads of a hop depend only on its tree edge and direction,
not on the pair routed, and by linearity the expected edge loads of a demand
set are the sum over hops of the demand crossing it times the loads of one
hop. route_demands computes them that way, without sampling: hop_loads gives
every crossed hop's loads as one row of a hop matrix, in one backend pass
over the steps of every hop. Each row adds 0, then its first step's loads,
then its second's, and every step's end law is checked against its
step_laws end law in one array operation.

Loads are float64 arrays over graph edge ids (length g.m) and laws over
vertices (length g.n). A cluster's laws are rows of the tree's one law
matrix (DecompositionTree.law), and pass_laws gathers a pass's laws from it
in one indexing step. The sums are array arithmetic that adds in the order
of the plain dict loops, so every load is the same to the last bit (an edge
a term does not touch adds an exact +0.0): the demand through each hop is
one np.bincount per direction over the leaf paths, sentinel-filled past each
leaf, the pairs sorted as arrays; a pass's loads are one bincount over
graph edge ids offset by row, so each row adds its own terms in its own
step's order (impl_b over the path slots built with the scheme, impl_a over
the interior arcs of each distinct flow in stored order, then a row per
step), or for ReferenceBackend its vertex rows added as below; and the edge
loads are one np.add.reduce over axis 0 of demand times hop row, which on
the C-ordered rows adds row after row, in sorted hop order, as the loop
totals += d * row does.

A reference step in cluster c walks between c's cluster law π and one
border law β, so its loads Σ_u Σ_v p_u q_v x_uv (x_uv = x_vu, the unit loads
of the pair's PathGroup) are β · R_c for a leave and a spread step alike, row
v of c's vertex rows R_c being Σ_u π_u x_uv. A pass builds the vertex rows of
the clusters it steps into first in one bincount, reading each unordered pair
once and adding each row's terms over u ascending, then adds β_v R_v row
after row, in vertex order, by one np.add.reduce per cluster. So a hop up a
tree edge has the same row as the hop down it, to the last bit. A border law
with mass on a vertex its cluster does not weight raises.

The reference's stored paths are read off the certification solutions:
each source's demand rides a weighted mixture of shortest-path trees, and
the first read of a source turns its trees once (flows.decompose_by_sink)
into one PathGroup per sink, the tree paths to it in tree order, identical
ones merged. A group holds the vertex paths and the cumulative sums of
their probabilities, which draws search, and builds its per-unit load on each graph edge id when its
cluster's vertex rows first read it. Sampling and exact loads read the same
paths, so a stored path that steps off the graph makes route_demands raise.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from obroute.cmcf import CMCFSolution
from obroute.decomposition import DecompositionTree
from obroute.graph import CapacitatedGraph, DemandMatrix

__all__ = ["SchemeBackend", "ReferenceBackend", "LoadReport", "step_laws", "pass_laws",
           "select_path", "hop_loads", "route_demands"]

Step = tuple[bool, int, int]                 # (spread, cluster id, target index)
Hop = tuple[bool, int]                       # (downward, child cluster id)

ESTIMATOR = "exact"    # how route_demands obtains loads; reports name it
_LAW_TOL = 1e-9


class SchemeBackend(Protocol):
    """A scheme's hop steps, each as a sampler and as an exact kernel;
    implemented by ReferenceBackend, impl_a.FlowTables and impl_b.CubeScheme.
    A step's index names a target as DecompositionTree.target does. sample
    returns (path, end vertex) of one walk from v. loads evaluates a pass of
    k steps in one call, each walk started on its step's start law
    (step_laws), and returns the expected edge loads of the k walks (k x m,
    by graph edge id) and the laws of their end vertices (k x n), float
    arrays whose row i is what step i gives on its own."""

    def sample(self, step: Step, v: int,
               rng: np.random.Generator) -> tuple[list[int], int]: ...

    def loads(self, steps: Sequence[Step]) -> tuple[np.ndarray, np.ndarray]: ...


def step_laws(tree: DecompositionTree, step: Step) -> tuple[tuple[int, bool], tuple[int, bool]]:
    """The (cluster id, border) keys of tree.law that a step starts and ends
    on: a leave step (False, c, k) walks from c's cluster law to the border
    law of target k of c, a spread step (True, c, k) the other way."""
    spread, cluster_id, index = step
    own, border = (cluster_id, False), (tree.target(cluster_id, index).id, True)
    return (border, own) if spread else (own, border)


def pass_laws(tree: DecompositionTree, steps: Sequence[Step], end: bool = False) -> np.ndarray:
    """The start laws of a pass of k steps (step_laws), or their end laws,
    stacked as a k x n array whose row i is step i's: one gather from the
    tree's law matrix (DecompositionTree.laws)."""
    children = [cluster.children for cluster in tree.clusters]
    # a border law is its target's row 2 * id + 1, a cluster law its own row 2 * id
    keys = np.fromiter((2 * (children[c][k - 1] if k else c) + 1 if spread != end else 2 * c
                        for spread, c, k in steps), np.intp, len(steps))
    return tree.laws(keys)


def _extend(path: list[int], seg: list[int]) -> None:
    if seg[0] != path[-1]:
        raise RuntimeError(f"hop segment starts at {seg[0]}, not at the junction "
                           f"{path[-1]}")
    path.extend(seg[1:])


class ReferenceBackend:
    """Hops drawn directly from the certification flow solutions."""

    def __init__(self, g: CapacitatedGraph, tree: DecompositionTree,
                 solutions: dict[int, CMCFSolution]):
        self.graph = g
        self.tree = tree
        self.solutions = solutions
        # per (cluster, border), the support of tree.law and its cumulative sums
        self._draws: dict[tuple[int, bool], tuple[list[int], list[float]]] = {}
        # per cluster, its weighted vertices and their vertex rows
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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

    def _build_vertex_rows(self, clusters: Sequence[int]) -> None:
        """Stores, per cluster, its weighted vertices, ascending, and its
        vertex rows, row v holding Σ_u π_u x_uv over u ascending. One bincount
        for all the clusters adds the terms of each row v from the pairs
        (u, v), u < v, then those from the pairs (v, u), in pair order."""
        g, units, pairs, weights, built = self.graph, [], [], [], []
        for cluster_id in clusters:
            law = self.tree.law(cluster_id)
            vertices = law.nonzero()[0]
            groups, vs, base = self.solutions[cluster_id].path_groups, vertices.tolist(), len(weights)
            try:
                for i in range(len(vs) - 1):
                    row = groups(vs[i])
                    units.extend(row[v].unit_loads(g) for v in vs[i + 1:])
                    pairs.extend((base + i, base + j) for j in range(i + 1, len(vs)))
            except RuntimeError as exc:
                raise RuntimeError(f"cluster {cluster_id}: {exc}") from None
            weights.extend(law[vertices].tolist())     # row -> π of its vertex
            built.append((cluster_id, vertices, base))
        # each pair's rows (u, v) over all the clusters' rows, and its unit loads
        lower, upper = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        lengths = np.tile(np.fromiter((len(ids) for ids, _ in units), np.intp, len(units)), 2)
        ids = np.concatenate([np.empty(0, np.intp), *(ids for ids, _ in units)])
        x = np.concatenate([np.empty(0), *(x for _, x in units)])
        bins = np.repeat(np.concatenate([upper, lower]) * g.m, lengths) + np.tile(ids, 2)
        terms = np.repeat(np.array(weights)[np.concatenate([lower, upper])], lengths) * np.tile(x, 2)
        # astype: a bincount of nothing is an int array
        rows = np.bincount(bins, terms, minlength=len(weights) * g.m).astype(float, copy=False)
        for cluster_id, vertices, base in built:
            self._rows[cluster_id] = vertices, rows.reshape(-1, g.m)[base:base + len(vertices)]

    def sample(self, step: Step, v: int,
               rng: np.random.Generator) -> tuple[list[int], int]:
        end = self._draw(*step_laws(self.tree, step)[1], rng)
        return self._path_between(step[1], v, end, rng), end

    def loads(self, steps: Sequence[Step]) -> tuple[np.ndarray, np.ndarray]:
        """Row i: β · R for β the border law of steps[i]'s target and R its
        cluster's vertex rows, each distinct target's row computed once."""
        tree = self.tree
        # each distinct (cluster, target) of the pass, numbered in order of first use
        targets = {key: i for i, key in enumerate(dict.fromkeys((c, k) for _, c, k in steps))}
        by_cluster: dict[int, list[int]] = {}
        for (cluster_id, _), i in targets.items():
            by_cluster.setdefault(cluster_id, []).append(i)
        self._build_vertex_rows([c for c in by_cluster if c not in self._rows])
        # a leave step of each target walks from its cluster law to its border law
        owns, borders = (pass_laws(tree, [(False, c, k) for c, k in targets], end)
                         for end in (False, True))
        stray = np.argwhere((borders != 0) & (owns == 0))
        if stray.size:
            i, v = stray[0]
            raise RuntimeError(f"cluster {list(targets)[i][0]}: a law puts mass on vertex "
                               f"{v}, which is not a weighted vertex of the cluster")
        rows = np.empty((len(targets), self.graph.m))
        for cluster_id, at in by_cluster.items():
            vertices, vertex_rows = self._rows[cluster_id]
            rows[at] = np.add.reduce(borders[at][:, vertices, None] * vertex_rows, axis=1)
        at = np.fromiter((targets[c, k] for _, c, k in steps), np.intp, len(steps))
        return rows[at], pass_laws(tree, steps, end=True)


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


def hop_loads(tree: DecompositionTree, backend: SchemeBackend,
              hops: Sequence[Hop]) -> np.ndarray:
    """Exact expected loads of each hop started on the law of the cluster it
    leaves: a len(hops) x m matrix whose row i adds 0, then the loads of hop
    i's first step, then those of its second. One backend pass evaluates the
    steps of every hop, each from its start law (step_laws). Raises for the
    first step, in hop order, that does not end on its end law."""
    steps = [_steps(tree, hop) for hop in hops]
    counts = np.array([len(hop_steps) for hop_steps in steps], dtype=np.intp)
    flat = [step for hop_steps in steps for step in hop_steps]
    loads, ends = backend.loads(flat)
    if (off := _first_off(ends, pass_laws(tree, flat, end=True))) is not None:
        downward, child_id = hops[int(np.searchsorted(np.cumsum(counts), off[0], "right"))]
        cluster_id, border = step_laws(tree, flat[off[0]])[1]
        law = f"the law of cluster {cluster_id}" + ("'s border" if border else "")
        raise RuntimeError(f"hop {'into' if downward else 'out of'} cluster {child_id}: "
                           f"step {flat[off[0]]} ends {off[1]:.3g} away from {law}")
    firsts = np.cumsum(counts) - counts
    rows = 0.0 + loads[firsts]
    two = np.flatnonzero(counts == 2)
    rows[two] += loads[firsts[two] + 1]
    return rows


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
    k = len(entries)
    if not k:
        return {}
    pairs = np.fromiter(itertools.chain.from_iterable(entries), np.intp, 2 * k).reshape(k, 2)
    # the pairs in sorted order: the keys s * n + t are distinct
    order = np.argsort(pairs[:, 0] * n + pairs[:, 1])
    demand = np.fromiter(entries.values(), float, k)[order]
    sentinel = len(tree.clusters)
    paths = np.array([path + [sentinel] * (tree.height + 1 - len(path))
                      for path in map(tree.leaf_path, range(n))])
    up, down = paths[pairs[order, 0]], paths[pairs[order, 1]]
    shared = np.logical_and.accumulate(up == down, axis=1).sum(axis=1, keepdims=True)
    crossed = np.arange(paths.shape[1]) >= shared
    weight = np.broadcast_to(demand[:, None], up.shape)[crossed]
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
    # row after row: each edge adds its terms in sorted hop order, as a loop would
    totals = np.add.reduce(np.fromiter(through.values(), float, len(through))[:, None] * rows,
                           axis=0)
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
