"""Laminar hierarchical decomposition of a capacitated graph.

The tree partitions the vertex set recursively down to singletons; a cluster
has at least two children or is a singleton leaf, at whatever depth its
branch's splits end. Each cluster carries two weight tables:

  border_weight[v]  capacity of edges from v leaving the cluster
  cluster_weight[v] capacity of edges from v leaving the child cluster holding v

For leaves the two coincide (a leaf is treated as partitioned into itself).
The routing quality parameter is certified per instance by solving each
cluster's product-demand concurrent-flow problem, never assumed.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from obroute.cmcf import CMCFSolution, solve_cmcf_min_congestion
from obroute.graph import CapacitatedGraph, DemandMatrix

__all__ = ["Cluster", "DecompositionTree", "CongestionCertificate",
           "build_tree", "compute_weights", "cmcf_instance",
           "certify_congestion", "audit_tree"]

# escalation acceptance: largest part may hold at most this fraction of the cluster
_BALANCE_FRACTION = 0.75
_SIZE_SLACK = 1.25


@dataclass
class Cluster:
    id: int
    level: int
    vertices: tuple[int, ...]
    parent: int | None
    children: list[int] = field(default_factory=list)
    cluster_weight: dict[int, int] = field(default_factory=dict)
    border_weight: dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def total_weight(self) -> int:
        return sum(self.cluster_weight.values())

    @property
    def total_border(self) -> int:
        return sum(self.border_weight.values())


class DecompositionTree:
    def __init__(self, clusters: list[Cluster], seed: int, target_arity: int):
        self.clusters = clusters
        self.seed = seed
        self.target_arity = target_arity
        self.root = 0
        self.height = max(c.level for c in clusters)
        self.leaf_of = {c.vertices[0]: c.id for c in clusters if not c.children}
        self._paths: dict[int, list[int]] = {}
        self._laws: tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None = None

    def cluster(self, cid: int) -> Cluster:
        return self.clusters[cid]

    @property
    def degree(self) -> int:
        """Maximum child count over all clusters."""
        return max((len(c.children) for c in self.clusters), default=0) or 1

    def leaf_path(self, v: int) -> list[int]:
        """Cluster ids from the root down to v's leaf."""
        if v not in self._paths:
            cid = self.leaf_of[v]
            path = [cid]
            while self.clusters[cid].parent is not None:
                cid = self.clusters[cid].parent
                path.append(cid)
            self._paths[v] = path[::-1]
        return self._paths[v]

    def _law_store(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The law matrix, built on the first read: row 2 * cluster id + border
        holds that weight table over its total (all zero if the total is 0),
        read-only, with whether each total is positive and a view of each row."""
        if self._laws is None:
            tables = [c.border_weight if border else c.cluster_weight
                      for c in self.clusters for border in (False, True)]
            sizes = [len(weights) for weights in tables]
            count = sum(sizes)
            totals = np.array([sum(weights.values()) for weights in tables], dtype=float)
            matrix = np.zeros((len(tables), len(self.clusters[self.root].vertices)))
            matrix[np.repeat(np.arange(len(tables)), sizes),
                   np.fromiter(itertools.chain.from_iterable(tables), np.intp, count)] = (
                np.fromiter(itertools.chain.from_iterable(w.values() for w in tables),
                            float, count))
            positive = totals > 0
            np.divide(matrix, totals[:, None], out=matrix, where=positive[:, None])
            matrix.setflags(write=False)
            self._laws = matrix, positive, list(matrix)
        return self._laws

    def law(self, cluster_id: int, border: bool = False) -> np.ndarray:
        """The cluster law of a cluster, or its border law: its weights over
        their total, as a read-only float64 row of the law matrix, indexed by
        vertex. Raises ValueError for an all-zero weight table."""
        _, positive, rows = self._law_store()
        key = 2 * cluster_id + border
        if not positive[key]:
            raise ValueError(f"cluster {cluster_id} has an all-zero "
                             f"{'border' if border else 'cluster'} law")
        return rows[key]

    def laws(self, keys: np.ndarray) -> np.ndarray:
        """The laws of keys 2 * cluster id + border, stacked in one gather
        from the law matrix: row i is law(*divmod(keys[i], 2)), and the first
        all-zero one raises as law does."""
        matrix, positive, _ = self._law_store()
        zero = np.flatnonzero(~positive[keys])
        if zero.size:
            self.law(*divmod(int(keys[zero[0]]), 2))
        return matrix[keys]

    def child_index(self, parent_id: int, child_id: int) -> int:
        return self.clusters[parent_id].children.index(child_id)

    def target(self, cluster_id: int, index: int) -> Cluster:
        """Target `index` of a cluster: 0 is the cluster itself, k >= 1 its
        k-th child (child_index + 1)."""
        cluster = self.clusters[cluster_id]
        return cluster if index == 0 else self.clusters[cluster.children[index - 1]]

    def to_json(self, certificate: "CongestionCertificate | None" = None) -> str:
        """The tree.json text: every cluster with its weights, plus the
        certificate if given. It is written for readers; nothing reads it back."""
        payload = {
            "seed": self.seed,
            "target_arity": self.target_arity,
            "height": self.height,
            "clusters": [
                {
                    "id": c.id,
                    "level": c.level,
                    "vertices": list(c.vertices),
                    "parent": c.parent,
                    "children": c.children,
                    "cluster_weight": {str(v): w for v, w in sorted(c.cluster_weight.items())},
                    "border_weight": {str(v): w for v, w in sorted(c.border_weight.items())},
                }
                for c in self.clusters
            ],
        }
        if certificate is not None:
            payload["certificate"] = {
                "value": certificate.value,
                "int_value": certificate.int_value,
                "per_cluster": {str(k): v for k, v in sorted(certificate.per_cluster.items())},
            }
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_tree(g: CapacitatedGraph, target_arity: int = 2, seed: int = 0) -> DecompositionTree:
    """Recursive balanced partitioning into connected parts, down to singletons.

    Parts are grown by seeded multi-source BFS (smallest part first) and refined
    by boundary moves that reduce cut capacity while keeping parts connected.
    When no balanced split at the target arity exists (hub topologies) the
    splitter doubles the part count for that cluster instead of unbalancing.
    Every split yields at least two parts; a leaf is a singleton at any depth.
    """
    if target_arity < 2:
        raise ValueError(f"target arity must be >= 2, got {target_arity}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD15EC7)))

    def split(vertices: tuple[int, ...]):
        if len(vertices) == 1:
            return vertices, []
        parts = _split_cluster(g, list(vertices), target_arity, rng)
        return vertices, [tuple(sorted(part)) for part in parts]

    tree = _assemble(g, tuple(range(g.n)), split, seed, target_arity)
    cap = math.ceil(2.5 * math.log2(max(g.n, 2))) + 2
    if tree.height > cap:
        raise RuntimeError(f"tree height {tree.height} exceeds {cap} for n={g.n}")
    return tree


def _assemble(g: CapacitatedGraph, root, split, seed: int,
              target_arity: int) -> DecompositionTree:
    """Create clusters depth first from `root`, where split(node) gives a node's
    sorted vertex tuple and its child nodes, then compute the weights."""
    clusters: list[Cluster] = []

    def recurse(node, level: int, parent: int | None):
        vertices, children = split(node)
        cid = len(clusters)
        clusters.append(Cluster(id=cid, level=level, vertices=vertices, parent=parent))
        if parent is not None:
            clusters[parent].children.append(cid)
        for child in children:
            recurse(child, level + 1, cid)

    recurse(root, 0, None)
    return compute_weights(g, DecompositionTree(clusters, seed=seed, target_arity=target_arity))


def _split_cluster(g: CapacitatedGraph, vertices: list[int], arity: int,
                   rng: np.random.Generator) -> list[set[int]]:
    k = min(arity, len(vertices))
    while True:
        parts = _grow_parts(g, vertices, k, rng)
        limit = math.ceil(math.ceil(len(vertices) / k) * _SIZE_SLACK)
        parts = _refine_parts(g, vertices, parts, limit)
        biggest = max(len(p) for p in parts)
        if biggest <= max(_BALANCE_FRACTION * len(vertices), 1.0) or k >= len(vertices):
            return [p for p in parts if p]
        k = min(2 * k, len(vertices))


def _grow_parts(g: CapacitatedGraph, vertices: list[int], k: int,
                rng: np.random.Generator) -> list[set[int]]:
    inside = set(vertices)
    seeds = [int(rng.choice(vertices))]
    while len(seeds) < k:
        dist = g.hop_distances(seeds, inside)
        far = max(((d, -v) for v, d in dist.items() if v not in seeds), default=None)
        if far is None:
            break
        seeds.append(-far[1])

    owner: dict[int, int] = {s: i for i, s in enumerate(seeds)}
    parts: list[set[int]] = [{s} for s in seeds]
    queues: list[deque[int]] = [deque(u for u in g.neighbors(s) if u in inside)
                                for s in seeds]
    unassigned = len(inside) - len(seeds)
    while unassigned > 0:
        order = sorted(range(len(parts)), key=lambda i: (len(parts[i]), i))
        progressed = False
        for i in order:
            while queues[i]:
                v = queues[i].popleft()
                if v in owner:
                    continue
                owner[v] = i
                parts[i].add(v)
                queues[i].extend(u for u in g.neighbors(v) if u in inside and u not in owner)
                unassigned -= 1
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            # every unassigned neighbour of a part waits in its queue, so empty
            # queues mean the vertex set is not connected
            leftover = [v for v in vertices if v not in owner]
            raise RuntimeError(f"grow stalled with {leftover} unassigned")
    return parts


def _refine_parts(g: CapacitatedGraph, vertices: list[int], parts: list[set[int]],
                  size_limit: int) -> list[set[int]]:
    inside = set(vertices)
    owner = {v: i for i, part in enumerate(parts) for v in part}
    for _ in range(4 * len(vertices)):
        moved = False
        for v in sorted(vertices):
            p = owner[v]
            if len(parts[p]) <= 1:
                continue
            stay = 0
            pull: dict[int, int] = {}
            for u, eidx in g.adj[v]:
                if u not in inside:
                    continue
                cap = g.edges[eidx][2]
                if owner[u] == p:
                    stay += cap
                else:
                    pull[owner[u]] = pull.get(owner[u], 0) + cap
            best = max(sorted(pull), key=lambda q: pull[q], default=None)
            if best is None or pull[best] <= stay:
                continue
            if len(parts[best]) + 1 > size_limit:
                continue
            rest = parts[p] - {v}
            if len(g.hop_distances([next(iter(rest))], rest)) != len(rest):
                continue
            parts[p].discard(v)
            parts[best].add(v)
            owner[v] = best
            moved = True
        if not moved:
            break
    return parts


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def compute_weights(g: CapacitatedGraph, tree: DecompositionTree) -> DecompositionTree:
    """Fill border and cluster weight tables on every cluster."""
    for c in tree.clusters:
        members = set(c.vertices)
        c.border_weight = {
            v: sum(g.edges[eidx][2] for u, eidx in g.adj[v] if u not in members)
            for v in c.vertices
        }
    for c in tree.clusters:
        if not c.children:
            c.cluster_weight = dict(c.border_weight)
        else:
            table: dict[int, int] = {}
            for cid in c.children:
                table.update(tree.clusters[cid].border_weight)
            c.cluster_weight = {v: table[v] for v in c.vertices}
    return tree


def cmcf_instance(cluster: Cluster) -> DemandMatrix:
    """Product demands w(u)*w(v)/w(S) over ordered pairs of the cluster."""
    if not cluster.cluster_weight:
        raise ValueError(f"cluster {cluster.id} has no weight tables; run compute_weights")
    total = cluster.total_weight
    entries: dict[tuple[int, int], float] = {}
    if total == 0:
        return DemandMatrix(entries)
    for u in cluster.vertices:
        wu = cluster.cluster_weight[u]
        if wu == 0:
            continue
        for v in cluster.vertices:
            if v == u:
                continue
            wv = cluster.cluster_weight[v]
            if wv:
                entries[(u, v)] = wu * wv / total
    return DemandMatrix(entries)


# ---------------------------------------------------------------------------
# congestion certificate
# ---------------------------------------------------------------------------

@dataclass
class CongestionCertificate:
    value: float                       # max cluster congestion
    int_value: int                     # ceil, >= 1; capacity scaling uses this
    per_cluster: dict[int, float]
    solutions: dict[int, CMCFSolution] | None = None


def certify_congestion(g: CapacitatedGraph, tree: DecompositionTree,
                       store_solutions: bool = False) -> CongestionCertificate:
    """Solve every cluster's product-demand instance and record the worst congestion.

    Each non-singleton cluster is one solve_cmcf_min_congestion call, made
    serially: column generation over shortest-path trees, or no LP for a
    cluster that induces a tree, whose routing is forced. Symmetric pairs are
    solved once (u < v at doubled demand); reversing those paths restores the
    other direction with identical undirected loads, so the congestion value
    is exact for the full instance.
    """
    solutions = {}
    for c in tree.clusters:
        if c.size > 1 and c.total_weight > 0:
            half = {(u, v): 2.0 * d for (u, v), d in cmcf_instance(c).entries.items() if u < v}
            solutions[c.id] = solve_cmcf_min_congestion(g, half, set(c.vertices))
    per_cluster = {c.id: solutions[c.id].congestion if c.id in solutions else 0.0
                   for c in tree.clusters}
    value = max(per_cluster.values(), default=0.0)
    int_value = max(1, math.ceil(value - 1e-9))
    return CongestionCertificate(value=value, int_value=int_value,
                                 per_cluster=per_cluster,
                                 solutions=solutions if store_solutions else None)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def audit_tree(g: CapacitatedGraph, tree: DecompositionTree) -> list[str]:
    """Structural and weight-identity violations; empty list means clean."""
    bad: list[str] = []
    root = tree.cluster(tree.root)
    if tuple(sorted(root.vertices)) != tuple(range(g.n)):
        bad.append("root cluster is not the full vertex set")
    for c in tree.clusters:
        if c.children:
            merged: list[int] = []
            for cid in c.children:
                child = tree.cluster(cid)
                if child.parent != c.id or child.level != c.level + 1:
                    bad.append(f"cluster {cid} has inconsistent parent/level links")
                merged.extend(child.vertices)
            if sorted(merged) != sorted(c.vertices):
                bad.append(f"children of cluster {c.id} do not partition it")
            if len(c.children) == 1:
                bad.append(f"cluster {c.id} has exactly one child")
        elif c.size != 1:
            bad.append(f"leaf cluster {c.id} is not a singleton")

    for c in tree.clusters:
        members = set(c.vertices)
        for v in c.vertices:
            direct = sum(g.edges[eidx][2] for u, eidx in g.adj[v] if u not in members)
            if c.border_weight.get(v) != direct:
                bad.append(f"border weight of {v} in cluster {c.id} mismatches edge scan")
        if c.parent is None and any(c.border_weight.values()):
            bad.append("root border weight is not identically zero")
        if c.children:
            child_total = sum(tree.cluster(cid).total_border for cid in c.children)
            if child_total != c.total_weight:
                bad.append(f"cluster {c.id}: child border totals != cluster weight")
            for cid in c.children:
                child = tree.cluster(cid)
                for v in child.vertices:
                    if c.cluster_weight.get(v) != child.border_weight.get(v):
                        bad.append(f"cluster {c.id}: weight of {v} != child border weight")
        for v in c.vertices:
            if c.border_weight.get(v, 0) > c.cluster_weight.get(v, 0):
                bad.append(f"cluster {c.id}: border weight of {v} exceeds cluster weight")
    return bad
