"""Shared tiny-instance builders and independent oracles used across test modules."""
from __future__ import annotations

import heapq
from collections import deque
from itertools import accumulate, combinations

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linprog

from obroute import routing
from obroute.decomposition import DecompositionTree, _assemble
from obroute.flows import _DECOMPOSE_REL_TOL, SNK, SRC, FlowAssignment
from obroute.graph import CapacitatedGraph, DemandMatrix
from obroute.impl_a import FlowTables
from obroute.impl_b import CubeScheme
from obroute.routing import LoadReport, ReferenceBackend, select_path


def path_graph(n: int, cap: int = 1) -> CapacitatedGraph:
    return CapacitatedGraph(n, [(i, i + 1, cap) for i in range(n - 1)])


def cycle_graph(n: int, cap: int = 1) -> CapacitatedGraph:
    edges = [(i, (i + 1) % n, cap) for i in range(n)]
    return CapacitatedGraph(n, edges)


def single_edge(cap: int = 1) -> CapacitatedGraph:
    return CapacitatedGraph(2, [(0, 1, cap)])


def triangle(cap: int = 1) -> CapacitatedGraph:
    return CapacitatedGraph(3, [(0, 1, cap), (1, 2, cap), (0, 2, cap)])


def diamond() -> CapacitatedGraph:
    # two vertex-disjoint 2-hop routes 0-1-3 and 0-2-3
    return CapacitatedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])


def tree_from_spec(g: CapacitatedGraph, spec) -> DecompositionTree:
    """Build a tree from an explicit nesting, for fixtures and worked examples.

    A spec node is either a vertex id or a list of spec nodes; a list of ints
    is a cluster whose children are those singletons, and a one-vertex list is
    that vertex's singleton. Leaves sit where the nesting ends, then weights
    are computed.
    """
    def collect(node) -> list[int]:
        return [node] if isinstance(node, int) else [v for sub in node for v in collect(sub)]

    def split(node):
        vertices = tuple(sorted(collect(node)))
        return vertices, [] if len(vertices) == 1 else list(node)

    if sorted(collect(spec)) != list(range(g.n)):
        raise ValueError("spec must cover every vertex exactly once")
    return _assemble(g, spec, split, seed=-1, target_arity=0)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    # random spanning tree guarantees connectivity, then optional extras
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges[(u, v)] = draw(st.integers(min_value=1, max_value=9))
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    for a, b in extras:
        if a != b:
            key = (min(a, b), max(a, b))
            if key not in edges:
                edges[key] = draw(st.integers(min_value=1, max_value=9))
    return CapacitatedGraph(n, [(u, v, c) for (u, v), c in edges.items()])


# ---------------------------------------------------------------------------
# oracles (independent of the implementations under test)
# ---------------------------------------------------------------------------

def bfs_reachable(n: int, arcs: list[tuple[int, int]], start: int) -> set[int]:
    adj: dict[int, list[int]] = {}
    for u, v in arcs:
        adj.setdefault(u, []).append(v)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj.get(v, []):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def brute_force_min_cut(n: int, arcs: list[tuple[int, int, int]], s: int, t: int) -> int:
    """Minimum s-t cut by subset enumeration. Directed arc list, n <= ~12."""
    others = [v for v in range(n) if v not in (s, t)]
    best = None
    for k in range(len(others) + 1):
        for side in combinations(others, k):
            side_s = set(side) | {s}
            cut = sum(cap for u, v, cap in arcs if u in side_s and v not in side_s)
            if best is None or cut < best:
                best = cut
    return best


def all_simple_paths(g: CapacitatedGraph, s: int, t: int, limit: int = 10_000) -> list[list[int]]:
    out: list[list[int]] = []

    def walk(v: int, path: list[int], seen: set[int]):
        if v == t:
            out.append(path[:])
            return
        if len(out) >= limit:
            return
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                path.append(u)
                walk(u, path, seen)
                path.pop()
                seen.remove(u)

    walk(s, [s], {s})
    return out


def brute_force_congestion(g: CapacitatedGraph, demands: DemandMatrix | dict) -> float:
    """Optimal congestion by enumerating simple paths and solving the path LP.

    One variable per (commodity, simple path) gives the share of the commodity
    on that path, plus the congestion lambda: minimise lambda subject to the
    shares of each commodity summing to 1 and every edge's load being at most
    lambda times its capacity. The optimum does not depend on path order.
    Limited to n <= 6 and at most 3 commodities so enumeration stays honest.
    """
    entries = demands.entries if isinstance(demands, DemandMatrix) else dict(demands)
    entries = {p: float(d) for p, d in entries.items() if d > 0}
    if g.n > 6:
        raise ValueError(f"brute-force oracle handles n <= 6, got n = {g.n}")
    if len(entries) > 3:
        raise ValueError(f"brute-force oracle handles <= 3 commodities, got {len(entries)}")
    if not entries:
        return 0.0

    columns: list[np.ndarray] = []        # per path variable: its load on each edge
    commodity: list[int] = []
    for k, ((s, t), d) in enumerate(sorted(entries.items())):
        paths = all_simple_paths(g, s, t)
        if not paths:
            raise ValueError(f"no path between {s} and {t}")
        if len(paths) > 16:
            raise ValueError("instance too large for the brute-force oracle")
        for p in paths:
            load = np.zeros(g.m)
            for a, b in zip(p, p[1:]):
                load[g.edge_index(a, b)] += d
            columns.append(load)
            commodity.append(k)
    npaths = len(columns)
    caps = np.array([c for _, _, c in g.edges], dtype=float)
    cost = np.zeros(npaths + 1)
    cost[-1] = 1.0
    a_ub = np.hstack([np.array(columns).T, -caps[:, None]])
    a_eq = np.zeros((len(entries), npaths + 1))
    a_eq[commodity, range(npaths)] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(g.m), A_eq=a_eq,
                  b_eq=np.ones(len(entries)), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"path LP failed: {res.message}")
    return float(res.x[-1])


def path_edge_loads(g: CapacitatedGraph, weighted_paths: list[tuple[list[int], float]]) -> dict[int, float]:
    loads: dict[int, float] = {}
    for path, w in weighted_paths:
        for a, b in zip(path, path[1:]):
            idx = g.edge_index(a, b)
            loads[idx] = loads.get(idx, 0.0) + w
    return loads


def sampled_loads(g: CapacitatedGraph, tree, backend, demands: DemandMatrix | dict,
                  samples: int, seed: int) -> tuple[dict[tuple[int, int], float],
                                                    dict[tuple[int, int], float]]:
    """Monte-Carlo estimate of the expected edge loads and their standard errors.

    Draws `samples` routes per ordered pair with select_path, each pair on its
    own (seed, s, t) stream, so results are reproducible and pair order is
    irrelevant. Every sampled path is validated edge by edge.
    """
    entries = demands.entries if isinstance(demands, DemandMatrix) else dict(demands)
    if samples < 1:
        raise ValueError(f"need at least one sample per pair, got {samples}")
    loads: dict[tuple[int, int], float] = {}
    sq_err: dict[tuple[int, int], float] = {}
    for (s, t), d in sorted(entries.items()):
        if d <= 0 or s == t:
            continue
        rng = np.random.default_rng(np.random.SeedSequence((seed, s, t)))
        tot: dict[tuple[int, int], int] = {}
        tot_sq: dict[tuple[int, int], int] = {}
        for _ in range(samples):
            path = select_path(s, t, tree, backend, rng)
            assert path[0] == s and path[-1] == t
            cnt: dict[tuple[int, int], int] = {}
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b), f"sampled path uses missing edge ({a},{b})"
                key = (a, b) if a < b else (b, a)
                cnt[key] = cnt.get(key, 0) + 1
            for key, c in cnt.items():
                tot[key] = tot.get(key, 0) + c
                tot_sq[key] = tot_sq.get(key, 0) + c * c
        for key, total in tot.items():
            mean = total / samples
            loads[key] = loads.get(key, 0.0) + d * mean
            spread = max(tot_sq[key] / samples - mean * mean, 0.0)
            sq_err[key] = sq_err.get(key, 0.0) + d * d * spread / samples
    return loads, {key: v ** 0.5 for key, v in sq_err.items()}


# ---------------------------------------------------------------------------
# flow decomposition on dicts: the oracle of the decomposition tables
# ---------------------------------------------------------------------------

def _dict_widest_path(adj: dict[int, dict[int, float]], s: int, t: int) -> list[int] | None:
    """Path from s to t whose narrowest arc is widest (Dijkstra on bottleneck
    width over vertex ids); ties go to the vertex reached first, as heap order
    decides."""
    best: dict[int, float] = {s: float("inf")}
    prev: dict[int, int] = {}
    heap = [(-float("inf"), s)]
    while heap:
        negw, v = heapq.heappop(heap)
        width = -negw
        if width < best[v]:
            continue
        if v == t:
            break
        for u, f in adj.get(v, {}).items():
            w = min(f, width)
            if w > best.get(u, 0.0):
                best[u] = w
                prev[u] = v
                heapq.heappush(heap, (-w, u))
    if t not in best:
        return None
    path = [t]
    while path[-1] != s:
        path.append(prev[path[-1]])
    return path[::-1]


def dict_decompose_by_sink(fa: FlowAssignment) -> dict[int, list[tuple[list[int], float]]]:
    """Repeated widest-path extraction on a dict of residual arcs, each path
    without its terminals, grouped by its last vertex in extraction order."""
    adj: dict[int, dict[int, float]] = {}
    for (a, b), f in fa.arcs.items():
        adj.setdefault(a, {})[b] = f
    cutoff = max(_DECOMPOSE_REL_TOL * max(fa.value, 1.0), 1e-15)
    groups: dict[int, list[tuple[list[int], float]]] = {}
    while True:
        path = _dict_widest_path(adj, fa.source, fa.sink)
        if path is None:
            break
        width = min(adj[a][b] for a, b in zip(path, path[1:]))
        if width <= cutoff:
            break
        for a, b in zip(path, path[1:]):
            left = adj[a][b] - width
            if left <= cutoff:
                del adj[a][b]
            else:
                adj[a][b] = left
        groups.setdefault(path[-2], []).append((path[1:-1], width))
    return groups


def dict_path_group(entries: list[tuple[list[int], float]]
                    ) -> tuple[list[list[int]], np.ndarray, list[float]]:
    """A group's paths, their widths over the widths' NumPy sum, and the
    running sums of those probabilities."""
    w = np.array([x for _, x in entries], dtype=float)
    probs = w / w.sum()
    return [p for p, _ in entries], probs, list(accumulate(probs.tolist()))


def dict_unit_loads(g: CapacitatedGraph, paths: list[list[int]],
                    probs: np.ndarray) -> tuple[list[int], list[float]]:
    """Graph edge ids, in first-use order, and each one's probability summed
    over the paths that cross it, in path order."""
    loads: dict[int, float] = {}
    for path, p in zip(paths, probs.tolist()):
        for a, b in zip(path, path[1:]):
            e = g.edge_index(a, b)
            loads[e] = loads.get(e, 0.0) + p
    return list(loads), list(loads.values())


# ---------------------------------------------------------------------------
# exact loads, one dict entry at a time: the oracle of the array kernels
# ---------------------------------------------------------------------------

def dict_through(tree, entries: dict) -> dict[tuple[bool, int], float]:
    """Demand crossing each tree edge per direction, summed pair by pair in
    sorted order over every pair's hops, in sorted hop order."""
    through: dict[tuple[bool, int], float] = {}
    for (s, t), d in sorted(entries.items()):
        if d <= 0 or s == t:
            continue
        for hop in routing._hops(tree, s, t):
            through[hop] = through.get(hop, 0.0) + d
    return dict(sorted(through.items()))


def _normalized(weights: dict[int, int]) -> dict:
    total = sum(w for w in weights.values() if w > 0)
    return {v: w / total for v, w in sorted(weights.items()) if w > 0}


def _dict_reference(backend: ReferenceBackend, cluster_id: int, start: dict,
                    end: dict) -> dict:
    loads: dict = {}
    for u, p in start.items():
        for v, q in end.items():
            if u == v:
                continue
            group = backend.solutions[cluster_id].path_groups(min(u, v))[max(u, v)]
            pair: dict = {}
            for path, w in zip(group.paths, group.probs):
                for a, b in zip(path, path[1:]):
                    edge = (a, b) if a < b else (b, a)
                    pair[edge] = pair.get(edge, 0.0) + float(w)
            for edge, x in pair.items():
                loads[edge] = loads.get(edge, 0.0) + p * q * x
    return loads


def _dict_flow_walk(tables: FlowTables, cluster_id: int, index: int,
                    direction: str) -> tuple[dict, dict]:
    """impl-a's closed form, one arc at a time: every interior arc adds
    f/|f| to its edge in the flow's stored arc order, and the walk ends on
    the opposite terminal's arcs over |f|."""
    fa = tables.flows[(cluster_id, index)]
    loads: dict = {}
    sources: dict = {}
    sinks: dict = {}
    for (a, b), f in fa.arcs.items():
        if a == SRC:
            sources[b] = f / fa.value
        elif b == SNK:
            sinks[a] = f / fa.value
        else:
            edge = (a, b) if a < b else (b, a)
            loads[edge] = loads.get(edge, 0.0) + f / fa.value
    return loads, sinks if direction == "forward" else sources


def _dict_cube_walk(maps, start_law: dict, lo: int, hi: int) -> tuple[dict, dict]:
    d = maps.dimension
    nodes = np.arange(1 << d)
    start = np.zeros(1 << d)
    for v, p in start_law.items():
        owned = maps.vertex_nodes[v]
        start[owned] += p / len(owned)
    target = np.zeros(1 << d)
    target[lo:hi] = 1.0 / (hi - lo)
    crossing = np.zeros((d, 1 << d))
    for k in range(d):
        high = start.reshape(-1, 1 << k).sum(axis=1)
        low = np.bincount(nodes & ((2 << k) - 1), weights=target, minlength=2 << k)
        out = high[nodes >> k] * low[(nodes & ((1 << k) - 1)) | (~nodes & (1 << k))]
        crossing[k] = out + out[nodes ^ (1 << k)]
    loads: dict = {}
    for (x, y), path in maps.edge_paths.items():
        p = float(crossing[(x ^ y).bit_length() - 1, x])
        if p == 0.0:
            continue
        for a, b in zip(path, path[1:]):
            edge = (a, b) if a < b else (b, a)
            loads[edge] = loads.get(edge, 0.0) + p
    end: dict = {}
    for node in range(lo, hi):
        v = maps.node_owner[node]
        end[v] = end.get(v, 0.0) + 1.0 / (hi - lo)
    return loads, end


def _dict_kernel(backend, step: tuple[bool, int, int], law: dict) -> tuple[dict, dict]:
    tree = backend.tree
    spread, cluster_id, index = step
    if isinstance(backend, ReferenceBackend):
        weights = (tree.cluster(cluster_id).cluster_weight if spread
                   else tree.target(cluster_id, index).border_weight)
        end = _normalized(weights)
        return _dict_reference(backend, cluster_id, law, end), end
    if isinstance(backend, FlowTables):
        return _dict_flow_walk(backend, cluster_id, index,
                               "backward" if spread else "forward")
    if isinstance(backend, CubeScheme):
        maps, lo, hi = backend._cube(step)
        return _dict_cube_walk(maps, law, lo, hi)
    raise TypeError(f"no dict kernel for {type(backend).__name__}")


def dict_hop_loads(tree, backend, hop: tuple[bool, int]) -> dict:
    """Loads of one crossing of a hop, by edge, its steps' dict kernels
    added step by step from the law of the cluster it leaves."""
    downward, child_id = hop
    parent_id = tree.cluster(child_id).parent
    law = _normalized(tree.cluster(parent_id if downward else child_id).cluster_weight)
    loads: dict = {}
    for step in routing._steps(tree, hop):
        part, law = _dict_kernel(backend, step, law)
        for edge, x in part.items():
            loads[edge] = loads.get(edge, 0.0) + x
    return loads


def dict_route_demands(g: CapacitatedGraph, tree, backend,
                       demands: DemandMatrix | dict) -> LoadReport:
    """route_demands with every sum a dict accumulation: the demand through
    each hop pair by pair (dict_through), each hop's loads kernel step by
    kernel step (dict_hop_loads), and the edge loads hop by hop in sorted
    hop order. The array code sums in the same order, so it must agree to
    the last bit."""
    entries = demands.entries if isinstance(demands, DemandMatrix) else dict(demands)
    through = dict_through(tree, entries)
    loads: dict = {}
    rows = np.zeros((len(through), g.m))
    for row, (hop, d) in zip(rows, through.items()):
        for edge, x in dict_hop_loads(tree, backend, hop).items():
            row[g.edge_index(*edge)] = x
            loads[edge] = loads.get(edge, 0.0) + d * x
    caps = {(u, v): c for u, v, c in g.edges}
    return LoadReport(edge_loads=loads, edge_stderr={edge: 0.0 for edge in loads},
                      edge_caps=caps,
                      congestion=max((x / caps[e] for e, x in loads.items()), default=0.0),
                      through=through, hop_loads=rows)


# ---------------------------------------------------------------------------
# impl-a's walk swept vertex by vertex: the oracle of its closed form
# ---------------------------------------------------------------------------

def topological(fa: FlowAssignment, direction: str) -> list[int]:
    """Kahn order of the flow's graph vertices along its positive interior
    arcs, reversed for a backward walk; raises on a cycle."""
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


def flow_sweep(tables: FlowTables, step: tuple[bool, int, int],
               law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected edge loads (by graph edge id) and end law (by vertex) of the
    step's flow walk started on any law, its start vertices included: the
    mass is pushed through the acyclic flow in topological order, each vertex
    splitting it over its links in proportion to their flow; no sampling."""
    spread, cluster_id, index = step
    fa = tables.flows[(cluster_id, index)]
    direction = "backward" if spread else "forward"
    links, terminal = (fa.incoming, SRC) if spread else (fa.outgoing, SNK)
    g = tables.graph
    loads, end = np.zeros(g.m), np.zeros(len(law))
    mass = dict(enumerate(law.tolist()))
    for v in topological(fa, direction):
        mv = mass.pop(v, 0.0)
        if mv == 0.0:
            continue
        options = links(v)
        if not options:
            raise ValueError(f"vertex {v} has no link in cluster {cluster_id} target {index}")
        total = sum(f for _, f in options)
        for u, f in options:
            share = mv * f / total
            if u == terminal:
                end[v] += share
            else:
                mass[u] = mass.get(u, 0.0) + share
                loads[g.edge_index(v, u)] += share
    if any(mass.values()):
        raise ValueError("law puts mass on a vertex the flow does not reach")
    return loads, end


# ---------------------------------------------------------------------------
# decomposition-tree navigation
# ---------------------------------------------------------------------------

def ancestor_at(tree, v: int, level: int) -> int:
    """Cluster id of v's ancestor at `level` (0 is the root)."""
    return tree.leaf_path(v)[level]


def assign_labels(tree) -> dict[int, tuple[int, ...]]:
    """Leaf labels: the child-index sequence along the root-to-leaf path."""
    labels: dict[int, tuple[int, ...]] = {}
    for v in sorted(tree.leaf_of):
        path = tree.leaf_path(v)
        labels[v] = tuple(tree.child_index(p, c) for p, c in zip(path, path[1:]))
    if len(set(labels.values())) != len(labels):
        raise RuntimeError("labels must be unique")
    return labels
