"""Shared tiny-instance builders and independent oracles used across test modules."""
from __future__ import annotations

from collections import deque
from itertools import accumulate, combinations

import numpy as np
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.optimize import linprog

from obroute import routing
from obroute.decomposition import DecompositionTree, _assemble
from obroute.flows import SNK, SRC, FlowAssignment
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


def arc_lp_congestion(g: CapacitatedGraph, demands: DemandMatrix | dict,
                      restrict: set[int]) -> float:
    """Minimum congestion of `demands` inside G[restrict] by one LP over arc
    flows, commodities aggregated by source: per source and vertex, flow
    out minus flow in is the supply, and per edge both directions of every
    source's flow sum to at most lambda times the capacity."""
    entries = g.check_demands(demands).entries
    if not entries:
        return 0.0
    verts = sorted(restrict)
    index = {v: i for i, v in enumerate(verts)}
    edges = [g.edges[i] for i in g.edges_inside(set(verts))]
    row = {s: r for r, s in enumerate(sorted({s for s, _ in entries}))}
    m, nv, k = len(edges), len(verts), len(row)
    tail = np.array([index[u] for u, _, _ in edges] + [index[v] for _, v, _ in edges])
    head = np.roll(tail, m)
    arc = np.arange(2 * m)
    lam = 2 * m * k
    supply = np.zeros((k, nv))
    for (s, t), d in entries.items():
        supply[row[s], index[s]] += d
        supply[row[s], index[t]] -= d
    blocks = np.arange(k)[:, None]
    a_eq = sp.csr_matrix(
        (np.concatenate([np.ones(2 * m * k), -np.ones(2 * m * k)]),
         (np.concatenate([(blocks * nv + tail).ravel(), (blocks * nv + head).ravel()]),
          np.tile((blocks * 2 * m + arc).ravel(), 2))),
        shape=(k * nv, lam + 1))
    a_ub = sp.csr_matrix(
        (np.concatenate([np.ones(2 * m * k), -np.array([c for _, _, c in edges], float)]),
         (np.concatenate([np.tile(arc % m, k), np.arange(m)]),
          np.concatenate([np.arange(2 * m * k), np.full(m, lam)]))),
        shape=(m, lam + 1))
    cost = np.zeros(lam + 1)
    cost[lam] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=supply.ravel(),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"arc LP failed: {res.message}")
    return float(res.fun)


def column_matrix(pool) -> sp.csr_matrix:
    """A tree pool's columns as the m x k CSR matrix of their edge loads."""
    cols = np.repeat(np.arange(len(pool.rows)), [len(e) for e in pool.rows])
    return sp.csr_matrix((np.concatenate(pool.vals), (np.concatenate(pool.rows), cols)),
                         shape=(pool.m, len(pool.rows)))


def linprog_master(pool, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A tree pool's master LP solved by linprog: the tree weights, the
    convexity-row duals and the capacity-row duals as edge lengths, as
    `_TreePool.solve_master` returns them."""
    k = len(pool.source)
    a_ub = sp.hstack([column_matrix(pool), sp.csr_matrix(-caps[:, None])], format="csr")
    a_eq = sp.csr_matrix((np.ones(k), (pool.source, np.arange(k))),
                         shape=(pool.n_sources, k + 1))
    cost = np.zeros(k + 1)
    cost[k] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(pool.m), A_eq=a_eq,
                  b_eq=np.ones(pool.n_sources), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"master LP failed: {res.message}")
    x = res.x[:k]
    x /= np.bincount(pool.source, weights=x)[pool.source]
    return x, res.eqlin.marginals, np.maximum(-res.ineqlin.marginals, 0.0)


def assert_groups_route(g: CapacitatedGraph, sol, demands: dict,
                        restrict: set[int]) -> None:
    """Every demand pair of sol has a PathGroup whose probabilities sum to 1
    and whose paths are simple paths from its source to its sink over edges
    of G[restrict]; and each edge's load in sol is the sum over pairs of the
    demand times that pair's expected load of one draw."""
    loads: dict[tuple[int, int], float] = {}
    for (s, t), d in demands.items():
        group = sol.path_groups(s)[t]
        assert abs(sum(group.probs) - 1.0) <= 1e-12
        for path in group.paths:
            assert path[0] == s and path[-1] == t and len(set(path)) == len(path)
            assert set(path) <= restrict
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
        for e, x in zip(*group.unit_loads(g)):
            u, v, _ = g.edges[e]
            loads[(u, v)] = loads.get((u, v), 0.0) + d * x
    assert set(sol.edge_loads) == set(loads)
    for edge, load in loads.items():
        assert abs(sol.edge_loads[edge] - load) <= 1e-9 * max(1.0, load)


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
# tree paths on dicts: the oracle of the path-group tables
# ---------------------------------------------------------------------------

def dict_tree_groups(preds: np.ndarray, weights: np.ndarray, sinks: np.ndarray,
                     names: np.ndarray) -> dict[int, list[tuple[list[int], float]]]:
    """flows.decompose_by_sink one tree at a time: per sink, each tree's path
    climbed predecessor by predecessor from the sink to the root, reversed
    and renamed, identical paths merged with their weights added in tree
    order."""
    groups: dict[int, list[tuple[list[int], float]]] = {}
    for t in sinks.tolist():
        merged: dict[tuple[int, ...], float] = {}
        for pred, w in zip(preds.tolist(), weights.tolist()):
            path = [t]
            while pred[path[-1]] >= 0:
                path.append(pred[path[-1]])
            key = tuple(int(names[v]) for v in reversed(path))
            merged[key] = merged.get(key, 0.0) + w
        groups[int(names[t])] = [(list(path), w) for path, w in merged.items()]
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


def _pair_loads(backend: ReferenceBackend, cluster_id: int, u: int, v: int) -> dict:
    """One draw from the pair's path group, by edge: each edge's probability
    summed over its paths in stored order."""
    group = backend.solutions[cluster_id].path_groups(min(u, v))[max(u, v)]
    loads: dict = {}
    for path, w in zip(group.paths, group.probs):
        for a, b in zip(path, path[1:]):
            edge = (a, b) if a < b else (b, a)
            loads[edge] = loads.get(edge, 0.0) + float(w)
    return loads


def _laws(tree, step: tuple[bool, int, int]) -> tuple[dict, dict]:
    """The two laws a step walks between: its cluster law, and the border
    law of its target."""
    _, cluster_id, index = step
    return (_normalized(tree.cluster(cluster_id).cluster_weight),
            _normalized(tree.target(cluster_id, index).border_weight))


def _dict_reference(backend: ReferenceBackend, cluster_id: int, own: dict,
                    border: dict) -> dict:
    """The reference kernel's sums, leave and spread steps alike: each
    vertex v's row, pi_u x_uv added over u ascending, then beta_v times row
    v added over v ascending, pi the cluster law and beta the border law."""
    rows: dict = {v: {} for v in own}
    for u, p in own.items():
        for v, row in rows.items():
            if u != v:
                for edge, x in _pair_loads(backend, cluster_id, u, v).items():
                    row[edge] = row.get(edge, 0.0) + p * x
    loads: dict = {}
    for v, q in border.items():
        for edge, x in rows[v].items():
            loads[edge] = loads.get(edge, 0.0) + q * x
    return loads


def reference_pair_products(backend: ReferenceBackend, step: tuple[bool, int, int]) -> dict:
    """A reference step's loads as the sum over its start law p and end law
    q of p_u q_v x_uv, pair by pair: the kernel's terms in another order."""
    own, border = _laws(backend.tree, step)
    start, end = (border, own) if step[0] else (own, border)
    loads: dict = {}
    for u, p in start.items():
        for v, q in end.items():
            if u != v:
                for edge, x in _pair_loads(backend, step[1], u, v).items():
                    loads[edge] = loads.get(edge, 0.0) + p * q * x
    return loads


def _dict_flow_walk(tables: FlowTables, cluster_id: int, index: int) -> dict:
    """impl-a's closed form, one arc at a time: every interior arc adds
    f/|f| to its edge in the flow's stored arc order."""
    fa = tables.flows[(cluster_id, index)]
    loads: dict = {}
    for (a, b), f in fa.arcs.items():
        if a != SRC and b != SNK:
            edge = (a, b) if a < b else (b, a)
            loads[edge] = loads.get(edge, 0.0) + f / fa.value
    return loads


def _dict_cube_walk(maps, start_law: dict, lo: int, hi: int) -> dict:
    d = maps.dimension
    nodes = np.arange(1 << d)
    start = np.zeros(1 << d)
    for v, p in start_law.items():
        owned = [x for x, owner in enumerate(maps.node_owner) if owner == v]
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
    return loads


def _dict_kernel(backend, step: tuple[bool, int, int]) -> dict:
    """One step's loads by edge, its walk started on its own law: a leave
    step on its cluster law, toward the border law of its target, and a
    spread step on that border law, toward its cluster law."""
    spread, cluster_id, index = step
    own, border = _laws(backend.tree, step)
    if isinstance(backend, ReferenceBackend):
        return _dict_reference(backend, cluster_id, own, border)
    if isinstance(backend, FlowTables):
        return _dict_flow_walk(backend, cluster_id, index)
    if isinstance(backend, CubeScheme):
        maps, lo, hi = backend._cube(step)
        return _dict_cube_walk(maps, border if spread else own, lo, hi)
    raise TypeError(f"no dict kernel for {type(backend).__name__}")


def dict_hop_loads(tree, backend, hop: tuple[bool, int]) -> dict:
    """Loads of one crossing of a hop, by edge, its steps' dict kernels
    added step by step, each step from its own start law."""
    loads: dict = {}
    for step in routing._steps(tree, hop):
        for edge, x in _dict_kernel(backend, step).items():
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
