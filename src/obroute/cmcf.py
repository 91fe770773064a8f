"""Minimum-congestion concurrent multicommodity flow, plus randomized
rounding: one path per listed pair, drawn from that pair's fractional flow.

A solution decomposes a source's flow on first use, once, into one PathGroup
per sink: the paths, their probabilities and cumulative sums for draws, and
on demand the expected load of one draw per graph edge. The reference
routing scheme and impl-b's rounding of its cube paths both read these
groups of the certification flows.

A restriction that induces a spanning tree gives every pair one simple path,
so its routing is forced and needs no LP; any other restriction is solved as
one LP with commodities aggregated by source vertex.

`solve_cmcf_batch` solves independent instances, such as the per-cluster
instances of a certification, on a thread pool sized to the usable CPUs.
The scipy HiGHS binding holds the GIL for much of a solve, so the threads
overlap the LPs only in part: on a 2-core VM, grid 8x8's root certification
LP took 109-178 ms wall alone and 242-258 ms next to a busy pure-Python
thread, while its own CPU time stayed at 109-174 and 121-122 ms. Each
instance is solved exactly as on its own, so the results do not depend on
the concurrency."""
from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from obroute.flows import SNK, SRC, FlowAssignment, cancel_cycles, decompose_by_sink
from obroute.graph import CapacitatedGraph, DemandMatrix

# above this variable count the dual simplex stalls; interior point stays fast.
# Only certification LPs reach it: the optimum oracle solves small master LPs
# of its own (obroute.optimum)
_IPM_THRESHOLD = 60_000

__all__ = ["PathGroup", "CMCFSolution", "solve_cmcf_min_congestion", "solve_cmcf_batch",
           "round_paths"]


class PathGroup:
    """The decomposed flow of one (source, sink) pair of a solution: its
    paths, each drawn with probability proportional to its width, the
    cumulative sums of those probabilities that a draw searches, and, built
    on first use, the expected load of one draw on each graph edge."""

    __slots__ = ("paths", "probs", "cum", "_loads")

    def __init__(self, entries: list[tuple[list[int], float]]):
        self.paths = [path for path, _ in entries]
        widths = [w for _, w in entries]
        total = _numpy_sum(widths)
        self.probs = [w / total for w in widths]
        self.cum = list(accumulate(self.probs))
        self._loads: tuple[np.ndarray, np.ndarray] | None = None

    def draw(self, u: float) -> list[int]:
        """The path whose cumulative-probability interval holds u in [0, 1)."""
        return self.paths[min(bisect_right(self.cum, u), len(self.paths) - 1)]

    def unit_loads(self, g: CapacitatedGraph) -> tuple[np.ndarray, np.ndarray]:
        """Graph edge ids, and the expected load on each, of one draw: each
        edge's probability summed over its paths in stored order. Raises on a
        stored path that steps off g."""
        if self._loads is None:
            edge_index = g.edge_index
            loads: dict[int, float] = {}
            for path, p in zip(self.paths, self.probs):
                for a, b in zip(path, path[1:]):
                    try:
                        e = edge_index(a, b)
                    except KeyError:
                        raise RuntimeError(f"stored path steps off the graph at "
                                           f"({a},{b})") from None
                    loads[e] = loads.get(e, 0.0) + p
            self._loads = (np.fromiter(loads, np.intp, len(loads)),
                           np.fromiter(loads.values(), float, len(loads)))
        return self._loads


def _numpy_sum(xs: list[float]) -> float:
    """The float sum NumPy gives for np.array(xs).sum(): fewer than 8 values
    add left to right, more go through NumPy's pairwise summation."""
    if len(xs) >= 8:
        return float(np.array(xs).sum())
    total = 0.0
    for x in xs:
        total += x
    return total


@dataclass
class CMCFSolution:
    """Feasible fractional routing of a demand set inside a vertex restriction.

    source_flows holds one cycle-free FlowAssignment per demand source with the
    super-terminals attached; congestion is recomputed from those flows, so it
    matches the stored loads exactly.
    """

    source_flows: dict[int, FlowAssignment]
    edge_loads: dict[tuple[int, int], float]   # canonical (u < v), both directions summed
    congestion: float
    lp_objective: float

    _groups: dict[int, dict[int, PathGroup]] = field(default_factory=dict, repr=False)

    def path_groups(self, source: int) -> dict[int, PathGroup]:
        """Per sink, the PathGroup of the source's flow decomposed by sink;
        the whole source is decomposed on first use."""
        if source not in self._groups:
            grouped = decompose_by_sink(self.source_flows[source])
            self._groups[source] = {sink: PathGroup(entries)
                                    for sink, entries in grouped.items()}
        return self._groups[source]


def solve_cmcf_min_congestion(g: CapacitatedGraph, demands: DemandMatrix | dict,
                              restrict: set[int]) -> CMCFSolution:
    """Solve min-congestion routing of `demands` inside G[restrict].

    Returns per-source cycle-free flows. `demands` must pass g.check_demands
    and lie inside the restriction, or ValueError is raised. Infeasibility is
    impossible on a connected restriction; a disconnected restriction is
    rejected up front.
    When G[restrict] is a spanning tree every pair has exactly one simple
    path, so the routing is forced and is built without an LP; any other
    restriction is one LP.
    """
    entries = g.check_demands(demands).entries
    verts = sorted(restrict)
    vset = set(verts)
    by_source: dict[int, list[tuple[int, float]]] = {}
    for (s, t), d in entries.items():
        if s not in vset or t not in vset:
            raise ValueError(f"demand pair ({s},{t}) lies outside the vertex restriction")
        by_source.setdefault(s, []).append((t, d))
    if not by_source:
        return CMCFSolution(source_flows={}, edge_loads={},
                            congestion=0.0, lp_objective=0.0)

    if len(g.hop_distances(verts[:1], vset)) != len(verts):
        raise ValueError("vertex restriction induces a disconnected subgraph")
    edges = [g.edges[i] for i in g.edges_inside(vset)]
    sources = sorted(by_source)
    tree = len(edges) == len(verts) - 1
    if tree:
        arc_flows = [_tree_arc_flows(g, s, by_source[s], vset) for s in sources]
    else:
        arc_flows, lp_objective = _lp_arc_flows(edges, verts, sources, by_source)

    source_flows: dict[int, FlowAssignment] = {}
    for s, fa_arcs in zip(sources, arc_flows):
        total = 0.0
        for t, d in by_source[s]:
            fa_arcs[(t, SNK)] = fa_arcs.get((t, SNK), 0.0) + d
            total += d
        fa_arcs[(SRC, s)] = total
        fa = FlowAssignment(arcs=fa_arcs, source=SRC, sink=SNK, value=total)
        bad = fa.conservation_violations(tol=1e-6 * max(1.0, total))
        if bad:
            raise RuntimeError(f"solver returned flows violating demands of source {s}: {bad}")
        source_flows[s] = cancel_cycles(fa)

    loads: dict[tuple[int, int], float] = {}
    for fa in source_flows.values():
        for (a, b), f in fa.arcs.items():
            if a < 0 or b < 0:
                continue
            key = (a, b) if a < b else (b, a)
            loads[key] = loads.get(key, 0.0) + f
    congestion = 0.0
    for (u, v, c) in edges:
        congestion = max(congestion, loads.get((u, v), 0.0) / c)

    return CMCFSolution(source_flows=source_flows, edge_loads=loads,
                        congestion=congestion,
                        lp_objective=congestion if tree else lp_objective)


def solve_cmcf_batch(g: CapacitatedGraph,
                     instances: list[tuple[DemandMatrix | dict, set[int]]]
                     ) -> list[CMCFSolution]:
    """solve_cmcf_min_congestion of every (demands, restrict) pair, concurrently;
    the solutions come back in input order, each exactly as solved on its own.

    The calling thread solves the largest restriction itself while a pool of
    one thread fewer than the usable CPUs (at least one) takes the rest in
    input order. Measured, that peaks at less memory than a pool of one
    thread per CPU beside an idle caller, at the same speed. A failure
    cancels the solves not yet started and is raised once the running ones
    have finished.
    """
    if not instances:
        return []
    own = max(range(len(instances)), key=lambda i: len(instances[i][1]))
    with ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1)) as pool:
        futures = [None if i == own else pool.submit(solve_cmcf_min_congestion, g, *inst)
                   for i, inst in enumerate(instances)]
        try:
            mine = solve_cmcf_min_congestion(g, *instances[own])
            return [mine if f is None else f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tree_arc_flows(g: CapacitatedGraph, s: int, sinks: list[tuple[int, float]],
                    vset: set[int]) -> dict[tuple[int, int], float]:
    """Arc flows of source s on the spanning tree G[vset]: each arc (parent, v)
    carries the demand of every sink in v's subtree."""
    dist = g.hop_distances([s], vset)
    below = dict.fromkeys(dist, 0.0)
    for t, d in sinks:
        below[t] += d
    arcs: dict[tuple[int, int], float] = {}
    for v in reversed(dist):            # breadth-first order reversed: children first
        if v == s or below[v] == 0.0:
            continue
        parent = next(u for u, _ in g.adj[v] if dist.get(u) == dist[v] - 1)
        arcs[(parent, v)] = below[v]
        below[parent] += below[v]
    return arcs


def _lp_arc_flows(edges: list[tuple[int, int, int]], verts: list[int], sources: list[int],
                  by_source: dict[int, list[tuple[int, float]]]
                  ) -> tuple[list[dict[tuple[int, int], float]], float]:
    """One min-congestion LP over per-source arc flows; returns each source's
    positive arc flows (in `sources` order) and the optimal congestion."""
    msub = len(edges)
    arcs = [(u, v) for u, v, _ in edges] + [(v, u) for u, v, _ in edges]
    n_arcs = len(arcs)
    vidx = {v: i for i, v in enumerate(verts)}
    nv = len(verts)
    caps = np.array([c for _, _, c in edges], dtype=float)

    n_src = len(sources)
    nvar = n_src * n_arcs + 1
    lam = nvar - 1

    tail = np.array([vidx[a[0]] for a in arcs])
    head = np.array([vidx[a[1]] for a in arcs])
    arange = np.arange(n_arcs)

    rows, cols, vals, b_parts = [], [], [], []
    for si, s in enumerate(sources):
        base = si * n_arcs
        row0 = si * nv
        rows.append(row0 + tail)
        cols.append(base + arange)
        vals.append(np.ones(n_arcs))
        rows.append(row0 + head)
        cols.append(base + arange)
        vals.append(-np.ones(n_arcs))
        b = np.zeros(nv)
        for t, d in by_source[s]:
            b[vidx[t]] -= d
            b[vidx[s]] += d
        b_parts.append(b)
    A_eq = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_src * nv, nvar)).tocsr()
    b_eq = np.concatenate(b_parts)

    rows, cols, vals = [], [], []
    erange = np.arange(msub)
    for si in range(n_src):
        base = si * n_arcs
        rows.append(erange)
        cols.append(base + erange)
        vals.append(np.ones(msub))
        rows.append(erange)
        cols.append(base + msub + erange)
        vals.append(np.ones(msub))
    rows.append(erange)
    cols.append(np.full(msub, lam))
    vals.append(-caps)
    A_ub = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(msub, nvar)).tocsr()

    cost = np.zeros(nvar)
    cost[lam] = 1.0
    method = "highs" if nvar <= _IPM_THRESHOLD else "highs-ipm"
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(msub), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method=method)
    if res.status != 0:
        raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")

    x = res.x
    flows = []
    for si in range(n_src):
        base = si * n_arcs
        flows.append({arc: x[base + k] for k, arc in enumerate(arcs) if x[base + k] > 1e-11})
    return flows, float(res.fun)


# ---------------------------------------------------------------------------
# randomized rounding
# ---------------------------------------------------------------------------

def round_paths(sol: CMCFSolution, pairs: list[tuple[int, int]],
                rng: np.random.Generator) -> list[list[int]]:
    """Randomized rounding: one path per listed pair (s, t), drawn from the
    decomposition of that pair's flow with one uniform number per pair. A pair
    listed k times gets k independent draws, so its expected load on every
    edge is k times its per-unit fractional load."""
    return [sol.path_groups(s)[t].draw(u)
            for (s, t), u in zip(pairs, rng.random(len(pairs)))]
