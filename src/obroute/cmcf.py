"""Minimum-congestion concurrent multicommodity flow, the package's one
solver for it, plus randomized rounding: one path per listed pair, drawn
from that pair's fractional routing.

A solution routes each source's whole demand over a mixture of
shortest-path trees inside the vertex restriction. The solver works on the
restriction's local vertex and edge ids: local id i is the i-th smallest
vertex of the restriction, and local edge j its j-th edge in graph order.
A restriction that induces a spanning tree gives every pair one simple
path, so its routing is forced: one tree per source, and no LP. Any other
restriction is solved by column generation over shortest-path trees (the
path formulation of Ford & Fulkerson, with one column per source tree).
Under edge lengths w the cheapest way to ship all of one source's demand is
its shortest-path tree, so pricing is one Dijkstra run from every source.
The master LP mixes the stored trees of each source (one convexity row per
source, one capacity row per edge) to minimise the congestion λ. It is
built column-wise from the pool's column arrays and passed straight to the
HiGHS bundled with SciPy (scipy.optimize._highspy._core), with the options
linprog(method="highs") sets, so each round costs HiGHS's solve and little
else. Its capacity-row duals are the next lengths w, and any lengths w >= 0
give the lower bound

    C_opt >= Σ_s Σ_t d_st · dist_w(s, t) / Σ_e c_e · w_e

The returned congestion is that of the master's final routing, a feasible
routing, and it is checked against this bound on every solve. Every local
vertex is reachable, so every distance in the bound is finite.

Before the first master LP, multiplicative weights (Garg & Könemann, FOCS
1998; Fleischer, SIAM J. Discrete Math 2000) seed the pool with spread-out
trees: the lengths start at 1/c_e, and each round stores every source's
shortest tree, then multiplies each length by exp(_EPS * u_e / max u), with
u_e the load over capacity of the average of the rounds' routings. Seeding
ends with the first round that lowers that average's congestion by less
than a fraction _SEED_GAIN. Hop-shortest trees alone put every first dual
on one edge, and each master round then rerouted around just that edge.

A solution keeps each source's trees of positive master weight: their
predecessor rows and weights. It turns a source's trees into paths on first
use, once (flows.decompose_by_sink), into one PathGroup per sink: the
paths, their probabilities and cumulative sums for draws, and on demand the
expected load of one draw per graph edge. The reference routing scheme and
impl-b's rounding of its cube paths both read these groups of the
certification solutions.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsOptions,
                                           HighsStatus, MatrixFormat, _Highs, kHighsInf,
                                           simplex_constants)
from scipy.sparse.csgraph import dijkstra

from obroute.flows import decompose_by_sink
from obroute.graph import CapacitatedGraph, DemandMatrix

__all__ = ["PathGroup", "CMCFSolution", "solve_cmcf_min_congestion", "round_paths"]

# master LPs allowed before giving up; a 32x32 grid permutation needs 4
_MAX_ROUNDS = 500
# growth rate of the seeding lengths, and the least relative drop in the
# averaged routing's congestion for which seeding goes on another round
_EPS = 0.5
_SEED_GAIN = 0.05
# pricing lengths are the duals w plus _TIE * max(w) * (1 + u_e / max u), with
# u_e the load over capacity of edge e in the master's routing: of the trees
# equally short under w, pricing picks one with fewer hops over less-used edges
# (on a 10x10 grid with 24 uniform pairs: 5 master LPs instead of 9). The bound
# uses the same lengths, so it drops by at most a relative
# 2 * _TIE * m * max(c) / min(c)
_TIE = 1e-12
# largest accepted relative gap between the returned routing and the dual bound
_GAP = 1e-7


class PathGroup:
    """The paths of one (source, sink) pair of a solution, each drawn with
    probability proportional to its weight, the cumulative sums of those
    probabilities that a draw searches, and, built on first use, the
    expected load of one draw on each graph edge."""

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

    Per demand source, its trees are predecessor rows over local ids (`vertices`
    maps a local id to its vertex; a root's entry is negative), each routing
    the source's whole demand, with master weights that are positive and sum
    to 1; `sinks` holds the local ids of its sinks, ascending. edge_loads and
    congestion are recomputed from those trees.
    """

    vertices: np.ndarray
    sinks: dict[int, np.ndarray]
    trees: dict[int, np.ndarray]
    weights: dict[int, np.ndarray]
    edge_loads: dict[tuple[int, int], float]   # canonical (u < v), both directions summed
    congestion: float

    _groups: dict[int, dict[int, PathGroup]] = field(default_factory=dict, repr=False)

    def path_groups(self, source: int) -> dict[int, PathGroup]:
        """Per sink, the PathGroup of the source's tree paths to it; the whole
        source is read on first use."""
        if source not in self._groups:
            grouped = decompose_by_sink(self.trees[source], self.weights[source],
                                        self.sinks[source], self.vertices)
            self._groups[source] = {sink: PathGroup(entries)
                                    for sink, entries in grouped.items()}
        return self._groups[source]


def solve_cmcf_min_congestion(g: CapacitatedGraph, demands: DemandMatrix | dict,
                              restrict: set[int]) -> CMCFSolution:
    """Solve min-congestion routing of `demands` inside G[restrict].

    `demands` must pass g.check_demands and lie inside the restriction, and
    the restriction must induce a connected subgraph, or ValueError is
    raised. A restriction that induces a spanning tree routes every source
    on its one tree, with no LP. Any other returns the master's final
    routing, a feasible routing within relative gap _GAP of the dual lower
    bound, and raises RuntimeError when the gap is larger, when the round
    cap is reached, or when an LP fails.
    """
    entries = g.check_demands(demands).entries
    verts = sorted(restrict)
    local = {v: i for i, v in enumerate(verts)}
    for s, t in entries:
        if s not in local or t not in local:
            raise ValueError(f"demand pair ({s},{t}) lies outside the vertex restriction")
    vertices = np.array(verts, dtype=np.intp)
    if not entries:
        return CMCFSolution(vertices=vertices, sinks={}, trees={}, weights={},
                            edge_loads={}, congestion=0.0)
    vset = set(verts)
    if len(g.hop_distances(verts[:1], vset)) != len(verts):
        raise ValueError("vertex restriction induces a disconnected subgraph")

    n, edges = len(verts), [g.edges[i] for i in g.edges_inside(vset)]
    m = len(edges)
    sources = sorted({s for s, _ in entries})
    row_of = {s: r for r, s in enumerate(sources)}
    need = np.zeros((len(sources), n))
    for (s, t), d in entries.items():
        need[row_of[s], local[t]] += d
    caps = np.array([c for _, _, c in edges], dtype=float)
    tails = np.array([local[u] for u, _, _ in edges] + [local[v] for _, v, _ in edges],
                     dtype=np.int64)
    heads = np.roll(tails, m)
    edge_id = np.full((n, n), -1, dtype=np.int64)
    edge_id[tails, heads] = np.tile(np.arange(m), 2)
    roots = [local[s] for s in sources]

    # the arc lengths as one CSR matrix whose entries are rewritten per call:
    # entry i holds the length of arc arcs[i]. Rebuilding it on every call
    # cost gravity-8x8 8% of its set-up time
    lengths = sp.csr_matrix((np.arange(1.0, 2 * m + 1), (tails, heads)), shape=(n, n))
    arcs = lengths.data.astype(np.intp) - 1

    def shortest_trees(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lengths.data = np.tile(w, 2)[arcs]
        return dijkstra(lengths, directed=True, indices=roots, return_predecessors=True)

    def tree_loads(pred: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return _tree_loads(pred, need[rows], edge_id, m)

    pool = _TreePool(len(sources), m)
    if m == n - 1:
        _, pred = shortest_trees(1.0 / caps)
        everyone = np.arange(len(sources))
        pool.add(everyone, pred, tree_loads(pred, everyone))
        x = np.ones(len(sources))
    else:
        x = _column_generation(pool, caps, need, shortest_trees, tree_loads)

    loads = pool.loads(x)
    source_of, preds = np.array(pool.source), np.array(pool.preds)
    trees, weights, sinks = {}, {}, {}
    for r, s in enumerate(sources):
        mine = (source_of == r) & (x > 0)
        trees[s], weights[s], sinks[s] = preds[mine], x[mine], np.flatnonzero(need[r])
    return CMCFSolution(vertices=vertices, sinks=sinks, trees=trees, weights=weights,
                        edge_loads={(u, v): float(f) for (u, v, _), f in zip(edges, loads)
                                    if f > 0},
                        congestion=float((loads / caps).max()))


def _column_generation(pool: "_TreePool", caps: np.ndarray, need: np.ndarray,
                       shortest_trees, tree_loads) -> np.ndarray:
    """Seed the pool by multiplicative weights, then run master LPs and
    pricing until no source has a cheaper tree; returns the master's final
    tree weights, after checking their congestion against the dual bound."""
    everyone = np.arange(len(need))
    w, total, rounds, best = 1.0 / caps, np.zeros(len(caps)), 0, np.inf
    while True:
        _, pred = shortest_trees(w)
        trees = tree_loads(pred, everyone)
        pool.add(everyone, pred, trees)
        total += trees.sum(axis=0)
        rounds += 1
        use = total / (rounds * caps)
        if use.max() > (1.0 - _SEED_GAIN) * best:
            break
        best = use.max()
        w = w * np.exp(_EPS * use / best)
    for _ in range(_MAX_ROUNDS):
        x, sigma, w = pool.solve_master(caps)
        use = pool.loads(x) / caps
        w += _TIE * w.max() * (1.0 + use / use.max())
        dist, pred = shortest_trees(w)
        cost = (need * dist).sum(axis=1)
        # cheaper by more than rounding; a tree already stored is not added twice
        cheaper = np.flatnonzero(cost < sigma - 1e-12 * np.abs(sigma))
        if cheaper.size == 0 or not pool.add(
                cheaper, pred[cheaper], tree_loads(pred[cheaper], cheaper)):
            break
    else:
        raise RuntimeError(f"column generation did not converge in {_MAX_ROUNDS} master LPs")

    congestion = float(use.max())
    bound = float(cost.sum() / (caps @ w))
    if not abs(congestion - bound) <= _GAP * congestion:     # a nan fails too
        raise RuntimeError(f"optimal congestion {congestion!r} is not within relative gap "
                           f"{_GAP} of its dual lower bound {bound!r}")
    return x


def _tree_loads(pred: np.ndarray, need: np.ndarray, edge_id: np.ndarray,
                m: int) -> np.ndarray:
    """Edge loads (rows x m) of shipping each row's demand along its
    predecessor tree: every sink's demand climbs its tree path to the root."""
    k = len(pred)
    rows, cur = np.nonzero(need)
    amount = need[rows, cur]
    slots, weights = [], []
    while rows.size:
        up = pred[rows, cur]
        live = up >= 0
        rows, cur, up, amount = rows[live], cur[live], up[live], amount[live]
        slots.append(rows * m + edge_id[up, cur])
        weights.append(amount)
        cur = up
    return np.bincount(np.concatenate(slots), weights=np.concatenate(weights),
                       minlength=k * m).reshape(k, m)


class _TreePool:
    """The master LP's columns: one stored tree per column, its predecessor
    row and the edge loads of its source's whole demand. The columns are
    three arrays, built once per master round on their first read after an
    add: the edge ids of every column's nonzero loads, column after column,
    those loads, and each column's count of them."""

    def __init__(self, n_sources: int, m: int):
        self.n_sources, self.m = n_sources, m
        self.source: list[int] = []
        self.preds: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.seen: set[tuple[int, bytes]] = set()
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def add(self, sources: np.ndarray, preds: np.ndarray, loads: np.ndarray) -> bool:
        """Store the trees not stored yet; False when every one was."""
        added = False
        for r, pred, row in zip(sources.tolist(), preds, loads):
            key = (r, row.tobytes())
            if key in self.seen:
                continue
            self.seen.add(key)
            edges = np.flatnonzero(row)
            self.source.append(r)
            self.preds.append(pred)
            self.rows.append(edges)
            self.vals.append(row[edges])
            added = True
        if added:
            self._arrays = None
        return added

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (np.concatenate(self.rows), np.concatenate(self.vals),
                            np.array([len(e) for e in self.rows]))
        return self._arrays

    def loads(self, x: np.ndarray) -> np.ndarray:
        """Edge loads of the tree weights x: each edge's terms added in
        column order, as a CSR matrix-vector product adds them."""
        index, value, lengths = self._columns()
        return np.bincount(index, weights=value * np.repeat(x, lengths), minlength=self.m)

    def solve_master(self, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """min λ over mixtures of stored trees; returns the tree weights, the
        convexity-row duals and the capacity-row duals as edge lengths.

        The model is column-wise: capacity rows (loads - λ c <= 0), then one
        convexity row per source (its weights sum to 1); a tree's column
        holds its loads, then a 1 in its source's row, and λ is the last
        column."""
        index, value, lengths = self._columns()
        k, m, n_rows = len(lengths), self.m, self.m + self.n_sources
        source = np.array(self.source)
        ends = np.cumsum(lengths)
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = k + 1, n_rows
        lp.col_cost_ = np.concatenate((np.zeros(k), [1.0]))
        lp.col_lower_ = np.zeros(k + 1)
        lp.col_upper_ = np.full(k + 1, kHighsInf)
        lp.row_lower_ = np.concatenate((np.full(m, -kHighsInf), np.ones(self.n_sources)))
        lp.row_upper_ = np.concatenate((np.zeros(m), np.ones(self.n_sources)))
        a = lp.a_matrix_
        a.format_ = MatrixFormat.kColwise
        a.num_col_, a.num_row_ = k + 1, n_rows
        # integer lists convert to HiGHS's index vectors several times faster
        # than integer arrays
        a.start_ = np.concatenate(([0], ends + np.arange(1, k + 1), [ends[-1] + k + m])).tolist()
        a.index_ = np.concatenate((np.insert(index, ends, m + source), np.arange(m))).tolist()
        a.value_ = np.concatenate((np.insert(value, ends, 1.0), -caps))
        col_value, row_dual = _solve_lp(lp)
        x = col_value[:k]
        x /= np.bincount(source, weights=x)[source]   # ship each demand exactly
        return x, row_dual[m:], np.maximum(-row_dual[:m], 0.0)


# the options linprog(method="highs") passes: presolve on, dual simplex, no output
_OPTIONS = HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False


def _solve_lp(lp: HighsLp) -> tuple[np.ndarray, np.ndarray]:
    """Solve lp with HiGHS; returns its column values and row duals. Raises
    RuntimeError, before any solution is read, when HiGHS rejects the
    options or the model or fails to run, or when the model status is not
    optimal."""
    highs = _Highs()
    if highs.passOptions(_OPTIONS) == HighsStatus.kError:
        status, text = HighsModelStatus.kNotset, "HiGHS rejected the options"
    elif highs.passModel(lp) == HighsStatus.kError:
        status, text = HighsModelStatus.kModelError, "HiGHS rejected the model"
    elif highs.run() == HighsStatus.kError:
        status = highs.getModelStatus()
        text = f"HiGHS run failed, {highs.modelStatusToString(status)}"
    else:
        status = highs.getModelStatus()
        text = "" if status == HighsModelStatus.kOptimal else highs.modelStatusToString(status)
    if text:
        raise RuntimeError(f"LP solver failed (status {int(status)}): {text}")
    solution = highs.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


# ---------------------------------------------------------------------------
# randomized rounding
# ---------------------------------------------------------------------------

def round_paths(sol: CMCFSolution, pairs: list[tuple[int, int]],
                rng: np.random.Generator) -> list[list[int]]:
    """Randomized rounding: one path per listed pair (s, t), drawn from that
    pair's PathGroup with one uniform number per pair. A pair listed k times
    gets k independent draws, so its expected load on every edge is k times
    its per-unit fractional load."""
    return [sol.path_groups(s)[t].draw(u)
            for (s, t), u in zip(pairs, rng.random(len(pairs)))]
