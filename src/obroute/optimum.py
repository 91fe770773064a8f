"""Optimal-congestion oracle: the minimum congestion any demand-aware
fractional routing achieves, and the competitive ratio against it.

The optimum is found by column generation over shortest-path trees (the
path formulation of Ford & Fulkerson, with one column per source tree).
Under edge lengths w the cheapest way to ship all of one source's demand is
its shortest-path tree, so pricing is one Dijkstra run from every source.
The master LP mixes the stored trees of each source (one convexity row per
source, one capacity row per edge) to minimise the congestion λ. Its
capacity-row duals are the next lengths w, and any lengths w >= 0 give the
lower bound

    C_opt >= Σ_s Σ_t d_st · dist_w(s, t) / Σ_e c_e · w_e

The returned congestion is that of the master's final routing, a feasible
routing, and it is checked against this bound on every call.

Before the first master LP, multiplicative weights (Garg & Könemann, FOCS
1998; Fleischer, SIAM J. Discrete Math 2000) seed the pool with spread-out
trees: the lengths start at 1/c_e, and each round stores every source's
shortest tree, then multiplies each length by exp(_EPS * u_e / max u), with
u_e the load over capacity of the average of the rounds' routings. Seeding
ends with the first round that lowers that average's congestion by less
than a fraction _SEED_GAIN. Hop-shortest trees alone put every first dual
on one edge, and each master round then rerouted around just that edge.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import dijkstra

from obroute.graph import CapacitatedGraph, DemandMatrix

__all__ = ["optimal_congestion", "competitive_ratio"]

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


def optimal_congestion(g: CapacitatedGraph, demands: DemandMatrix | dict) -> float:
    """Minimum congestion any (fractional, demand-aware) routing can achieve.

    Returns max_e load_e / c_e of the master's final routing, a feasible
    routing within relative gap 1e-7 of the dual lower bound. Raises
    ValueError unless `demands` pass g.check_demands, and RuntimeError when
    the gap is larger or the round cap is reached.
    """
    entries = g.check_demands(demands).entries
    if not entries:
        return 0.0

    sources = sorted({s for s, _ in entries})
    row_of = {s: r for r, s in enumerate(sources)}
    need = np.zeros((len(sources), g.n))
    for (s, t), d in entries.items():
        need[row_of[s], t] += d
    caps = np.array([c for _, _, c in g.edges], dtype=float)
    tails = np.array([u for u, _, _ in g.edges] + [v for _, v, _ in g.edges], dtype=np.int64)
    heads = np.roll(tails, g.m)
    edge_id = np.full((g.n, g.n), -1, dtype=np.int64)
    edge_id[tails, heads] = np.tile(np.arange(g.m), 2)

    def shortest_trees(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lengths = sp.csr_matrix((np.tile(w, 2), (tails, heads)), shape=(g.n, g.n))
        return dijkstra(lengths, directed=True, indices=sources, return_predecessors=True)

    pool = _TreePool(len(sources), g.m)
    w, total, rounds, best = 1.0 / caps, np.zeros(g.m), 0, np.inf
    while True:
        _, pred = shortest_trees(w)
        trees = _tree_loads(pred, need, edge_id, g.m)
        pool.add(np.arange(len(sources)), trees)
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
                cheaper, _tree_loads(pred[cheaper], need[cheaper], edge_id, g.m)):
            break
    else:
        raise RuntimeError(f"column generation did not converge in {_MAX_ROUNDS} master LPs")

    congestion = float(use.max())
    bound = float(cost.sum() / (caps @ w))
    if abs(congestion - bound) > _GAP * congestion:
        raise RuntimeError(f"optimal congestion {congestion!r} is not within relative gap "
                           f"{_GAP} of its dual lower bound {bound!r}")
    return congestion


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
    """The master LP's columns: one stored tree per column, each the edge
    loads of one source's whole demand. The column matrix is built once per
    master round, on its first read after an add."""

    def __init__(self, n_sources: int, m: int):
        self.n_sources, self.m = n_sources, m
        self.source: list[int] = []
        self.rows: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.seen: set[tuple[int, bytes]] = set()
        self._matrix: sp.csr_matrix | None = None

    def add(self, sources: np.ndarray, loads: np.ndarray) -> bool:
        """Store the trees not stored yet; False when every one was."""
        added = False
        for r, row in zip(sources.tolist(), loads):
            key = (r, row.tobytes())
            if key in self.seen:
                continue
            self.seen.add(key)
            edges = np.flatnonzero(row)
            self.source.append(r)
            self.rows.append(edges)
            self.vals.append(row[edges])
            added = True
        if added:
            self._matrix = None
        return added

    def _columns(self) -> sp.csr_matrix:
        if self._matrix is None:
            cols = np.repeat(np.arange(len(self.rows)), [len(e) for e in self.rows])
            self._matrix = sp.csr_matrix(
                (np.concatenate(self.vals), (np.concatenate(self.rows), cols)),
                shape=(self.m, len(self.rows)))
        return self._matrix

    def loads(self, x: np.ndarray) -> np.ndarray:
        return self._columns() @ x

    def solve_master(self, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """min λ over mixtures of stored trees; returns the tree weights, the
        convexity-row duals and the capacity-row duals as edge lengths."""
        k = len(self.source)
        a_ub = sp.hstack([self._columns(), sp.csr_matrix(-caps[:, None])], format="csr")
        a_eq = sp.csr_matrix((np.ones(k), (self.source, np.arange(k))),
                             shape=(self.n_sources, k + 1))
        cost = np.zeros(k + 1)
        cost[k] = 1.0
        res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(self.m), A_eq=a_eq,
                      b_eq=np.ones(self.n_sources), bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
        x = res.x[:k]
        x /= np.bincount(self.source, weights=x)[self.source]   # ship each demand exactly
        return x, res.eqlin.marginals, np.maximum(-res.ineqlin.marginals, 0.0)


def competitive_ratio(scheme_congestion: float, optimal: float) -> float:
    """Scheme congestion over optimal congestion; 1.0 when both are zero."""
    if optimal == 0.0:
        if scheme_congestion == 0.0:
            return 1.0
        raise ValueError(f"positive scheme congestion {scheme_congestion} with zero "
                         "optimal congestion is inconsistent")
    return scheme_congestion / optimal
