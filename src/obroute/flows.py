"""Single-commodity flow machinery: integral max flow, cycle cancellation
and random-walk path sampling; and the paths of a source's weighted
shortest-path trees, grouped by sink, which multicommodity solutions
(obroute.cmcf) draw from.

Flows live on directed arcs between integer vertex ids; the virtual
super-terminals SRC and SNK are ordinary ids as far as arc bookkeeping goes
but never appear in returned paths.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

SRC = -1
SNK = -2

_CANCEL_EPS = 1e-12         # cancel_cycles drops arcs with at most this much flow

__all__ = ["SRC", "SNK", "FlowAssignment", "max_flow_integral", "cancel_cycles",
           "sample_path", "decompose_by_sink"]


@dataclass
class FlowAssignment:
    """Directed arc flows plus the terminals they run between."""

    arcs: dict[tuple[int, int], float]
    source: int
    sink: int
    value: float

    _out: dict[int, list[tuple[int, float]]] | None = field(default=None, repr=False)
    _in: dict[int, list[tuple[int, float]]] | None = field(default=None, repr=False)
    _acyclic: bool | None = field(default=None, repr=False)

    def outgoing(self, v: int) -> list[tuple[int, float]]:
        if self._out is None:
            out: dict[int, list[tuple[int, float]]] = {}
            for (a, b), f in self.arcs.items():
                out.setdefault(a, []).append((b, f))
            self._out = out
        return self._out.get(v, [])

    def incoming(self, v: int) -> list[tuple[int, float]]:
        if self._in is None:
            inc: dict[int, list[tuple[int, float]]] = {}
            for (a, b), f in self.arcs.items():
                inc.setdefault(b, []).append((a, f))
            self._in = inc
        return self._in.get(v, [])

    def conservation_violations(self, tol: float = 1e-9) -> dict[int, float]:
        """Net imbalance per non-terminal vertex; empty when conserved."""
        net: dict[int, float] = {}
        for (a, b), f in self.arcs.items():
            net[a] = net.get(a, 0.0) - f
            net[b] = net.get(b, 0.0) + f
        bad = {}
        for v, x in net.items():
            if v in (self.source, self.sink):
                continue
            if abs(x) > tol:
                bad[v] = x
        return bad

    def is_acyclic(self) -> bool:
        if self._acyclic is None:
            self._acyclic = not _find_cycle(self.arcs)
        return self._acyclic


def max_flow_integral(arcs: list[tuple[int, int, int]], s: int, t: int) -> FlowAssignment:
    """Maximum s-t flow on directed integer-capacity arcs (Dinic).

    Every arc flow in the result is a nonnegative integer bounded by its
    capacity; the value is maximal (certified by the residual cut).
    """
    if s == t:
        raise ValueError("max flow needs distinct source and sink")
    ids = sorted({v for a in arcs for v in a[:2]} | {s, t})
    index = {v: i for i, v in enumerate(ids)}
    nv = len(ids)
    graph: list[list[list[int]]] = [[] for _ in range(nv)]  # entries [to, cap, rev_pos]
    arc_ref: list[tuple[int, int, int]] = []  # (tail_index, pos, original cap)
    for u, v, cap in arcs:
        if cap < 0:
            raise ValueError(f"arc ({u},{v}) has negative capacity {cap}")
        if int(cap) != cap:
            raise ValueError(f"arc ({u},{v}) capacity must be integral, got {cap}")
        iu, iv = index[u], index[v]
        graph[iu].append([iv, int(cap), len(graph[iv])])
        graph[iv].append([iu, 0, len(graph[iu]) - 1])
        arc_ref.append((iu, len(graph[iu]) - 1, int(cap)))
    si, ti = index[s], index[t]

    total = 0
    while True:
        level = [-1] * nv
        level[si] = 0
        queue = deque([si])
        while queue:
            v = queue.popleft()
            for e in graph[v]:
                if e[1] > 0 and level[e[0]] < 0:
                    level[e[0]] = level[v] + 1
                    queue.append(e[0])
        if level[ti] < 0:
            break
        iters = [0] * nv
        while True:
            pushed = _dinic_augment(graph, level, iters, si, ti)
            if pushed == 0:
                break
            total += pushed

    flows: dict[tuple[int, int], float] = {}
    for k, (iu, pos, cap0) in enumerate(arc_ref):
        f = cap0 - graph[iu][pos][1]
        if not 0 <= f <= cap0:
            raise RuntimeError(f"arc flow {f} outside [0,{cap0}]")
        if f > 0:
            u, v = arcs[k][0], arcs[k][1]
            flows[(u, v)] = flows.get((u, v), 0) + f
    return FlowAssignment(arcs=flows, source=s, sink=t, value=total)


def _dinic_augment(graph, level, iters, s, t) -> int:
    # one augmenting path in the level graph, iterative with current-arc pointers
    path: list[tuple[int, int]] = []
    v = s
    while True:
        if v == t:
            aug = min(graph[a][i][1] for a, i in path)
            for a, i in path:
                e = graph[a][i]
                e[1] -= aug
                graph[e[0]][e[2]][1] += aug
            return aug
        advanced = False
        while iters[v] < len(graph[v]):
            e = graph[v][iters[v]]
            if e[1] > 0 and level[e[0]] == level[v] + 1:
                path.append((v, iters[v]))
                v = e[0]
                advanced = True
                break
            iters[v] += 1
        if advanced:
            continue
        if v == s:
            return 0
        level[v] = -1  # dead end for this phase
        a, i = path.pop()
        iters[a] += 1
        v = a


def _find_cycle(arcs: dict[tuple[int, int], float]) -> list[int] | None:
    """A directed cycle among arcs with positive flow, or None."""
    adj: dict[int, list[int]] = {}
    for (a, b), f in arcs.items():
        if f > 0:
            adj.setdefault(a, []).append(b)
    color: dict[int, int] = {}  # 0 active-path, 1 done
    for root in adj:
        if root in color:
            continue
        stack = [(root, iter(adj.get(root, [])))]
        color[root] = 0
        trail = [root]
        while stack:
            v, it = stack[-1]
            found = False
            for u in it:
                if u not in adj:
                    continue
                state = color.get(u)
                if state == 0:
                    return trail[trail.index(u):] + [u]
                if state is None:
                    color[u] = 0
                    stack.append((u, iter(adj.get(u, []))))
                    trail.append(u)
                    found = True
                    break
            if not found:
                color[v] = 1
                stack.pop()
                trail.pop()
    return None


def cancel_cycles(fa: FlowAssignment) -> FlowAssignment:
    """Remove opposite-arc flow and directed cycles; terminals and value unchanged.

    Arcs left with flow at most _CANCEL_EPS are dropped, so LP round-off does
    not keep a cycle alive; integral flows lose only their zero arcs. Per-arc
    flow never increases, so capacity feasibility is preserved.
    """
    arcs = dict(fa.arcs)
    for (a, b) in list(arcs):
        rev = (b, a)
        if (a, b) in arcs and rev in arcs and a < b:
            x = min(arcs[(a, b)], arcs[rev])
            if x > 0:
                arcs[(a, b)] -= x
                arcs[rev] -= x
    arcs = {k: f for k, f in arcs.items() if f > _CANCEL_EPS}
    while True:
        cycle = _find_cycle(arcs)
        if cycle is None:
            break
        hops = list(zip(cycle, cycle[1:]))
        x = min(arcs[h] for h in hops)
        for h in hops:
            arcs[h] -= x
        arcs = {k: f for k, f in arcs.items() if f > _CANCEL_EPS}
    out = FlowAssignment(arcs=arcs, source=fa.source, sink=fa.sink, value=fa.value)
    out._acyclic = True
    return out


def sample_path(fa: FlowAssignment, start: int, direction: str,
                rng: np.random.Generator) -> list[int]:
    """Random walk along (or against) the flow, terminating at the super-terminal.

    Step probabilities are proportional to arc flow. The returned path contains
    graph vertices only. Requires an acyclic assignment.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    if not fa.is_acyclic():
        raise ValueError("sample_path requires an acyclic flow (run cancel_cycles first)")
    terminal = fa.sink if direction == "forward" else fa.source
    links = fa.outgoing if direction == "forward" else fa.incoming
    if not links(start):
        raise ValueError(f"vertex {start} carries no {direction} flow")
    path = [start]
    cur = start
    while True:
        options = links(cur)
        targets = [u for u, _ in options]
        cum = list(accumulate(f for _, f in options))
        pick = targets[bisect_right(cum, rng.random() * cum[-1])]
        if pick == terminal:
            return path
        path.append(pick)
        cur = pick


def decompose_by_sink(preds: np.ndarray, weights: np.ndarray, sinks: np.ndarray,
                      names: np.ndarray) -> dict[int, list[tuple[list[int], float]]]:
    """The paths of one source's weighted trees, grouped by sink.

    preds holds one predecessor row per tree over local vertex ids (negative
    at the root), weights the trees' weights, sinks the local ids to group,
    and names maps a local id to the vertex id paths are written in. Per
    sink, in `sinks` order, each tree's path from the root to the sink, in
    tree order, identical paths merged into one entry whose weight is their
    trees' weights summed in tree order. All sinks climb all trees at once.
    """
    k = len(preds)
    rows, cur = np.tile(np.arange(k), len(sinks)), np.repeat(sinks, k)
    levels = []                       # column j: sink j // k climbing tree j % k
    while (cur >= 0).any():
        levels.append(cur)
        up = preds[rows, np.maximum(cur, 0)]
        cur = np.where((cur >= 0) & (up >= 0), up, -1)
    walks = np.array(levels).T        # each row: sink, ..., root, then -1 padding
    weight = weights.tolist()
    groups: dict[int, list[tuple[list[int], float]]] = {}
    for j, (walk, hops) in enumerate(zip(names[walks].tolist(),
                                         (walks >= 0).sum(axis=1).tolist())):
        path = walk[hops - 1::-1]
        entries = groups.setdefault(path[-1], [])
        for i, (other, w) in enumerate(entries):
            if other == path:
                entries[i] = (other, w + weight[j % k])
                break
        else:
            entries.append((path, weight[j % k]))
    return groups
