"""Single-commodity flow machinery: integral max flow, cycle cancellation,
random-walk path sampling, and flow-path decomposition.

Flows live on directed arcs between integer vertex ids; the virtual
super-terminals SRC and SNK are ordinary ids as far as arc bookkeeping goes
but never appear in returned paths.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

SRC = -1
SNK = -2

_DECOMPOSE_REL_TOL = 1e-9   # decompose_paths drops residual below this share of the value
_CANCEL_EPS = 1e-12         # cancel_cycles drops arcs with at most this much flow

__all__ = ["SRC", "SNK", "FlowAssignment", "max_flow_integral", "cancel_cycles",
           "sample_path", "decompose_paths", "decompose_by_sink"]


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


def _widest_path(out: list[list[tuple[int, int]]], left: list[float], tails: list[int],
                 s: int, t: int) -> tuple[list[int], float] | None:
    """Arcs of a path from s to t whose narrowest arc is widest (Dijkstra on
    bottleneck width over local vertex indices), and that width; ties go to
    the vertex reached first, as heap order decides. out[v] lists (head, arc)
    per arc leaving v, left[arc] is its residual flow and tails[arc] its tail."""
    pop, push = heapq.heappop, heapq.heappush
    best = [0.0] * len(out)           # 0.0: not reached
    best[s] = float("inf")
    prev = [0] * len(out)             # arc that reached each vertex
    heap = [(-float("inf"), s)]
    while heap:
        negw, v = pop(heap)
        width = -negw
        if width < best[v]:
            continue
        if v == t:
            break
        for u, k in out[v]:
            f = left[k]
            w = f if f < width else width
            if w > best[u]:
                best[u] = w
                prev[u] = k
                push(heap, (-w, u))
    width = best[t]               # the least residual along the path to t
    if width == 0.0:
        return None
    arcs = []
    while t != s:
        arcs.append(prev[t])
        t = tails[prev[t]]
    return arcs[::-1], width


def decompose_paths(fa: FlowAssignment) -> list[tuple[list[int], float]]:
    """Decompose into weighted source-to-sink paths by repeated widest-path extraction.

    Each extraction zeroes at least one arc, so at most |arcs| paths result.
    Returned paths exclude the terminals. Residual below _DECOMPOSE_REL_TOL *
    value is dropped. Vertices are indexed in sorted id order, so heap ties
    break as they would on the ids.
    """
    if not fa.is_acyclic():
        raise ValueError("decompose_paths requires an acyclic flow")
    ids = sorted({v for arc in fa.arcs for v in arc} | {fa.source, fa.sink})
    index = {v: i for i, v in enumerate(ids)}
    out: list[list[tuple[int, int]]] = [[] for _ in ids]
    tails = [index[a] for a, _ in fa.arcs]
    heads = [b for _, b in fa.arcs]
    left = [float(f) for f in fa.arcs.values()]   # LP flows arrive as np.float64
    for k, b in enumerate(heads):
        out[tails[k]].append((index[b], k))
    cutoff = max(_DECOMPOSE_REL_TOL * max(fa.value, 1.0), 1e-15)
    paths: list[tuple[list[int], float]] = []
    while True:
        found = _widest_path(out, left, tails, index[fa.source], index[fa.sink])
        if found is None or found[1] <= cutoff:
            break
        arcs, width = found
        for k in arcs:
            rest = left[k] - width
            left[k] = 0.0 if rest <= cutoff else rest   # 0.0 never relaxes
        paths.append(([heads[k] for k in arcs[:-1]], width))
    return paths


def decompose_by_sink(fa: FlowAssignment) -> dict[int, list[tuple[list[int], float]]]:
    """Group the path decomposition by the final graph vertex of each path."""
    groups: dict[int, list[tuple[list[int], float]]] = {}
    for path, w in decompose_paths(fa):
        groups.setdefault(path[-1], []).append((path, w))
    return groups
