"""Capacitated undirected graphs: parsing, generation, validation, demand matrices."""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphFormatError",
    "CapacitatedGraph",
    "DemandMatrix",
    "parse_graph",
    "generate_graph",
    "graph_stats",
]


class GraphFormatError(ValueError):
    """Raised when a graph file or graph structure fails validation."""


class CapacitatedGraph:
    """Simple connected undirected graph with positive integer edge capacities.

    Edges are stored once with canonical orientation (u < v); flows elsewhere in
    the package are kept per direction. Vertex ids are 0..n-1.
    """

    def __init__(self, n: int, edges: list[tuple[int, int, int]]):
        if n < 1:
            raise GraphFormatError(f"vertex count must be >= 1, got {n}")
        canon: list[tuple[int, int, int]] = []
        seen_pairs: set[tuple[int, int]] = set()
        for u, v, cap in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u} is not allowed")
            if not isinstance(cap, (int, np.integer)) or isinstance(cap, bool):
                raise GraphFormatError(f"capacity of edge ({u},{v}) must be an integer, got {cap!r}")
            if cap <= 0:
                raise GraphFormatError(f"capacity of edge ({u},{v}) must be positive, got {cap}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen_pairs:
                raise GraphFormatError(f"duplicate edge ({a},{b})")
            seen_pairs.add((a, b))
            canon.append((a, b, int(cap)))
        canon.sort()
        self.n = n
        self.edges = canon
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._edge_index: dict[tuple[int, int], int] = {}
        for idx, (u, v, _) in enumerate(canon):
            self.adj[u].append((v, idx))
            self.adj[v].append((u, idx))
            self._edge_index[(u, v)] = idx
            self._edge_index[(v, u)] = idx
        reached = self.hop_distances([0])
        if len(reached) != n:
            missing = min(set(range(n)) - reached.keys())
            raise GraphFormatError(f"graph is disconnected (vertex {missing} unreachable from 0)")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_capacity(self) -> int:
        return max((c for _, _, c in self.edges), default=0)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edge_index(self, u: int, v: int) -> int:
        return self._edge_index[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    def neighbors(self, v: int) -> list[int]:
        return [u for u, _ in self.adj[v]]

    def hop_distances(self, sources, within: set[int] | None = None) -> dict[int, int]:
        """Breadth-first hop distance from the nearest source to every vertex
        reachable inside `within` (default: the whole graph).

        The sources count as reached even outside `within`; so the subgraph
        induced by a nonempty `within` is connected exactly when
        len(hop_distances([s], within)) == len(within) for any s in it.
        """
        dist = {s: 0 for s in sources}
        queue = deque(dist)
        while queue:
            v = queue.popleft()
            step = dist[v] + 1
            for u, _ in self.adj[v]:
                if u not in dist and (within is None or u in within):
                    dist[u] = step
                    queue.append(u)
        return dist

    def check_demands(self, demands: "DemandMatrix | dict") -> "DemandMatrix":
        """`demands` as a DemandMatrix on this graph. Every endpoint must be a
        vertex, and a plain dict is checked as a DemandMatrix (no negative or
        non-finite demand, no pair from a vertex to itself); ValueError
        otherwise. The one check of route_demands, optimal_congestion and
        solve_cmcf_min_congestion."""
        entries = demands.entries if isinstance(demands, DemandMatrix) else demands
        for (s, t) in entries:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"demand pair ({s},{t}) out of vertex range 0..{self.n - 1}")
        return demands if isinstance(demands, DemandMatrix) else DemandMatrix(entries)

    def uniform_capacities(self) -> bool:
        return all(c == 1 for _, _, c in self.edges)

    def edges_inside(self, vertices: set[int]) -> list[int]:
        """Indices of edges with both endpoints in `vertices`, ascending."""
        return sorted({idx for v in vertices for u, idx in self.adj[v] if u in vertices})

    def serialize(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines += [f"{u} {v} {c}" for u, v, c in self.edges]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"CapacitatedGraph(n={self.n}, m={self.m}, W={self.max_capacity})"


def parse_graph(text: str) -> CapacitatedGraph:
    """Parse the text format: header "n m", then m lines "u v cap".

    Blank lines and '#' comments are ignored. parse_graph(g.serialize()) == g.
    """
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(line.split())
        if len(rows[-1]) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 2 or 3 fields, got {len(rows[-1])}")
    if not rows:
        raise GraphFormatError("empty graph file")
    header = rows[0]
    if len(header) != 2:
        raise GraphFormatError("header must be exactly 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"header fields must be integers: {header}") from exc
    body = rows[1:]
    if len(body) != m:
        raise GraphFormatError(f"header declares {m} edges but file has {len(body)} edge lines")
    edges = []
    for fields in body:
        if len(fields) != 3:
            raise GraphFormatError(f"edge line needs 3 fields 'u v cap', got {fields}")
        try:
            u, v, cap = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise GraphFormatError(f"edge line fields must be integers: {fields}") from exc
        edges.append((u, v, cap))
    return CapacitatedGraph(n, edges)


def graph_stats(g: CapacitatedGraph) -> dict:
    return {"n": g.n, "m": g.m, "W": g.max_capacity, "max_degree": g.max_degree}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _grid_edges(rows: int, cols: int, wrap: bool) -> list[tuple[int, int]]:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            elif wrap:
                edges.append((vid(r, c), vid(0, c)))
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            elif wrap:
                edges.append((vid(r, c), vid(r, 0)))
    return edges


def grid_graph(rows: int, cols: int, cap_range: tuple[int, int] | None = None,
               seed: int | None = None) -> CapacitatedGraph:
    """Axis-aligned grid. Optional seeded random integer capacities in cap_range."""
    if rows < 1 or cols < 1:
        raise GraphFormatError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    pairs = _grid_edges(rows, cols, wrap=False)
    if cap_range is None:
        caps = [1] * len(pairs)
    else:
        lo, hi = cap_range
        if lo < 1 or hi < lo:
            raise GraphFormatError(f"bad capacity range {cap_range}")
        rng = np.random.default_rng(seed)
        caps = [int(c) for c in rng.integers(lo, hi + 1, size=len(pairs))]
    return CapacitatedGraph(rows * cols, [(u, v, c) for (u, v), c in zip(pairs, caps)])


def torus_graph(rows: int, cols: int) -> CapacitatedGraph:
    # wraparound on a 2-row/col torus would create duplicate edges
    if rows < 3 or cols < 3:
        raise GraphFormatError(f"torus dimensions must be >= 3, got {rows}x{cols}")
    pairs = _grid_edges(rows, cols, wrap=True)
    return CapacitatedGraph(rows * cols, [(u, v, 1) for u, v in pairs])


def hypercube_graph(dim: int) -> CapacitatedGraph:
    if dim < 0:
        raise GraphFormatError(f"hypercube dimension must be >= 0, got {dim}")
    n = 1 << dim
    edges = []
    for v in range(n):
        for bit in range(dim):
            u = v ^ (1 << bit)
            if v < u:
                edges.append((v, u, 1))
    return CapacitatedGraph(n, edges)


def random_regular_graph(n: int, deg: int, seed: int) -> CapacitatedGraph:
    """Seeded pairing-model regular graph, resampled until simple and connected."""
    if n < 2 or deg < 1 or deg >= n:
        raise GraphFormatError(f"need 2 <= n and 1 <= deg < n, got n={n} deg={deg}")
    if (n * deg) % 2 != 0:
        raise GraphFormatError(f"n*deg must be even, got n={n} deg={deg}")
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        stubs = np.repeat(np.arange(n), deg)
        rng.shuffle(stubs)
        pairs = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v or (min(u, v), max(u, v)) in pairs:
                ok = False
                break
            pairs.add((min(u, v), max(u, v)))
        if not ok:
            continue
        try:
            return CapacitatedGraph(n, [(u, v, 1) for u, v in sorted(pairs)])
        except GraphFormatError:
            continue  # disconnected draw, resample
    raise GraphFormatError(f"could not sample a connected {deg}-regular graph on {n} vertices")


def generate_graph(kind: str, **params) -> CapacitatedGraph:
    """Dispatch on generator kind: grid, torus, hypercube, random_regular."""
    if kind == "grid":
        return grid_graph(params["rows"], params["cols"],
                          cap_range=params.get("cap_range"), seed=params.get("seed"))
    if kind == "torus":
        return torus_graph(params["rows"], params["cols"])
    if kind == "hypercube":
        return hypercube_graph(params["dim"])
    if kind == "random_regular":
        return random_regular_graph(params["n"], params["deg"], params["seed"])
    raise GraphFormatError(f"unknown graph kind {kind!r}")


# ---------------------------------------------------------------------------
# demands
# ---------------------------------------------------------------------------

@dataclass
class DemandMatrix:
    """Sparse demand matrix over ordered (source, target) pairs."""

    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[tuple[int, int], float] = {}
        for (s, t), d in self.entries.items():
            if s == t:
                raise ValueError(f"demand from {s} to itself is not allowed")
            d = float(d)
            if not math.isfinite(d) or d < 0:
                raise ValueError(f"demand ({s},{t}) must be finite and >= 0, got {d}")
            if d > 0:
                clean[(s, t)] = d
        self.entries = clean

    def __len__(self) -> int:
        return len(self.entries)
