"""Span tracing installed from outside obroute, around its public functions.

A traced run replaces each listed function, in every obroute module that
holds it, by a wrapper that records one span: name, start, end, parent span,
the query it belongs to (0 outside the query phase) and the scheme being
built, routed or queried. Spans live in flat arrays until the run ends, then
go to an .npz file; the per-layer metrics are derived from them.

A span's self time is its duration minus that of its child spans, so the
self times of all spans under a stage add up to the stage's traced time less
the benchmark's own code between calls.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

SCHEMES = ("reference", "impl-a", "impl-b")
LP_CALLERS = {"decomposition.certify_congestion": "certify",
              "impl_b.build_cube_scheme": "impl_b",
              "optimum.optimal_congestion": "oracle"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_tree(tr, sid, args, kwargs, tree):
    tr.notes[sid] = {"clusters": len(tree.clusters), "height": tree.height}


def _note_tables(tr, sid, args, kwargs, tables):
    tr.notes[sid] = {"flows": len(tables.flows), "events": len(tables.events)}


def _note_lp(tr, sid, args, kwargs, res):
    tr.notes[sid] = {"nvar": len(_arg(args, kwargs, 0, "c")),
                     "method": kwargs.get("method", "highs"), "status": int(res.status)}


def _note_route(tr, sid, args, kwargs, report):
    demands = _arg(args, kwargs, 3, "demands")
    entries = getattr(demands, "entries", demands)
    tr.notes[sid] = {"pairs": sum(1 for (s, t), d in entries.items() if d > 0 and s != t)}


def _note_path(tr, sid, args, kwargs, path):
    if tr.names[tr.name[tr._stack[-1]]] == "routing.route_demands":
        tr.counts["paths", tr.scheme_code] += 1
        tr.counts["path_edges", tr.scheme_code] += len(path) - 1


# (module, attribute, span name, note taken from the arguments and result)
TARGETS = [
    ("obroute.decomposition", "build_tree", "decomposition.build_tree", _note_tree),
    ("obroute.decomposition", "certify_congestion", "decomposition.certify_congestion", None),
    ("obroute.decomposition", "audit_tree", "decomposition.audit_tree", None),
    ("obroute.cmcf", "solve_cmcf_min_congestion", "cmcf.solve_cmcf_min_congestion", None),
    ("obroute.cmcf", "round_paths", "cmcf.round_paths", None),
    ("scipy.optimize", "linprog", "scipy.linprog", _note_lp),
    ("obroute.flows", "decompose_by_sink", "flows.decompose_by_sink", None),
    ("obroute.flows", "max_flow_integral", "flows.max_flow_integral", None),
    ("obroute.flows", "sample_path", "flows.sample_path", None),
    ("obroute.impl_a", "build_flow_tables", "impl_a.build_flow_tables", _note_tables),
    ("obroute.impl_a", "measure_table_bits_a", "impl_a.measure_table_bits_a", None),
    ("obroute.impl_b", "build_cube_scheme", "impl_b.build_cube_scheme", None),
    ("obroute.impl_b", "hypercube_route", "impl_b.hypercube_route", None),
    ("obroute.impl_b", "measure_table_bits_b", "impl_b.measure_table_bits_b", None),
    ("obroute.impl_b", "audit_cube_scheme", "impl_b.audit_cube_scheme", None),
    ("obroute.optimum", "optimal_congestion", "optimum.optimal_congestion", None),
    ("obroute.routing", "route_demands", "routing.route_demands", _note_route),
    ("obroute.routing", "select_path", "routing.select_path", _note_path),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.trace = array("q")
        self.scheme = array("b")
        self._stack = [-1]
        self.trace_id = 0       # the query being served, 0 outside the query phase
        self.scheme_code = 0    # 1 + index into SCHEMES, 0 for none
        self.notes: dict[int, dict] = {}
        self.counts: Counter = Counter()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.trace.append(self.trace_id)
        self.scheme.append(self.scheme_code)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn with a span around every call; the hot path binds its appends once."""
        nid = self._nid(name)
        add_name, add_parent, add_trace = self.name.append, self.parent.append, self.trace.append
        add_scheme, add_start, add_end = self.scheme.append, self.start.append, self.end.append
        stack, end = self._stack, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_trace(self.trace_id)
            add_scheme(self.scheme_code)
            add_end(0)
            stack.append(sid)
            add_start(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if note is not None:
                note(self, sid, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def stage(self, name: str, scheme: str | None = None):
        """A root span for one stage of the benchmark, tagged with its scheme."""
        self.scheme_code = SCHEMES.index(scheme) + 1 if scheme else 0
        sid = self._open(self._nid(f"stage.{name}"))
        try:
            yield
        finally:
            self._close(sid)
            self.scheme_code = 0

    @contextmanager
    def installed(self):
        """Swap every TARGETS function for its wrapper in all obroute modules."""
        patched = []
        try:
            for modname, attr, span, note in TARGETS:
                original = getattr(importlib.import_module(modname), attr)
                wrapped = self.wrap(span, original, note)
                for name, mod in list(sys.modules.items()):
                    if name != "obroute" and not name.startswith("obroute."):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "trace": np.frombuffer(self.trace, dtype=np.int64),
                "scheme": np.frombuffer(self.scheme, dtype=np.int8)}

    def lp_records(self) -> list[dict]:
        """One record per LP solve: caller, variables, method, HiGHS and whole-call time."""
        out = []
        for sid, note in sorted(self.notes.items()):
            if self.names[self.name[sid]] != "scipy.linprog":
                continue
            call, caller = self.parent[sid], None
            p = call
            while p >= 0 and caller is None:
                caller = LP_CALLERS.get(self.names[self.name[p]])
                p = self.parent[p]
            out.append({"caller": caller, **note,
                        "highs_s": (self.end[sid] - self.start[sid]) / 1e9,
                        "call_s": (self.end[call] - self.start[call]) / 1e9})
        return out

    def write(self, path: Path) -> None:
        """Spans to <path>.npz; names, notes, counts and LP records to <path>.json."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), **self.arrays())
        path.with_suffix(".json").write_text(json.dumps({
            "names": self.names, "schemes": ["none", *SCHEMES],
            "notes": {str(k): v for k, v in self.notes.items()},
            "counts": [[k, SCHEMES[c - 1] if c else None, v]
                       for (k, c), v in sorted(self.counts.items())],
            "lp_records": self.lp_records()}, indent=1) + "\n")


def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the durations of its direct children, in seconds."""
    dur = (a["end"] - a["start"]).astype(float)
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
    return (dur - covered) / 1e9


def roots(parent: np.ndarray) -> np.ndarray:
    """The outermost ancestor of every span; parents precede their children."""
    root = np.where(parent < 0, np.arange(len(parent)), parent)
    while True:
        nxt = np.where(parent[root] < 0, root, parent[root])
        if np.array_equal(nxt, root):
            return root
        root = nxt


def layer_metrics(tr: Tracer, overhead_s: float) -> dict:
    """The per-layer table: self times, call counts and counts read from notes;
    `overhead_s` is the tracing overhead measured by the caller."""
    a = tr.arrays()
    selft = self_times(a)
    ids = {n: i for i, n in enumerate(tr.names)}
    name = a["name"]

    def sel(span: str, scheme: str | None = None) -> np.ndarray:
        mask = name == ids.get(span, -1)
        if scheme is not None:
            mask &= a["scheme"] == SCHEMES.index(scheme) + 1
        return mask

    def self_s(span, scheme=None):
        return float(selft[sel(span, scheme)].sum())

    def calls(span, scheme=None):
        return int(sel(span, scheme).sum())

    def notes(span):
        return [n for sid, n in tr.notes.items() if tr.names[tr.name[sid]] == span]

    m = {}
    tree = notes("decomposition.build_tree")
    m["decomposition.build_tree_s"] = (self_s("decomposition.build_tree"), "s")
    m["decomposition.clusters"] = (tree[0]["clusters"] if tree else 0, "count")
    m["decomposition.height"] = (tree[0]["height"] if tree else 0, "count")
    m["decomposition.certify_s"] = (self_s("decomposition.certify_congestion"), "s")
    lps = tr.lp_records()
    for caller in LP_CALLERS.values():
        mine = [r for r in lps if r["caller"] == caller]
        m[f"cmcf.lp_calls.{caller}"] = (len(mine), "count")
        m[f"cmcf.lp_s.{caller}"] = (sum(r["call_s"] for r in mine), "s")
        m[f"cmcf.highs_s.{caller}"] = (sum(r["highs_s"] for r in mine), "s")
        m[f"cmcf.lp_vars_max.{caller}"] = (max((r["nvar"] for r in mine), default=0), "count")
    m["cmcf.round_paths_s"] = (self_s("cmcf.round_paths"), "s")
    m["cmcf.path_groups_s"] = (self_s("flows.decompose_by_sink"), "s")
    tables = notes("impl_a.build_flow_tables")
    max_flows = calls("flows.max_flow_integral")
    m["flows.max_flow_calls"] = (max_flows, "count")
    m["flows.max_flow_s"] = (self_s("flows.max_flow_integral"), "s")
    m["impl_a.build_s"] = (self_s("impl_a.build_flow_tables"), "s")
    m["impl_a.scale_events"] = (sum(t["events"] for t in tables), "count")
    m["impl_a.flows_stored_per_max_flow"] = (
        sum(t["flows"] for t in tables) / max_flows if max_flows else 0.0, "ratio")
    m["flows.sample_path_calls"] = (calls("flows.sample_path"), "count")
    m["flows.sample_path_s"] = (self_s("flows.sample_path"), "s")
    m["impl_b.build_s"] = (self_s("impl_b.build_cube_scheme"), "s")
    m["impl_b.hypercube_route_calls"] = (calls("impl_b.hypercube_route"), "count")
    m["impl_b.hypercube_route_s"] = (self_s("impl_b.hypercube_route"), "s")
    for i, scheme in enumerate(SCHEMES, start=1):
        routed = [tr.notes[sid] for sid in np.flatnonzero(sel("routing.route_demands", scheme))]
        m[f"routing.route_demands_s.{scheme}"] = (self_s("routing.route_demands", scheme), "s")
        m[f"routing.select_path_s.{scheme}"] = (self_s("routing.select_path", scheme), "s")
        m[f"routing.pairs.{scheme}"] = (sum(r["pairs"] for r in routed), "count")
        m[f"routing.paths.{scheme}"] = (tr.counts["paths", i], "count")
        m[f"routing.path_edges.{scheme}"] = (tr.counts["path_edges", i], "count")
    m["optimum.optimal_congestion_s"] = (self_s("optimum.optimal_congestion"), "s")
    m["optimum.lp_vars"] = (m["cmcf.lp_vars_max.oracle"][0], "count")
    m["experiment.write_s"] = (self_s("stage.write"), "s")

    # layer self times per stage, to set against the untraced stage times
    root = roots(a["parent"])
    layer = root != np.arange(len(root))
    for stage in ("setup", "oracle", "loads"):
        under = layer & (name[root] == ids.get(f"stage.{stage}", -1))
        m[f"trace.layers_s.{stage}"] = (float(selft[under].sum()), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (len(name), "count")
    return m
