"""Experiment harness: flat-file configs, demand batteries, end-to-end runs.

A run builds the cluster tree and its congestion certificate once, then for
every requested scheme builds the backend, computes the exact expected edge
loads of the demand battery, and writes four artifacts per scheme directory:

  report.json  congestion, optimum, ratio, tree and table statistics
  loads.csv    per-edge expected load (the stderr column is 0: loads are exact)
  tables.csv   per-vertex table bits (zero for the non-compact reference)
  hops.npz     the per-hop loads the edge loads sum (_write_hops)

All randomness derives from the single master seed: the tree build uses it
directly, and the demand battery and cube builds use fixed substreams.
Identical configs thus reproduce identical reports except for the timestamp
line.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from obroute.decomposition import (DecompositionTree, audit_tree, build_tree,
                                   certify_congestion)
from obroute.graph import (CapacitatedGraph, DemandMatrix, generate_graph,
                           graph_stats, parse_graph)
from obroute.impl_a import (build_flow_tables, header_bit_length,
                            label_bit_length, measure_table_bits_a)
from obroute.impl_b import audit_cube_scheme, build_cube_scheme, measure_table_bits_b
from obroute.optimum import competitive_ratio, optimal_congestion
from obroute.routing import ESTIMATOR, LoadReport, ReferenceBackend, route_demands

__all__ = ["parse_config", "load_config", "graph_from_config", "demand_battery",
           "run_experiment", "SCHEMES"]

SCHEMES = ("reference", "impl-a", "impl-b")

_CONFIG_KEYS = {"graph", "generate", "schemes", "demands", "seed", "arity", "out_dir"}
_DEFAULTS = {"schemes": "reference", "demands": "permutation", "seed": "0", "arity": "2"}

# substream tags so the battery and the cube builds never share a stream
_BATTERY_STREAM = 1
_CUBE_STREAM = 2


def parse_config(text: str) -> dict[str, str]:
    """Flat `key = value` lines, each key at most once; '#' starts a comment."""
    cfg, seen = dict(_DEFAULTS), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {seen[key]}")
        cfg[key], seen[key] = value, lineno
    return cfg


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config(Path(path).read_text())


def _generated_graph(spec: str) -> CapacitatedGraph:
    kind, _, arg = spec.partition(":")
    if kind not in ("grid", "torus", "hypercube", "random_regular"):
        raise ValueError(f"unknown generator kind {kind!r} "
                         "(grid, torus, hypercube, random_regular)")
    try:
        if kind == "hypercube":
            params = {"dim": int(arg)}
        elif kind == "random_regular":
            fields = [int(x) for x in arg.split(",")]
            params = {"n": fields[0], "deg": fields[1],
                      "seed": fields[2] if len(fields) > 2 else 0}
        else:
            dims, _, caps = arg.partition(":") if kind == "grid" else (arg, "", "")
            rows, cols = (int(x) for x in dims.split("x"))
            params = {"rows": rows, "cols": cols}
            if caps:
                lo, hi = (int(x) for x in caps.split("-"))
                params.update(cap_range=(lo, hi), seed=0)
        return generate_graph(kind, **params)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc


def graph_from_config(cfg: dict[str, str]) -> CapacitatedGraph:
    if ("graph" in cfg) == ("generate" in cfg):
        raise ValueError("config needs exactly one of 'graph' (file) or 'generate'")
    if "graph" in cfg:
        return parse_graph(Path(cfg["graph"]).read_text())
    return _generated_graph(cfg["generate"])


def _int_value(cfg: dict[str, str], key: str) -> int:
    """cfg[key] as an integer; a ValueError naming the key otherwise."""
    try:
        return int(cfg[key])
    except ValueError:
        raise ValueError(f"config key {key!r} must be an integer, got {cfg[key]!r}") from None


def _master_seed(cfg: dict[str, str]) -> int:
    """The config's master seed; ValueError unless it is an integer >= 0."""
    seed = _int_value(cfg, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def demand_battery(kind: str, g: CapacitatedGraph, seed: int) -> DemandMatrix:
    """Deterministic demand sets; approximates a worst case by variety, not search."""
    name, colon, arg = kind.partition(":")
    if colon and name in ("permutation", "gravity"):
        raise ValueError(f"demand battery {kind!r}: {name} takes no argument")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _BATTERY_STREAM)))
    if name == "permutation":
        if g.n < 2:
            return DemandMatrix({})
        perm = rng.permutation(g.n)
        while any(perm[i] == i for i in range(g.n)):
            perm = rng.permutation(g.n)
        return DemandMatrix({(i, int(perm[i])): 1.0 for i in range(g.n)})
    if name == "uniform_pairs":
        if not arg.isdecimal():
            raise ValueError(f"demand battery {kind!r}: k must be a non-negative integer")
        k = int(arg)
        total = g.n * (g.n - 1)
        if k > total:
            raise ValueError(f"asked for {k} distinct pairs, only {total} exist")
        picks = rng.choice(total, size=k, replace=False)
        entries = {}
        for idx in sorted(int(i) for i in picks):
            s, r = divmod(idx, g.n - 1)
            entries[(s, r if r < s else r + 1)] = 1.0
        return DemandMatrix(entries)
    if name == "gravity":
        return DemandMatrix({(u, v): float(g.degree(u) * g.degree(v))
                             for u in range(g.n) for v in range(u + 1, g.n)
                             if g.degree(u) and g.degree(v)})
    if name == "file":
        entries = {}
        for lineno, raw in enumerate(Path(arg).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            where = f"demand file line {lineno}"
            if len(fields) != 3:
                raise ValueError(f"{where}: expected 's t d'")
            try:
                s, t, d = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise ValueError(f"{where}: non-numeric field in {line!r}") from None
            if not math.isfinite(d) or d < 0:
                raise ValueError(f"{where}: amount must be finite and >= 0, got {d}")
            if not (0 <= s < g.n and 0 <= t < g.n):
                raise ValueError(f"{where}: vertex outside 0..{g.n - 1} in {line!r}")
            if s == t:
                raise ValueError(f"{where}: demand from {s} to itself")
            if (s, t) in entries:
                raise ValueError(f"{where}: duplicate pair ({s},{t})")
            entries[(s, t)] = d
        return DemandMatrix(entries)
    raise ValueError(f"unknown demand battery {name!r} "
                     "(permutation, uniform_pairs:k, gravity, file:path)")


def _build_backend(scheme: str, g: CapacitatedGraph, tree: DecompositionTree,
                   cert, seed: int):
    """Returns (backend, per-vertex bits, label bits, header bits, events, audits);
    the impl-a and impl-b backends are the FlowTables and CubeScheme themselves."""
    if scheme == "reference":
        return ReferenceBackend(g, tree, cert.solutions), None, None, None, [], []
    if scheme == "impl-a":
        tables = build_flow_tables(g, tree, cert.int_value)
        bits = measure_table_bits_a(tables)
        return (tables, bits.per_vertex, label_bit_length(tree),
                header_bit_length(tree), list(tables.events), [])
    if scheme == "impl-b":
        rng = np.random.default_rng(np.random.SeedSequence((seed, _CUBE_STREAM)))
        cubes = build_cube_scheme(g, tree, cert, rng)
        bits = measure_table_bits_b(cubes)
        return (cubes, bits.per_vertex, label_bit_length(tree),
                header_bit_length(tree), [], audit_cube_scheme(cubes))
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {', '.join(SCHEMES)}")


def _guarantee_factor(scheme: str, tree: DecompositionTree, backend) -> float:
    """Per-scheme expected-load guarantee, as a multiple of C_cert * C_opt."""
    h = tree.height
    if scheme == "reference":
        return 2.0 * h
    if scheme == "impl-a":
        return 2.0 * h * tree.degree
    d = max((m.dimension for m in backend.mains.values()), default=1)
    return 16.0 * h * d * d


def _write_csvs(out: Path, report, table_bits, n: int) -> None:
    rows = ["u,v,cap,load,stderr"]
    for (u, v) in sorted(report.edge_caps):
        rows.append(f"{u},{v},{report.edge_caps[(u, v)]},"
                    f"{report.edge_loads.get((u, v), 0.0):.9g},"
                    f"{report.edge_stderr.get((u, v), 0.0):.9g}")
    (out / "loads.csv").write_text("\n".join(rows) + "\n")
    rows = ["vertex,bits"]
    for v in range(n):
        rows.append(f"{v},{table_bits.get(v, 0) if table_bits else 0}")
    (out / "tables.csv").write_text("\n".join(rows) + "\n")


def _write_hops(out: Path, tree: DecompositionTree, report: LoadReport) -> None:
    """hops.npz, one row per hop the battery crosses, in the sorted order
    route_demands adds them: the hop's direction (downward) and child cluster
    id (child), the child's total_border and level, and the exact loads of
    one crossing by graph edge id (loads, rows x m). The edge loads are the
    demand through each hop (routing._through) times its row, added in row
    order."""
    hops = list(report.through)
    children = [tree.cluster(child) for _, child in hops]
    np.savez(out / "hops.npz",
             downward=np.array([downward for downward, _ in hops], dtype=bool),
             child=np.array([c.id for c in children], dtype=np.int64),
             total_border=np.array([c.total_border for c in children], dtype=np.int64),
             level=np.array([c.level for c in children], dtype=np.int64),
             loads=report.hop_loads)


def run_experiment(cfg: dict[str, str],
                   out_dir: str | Path | None = None) -> tuple[int, list[str]]:
    """Full run per the config; returns (exit code, assertion failures)."""
    g = graph_from_config(cfg)
    seed = _master_seed(cfg)
    arity = _int_value(cfg, "arity")
    schemes = [s.strip() for s in cfg["schemes"].split(",") if s.strip()]
    if not schemes:
        raise ValueError("config key 'schemes' names no scheme")
    for i, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of "
                             f"{', '.join(SCHEMES)}")
        if scheme in schemes[:i]:
            raise ValueError(f"scheme {scheme!r} is listed twice")
    if "impl-b" in schemes and not g.uniform_capacities():
        raise ValueError("hypercube scheme requires uniform unit edge capacities")
    out = Path(out_dir if out_dir is not None else cfg.get("out_dir", "runs"))
    # the battery has its own stream, so building it first rejects a bad
    # battery before the tree and its certificate are paid for
    demands = demand_battery(cfg["demands"], g, seed)

    tree = build_tree(g, target_arity=arity, seed=seed)
    cert = certify_congestion(g, tree, store_solutions=True)
    c_opt = optimal_congestion(g, demands)

    failures = [f"tree audit: {msg}" for msg in audit_tree(g, tree)]

    for scheme in schemes:
        backend, bits, label_bits, header_bits, events, audits = _build_backend(
            scheme, g, tree, cert, seed)
        failures += [f"{scheme} audit: {msg}" for msg in audits]
        report = route_demands(g, tree, backend, demands)

        if demands.entries:
            bound = _guarantee_factor(scheme, tree, backend) * cert.int_value * c_opt
            if report.congestion > bound:
                failures.append(f"{scheme}: congestion {report.congestion:.6g} "
                                f"exceeds guarantee {bound:.6g}")

        payload = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "scheme": scheme,
            "graph": graph_stats(g),
            "tree": {"height": tree.height, "degree": tree.degree,
                     "arity": arity, "seed": seed},
            "certificate": {"value": cert.value, "int_value": cert.int_value},
            "demands": cfg["demands"],
            "pairs": len(demands.entries),
            "estimator": ESTIMATOR,
            "seed": seed,
            "congestion": report.congestion,
            "c_opt": c_opt,
            "ratio": competitive_ratio(report.congestion, c_opt),
            "ratio_note": "measured against this demand battery only; the "
                          "worst case over all demand matrices can be larger",
            "label_bits": label_bits,
            "header_bits": header_bits,
            "max_table_bits": max(bits.values()) if bits else None,
            "total_table_bits": sum(bits.values()) if bits else None,
            "scale_events": events,
        }
        scheme_dir = out / scheme
        scheme_dir.mkdir(parents=True, exist_ok=True)
        (scheme_dir / "report.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _write_csvs(scheme_dir, report, bits, g.n)
        _write_hops(scheme_dir, tree, report)

    return (0 if not failures else 1), failures
