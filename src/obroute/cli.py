"""Command line interface: build, route, audit, report."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from obroute.decomposition import audit_tree, build_tree, certify_congestion
from obroute.experiment import (SCHEMES, _build_backend, _master_seed, graph_from_config,
                                load_config, parse_config, run_experiment)
from obroute.graph import graph_stats


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="path to a graph file (header 'n m', lines 'u v cap')")
    p.add_argument("--generate",
                   help="generator spec: grid:RxC[:LO-HI], torus:RxC, "
                        "hypercube:D, random_regular:N,DEG[,SEED]")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--arity", type=int, default=None,
                   help="target child count per cluster (default 2)")


def _overlay(cfg: dict[str, str], args: argparse.Namespace) -> dict[str, str]:
    if getattr(args, "graph", None):
        cfg.pop("generate", None)
        cfg["graph"] = args.graph
    if getattr(args, "generate", None):
        cfg.pop("graph", None)
        cfg["generate"] = args.generate
    for key in ("seed", "arity"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    if getattr(args, "scheme", None):
        cfg["schemes"] = ",".join(args.scheme)
    if getattr(args, "demands", None):
        cfg["demands"] = args.demands
    if getattr(args, "out_dir", None):
        cfg["out_dir"] = args.out_dir
    return cfg


def _certified_tree(args: argparse.Namespace):
    """Graph, cluster tree, congestion certificate and master seed from the graph flags."""
    cfg = _overlay(parse_config(""), args)
    g = graph_from_config(cfg)
    seed = _master_seed(cfg)
    tree = build_tree(g, target_arity=int(cfg["arity"]), seed=seed)
    return g, tree, certify_congestion(g, tree, store_solutions=True), seed


def _cmd_build(args: argparse.Namespace) -> int:
    g, tree, cert, _ = _certified_tree(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tree.json").write_text(tree.to_json(cert))
    stats = graph_stats(g)
    print(f"graph: n={stats['n']} m={stats['m']} W={stats['W']}")
    print(f"tree: height={tree.height} degree={tree.degree} "
          f"clusters={len(tree.clusters)}")
    print(f"certificate: value={cert.value:.6g} int={cert.int_value}")
    print(f"wrote {out / 'tree.json'}")
    issues = audit_tree(g, tree)
    for msg in issues:
        print(f"audit: {msg}", file=sys.stderr)
    return 0 if not issues else 1


def _cmd_route(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else parse_config("")
    cfg = _overlay(cfg, args)
    code, failures = run_experiment(cfg)
    out = Path(cfg.get("out_dir", "runs"))
    for scheme in (s.strip() for s in cfg["schemes"].split(",") if s.strip()):
        data = json.loads((out / scheme / "report.json").read_text())
        bits = data["max_table_bits"]
        print(f"{scheme}: congestion={data['congestion']:.6g} "
              f"c_opt={data['c_opt']:.6g} ratio={data['ratio']:.6g}"
              + (f" max_table_bits={bits}" if bits is not None else ""))
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    return code


def _cmd_audit(args: argparse.Namespace) -> int:
    g, tree, cert, seed = _certified_tree(args)
    failures = [f"tree: {m}" for m in audit_tree(g, tree)]
    print(f"tree structure and weight identities: "
          f"{'ok' if not failures else f'{len(failures)} issue(s)'} "
          f"({len(tree.clusters)} clusters, height {tree.height})")
    schemes = args.scheme or ["impl-a", "impl-b"]
    if "impl-a" in schemes:
        backend, _, _, _, events, _ = _build_backend("impl-a", g, tree, cert, seed)
        note = f", scale raised: {len(events)} cluster(s)" if events else ""
        print(f"impl-a flows: ok ({len(backend.flows)} saturated flows{note})")
    if "impl-b" in schemes:
        if g.uniform_capacities():
            backend, _, _, _, _, bad = _build_backend("impl-b", g, tree, cert, seed)
            failures += [f"impl-b: {m}" for m in bad]
            print(f"impl-b mappings: {'ok' if not bad else f'{len(bad)} issue(s)'} "
                  f"({len(backend.mains)} clusters)")
        else:
            print("impl-b mappings: skipped (graph is not unit-capacity)")
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    return 0 if not failures else 1


def _cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    paths = sorted(out.glob("*/report.json"))
    if not paths:
        print(f"no reports under {out}", file=sys.stderr)
        return 1
    def cell(x, width):
        return f"{'-':>{width}}" if x is None else f"{x:>{width}}"

    print(f"{'scheme':<10} {'congestion':>11} {'c_opt':>9} {'ratio':>8} "
          f"{'max bits':>9} {'label':>6} {'header':>7}")
    for path in paths:
        try:
            d = json.loads(path.read_text())
            if not isinstance(d, dict):
                raise ValueError(f"top level is a JSON {type(d).__name__}, not an object")
            print(f"{d['scheme']:<10} {d['congestion']:>11.5g} {d['c_opt']:>9.4g} "
                  f"{d['ratio']:>8.4g} " + cell(d['max_table_bits'], 9) + " "
                  + cell(d['label_bits'], 6) + " " + cell(d['header_bits'], 7))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:     # not JSON, or a field of the wrong type
            raise ValueError(f"{path}: {exc}") from None
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="obroute",
        description="Demand-oblivious routing schemes with compact tables: "
                    "build decompositions, route demand batteries, audit invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the cluster tree and its certificate")
    _add_graph_flags(p)
    p.add_argument("--out-dir", default="runs", help="where tree.json is written")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("route", help="run a demand battery and write reports")
    _add_graph_flags(p)
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--scheme", action="append", choices=SCHEMES,
                   help="repeatable; default reference")
    p.add_argument("--demands", help="permutation | uniform_pairs:K | gravity | file:PATH")
    p.add_argument("--out-dir", help="report directory (default runs)")
    p.set_defaults(fn=_cmd_route)

    p = sub.add_parser("audit", help="build everything and check every invariant")
    _add_graph_flags(p)
    p.add_argument("--scheme", action="append", choices=("impl-a", "impl-b"))
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("report", help="summarize written reports")
    p.add_argument("--out-dir", default="runs")
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
