"""Acceptance gate: the eight release criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as the
suite progresses; without -s they still appear for any failing criterion.
Every tolerance and instance set below is part of the release contract, so
none of them should be loosened to make a red criterion green.
"""
from __future__ import annotations

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from helpers import brute_force_congestion, single_edge, triangle
from obroute.cmcf import round_paths
from obroute.decomposition import audit_tree, build_tree, certify_congestion
from obroute.experiment import SCHEMES, demand_battery, parse_config, run_experiment
from obroute.graph import CapacitatedGraph, DemandMatrix, grid_graph, random_regular_graph
from obroute.impl_a import (build_flow_tables, header_bit_length, label_bit_length,
                            measure_table_bits_a)
from obroute.impl_b import (_cube_edges, audit_cube_scheme, build_cube_scheme,
                            build_embedding, build_rerand_cube, measure_table_bits_b)
from obroute.optimum import optimal_congestion
from obroute.routing import ReferenceBackend, route_demands


def _verdict(num: int, title: str, started: float, limit_s: float,
             violations: list[str]) -> None:
    elapsed = time.time() - started
    status = "PASS" if not violations and elapsed < limit_s else "FAIL"
    print(f"[criterion {num}] {title}: {status} ({elapsed:.1f}s)")
    for msg in violations[:20]:
        print(f"  - {msg}")
    assert not violations, f"criterion {num} failed: {violations[:5]}"
    assert elapsed < limit_s, f"criterion {num} overran {limit_s}s budget"


def _out_map(tree, cluster, index):
    if index == 0:
        return cluster.border_weight
    return tree.cluster(cluster.children[index - 1]).border_weight


# ---------------------------------------------------------------------------


def test_criterion_1_weight_identities():
    started = time.time()
    rng = np.random.default_rng(101)
    graphs: list[CapacitatedGraph] = []
    for i in range(60):
        n = 2 * int(rng.integers(2, 33))            # even, 4..64
        deg = min(int(rng.choice([2, 3, 4])), n - 1)
        graphs.append(random_regular_graph(n, deg, seed=i))
    for i in range(40):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        graphs.append(grid_graph(rows, cols, cap_range=(1, int(rng.integers(2, 7))),
                                 seed=i))

    violations: list[str] = []
    for i, g in enumerate(graphs):
        tree = build_tree(g, target_arity=2 + i % 2, seed=i)
        for cluster in tree.clusters:
            for pos, child_id in enumerate(cluster.children):
                child = tree.cluster(child_id)
                for v in child.vertices:
                    if cluster.cluster_weight[v] != child.border_weight[v]:
                        violations.append(f"graph {i} cluster {cluster.id} child "
                                          f"{pos}: weight mismatch at vertex {v}")
            if cluster.children:
                total = sum(tree.cluster(c).total_border for c in cluster.children)
                if total != cluster.total_weight:
                    violations.append(f"graph {i} cluster {cluster.id}: child "
                                      f"border sum {total} != {cluster.total_weight}")
            for v in cluster.vertices:
                if cluster.border_weight[v] > cluster.cluster_weight[v]:
                    violations.append(f"graph {i} cluster {cluster.id}: "
                                      f"out > weight at vertex {v}")
        violations += [f"graph {i}: {m}" for m in audit_tree(g, tree)]
    _verdict(1, "weight identities on 100 random graphs", started, 30, violations)


def test_criterion_2_flow_tables():
    started = time.time()
    violations: list[str] = []
    mc_rng = np.random.default_rng(202)
    for rows in (4, 8):
        g = grid_graph(rows, rows)
        tree = build_tree(g, target_arity=2, seed=0)
        cert = certify_congestion(g, tree)
        tables = build_flow_tables(g, tree, cert.int_value)
        point_laws = np.eye(g.n)

        for (cid, index), fa in tables.flows.items():
            cluster = tree.cluster(cid)
            out_map = _out_map(tree, cluster, index)
            out_total = sum(out_map.values())
            if fa.value != cluster.total_weight * out_total:
                violations.append(f"{rows}x{rows} flow ({cid},{index}): value "
                                  f"{fa.value} != w(S)*out = "
                                  f"{cluster.total_weight * out_total}")
            if any(f != int(f) or f < 0 for f in fa.arcs.values()):
                violations.append(f"{rows}x{rows} flow ({cid},{index}): "
                                  "non-integral arc flow")
            # exact endpoint law: absorption probabilities mixed over the
            # cluster distribution must reproduce the border distribution
            mix: dict[int, float] = {}
            for v, w in cluster.cluster_weight.items():
                if w == 0:
                    continue
                end = tables.loads([(False, cid, index)], point_laws[v][None])[1][0]
                for x in np.flatnonzero(end).tolist():
                    mix[x] = mix.get(x, 0.0) + end[x] * w / cluster.total_weight
            for v in cluster.vertices:
                expect = out_map.get(v, 0) / out_total
                if abs(mix.get(v, 0.0) - expect) > 1e-9:
                    violations.append(f"{rows}x{rows} flow ({cid},{index}): "
                                      f"absorption law off at vertex {v}")

        # Monte-Carlo endpoint check on the largest instance: the root flow
        # toward its first child, sampled from the cluster distribution
        root = tree.cluster(tree.root)
        child = tree.cluster(root.children[0])
        verts = sorted(v for v in root.vertices if root.cluster_weight[v] > 0)
        probs = np.array([root.cluster_weight[v] for v in verts], dtype=float)
        probs /= probs.sum()
        n_samples = 100_000
        counts: dict[int, int] = {}
        for v in mc_rng.choice(verts, size=n_samples, p=probs):
            _, end = tables.sample((False, root.id, 1), int(v), mc_rng)
            counts[end] = counts.get(end, 0) + 1
        law = {v: w for v, w in child.border_weight.items() if w > 0}
        total = sum(law.values())
        tv = 0.5 * sum(abs(counts.get(v, 0) / n_samples - w / total)
                       for v, w in law.items())
        tv += 0.5 * sum(c / n_samples for v, c in counts.items() if v not in law)
        if tv >= 0.02:
            violations.append(f"{rows}x{rows} root walk: TV distance {tv:.4f}")
    _verdict(2, "flow saturation and endpoint laws (4x4, 8x8)", started, 120,
             violations)


def test_criterion_3_cube_mapping_audit():
    started = time.time()
    instances = [grid_graph(4, 4), grid_graph(8, 8),
                 random_regular_graph(8, 3, seed=2),
                 random_regular_graph(32, 3, seed=3),
                 random_regular_graph(64, 3, seed=4)]
    violations: list[str] = []
    for i, g in enumerate(instances):
        tree = build_tree(g, target_arity=2, seed=i)
        cert = certify_congestion(g, tree, store_solutions=True)
        scheme = build_cube_scheme(g, tree, cert, np.random.default_rng((303, i)))
        violations += [f"instance {i} (n={g.n}): {m}"
                       for m in audit_cube_scheme(scheme)]
    _verdict(3, "cube mapping bounds on grids and 3-regular graphs", started, 60,
             violations)


def test_criterion_4_chernoff_rounding():
    started = time.time()
    violations: list[str] = []
    # two embedding instances keep the per-edge 3-sigma family small enough
    # that a correct (unbiased) rounding passes with a wide margin
    g = grid_graph(4, 4)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    root = tree.cluster(tree.root)
    instances = [(g, tree, cert, root), (g, tree, cert, tree.cluster(root.children[0]))]

    for g, tree, cert, cluster in instances:
        # the draws build_cube_scheme makes for the cluster: one path per
        # cube edge of either cube, from the certification flow of the edge's
        # owner pair, which the flow stores from the smaller id
        cubes = (build_embedding(tree, cluster), build_rerand_cube(cluster))
        members = set(cluster.vertices)
        sol = cert.solutions[cluster.id]
        pairs = [(min(a, b), max(a, b)) for maps in cubes
                 for _, _, a, b in _cube_edges(maps.node_owner, maps.dimension)]
        # fractional loads and Bernoulli variances of those draws, from the
        # pairs' path laws
        frac: dict[tuple[int, int], float] = {}
        variance: dict[tuple[int, int], float] = {}
        for (a, b), k in Counter(pairs).items():
            group = sol.path_groups(a)[b]
            edge_prob: dict[tuple[int, int], float] = {}
            for path, p in zip(group.paths, group.probs):
                for e in zip(path, path[1:]):
                    key = e if e[0] < e[1] else e[::-1]
                    edge_prob[key] = edge_prob.get(key, 0.0) + p
            for key, p in edge_prob.items():
                frac[key] = frac.get(key, 0.0) + k * p
                variance[key] = variance.get(key, 0.0) + k * p * (1.0 - p)
        mu = max(frac.values())
        m = len(g.edges_inside(members))
        bound_slack = 3.0 * math.log(m)

        seeds = 50
        hits = 0
        loads: dict[tuple[int, int], np.ndarray] = {}
        for s in range(seeds):
            counts: dict[tuple[int, int], int] = {}
            for path in round_paths(sol, pairs, np.random.default_rng((404, s))):
                for e in zip(path, path[1:]):
                    key = e if e[0] < e[1] else e[::-1]
                    counts[key] = counts.get(key, 0) + 1
            if max(counts.values()) <= mu + bound_slack:
                hits += 1
            for e, value in counts.items():
                loads.setdefault(e, np.zeros(seeds))[s] = value
        if hits < seeds // 2:
            violations.append(f"cluster {cluster.id} (n={g.n}): rounded max "
                              f"within mu+3ln(m) in only {hits}/{seeds} seeds")
        for e, expect in frac.items():
            mean = float(loads[e].mean()) if e in loads else 0.0
            stderr = math.sqrt(variance[e] / seeds)
            if abs(mean - expect) > max(3.0 * stderr, 1e-9):
                violations.append(f"cluster {cluster.id} edge {e}: mean "
                                  f"{mean:.3f} vs fractional {expect:.3f} "
                                  f"(3se={3 * stderr:.3f})")
    _verdict(4, "randomized rounding concentration", started, 120, violations)


def test_criterion_5_congestion_bounds():
    started = time.time()
    violations: list[str] = []
    for rows in (4, 8):
        g = grid_graph(rows, rows)
        for seed in range(5):
            tree = build_tree(g, target_arity=2, seed=seed)
            cert = certify_congestion(g, tree, store_solutions=True)
            h, c_int = tree.height, cert.int_value
            cubes = build_cube_scheme(g, tree, cert,
                                      np.random.default_rng((505, rows, seed)))
            d = max(m.dimension for m in cubes.mains.values())
            backends = {
                "reference": (ReferenceBackend(g, tree, cert.solutions), 2.0 * h),
                "impl-a": (build_flow_tables(g, tree, c_int),
                           2.0 * h * tree.degree),
                "impl-b": (cubes, 16.0 * h * d * d),
            }
            for battery in ("permutation", "gravity"):
                demands = demand_battery(battery, g, seed)
                c_opt = optimal_congestion(g, demands)
                for name, (backend, factor) in backends.items():
                    report = route_demands(g, tree, backend, demands)
                    bound = factor * c_int * c_opt
                    if report.congestion > bound:
                        violations.append(
                            f"{rows}x{rows} seed {seed} {battery} {name}: "
                            f"load {report.congestion:.3f} > bound {bound:.3f}")
    _verdict(5, "expected-load guarantees (2 grids x 2 batteries x 5 seeds)",
             started, 600, violations)


def test_criterion_6_compactness_trend():
    started = time.time()
    violations: list[str] = []
    max_bits = {"impl-a": [], "impl-b": []}
    for rows in (4, 8, 16):
        g = grid_graph(rows, rows)
        tree = build_tree(g, target_arity=2, seed=0)
        cert = certify_congestion(g, tree, store_solutions=True)
        tables = build_flow_tables(g, tree, cert.int_value)
        cubes = build_cube_scheme(g, tree, cert, np.random.default_rng((606, rows)))
        max_bits["impl-a"].append(max(measure_table_bits_a(tables).per_vertex.values()))
        max_bits["impl-b"].append(max(measure_table_bits_b(cubes).per_vertex.values()))

        # label fits the exact budget; the header carries two labels plus a
        # marker (level index, phase bit, child position), so its exact bound
        # is two label budgets plus the marker width
        index_bits = max(1, math.ceil(math.log2(max(2, tree.degree))))
        budget = tree.height * index_bits
        marker = math.ceil(math.log2(tree.height + 2)) + 1 + index_bits
        label, header = label_bit_length(tree), header_bit_length(tree)
        if label > budget:
            violations.append(f"{rows}x{rows}: label {label} bits > {budget}")
        if header > 2 * budget + marker:
            violations.append(f"{rows}x{rows}: header {header} bits > "
                              f"{2 * budget + marker}")
    for name, seq in max_bits.items():
        for prev, cur in zip(seq, seq[1:]):
            if cur > 4 * prev:
                violations.append(f"{name}: max table bits jumped {prev} -> {cur} "
                                  "(more than 4x for a 4x vertex-count step)")
    print(f"  table bit trend 4x4 -> 8x8 -> 16x16: {max_bits}")
    _verdict(6, "per-vertex table bits grow polylog", started, 600, violations)


def test_criterion_7_oracle_cross_validation():
    started = time.time()
    four = CapacitatedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    cases = [
        ("single edge", single_edge(), {(0, 1): 1.0}),
        ("triangle", triangle(), {(0, 1): 1.0}),
        ("4-cycle adjacent", four, {(0, 1): 1.0}),
        ("4-cycle opposite", four, {(0, 2): 1.0}),
    ]
    violations: list[str] = []
    for name, g, demands in cases:
        lp = optimal_congestion(g, DemandMatrix(dict(demands)))
        brute = brute_force_congestion(g, DemandMatrix(dict(demands)))
        if abs(lp - brute) > 1e-3:
            violations.append(f"{name}: LP {lp:.6f} vs brute force {brute:.6f}")
    _verdict(7, "LP optimum matches brute force within 1e-3", started, 10,
             violations)


def test_criterion_8_reproducibility(tmp_path):
    started = time.time()
    cfg = parse_config("")
    cfg.update({"generate": "grid:4x4", "schemes": ",".join(SCHEMES),
                "demands": "permutation", "seed": "1"})
    for label in ("a", "b"):
        code, failures = run_experiment(cfg, tmp_path / label)
        assert code == 0, failures
    violations: list[str] = []
    for scheme in SCHEMES:
        for name in ("report.json", "loads.csv", "tables.csv"):
            first = (tmp_path / "a" / scheme / name).read_text()
            second = (tmp_path / "b" / scheme / name).read_text()
            if name == "report.json":
                strip = lambda text: [l for l in text.splitlines()
                                      if '"timestamp"' not in l]
                first, second = strip(first), strip(second)
            if first != second:
                violations.append(f"{scheme}/{name} differs between runs")
    _verdict(8, "byte-identical reports modulo timestamp", started, 60, violations)
