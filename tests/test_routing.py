"""Path selection and exact expected loads across all three hop backends."""
import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (connected_graphs, cycle_graph, dict_hop_loads, dict_route_demands,
                     dict_through, flow_sweep, path_graph, reference_pair_products,
                     sampled_loads, single_edge, tree_from_spec)
from obroute import routing
from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import SCHEMES, _build_backend, demand_battery, graph_from_config
from obroute.flows import SNK
from obroute.graph import CapacitatedGraph, DemandMatrix, generate_graph, grid_graph
from obroute.impl_a import build_flow_tables
from obroute.impl_b import build_cube_scheme
from obroute.optimum import competitive_ratio, optimal_congestion
from obroute.routing import ReferenceBackend, route_demands, select_path


def _backends(g, tree, cert):
    ref = ReferenceBackend(g, tree, cert.solutions)
    tab = build_flow_tables(g, tree, cert.int_value)
    out = {"reference": ref, "tables": tab}
    if g.uniform_capacities():
        scheme = build_cube_scheme(g, tree, cert, np.random.default_rng(13))
        out["cubes"] = scheme
    return out


@pytest.fixture(scope="module")
def k2():
    g = single_edge()
    tree = tree_from_spec(g, [0, 1])
    cert = certify_congestion(g, tree, store_solutions=True)
    return g, tree, cert, _backends(g, tree, cert)


@pytest.fixture(scope="module")
def four_cycle():
    g = cycle_graph(4)
    tree = tree_from_spec(g, [[0, 1], [2, 3]])
    cert = certify_congestion(g, tree, store_solutions=True)
    return g, tree, cert, _backends(g, tree, cert)


def test_select_path_same_endpoints(four_cycle):
    g, tree, cert, backends = four_cycle
    for backend in backends.values():
        assert select_path(2, 2, tree, backend, np.random.default_rng(0)) == []


def test_single_edge_route_is_the_edge(k2):
    g, tree, cert, backends = k2
    for name, backend in backends.items():
        rng = np.random.default_rng(3)
        for _ in range(20):
            path = select_path(0, 1, tree, backend, rng)
            # every intermediate law is supported on {0,1}; the only way to end
            # at 1 is to finish crossing the lone edge
            assert path[0] == 0 and path[-1] == 1
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:])), name


def test_tree_hop_counts(four_cycle, monkeypatch):
    # hops per direction = leaf path length - shared prefix of the leaf paths:
    # same level-1 cluster shares depth 2, opposite clusters only the root
    g, tree, cert, backends = four_cycle
    calls = {False: 0, True: 0}     # _steps calls per hop direction, keyed downward
    steps = routing._steps

    def counted(tree, hop):
        calls[hop[0]] += 1
        return steps(tree, hop)

    monkeypatch.setattr(routing, "_steps", counted)
    for s, t, expect in [(0, 1, 1), (0, 2, 2), (3, 0, 2)]:
        calls.update({False: 0, True: 0})
        select_path(s, t, tree, backends["reference"], np.random.default_rng(1))
        assert (calls[False], calls[True]) == (expect, expect)


def test_steps_of_each_kind_of_hop():
    # root 0 = {0,1,2} with children 1 = {0,1} and the leaf 4 = {2}, which
    # sits at depth 1, above the leaves 2 = {0} and 3 = {1}
    tree = tree_from_spec(path_graph(3), [[0, 1], 2])
    assert [c.children for c in tree.clusters] == [[1, 4], [2, 3], [], [], []]
    # multi-vertex child: leave it toward its own border, spread over the
    # parent; down, leave the parent toward child 1's border, spread over it
    assert routing._steps(tree, (False, 1)) == [(False, 1, 0), (True, 0, 1)]
    assert routing._steps(tree, (True, 1)) == [(False, 0, 1), (True, 1, 0)]
    # singleton child: it is its own border and its own cluster law
    assert routing._steps(tree, (False, 4)) == [(True, 0, 2)]
    assert routing._steps(tree, (True, 4)) == [(False, 0, 2)]
    assert routing._steps(tree, (False, 3)) == [(True, 1, 2)]
    assert routing._steps(tree, (True, 3)) == [(False, 1, 2)]


def test_single_edge_exact_loads(k2):
    g, tree, cert, backends = k2
    for name in ("reference", "tables"):
        report = route_demands(g, tree, backends[name], {(0, 1): 3.0})
        # the only path crosses the edge exactly once, and the exact
        # estimator reports no spread
        assert report.edge_loads[(0, 1)] == pytest.approx(3.0, abs=1e-12)
        assert report.edge_stderr[(0, 1)] == pytest.approx(0.0, abs=1e-12)
        assert report.congestion == pytest.approx(3.0)
        assert competitive_ratio(report.congestion,
                                 optimal_congestion(g, {(0, 1): 3.0})) == pytest.approx(1.0)


def test_single_edge_cube_backend_expectation(k2):
    # one-phase cube hops never bounce: the spread in the root crosses the
    # edge iff it draws 1's node, and the descent to t's range crosses it iff
    # the spread stayed at 0, so every unit crosses exactly once: load 3
    g, tree, cert, backends = k2
    report = route_demands(g, tree, backends["cubes"], {(0, 1): 3.0})
    assert report.edge_loads[(0, 1)] == pytest.approx(3.0, abs=1e-12)


def test_zero_demands(four_cycle):
    # no demand crosses no hop: every backend evaluates an empty pass
    g, tree, cert, backends = four_cycle
    for backend in backends.values():
        for demands in ({}, {(0, 2): 0.0}):
            report = route_demands(g, tree, backend, demands)
            assert report.edge_loads == {} and report.congestion == 0.0
            assert report.through == {} and report.hop_loads.shape == (0, g.m)
        assert routing.hop_loads(tree, backend, []).shape == (0, g.m)


def test_scaling_linearity(four_cycle):
    g, tree, cert, backends = four_cycle
    base = {(0, 2): 1.0, (1, 3): 2.0}
    doubled = {p: 2 * d for p, d in base.items()}
    for backend in backends.values():
        r1 = route_demands(g, tree, backend, base)
        r2 = route_demands(g, tree, backend, doubled)
        assert set(r1.edge_loads) == set(r2.edge_loads)
        for key, load in r1.edge_loads.items():
            assert r2.edge_loads[key] == pytest.approx(2 * load, rel=1e-12)


def test_route_demands_validates_pairs(four_cycle):
    g, tree, cert, backends = four_cycle
    with pytest.raises(ValueError, match="out of vertex range"):
        route_demands(g, tree, backends["reference"], {(0, 9): 1.0})
    with pytest.raises(ValueError, match="at least one sample"):
        sampled_loads(g, tree, backends["reference"], {(0, 1): 1.0}, samples=0, seed=0)


def test_route_demands_validates_plain_dict_values():
    # a plain dict is checked as a DemandMatrix is: a negative or NaN demand
    # and a pair from a vertex to itself raise, rather than loading nothing
    g = grid_graph(3, 3)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    backend = ReferenceBackend(g, tree, cert.solutions)
    for demands, match in [({(0, 8): -5.0, (1, 1): 3.0}, "must be finite and >= 0"),
                           ({(0, 8): float("nan")}, "must be finite and >= 0"),
                           ({(1, 1): 3.0}, "to itself")]:
        with pytest.raises(ValueError, match=match):
            route_demands(g, tree, backend, demands)


def test_route_demands_accepts_demand_matrix(four_cycle):
    g, tree, cert, backends = four_cycle
    dm = DemandMatrix({(0, 2): 1.0})
    r1 = route_demands(g, tree, backends["reference"], dm)
    r2 = route_demands(g, tree, backends["reference"], {(0, 2): 1.0})
    assert r1.edge_loads == r2.edge_loads


def test_reproducible_per_seed(four_cycle):
    g, tree, cert, backends = four_cycle
    d = {(0, 2): 1.0, (2, 0): 1.0, (1, 3): 1.0}
    for backend in backends.values():
        r1 = sampled_loads(g, tree, backend, d, samples=30, seed=7)
        r2 = sampled_loads(g, tree, backend, d, samples=30, seed=7)
        r3 = sampled_loads(g, tree, backend, d, samples=30, seed=8)
        assert r1 == r2
        assert r1[0] != r3[0]


def test_congestion_uses_capacities():
    g = single_edge(cap=5)
    tree = tree_from_spec(g, [0, 1])
    cert = certify_congestion(g, tree, store_solutions=True)
    backend = ReferenceBackend(g, tree, cert.solutions)
    report = route_demands(g, tree, backend, {(0, 1): 3.0})
    assert report.congestion == pytest.approx(0.6)


def test_expected_load_bound_four_cycle(four_cycle):
    # derangement demand; each backend carries its own guarantee factor:
    # 2hC for the reference hops, times tree degree for the table walks,
    # 16*h*d^2*C for the cube walks (d = largest main-cube dimension, 3 here)
    g, tree, cert, backends = four_cycle
    demand = {(0, 2): 1.0, (1, 3): 1.0, (2, 0): 1.0, (3, 1): 1.0}
    c_opt = optimal_congestion(g, demand)
    h, c = tree.height, cert.int_value
    bounds = {"reference": 2 * h * c * c_opt,
              "tables": 2 * h * tree.degree * c * c_opt,
              "cubes": 16 * h * 3 ** 2 * c * c_opt}
    for name, backend in backends.items():
        report = route_demands(g, tree, backend, demand)
        assert report.congestion <= bounds[name], name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exact_loads_match_monte_carlo(scheme):
    # Every edge's exact load lies within 4 standard errors of a 4000-sample
    # estimate, on 5 trees and batteries; fixed seeds make the test repeatable
    g = grid_graph(4, 4)
    for seed in range(5):
        tree = build_tree(g, target_arity=2, seed=seed)
        cert = certify_congestion(g, tree, store_solutions=True)
        demands = demand_battery("permutation", g, seed)
        backend = _build_backend(scheme, g, tree, cert, seed)[0]
        exact = route_demands(g, tree, backend, demands).edge_loads
        estimate, stderr = sampled_loads(g, tree, backend, demands, samples=4000,
                                         seed=seed)
        assert set(exact) == set(estimate), seed
        for edge, load in exact.items():
            assert abs(load - estimate[edge]) <= 4 * stderr[edge] + 1e-12, (seed, edge)


_ORACLE_CASES = {
    "grid-4x4-permutation": (lambda: grid_graph(4, 4), "permutation", 1),
    # leaves at depths 5 to 7, so _through reads leaf paths of different lengths
    "grid-8x8-gravity": (lambda: grid_graph(8, 8), "gravity", 0),
    "torus-6x6-gravity": (lambda: generate_graph("torus", rows=6, cols=6), "gravity", 0),
    "random-regular-32-3-permutation": (
        lambda: generate_graph("random_regular", n=32, deg=3, seed=0), "permutation", 0),
    # perfbench's lp-10x10 instance: its 24 pairs cross only some hops, so a
    # pass builds the reference's vertex rows of only some clusters, and
    # reads only some targets of each
    "grid-10x10-uniform-pairs": (lambda: grid_graph(10, 10), "uniform_pairs:24", 0),
}


class _VectorChecked:
    """A backend whose exact kernel checks, for every pass of k steps, that
    its loads are a float k x m array, row i indexed by graph edge id, with
    no negative entry, and its end laws a float k x n array, row i indexed
    by vertex, with no negative entry and total 1."""

    def __init__(self, inner, g):
        self.inner, self.g = inner, g

    def _checked(self, k, out):
        loads, laws = out
        assert loads.dtype == np.float64 and loads.shape == (k, self.g.m)
        assert not (loads < 0).any()
        assert laws.dtype == np.float64 and laws.shape == (k, self.g.n)
        assert not (laws < 0).any() and (abs(laws.sum(axis=1) - 1.0) <= 1e-9).all()
        return out

    def loads(self, steps):
        return self._checked(len(steps), self.inner.loads(steps))


def _assert_equals_dict_oracle(g, tree, cert, demands, schemes, seed):
    """Checks every scheme's loads against the dict oracle, and the format of
    every kernel's loads; returns the backends by scheme."""
    through = routing._through(tree, g.n, demands.entries)
    assert list(through.items()) == list(dict_through(tree, demands.entries).items())
    backends = {}
    for scheme in schemes:
        backend = backends[scheme] = _build_backend(scheme, g, tree, cert, seed)[0]
        report = route_demands(g, tree, _VectorChecked(backend, g), demands)
        oracle = dict_route_demands(g, tree, backend, demands)
        assert report.edge_loads == oracle.edge_loads, scheme
        assert report.congestion == oracle.congestion, scheme
        # route_demands adds its hop rows in one reduction: the sequential
        # loop over the same rows gives every load to the last bit
        totals = np.zeros(g.m)
        for d, row in zip(report.through.values(), report.hop_loads):
            totals += d * row
        assert report.edge_loads == {g.edges[i][:2]: float(totals[i])
                                     for i in np.flatnonzero(totals)}, scheme
    return backends


@pytest.mark.parametrize("spec, entries", [
    ("grid:4x4", {}),
    ("grid:4x4", {(13, 2): 0.75}),
    ("grid:6x6:1-4", "gravity"),
], ids=["empty", "single-pair", "capacitated-gravity"])
def test_through_equals_the_dict_oracle(spec, entries):
    # _through's sorted arrays against the pair-by-pair dict loop, to the
    # last bit and in the same hop order; the battery is given in reverse
    # sorted order, so _through must sort it itself
    g = graph_from_config({"generate": spec})
    tree = build_tree(g, target_arity=2, seed=0)
    if isinstance(entries, str):
        entries = dict(sorted(demand_battery(entries, g, 0).entries.items(), reverse=True))
    through = routing._through(tree, g.n, entries)
    assert list(through.items()) == list(dict_through(tree, entries).items())
    assert bool(through) == bool(entries)


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_exact_loads_equal_the_dict_oracle(case):
    # the array kernels add in the loop version's order, so every load and
    # the congestion agree to the last bit
    make, battery, seed = _ORACLE_CASES[case]
    g = make()
    tree = build_tree(g, target_arity=2, seed=seed)
    cert = certify_congestion(g, tree, store_solutions=True)
    _assert_equals_dict_oracle(g, tree, cert, demand_battery(battery, g, seed), SCHEMES, seed)


@settings(max_examples=20, deadline=None)
@given(connected_graphs())
def test_exact_loads_equal_the_dict_oracle_on_random_graphs(g):
    # impl-b needs unit capacities, so it routes a unit copy of the graph;
    # the first battery pair (if n > 1) also samples a path from every
    # scheme, which must run from s to t along real edges
    unit = CapacitatedGraph(g.n, [(u, v, 1) for u, v, _ in g.edges])
    for graph, schemes in ((g, ("reference", "impl-a")), (unit, ("impl-b",))):
        tree = build_tree(graph, target_arity=2, seed=0)
        cert = certify_congestion(graph, tree, store_solutions=True)
        battery = demand_battery("gravity", graph, 0)
        backends = _assert_equals_dict_oracle(graph, tree, cert, battery, schemes, 0)
        if not battery.entries:
            continue
        s, t = min(battery.entries)
        for scheme, backend in backends.items():
            path = select_path(s, t, tree, backend, np.random.default_rng(0))
            assert path[0] == s and path[-1] == t, scheme
            assert all(graph.has_edge(a, b) for a, b in zip(path, path[1:])), scheme


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_hop_loads_equal_the_dict_oracle(case):
    # every hop of the tree at once, in two passes: each row is its hop's
    # dict kernels added step by step, to the last bit; the passes hold
    # one-step hops into singleton children and, for impl-b, cubes of more
    # than one dimension
    make, _, seed = _ORACLE_CASES[case]
    g = make()
    tree = build_tree(g, target_arity=2, seed=seed)
    cert = certify_congestion(g, tree, store_solutions=True)
    hops = sorted((downward, c.id) for c in tree.clusters if c.parent is not None
                  for downward in (False, True))
    assert any(tree.cluster(child).size == 1 for _, child in hops)
    for scheme in SCHEMES:
        backend = _build_backend(scheme, g, tree, cert, seed)[0]
        rows = routing.hop_loads(tree, backend, hops)
        assert rows.shape == (len(hops), g.m)
        for hop, row in zip(hops, rows):
            expect = np.zeros(g.m)
            for edge, x in dict_hop_loads(tree, backend, hop).items():
                expect[g.edge_index(*edge)] = x
            assert np.array_equal(row, expect), (scheme, hop)
        if scheme == "impl-b":
            firsts = [routing._steps(tree, hop)[0] for hop in hops]
            assert len({backend._cube(step)[0].dimension for step in firsts}) > 1


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_impl_a_hop_rows_equal_the_flow_sweep(case):
    # impl-a's closed form against its walk swept vertex by vertex, step by
    # step from the law of the cluster each hop leaves: every row agrees up
    # to rounding, on the same edges
    make, _, seed = _ORACLE_CASES[case]
    g = make()
    tree = build_tree(g, target_arity=2, seed=seed)
    tables = build_flow_tables(g, tree, certify_congestion(g, tree).int_value)
    hops = sorted((downward, c.id) for c in tree.clusters if c.parent is not None
                  for downward in (False, True))
    rows = routing.hop_loads(tree, tables, hops)
    for hop, row in zip(hops, rows):
        downward, child_id = hop
        law = tree.law(tree.cluster(child_id).parent if downward else child_id)
        expect = np.zeros(g.m)
        for step in routing._steps(tree, hop):
            part, law = flow_sweep(tables, step, law)
            expect += part
        assert np.array_equal(row != 0, expect != 0), hop
        assert np.allclose(row, expect, rtol=1e-12, atol=0.0), hop


@pytest.mark.parametrize("spec", ["grid:4x4", "grid:8x8", "grid:10x10", "torus:6x6",
                                  "hypercube:5", "random_regular:32,3,3", "grid:6x6:1-4"])
def test_every_hop_chains_its_step_laws(spec):
    # what lets hop_loads start every step on its own law: a hop's first
    # step starts on the law of the cluster it leaves, a second step on the
    # law its first ends on, and its last step ends on the law of the
    # cluster it enters, to the last bit, on every tree edge both ways
    g = graph_from_config({"generate": spec})
    for seed in range(3):
        for arity in (2, 3):
            tree = build_tree(g, target_arity=arity, seed=seed)
            for child in (c for c in tree.clusters if c.parent is not None):
                for downward in (False, True):
                    leaves, enters = ((child.parent, child.id) if downward
                                      else (child.id, child.parent))
                    laws = [[tree.law(*key) for key in routing.step_laws(tree, step)]
                            for step in routing._steps(tree, (downward, child.id))]
                    hop = (spec, seed, arity, downward, child.id)
                    assert np.array_equal(laws[0][0], tree.law(leaves)), hop
                    if len(laws) == 2:
                        assert np.array_equal(laws[1][0], laws[0][1]), hop
                    assert np.array_equal(laws[-1][1], tree.law(enters)), hop
            # pass_laws gathers the same rows for a pass of every hop's steps
            steps = [step for child in tree.clusters if child.parent is not None
                     for downward in (False, True)
                     for step in routing._steps(tree, (downward, child.id))]
            for end in (False, True):
                expect = [tree.law(*routing.step_laws(tree, step)[end]) for step in steps]
                assert np.array_equal(routing.pass_laws(tree, steps, end), expect), end


@pytest.mark.parametrize("hop, flow, match", [
    # the one step into the singleton {0} leaves cluster 1 along flow (1, 1)
    ((True, 2), (1, 1), r"^hop into cluster 2: step \(False, 1, 1\) ends 1 away from "
                        r"the law of cluster 2's border$"),
    # the first of two steps out of cluster 1 leaves it along flow (1, 0)
    ((False, 1), (1, 0), r"^hop out of cluster 1: step \(False, 1, 0\) ends 0\.5 away "
                         r"from the law of cluster 1's border$"),
], ids=["one-step-hop", "first-of-two-steps"])
def test_hop_loads_catch_an_edited_sink_arc(four_cycle, hop, flow, match):
    # impl-a's end laws are its flows' sink arcs over |f|, so a sink arc
    # doubled after the build moves the law the hop ends on
    g, tree, cert, backends = four_cycle
    tables = copy.deepcopy(backends["tables"])
    tables.flows[flow].arcs[(0, SNK)] *= 2
    with pytest.raises(RuntimeError, match=match):
        routing.hop_loads(tree, tables, [hop])


def test_reference_vertex_rows_are_the_ordered_loop():
    # row v of each cluster's vertex rows is pi_u times the unit loads of
    # the pair's path group, added over u ascending, every cluster's rows
    # built in one call
    g = grid_graph(4, 4)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    backend = ReferenceBackend(g, tree, cert.solutions)
    clusters = [cluster.id for cluster in tree.clusters if cluster.size > 1]
    backend._build_vertex_rows(clusters)
    for cluster_id in clusters:
        law = tree.law(cluster_id)
        groups = cert.solutions[cluster_id].path_groups
        vertices = law.nonzero()[0].tolist()
        expect = np.zeros((len(vertices), g.m))
        for u in vertices:
            for row, v in zip(expect, vertices):
                if u != v:
                    ids, units = groups(min(u, v))[max(u, v)].unit_loads(g)
                    for e, x in zip(ids.tolist(), units.tolist()):
                        row[e] += law[u] * x
        got, rows = backend._rows[cluster_id]
        assert got.tolist() == vertices, cluster_id
        assert np.array_equal(rows, expect), cluster_id


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_reference_hop_rows_equal_the_pair_products(case):
    # the reference kernel re-associates the pair-by-pair sum of
    # p_u q_v x_uv: every hop row agrees with it up to rounding, on the same
    # edges. A leave step and a spread step walk between the same two laws,
    # so they give the same row, and each hop up a tree edge the same row as
    # the hop down it, to the last bit
    make, _, seed = _ORACLE_CASES[case]
    g = make()
    tree = build_tree(g, target_arity=2, seed=seed)
    backend = ReferenceBackend(g, tree, certify_congestion(g, tree, store_solutions=True).solutions)
    children = [c.id for c in tree.clusters if c.parent is not None]
    up, down = (routing.hop_loads(tree, backend, [(downward, c) for c in children])
                for downward in (False, True))
    assert np.array_equal(up, down)
    for child, row in zip(children, up):
        expect = np.zeros(g.m)
        for step in routing._steps(tree, (False, child)):
            _, cluster_id, index = step
            leave, spread = (backend.loads([(flag, cluster_id, index)])[0]
                             for flag in (False, True))
            assert np.array_equal(leave, spread), step
            for edge, x in reference_pair_products(backend, step).items():
                expect[g.edge_index(*edge)] += x
        assert np.array_equal(row != 0, expect != 0), child
        assert np.allclose(row, expect, rtol=1e-12, atol=0.0), child


class _Corrupted:
    """A backend whose sampler or kernel breaks one routing invariant on its
    leave steps; spread steps pass through."""

    def __init__(self, inner, g, fault):
        if fault == "cube-path":
            # every stored cube-edge path runs backwards, so no cube walk continues
            inner = copy.deepcopy(inner)
            for maps in (*inner.mains.values(), *inner.shuffles.values()):
                maps.edge_paths = {e: p[::-1] for e, p in maps.edge_paths.items()}
        self.inner, self.g, self.fault = inner, g, fault

    def sample(self, step, v, rng):
        path, end = self.inner.sample(step, v, rng)
        if self.fault == "junction" and not step[0]:
            path = [next(u for u in range(self.g.n) if u != v)] + path
        if self.fault == "end" and not step[0]:
            end = (end + 1) % self.g.n
        return path, end

    def loads(self, steps):
        loads, ends = self.inner.loads(steps)
        if self.fault == "law":
            ends = ends.copy()
            for i, step in enumerate(steps):
                if not step[0]:
                    ends[i] = np.eye(ends.shape[1])[np.flatnonzero(ends[i])[0]]
        return loads, ends


@pytest.mark.parametrize("fault, scheme, pair, match", [
    ("junction", "reference", (0, 2), "not at the junction"),
    ("end", "reference", (0, 1), "ended at"),
    ("law", "tables", (0, 2), "away from the law"),
    ("cube-path", "cubes", (0, 2), "does not continue the walk"),
])
def test_broken_invariants_raise(four_cycle, fault, scheme, pair, match):
    g, tree, cert, backends = four_cycle
    backend = _Corrupted(backends[scheme], g, fault)
    with pytest.raises(RuntimeError, match=match):
        if fault in ("junction", "end", "cube-path"):
            select_path(*pair, tree, backend, np.random.default_rng(0))
        else:
            route_demands(g, tree, backend, {pair: 1.0})


def test_invariants_hold_under_optimize_flag():
    # `python -O` strips assert statements; the routing and cube-walk
    # invariants, and the exact loads' per-step end-law check, must still raise
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                        str(root / "tests")]))
    sample = "select_path(0, 2, tree, backend, np.random.default_rng(0))\n"
    for scheme, fault, run, message in [
            ("reference", "junction", sample, "hop segment starts at"),
            ("cubes", "cube-path", sample, "cube edge path does not continue the walk"),
            ("tables", "law", "route_demands(g, tree, backend, {(0, 2): 1.0})\n",
             "hop out of cluster 1: step (False, 1, 0) ends 0.5 away from the law of "
             "cluster 1's border")]:
        script = (
            "import numpy as np\n"
            "from helpers import cycle_graph, tree_from_spec\n"
            "from test_routing import _Corrupted, _backends\n"
            "from obroute.decomposition import certify_congestion\n"
            "from obroute.routing import route_demands, select_path\n"
            "assert False, 'asserts are live'\n"
            "g = cycle_graph(4)\n"
            "tree = tree_from_spec(g, [[0, 1], [2, 3]])\n"
            "cert = certify_congestion(g, tree, store_solutions=True)\n"
            f"backend = _Corrupted(_backends(g, tree, cert)[{scheme!r}], g, {fault!r})\n"
            + run
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert f"RuntimeError: {message}" in proc.stderr, proc.stderr


def test_stored_path_off_the_graph_raises():
    # a stored path that steps between two non-adjacent vertices is caught by
    # a raise, so it still fires under `python -O`
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                        str(root / "tests")]))
    script = (
        "from helpers import cycle_graph, tree_from_spec\n"
        "from test_routing import _backends\n"
        "from obroute.decomposition import certify_congestion\n"
        "from obroute.routing import ReferenceBackend, route_demands\n"
        "assert False, 'asserts are live'\n"
        "g = cycle_graph(4)\n"
        "tree = tree_from_spec(g, [[0, 1], [2, 3]])\n"
        "backends = _backends(g, tree, certify_congestion(g, tree, store_solutions=True))\n"
        "# the cube build reads the unit loads of the certification groups, so\n"
        "# the reference gets a certificate of its own, broken before any read\n"
        "cert = certify_congestion(g, tree, store_solutions=True)\n"
        "paths = cert.solutions[tree.root].path_groups(0)[2].paths\n"
        "paths[0] = [0, 2]\n"
        "backends['reference'] = ReferenceBackend(g, tree, cert.solutions)\n"
        "maps = backends['cubes'].mains[tree.root]\n"
        "maps.edge_paths = {e: [p[0], (p[0] + 2) % 4, p[-1]]\n"
        "                   for e, p in maps.edge_paths.items()}\n"
        "for name in ('reference', 'cubes'):\n"
        "    try:\n"
        "        route_demands(g, tree, backends[name], {(0, 2): 1.0})\n"
        "    except RuntimeError as exc:\n"
        "        print(name, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "reference cluster 0: stored path steps off the graph at (0,2)",
        "cubes stored path of cube edge (0,1) steps off the graph at (0,2)"]


def test_reference_rejects_a_law_off_the_cluster():
    # a child's border law with mass on a vertex its parent does not weight:
    # the kernel names the cluster and the vertex rather than drop that mass.
    # The tree builds its law matrix on its first read, after the edit
    g = grid_graph(4, 4)
    tree = build_tree(g, target_arity=2, seed=0)
    backend = ReferenceBackend(g, tree, certify_congestion(g, tree, store_solutions=True).solutions)
    cid = tree.leaf_path(0)[1]
    child = tree.cluster(tree.cluster(cid).children[0])
    outside = next(v for v, w in sorted(child.border_weight.items()) if w > 0)
    tree.cluster(cid).cluster_weight[outside] = 0
    for spread in (False, True):
        with pytest.raises(RuntimeError, match=f"^cluster {cid}: .* vertex {outside},"):
            backend.loads([(spread, cid, 1)])
