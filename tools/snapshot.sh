#!/bin/sh
# Byte-identity snapshot of an obroute checkout.
#
#   tools/snapshot.sh REPO OUT
#
# Runs the checkout at REPO (its src/ on PYTHONPATH) and writes into OUT:
#   route-4x4-perm/   obroute route, grid:4x4, all schemes, permutation, seed 1
#   route-8x8-grav/   obroute route, grid:8x8, all schemes, gravity, seed 0
#   route-torus-6x6-grav/  the same on torus:6x6
#   route-10x10-pairs/  the same on grid:10x10, uniform_pairs:24, seed 0:
#                     the instance of perfbench's lp-10x10 workload
#                     (report.json timestamp lines stripped; stdout.txt), and
#                     loads-sha256.txt: per scheme, a sha256 over the repr of
#                     its full-precision edge loads and congestion, which
#                     loads.csv rounds to 9 significant digits;
#                     hops-sha256.txt: per scheme, a sha256 over the repr
#                     of every field of its hops.npz, the per-hop loads at
#                     full precision ("no hops.npz" for a checkout that
#                     writes none), and the file itself as <scheme>-hops.npz,
#                     which tools/compare_hops.py reads to show how far two
#                     snapshots' hop rows and congestion differ;
#                     oracle.txt: the repr of optimal_congestion's c_opt on
#                     the run's graph and battery, its master-LP count, and
#                     the master-LP count of certify_congestion on the run's
#                     tree (tree seed = the run's seed);
#                     route-8x8-grav/report-stdout.txt also holds the stdout
#                     of obroute report on that run's --out-dir
#   build-8x8/        obroute build --generate grid:8x8: tree.json, and
#                     stdout.txt without its `wrote` line
#   audit-*.txt       obroute audit stdout, grid:4x4 --seed 3 and grid:3x3:1-3;
#                     audit-16x16.txt is impl-b's audit of grid:16x16 (stdout
#                     and stderr, about 20 s), the largest instance here, so
#                     an impl-b table field too narrow for its stored paths
#                     shows as a FAIL line and an exit code
#   demo-*.txt        stdout of demos/01-05
#   impl-a-blobs.txt  serialize_vertex_table hex per vertex of the grid 4x4
#                     impl-a build (tree seed 0), and measure_table_bits_a
#   routes.txt        sha256 over select_path routes of every ordered pair of
#                     grid 6x6, 3 draws each, tree seeds 0 and 1, all schemes
#   impl-b-embedding.txt  for the impl-b builds of routes.txt, per tree seed
#                     one sha256 over every cluster's node range per step
#                     (the (lo, hi) CubeScheme._cube returns for every target
#                     index, spread or not; None where it raises ValueError)
#                     and both node_owner maps (layout), and one over all
#                     edge_paths (paths)
#
# Two checkouts give the same results when `diff -r OUT1 OUT2` is empty.
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 REPO OUT" >&2
    exit 2
fi
repo=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
py=${PYTHON:-python3}
export PYTHONPATH="$repo/src"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

obroute() {
    "$py" -m obroute.cli "$@"
}

route() {
    name=$1
    shift
    obroute route "$@" --scheme reference --scheme impl-a --scheme impl-b \
        --out-dir "$work/$name" > "$work/$name.stdout" 2>&1 || echo "exit $?" >> "$work/$name.stdout"
    mkdir -p "$out/$name"
    for scheme in reference impl-a impl-b; do
        grep -v '"timestamp"' "$work/$name/$scheme/report.json" > "$out/$name/$scheme-report.json"
        cp "$work/$name/$scheme/loads.csv" "$out/$name/$scheme-loads.csv"
        cp "$work/$name/$scheme/tables.csv" "$out/$name/$scheme-tables.csv"
        if [ -f "$work/$name/$scheme/hops.npz" ]; then
            cp "$work/$name/$scheme/hops.npz" "$out/$name/$scheme-hops.npz"
        fi
    done
    cp "$work/$name.stdout" "$out/$name/stdout.txt"
    "$py" - "$work/$name" > "$out/$name/hops-sha256.txt" <<'EOF'
import hashlib
import sys
from pathlib import Path

import numpy as np

for scheme in ("reference", "impl-a", "impl-b"):
    path = Path(sys.argv[1]) / scheme / "hops.npz"
    if not path.exists():
        print(scheme, "no hops.npz")
        continue
    digest = hashlib.sha256()
    with np.load(path) as hops:
        for field in sorted(hops.files):
            digest.update(repr((field, hops[field].tolist())).encode())
    print(scheme, digest.hexdigest())
EOF
}

loads_hash() {
    name=$1
    shift
    "$py" - "$@" > "$out/$name/loads-sha256.txt" <<'EOF'
import hashlib
import sys

from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import SCHEMES, _build_backend, demand_battery, graph_from_config
from obroute.routing import route_demands

spec, battery, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
g = graph_from_config({"generate": spec})
tree = build_tree(g, target_arity=2, seed=seed)
cert = certify_congestion(g, tree, store_solutions=True)
demands = demand_battery(battery, g, seed)
for scheme in SCHEMES:
    report = route_demands(g, tree, _build_backend(scheme, g, tree, cert, seed)[0], demands)
    text = repr((sorted(report.edge_loads.items()), report.congestion))
    print(scheme, hashlib.sha256(text.encode()).hexdigest())
EOF
}

oracle() {
    name=$1
    shift
    "$py" - "$@" > "$out/$name/oracle.txt" <<'EOF'
import sys

from obroute import cmcf, optimum
from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import demand_battery, graph_from_config

spec, battery, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
g = graph_from_config({"generate": spec})
calls = []
solve = cmcf._TreePool.solve_master


def counted(pool, caps):
    calls.append(caps)
    return solve(pool, caps)


cmcf._TreePool.solve_master = counted
print("c_opt", repr(optimum.optimal_congestion(g, demand_battery(battery, g, seed))))
print("master_lps", len(calls))
calls.clear()
certify_congestion(g, build_tree(g, target_arity=2, seed=seed))
print("certify_master_lps", len(calls))
EOF
}

route route-4x4-perm --generate grid:4x4 --demands permutation --seed 1
loads_hash route-4x4-perm grid:4x4 permutation 1
oracle route-4x4-perm grid:4x4 permutation 1
route route-8x8-grav --generate grid:8x8 --demands gravity --seed 0
obroute report --out-dir "$work/route-8x8-grav" > "$out/route-8x8-grav/report-stdout.txt" 2>&1 \
    || echo "exit $?" >> "$out/route-8x8-grav/report-stdout.txt"
loads_hash route-8x8-grav grid:8x8 gravity 0
oracle route-8x8-grav grid:8x8 gravity 0
route route-torus-6x6-grav --generate torus:6x6 --demands gravity --seed 0
loads_hash route-torus-6x6-grav torus:6x6 gravity 0
oracle route-torus-6x6-grav torus:6x6 gravity 0
route route-10x10-pairs --generate grid:10x10 --demands uniform_pairs:24 --seed 0
loads_hash route-10x10-pairs grid:10x10 uniform_pairs:24 0
oracle route-10x10-pairs grid:10x10 uniform_pairs:24 0

mkdir -p "$out/build-8x8"
obroute build --generate grid:8x8 --out-dir "$work/build" > "$work/build.stdout" 2>&1 \
    || echo "exit $?" >> "$work/build.stdout"
grep -v '^wrote ' "$work/build.stdout" > "$out/build-8x8/stdout.txt" || true
cp "$work/build/tree.json" "$out/build-8x8/tree.json"

obroute audit --generate grid:4x4 --seed 3 > "$out/audit-4x4-seed3.txt" 2>&1 \
    || echo "exit $?" >> "$out/audit-4x4-seed3.txt"
obroute audit --generate grid:3x3:1-3 > "$out/audit-3x3-caps.txt" 2>&1 \
    || echo "exit $?" >> "$out/audit-3x3-caps.txt"
obroute audit --generate grid:16x16 --scheme impl-b > "$out/audit-16x16.txt" 2>&1 \
    || echo "exit $?" >> "$out/audit-16x16.txt"

for demo in "$repo"/demos/0[1-5]_*.py; do
    "$py" "$demo" > "$out/demo-$(basename "$demo" .py).txt" 2>&1 \
        || echo "exit $?" >> "$out/demo-$(basename "$demo" .py).txt"
done

"$py" - > "$out/impl-a-blobs.txt" <<'EOF'
from obroute.decomposition import build_tree, certify_congestion
from obroute.graph import grid_graph
from obroute.impl_a import build_flow_tables, measure_table_bits_a, serialize_vertex_table

g = grid_graph(4, 4)
tree = build_tree(g, target_arity=2, seed=0)
tables = build_flow_tables(g, tree, certify_congestion(g, tree).int_value)
for v in range(g.n):
    print(v, serialize_vertex_table(tables, v).hex())
bits = measure_table_bits_a(tables)
print("max", bits.max_bits, "total", bits.total_bits)
print("per_vertex", sorted(bits.per_vertex.items()))
EOF

"$py" - > "$out/routes.txt" <<'EOF'
import hashlib

import numpy as np

from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import SCHEMES, _build_backend
from obroute.graph import grid_graph
from obroute.routing import select_path

g = grid_graph(6, 6)
for tree_seed in (0, 1):
    tree = build_tree(g, target_arity=2, seed=tree_seed)
    cert = certify_congestion(g, tree, store_solutions=True)
    for scheme in SCHEMES:
        backend = _build_backend(scheme, g, tree, cert, tree_seed)[0]
        rng = np.random.default_rng((tree_seed, SCHEMES.index(scheme)))
        digest = hashlib.sha256()
        for s in range(g.n):
            for t in range(g.n):
                if s != t:
                    for _ in range(3):
                        digest.update(repr(select_path(s, t, tree, backend, rng)).encode())
        print(tree_seed, scheme, digest.hexdigest())
EOF

"$py" - > "$out/impl-b-embedding.txt" <<'EOF'
import hashlib

from obroute.decomposition import build_tree, certify_congestion
from obroute.experiment import _build_backend
from obroute.graph import grid_graph

g = grid_graph(6, 6)
for tree_seed in (0, 1):
    tree = build_tree(g, target_arity=2, seed=tree_seed)
    cert = certify_congestion(g, tree, store_solutions=True)
    cubes = _build_backend("impl-b", g, tree, cert, tree_seed)[0]
    layout, paths = hashlib.sha256(), hashlib.sha256()
    for cid in sorted(cubes.mains):
        ranges = []
        for spread in (False, True):
            for index in range(len(tree.cluster(cid).children) + 1):
                try:
                    ranges.append(cubes._cube((spread, cid, index))[1:])
                except ValueError:
                    ranges.append(None)
        cube_pair = (cubes.mains[cid], cubes.shuffles[cid])
        layout.update(repr((cid, ranges,
                            [maps.node_owner for maps in cube_pair])).encode())
        paths.update(repr((cid, [sorted(maps.edge_paths.items())
                                 for maps in cube_pair])).encode())
    print(tree_seed, "layout", layout.hexdigest())
    print(tree_seed, "paths", paths.hexdigest())
EOF
