"""The hypercube scheme: cluster weights laid out exactly as cube ranges.

Scheme B (unit capacities only) gives every cluster two virtual hypercubes
embedded into the real graph: a main cube whose node ranges hold the
cluster's own border and each child's border, one node per unit of weight,
and a shuffle cube used to re-randomize a packet's position after every hop. Each cube edge is embedded
as one path drawn from the cluster's certification flow, so the cubes cost no
LP of their own.
Routing between cube nodes is one-phase bit fixing straight to the target
node (the paper routes two-phase, through a random intermediate node first),
so each vertex only stores its node ids and one real path per incident cube
edge.
"""
import numpy as np

from obroute import build_cube_scheme, build_tree, certify_congestion, generate_graph
from obroute.impl_b import audit_cube_scheme, measure_table_bits_b

g = generate_graph("grid", rows=4, cols=4)
tree = build_tree(g, target_arity=2, seed=0)
cert = certify_congestion(g, tree, store_solutions=True)
scheme = build_cube_scheme(g, tree, cert, np.random.default_rng(7))
print(f"built cubes for {len(scheme.mains)} clusters at scale C = {cert.int_value}")

root = tree.cluster(tree.root)
maps = scheme.mains[root.id]
print(f"\nroot main cube: dimension {maps.dimension}, {1 << maps.dimension} nodes")
lo, hi = maps.ranges[0]
print(f"  own border: {hi - lo} node(s)")
for index in range(1, len(maps.ranges)):
    child = tree.target(root.id, index)
    lo, hi = maps.ranges[index]
    print(f"  child {child.id} (out {child.total_border}) -> "
          f"{hi - lo} nodes, range [{lo}, {hi})")

print(f"  expected congestion of the drawn main + shuffle cube paths "
      f"{maps.fractional_congestion:.3f}")

issues = audit_cube_scheme(scheme)
print(f"\naudit: {len(issues)} issue(s)" + ("" if issues else
      " (range counts exact, at most 4w nodes per vertex per cube)"))

rng = np.random.default_rng(3)
start = next(v for v in sorted(root.vertices) if root.cluster_weight[v] > 0)
path, end = scheme.sample((False, root.id, 1), start, rng)
print(f"\ncube walk from vertex {start} toward the first child: "
      f"{len(path) - 1} edge(s), ends at {end}")

bits = measure_table_bits_b(scheme)
print(f"table sizes: max {max(bits.per_vertex.values())} bits per vertex, "
      f"total {sum(bits.per_vertex.values())} bits")
