"""The flow-table scheme: stateless per-vertex forwarding from integral flows.

Scheme A replaces the stored path lists with one integral flow per
(cluster, target) pair. A packet repeats a single local rule: pick a random
outgoing link of the flow at the current vertex, weighted by the link's flow
value. The absorption law of that walk reproduces the intended border
distribution exactly, so the scheme only needs the per-vertex flow tables
whose bit sizes are printed below.
"""
import numpy as np

from obroute import build_flow_tables, build_tree, certify_congestion, generate_graph
from obroute.impl_a import label_bit_length, measure_table_bits_a, serialize_vertex_table

g = generate_graph("grid", rows=4, cols=4)
tree = build_tree(g, target_arity=2, seed=0)
cert = certify_congestion(g, tree)
tables = build_flow_tables(g, tree, cert.int_value)
print(f"built {len(tables.flows)} saturated flows at scale C = {cert.int_value}"
      + (f" ({len(tables.events)} clusters needed a larger scale)"
         if tables.events else ""))

root = tree.cluster(tree.root)
child = tree.cluster(root.children[1])
starts = sorted(v for v in root.vertices if root.cluster_weight[v] > 0)
weights = [root.cluster_weight[v] for v in starts]
total_w = sum(weights)

# the walk's endpoint law, started on the root's cluster law (weight-sampled
# starts), must equal the child's border distribution; compute it exactly
# (the exact kernel starts the step on that law and returns the flow's sink
# arcs over its value), then sample it
law = tables.loads([(False, root.id, 2)])[1][0]

rng = np.random.default_rng(0)
n = 20_000
counts: dict[int, int] = {}
for v in rng.choice(starts, size=n, p=np.array(weights) / total_w):
    _, end = tables.sample((False, root.id, 2), int(v), rng)
    counts[end] = counts.get(end, 0) + 1

out_total = child.total_border
print(f"\nendpoint law toward child {child.id} (border / exact mix / {n} walks):")
for v in np.flatnonzero(law).tolist():
    target = child.border_weight.get(v, 0) / out_total
    print(f"  end at {v}: {target:.4f} / {law[v]:.4f} / {counts.get(v, 0) / n:.4f}")

bits = measure_table_bits_a(tables)
print(f"\ntable sizes: max {max(bits.per_vertex.values())} bits per vertex, "
      f"total {sum(bits.per_vertex.values())} bits")
print(f"labels: {label_bit_length(tree)} bits per vertex "
      f"(height {tree.height} x index width)")
print(f"serialized table of vertex 0: {len(serialize_vertex_table(tables, 0))} bytes")
