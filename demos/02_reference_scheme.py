"""Route a permutation with the reference scheme and compare to the optimum.

The reference backend keeps, for every cluster, the solved concurrent flow
between weighted vertex pairs. A route climbs from the source leaf to the
lowest shared cluster and back down, sampling one stored path per hop. The
max expected edge load, computed exactly from the stored path weights,
divided by the optimal congestion for the same demands is the competitive
ratio; it is bounded by 2 * height * C_cert.
"""
import numpy as np

from obroute import (ReferenceBackend, build_tree, certify_congestion,
                     competitive_ratio, demand_battery, generate_graph,
                     optimal_congestion, route_demands, select_path)

g = generate_graph("grid", rows=4, cols=4)
tree = build_tree(g, target_arity=2, seed=0)
cert = certify_congestion(g, tree, store_solutions=True)
print(f"certificate: value {cert.value:.4f}, integer scale C = {cert.int_value}")

backend = ReferenceBackend(g, tree, cert.solutions)
rng = np.random.default_rng(1)
path = select_path(0, 15, tree, backend, rng)
print(f"one sampled route corner to corner: {path}")

demands = demand_battery("permutation", g, seed=1)
report = route_demands(g, tree, backend, demands)
c_opt = optimal_congestion(g, demands)
ratio = competitive_ratio(report.congestion, c_opt)
bound = 2 * tree.height * cert.int_value

print("\npermutation demands, exact expected loads:")
print(f"  max expected load  {report.congestion:.3f}")
print(f"  optimal congestion {c_opt:.3f}")
print(f"  competitive ratio  {ratio:.3f}  (guarantee: ratio <= {bound})")

heavy = sorted(report.edge_loads.items(), key=lambda kv: -kv[1])[:5]
print("  heaviest edges:")
for (u, v), load in heavy:
    print(f"    ({u},{v}): load {load:.3f}")
