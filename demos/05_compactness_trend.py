"""Per-vertex table growth across grid sizes: the compactness argument.

Both space-efficient schemes promise polylogarithmic per-vertex state. This
script measures the largest per-vertex table on growing grids: vertex count
quadruples per step while the bit counts should grow far slower. Pass
--full to include the 16x16 grid (adds roughly a minute of solving).
"""
import argparse

import numpy as np

from obroute import (build_cube_scheme, build_flow_tables, build_tree,
                     certify_congestion, generate_graph)
from obroute.impl_a import label_bit_length, measure_table_bits_a
from obroute.impl_b import measure_table_bits_b

parser = argparse.ArgumentParser()
parser.add_argument("--full", action="store_true", help="include the 16x16 grid")
sizes = [4, 8] + ([16] if parser.parse_args().full else [])

print(f"{'grid':>7} {'n':>4} {'height':>6} {'C':>3} {'flow bits':>9} "
      f"{'cube bits':>9} {'label':>5}")
prev: dict[str, int] = {}
for rows in sizes:
    g = generate_graph("grid", rows=rows, cols=rows)
    tree = build_tree(g, target_arity=2, seed=0)
    cert = certify_congestion(g, tree, store_solutions=True)
    tables = build_flow_tables(g, tree, cert.int_value)
    cubes = build_cube_scheme(g, tree, cert, np.random.default_rng(rows))
    a = max(measure_table_bits_a(tables).per_vertex.values())
    b = max(measure_table_bits_b(cubes).per_vertex.values())
    growth = ""
    if prev:
        growth = f"   (x{a / prev['a']:.2f} / x{b / prev['b']:.2f} for 4x vertices)"
    print(f"{rows}x{rows:<4} {g.n:>4} {tree.height:>6} {cert.int_value:>3} "
          f"{a:>9} {b:>9} {label_bit_length(tree):>5}{growth}")
    prev = {"a": a, "b": b}
