"""Compact oblivious routing schemes on capacitated graphs."""

from obroute.decomposition import (
    DecompositionTree,
    audit_tree,
    build_tree,
    certify_congestion,
)
from obroute.experiment import demand_battery, run_experiment
from obroute.graph import (
    CapacitatedGraph,
    DemandMatrix,
    GraphFormatError,
    generate_graph,
    graph_stats,
    parse_graph,
)
from obroute.impl_a import build_flow_tables, measure_table_bits_a
from obroute.impl_b import audit_cube_scheme, build_cube_scheme, measure_table_bits_b
from obroute.optimum import competitive_ratio, optimal_congestion
from obroute.routing import (
    LoadReport,
    ReferenceBackend,
    route_demands,
    select_path,
)

__version__ = "0.1.0"
