"""Optimal-congestion oracle: the minimum congestion any demand-aware
fractional routing achieves, and the competitive ratio against it.

The optimum is the package's min-congestion solver
(cmcf.solve_cmcf_min_congestion) run on all vertices: column generation over
shortest-path trees, seeded by multiplicative weights, whose returned
congestion is a feasible routing's, checked against its dual lower bound.
"""
from __future__ import annotations

from obroute.cmcf import solve_cmcf_min_congestion
from obroute.graph import CapacitatedGraph, DemandMatrix

__all__ = ["optimal_congestion", "competitive_ratio"]


def optimal_congestion(g: CapacitatedGraph, demands: DemandMatrix | dict) -> float:
    """Minimum congestion any (fractional, demand-aware) routing can achieve.

    Returns max_e load_e / c_e of the solver's final routing, a feasible
    routing within relative gap 1e-7 of the dual lower bound. Raises
    ValueError unless `demands` pass g.check_demands, and RuntimeError when
    the gap is larger or the round cap is reached.
    """
    return solve_cmcf_min_congestion(g, demands, set(range(g.n))).congestion


def competitive_ratio(scheme_congestion: float, optimal: float) -> float:
    """Scheme congestion over optimal congestion; 1.0 when both are zero."""
    if optimal == 0.0:
        if scheme_congestion == 0.0:
            return 1.0
        raise ValueError(f"positive scheme congestion {scheme_congestion} with zero "
                         "optimal congestion is inconsistent")
    return scheme_congestion / optimal
