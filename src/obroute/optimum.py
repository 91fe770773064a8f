"""Optimal-congestion oracle: the LP lower bound for any routing scheme, and
the competitive ratio against it."""
from __future__ import annotations

from obroute.cmcf import solve_cmcf_min_congestion
from obroute.graph import CapacitatedGraph, DemandMatrix

__all__ = ["optimal_congestion", "competitive_ratio"]


def optimal_congestion(g: CapacitatedGraph, demands: DemandMatrix | dict) -> float:
    """Minimum congestion any (fractional, demand-aware) routing can achieve."""
    return solve_cmcf_min_congestion(g, demands).congestion


def competitive_ratio(scheme_congestion: float, optimal: float) -> float:
    """Scheme congestion over optimal congestion; 1.0 when both are zero."""
    if optimal == 0.0:
        if scheme_congestion == 0.0:
            return 1.0
        raise ValueError(f"positive scheme congestion {scheme_congestion} with zero "
                         "optimal congestion is inconsistent")
    return scheme_congestion / optimal
