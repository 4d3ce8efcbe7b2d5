"""Minimum-power deployment of LED-equipped UAVs over ground users.

The library alternates two exact sub-steps: given a cell association,
each UAV moves to the smallest-enclosing-disk center of its users; given
positions, users re-associate by greedy disk growth.  Both data-rate and
illumination constraints reduce to the same (distance)^(m+3) power law,
so the farthest user of each cell sets its transmit power.
"""

from .assignment import CellAssociation, greedy_min_size_clustering
from .channel import (ConstraintCoefficients, InfeasibleError, Requirements,
                      VlcParams, capacity_lower_bound, channel_gain,
                      constraint_coefficients, min_power_for_radius)
from .geometry import Disk, Point2, Rect, smallest_enclosing_disk
from .optimizer import (DeploymentSolution, IterationEntry, evaluate_power,
                        geographic_association, locate_uavs,
                        nearest_position_association, optimize)
from .scenario import (SCHEMES, MonteCarloSummary, Scenario, ScenarioConfig,
                       SchemeStats, UserReport, default_params,
                       default_requirements, generate_scenario, make_grid,
                       per_user_report, run_monte_carlo,
                       run_monte_carlo_batches, solve_scenario)

__version__ = "0.1.0"

__all__ = [
    "CellAssociation", "greedy_min_size_clustering",
    "ConstraintCoefficients", "InfeasibleError", "Requirements", "VlcParams",
    "capacity_lower_bound", "channel_gain", "constraint_coefficients",
    "min_power_for_radius",
    "Disk", "Point2", "Rect", "smallest_enclosing_disk",
    "DeploymentSolution", "IterationEntry", "evaluate_power",
    "geographic_association", "locate_uavs", "nearest_position_association",
    "optimize",
    "SCHEMES", "MonteCarloSummary", "Scenario", "ScenarioConfig",
    "SchemeStats", "UserReport", "default_params", "default_requirements",
    "generate_scenario", "make_grid", "per_user_report", "run_monte_carlo",
    "run_monte_carlo_batches", "solve_scenario",
]
