"""Alternating deployment optimization and fixed-placement baselines.

One round of the optimizer re-associates users to UAVs with the greedy
disk-growth pass (positions held fixed), then moves each UAV to the
smallest-enclosing-disk center of its cluster (association held fixed).
The per-cell power is a fixed prefactor times (farthest 3D distance)^(m+3),
so the SED center is the unique power-minimizing position for a given
cluster; the greedy pass carries no such guarantee, so the loop runs a
bounded number of rounds and returns the best state it visited.

Baselines: sa1 parks UAVs at sub-area centers and pays for the actual
farthest user of each sub-area; sa2 parks them there and pays for the
sub-area corner whether or not anyone is present; uavoo keeps the
geographic association but moves UAVs to SED centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .assignment import (CellAssociation, farthest_user,
                         greedy_min_size_clustering)
from .channel import (ConstraintCoefficients, InfeasibleError, Requirements,
                      VlcParams, constraint_coefficients, min_power_for_radius)
from .geometry import Point2, Rect, smallest_enclosing_disk


class IterationEntry(NamedTuple):
    total_power: float
    step: str    # "init", "locate", "round", or a baseline name


@dataclass
class DeploymentSolution:
    """One deployment: positions, association, powers, and the search trace."""

    uav_positions: list[Point2]
    association: CellAssociation
    per_uav_power: list[float]
    total_power: float
    iterations: list[IterationEntry]
    feasible: bool


def nearest_position_association(users: Sequence[Sequence[float]],
                                 positions: Sequence[Sequence[float]]) -> CellAssociation:
    """Assign each user to the closest position; ties to the lowest index."""
    clusters: list[list[int]] = [[] for _ in positions]
    for j, u in enumerate(users):
        best_i = 0
        best_s = math.inf
        for i, p in enumerate(positions):
            dx = float(p[0]) - float(u[0])
            dy = float(p[1]) - float(u[1])
            s = dx * dx + dy * dy
            if s < best_s:
                best_s = s
                best_i = i
        clusters[best_i].append(j)
    return CellAssociation(clusters)


def geographic_association(users: Sequence[Sequence[float]],
                           sub_areas: Sequence[Rect]) -> CellAssociation:
    """Sub-area membership association.

    Implemented as nearest sub-area center, which coincides with rectangle
    membership for uniform grid tilings (the Voronoi cells of a rectangular
    lattice are the rectangles themselves).
    """
    return nearest_position_association(users, [r.center() for r in sub_areas])


def locate_uavs(association: CellAssociation,
                users: Sequence[Sequence[float]],
                previous_positions: Sequence[Sequence[float]]) -> list[Point2]:
    """SED center of each cluster; empty clusters keep their previous position."""
    if len(association.clusters) != len(previous_positions):
        raise ValueError("association and previous_positions disagree on UAV count")
    positions = [Point2(float(p[0]), float(p[1])) for p in previous_positions]
    for i, cluster in enumerate(association.clusters):
        if cluster:
            disk = smallest_enclosing_disk([users[j] for j in cluster])
            positions[i] = disk.center
    return positions


def _price(positions: Sequence[Sequence[float]],
           association: CellAssociation,
           users: Sequence[Sequence[float]],
           coeffs: ConstraintCoefficients,
           params: VlcParams) -> tuple[list[float], Optional[tuple[int, int]]]:
    # Per-UAV powers of a fixed deployment (inf for a cell whose farthest
    # user is outside the FOV) and the first such (UAV, user), or None.
    per: list[float] = []
    violation = None
    for i, cluster in enumerate(association.clusters):
        if not cluster:
            per.append(0.0)
            continue
        s_max, j_max = farthest_user(positions[i], cluster, users)
        power = min_power_for_radius(math.sqrt(s_max), coeffs, params)
        if power == math.inf and violation is None:
            violation = (i, j_max)
        per.append(power)
    return per, violation


def evaluate_power(positions: Sequence[Sequence[float]],
                   association: CellAssociation,
                   users: Sequence[Sequence[float]],
                   coeffs: ConstraintCoefficients,
                   params: VlcParams) -> tuple[list[float], float]:
    """Per-UAV and total transmit power for a fixed deployment.

    Each non-empty cell pays for its farthest user; empty cells draw zero.
    Raises InfeasibleError naming the UAV and user when someone sits
    outside their serving UAV's field of view.
    """
    per, violation = _price(positions, association, users, coeffs, params)
    if violation is not None:
        i, j = violation
        raise InfeasibleError(
            f"user {j} is outside the field of view of UAV {i}",
            uav_index=i, user_index=j)
    return per, math.fsum(per)


def _fixed_solution(positions: Sequence[Sequence[float]],
                    association: CellAssociation,
                    users: Sequence[Sequence[float]],
                    coeffs: ConstraintCoefficients,
                    params: VlcParams, step: str) -> DeploymentSolution:
    # One priced deployment with a one-entry trace; infeasible ones total inf.
    per, violation = _price(positions, association, users, coeffs, params)
    total = math.fsum(per) if violation is None else math.inf
    return DeploymentSolution(
        uav_positions=[Point2(float(p[0]), float(p[1])) for p in positions],
        association=association,
        per_uav_power=per,
        total_power=total,
        iterations=[IterationEntry(total, step)],
        feasible=violation is None)


def optimize(users: Sequence[Sequence[float]],
             uav_initial_positions: Sequence[Sequence[float]],
             params: VlcParams,
             reqs: Requirements,
             initial_association: Optional[CellAssociation] = None,
             max_iters: int = 20,
             rel_tol: float = 1e-9) -> DeploymentSolution:
    """Alternate greedy re-association and SED relocation, keep the best state.

    Starts from the given positions and association (nearest-position by
    default), applies one location step, then runs full rounds of
    (re-associate, relocate), at most max_iters of them.  The greedy pass
    is a heuristic, so a round may raise total power; such rounds still
    advance the working state (they can unlock better associations later)
    but only rounds that improve on the best power so far are recorded in
    the trace, which is therefore strictly decreasing after the "locate"
    entry.  The loop stops at an association fixed point, when an
    improvement falls below rel_tol, or at the round cap; the best state
    seen is returned.  Once a feasible state is reached the loop cannot
    leave feasibility: greedy only assigns within the FOV and the SED
    center never increases a cluster's farthest distance.
    """
    if not users:
        raise ValueError("at least one user is required")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    coeffs = constraint_coefficients(params, reqs)
    positions = [Point2(float(p[0]), float(p[1])) for p in uav_initial_positions]
    assoc = (initial_association if initial_association is not None
             else nearest_position_association(users, positions))
    assoc.labels(len(users))    # validate the partition up front

    start = _fixed_solution(positions, assoc, users, coeffs, params, "init")
    positions = locate_uavs(assoc, users, positions)
    best = _fixed_solution(positions, assoc, users, coeffs, params, "locate")
    if not best.feasible:
        return best
    if start.feasible:    # fixed initial placement may violate the FOV
        best.iterations.insert(0, start.iterations[0])

    for _ in range(max_iters):
        cand_assoc = greedy_min_size_clustering(
            positions, users, coeffs.exponent, params.uav_height,
            fov_ground_radius=params.fov_ground_radius)
        if cand_assoc.clusters == assoc.clusters:
            break    # association fixed point; relocation would change nothing
        positions = locate_uavs(cand_assoc, users, positions)
        assoc = cand_assoc
        per, total = evaluate_power(positions, assoc, users, coeffs, params)
        if total < best.total_power:
            converged = best.total_power - total <= rel_tol * best.total_power
            best.uav_positions, best.association = list(positions), assoc
            best.per_uav_power, best.total_power = per, total
            best.iterations.append(IterationEntry(total, "round"))
            if converged:
                break
    return best


def baseline_sa1(users: Sequence[Sequence[float]],
                 sub_areas: Sequence[Rect],
                 params: VlcParams,
                 reqs: Requirements) -> DeploymentSolution:
    """Static deployment: UAVs at sub-area centers, pay for the actual farthest user."""
    positions = [r.center() for r in sub_areas]
    assoc = geographic_association(users, sub_areas)
    return _fixed_solution(positions, assoc, users,
                           constraint_coefficients(params, reqs), params, "sa1")


def baseline_sa2(sub_areas: Sequence[Rect],
                 params: VlcParams,
                 reqs: Requirements) -> DeploymentSolution:
    """Worst-case static deployment: every UAV pays for its sub-area corner.

    User-independent, so the association is left empty; per-UAV powers are
    nonzero regardless.
    """
    positions = [r.center() for r in sub_areas]
    assoc = CellAssociation([[] for _ in sub_areas])
    coeffs = constraint_coefficients(params, reqs)
    per = [min_power_for_radius(rect.half_diagonal(), coeffs, params)
           for rect in sub_areas]
    feasible = math.inf not in per
    total = math.fsum(per) if feasible else math.inf
    return DeploymentSolution(positions, assoc, per, total,
                              [IterationEntry(total, "sa2")], feasible)


def baseline_uavoo(users: Sequence[Sequence[float]],
                   sub_areas: Sequence[Rect],
                   params: VlcParams,
                   reqs: Requirements) -> DeploymentSolution:
    """Location optimization only: geographic association, SED positions."""
    centers = [r.center() for r in sub_areas]
    assoc = geographic_association(users, sub_areas)
    positions = locate_uavs(assoc, users, centers)
    return _fixed_solution(positions, assoc, users,
                           constraint_coefficients(params, reqs), params, "uavoo")
