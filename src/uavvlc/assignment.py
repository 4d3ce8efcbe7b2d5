"""Greedy cell association under a min-size-clustering objective.

Each UAV serves the users inside one disk; a non-empty cell's power grows
with the (m+3)-th power of the 3D distance to its farthest user and an
empty cell costs nothing, so association quality is the sum of
(farthest distance)^(m+3) over the disks actually in use.  Exact
minimization is combinatorial, so users are folded in greedily: all K
disks start at zero radius, and each user joins the disk whose cost grows
the least, which prices a cell's first user at the full d^(m+3) and makes
parking many users under one UAV attractive when the per-cell floor
z_u^(m+3) outweighs the extra radius.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .channel import InfeasibleError


@dataclass
class CellAssociation:
    """Partition of user indices into one (possibly empty) cluster per UAV."""

    clusters: list[list[int]]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def labels(self, num_users: int) -> list[int]:
        """Serving UAV index per user; raises if the partition is broken."""
        out = [-1] * num_users
        for i, cluster in enumerate(self.clusters):
            for j in cluster:
                if not 0 <= j < num_users or out[j] != -1:
                    raise ValueError("clusters do not partition the users")
                out[j] = i
        if any(v == -1 for v in out):
            raise ValueError("clusters do not partition the users")
        return out


def farthest_user(center: Sequence[float], cluster: Sequence[int],
                  users: Sequence[Sequence[float]]) -> tuple[float, int]:
    """Squared horizontal distance from center to the farthest user of a
    non-empty cluster, and that user's index (the first one on ties)."""
    cx, cy = float(center[0]), float(center[1])
    s_max = -1.0
    j_max = -1
    for j in cluster:
        dx = cx - float(users[j][0])
        dy = cy - float(users[j][1])
        s = dx * dx + dy * dy
        if s > s_max:
            s_max = s
            j_max = j
    return s_max, j_max


def cluster_cost(assignment: CellAssociation,
                 uav_centers: Sequence[Sequence[float]],
                 users: Sequence[Sequence[float]],
                 exponent: float, z_u: float) -> float:
    """Sum over non-empty cells of (3D distance to farthest user)^exponent."""
    if z_u <= 0.0:
        raise ValueError("z_u must be > 0")
    z2 = z_u * z_u
    total = 0.0
    for center, cluster in zip(uav_centers, assignment.clusters):
        if cluster:
            s_max, _ = farthest_user(center, cluster, users)
            total += (s_max + z2) ** (0.5 * exponent)
    return total


def greedy_min_size_clustering(
    uav_centers: Sequence[Sequence[float]],
    users: Sequence[Sequence[float]],
    exponent: float,
    z_u: float,
    fov_ground_radius: Optional[float] = None,
    order_seed: Optional[int] = None,
) -> CellAssociation:
    """Assign each user to the cell whose disk cost grows the least.

    Users are processed in index order (or a seeded shuffle when
    order_seed is given).  Disks start at zero radius and zero cost, so a
    user entering an empty cell pays that cell's full (r^2+z_u^2)^(e/2)
    while a user already inside an occupied disk costs nothing; ties go to
    the lowest UAV index.  Candidates farther than fov_ground_radius from
    a UAV are never assigned to it; a user outside every UAV's field of
    view raises InfeasibleError.  The running total after each insertion
    equals ``cluster_cost`` of the partial assignment, and never decreases.
    """
    if z_u <= 0.0:
        raise ValueError("z_u must be > 0")
    if not uav_centers:
        raise ValueError("at least one UAV center is required")
    centers = [(float(c[0]), float(c[1])) for c in uav_centers]
    order = list(range(len(users)))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)

    z2 = z_u * z_u
    half_exp = 0.5 * exponent
    # Squared 3D radius and cost per disk; zero while the disk is empty, so
    # the generic growth formula prices the first user at full cost.
    sq_radius = [0.0] * len(centers)
    cost = [0.0] * len(centers)
    clusters: list[list[int]] = [[] for _ in centers]

    for j in order:
        ux, uy = float(users[j][0]), float(users[j][1])
        best_i = -1
        best_growth = math.inf
        best_sq = 0.0
        for i, (cx, cy) in enumerate(centers):
            dx = cx - ux
            dy = cy - uy
            r = math.hypot(dx, dy)
            if fov_ground_radius is not None and r > fov_ground_radius:
                continue
            s = r * r + z2
            growth = s ** half_exp - cost[i] if s > sq_radius[i] else 0.0
            if growth < best_growth:
                best_i = i
                best_growth = growth
                best_sq = s
        if best_i < 0:
            raise InfeasibleError(
                f"user {j} lies outside every UAV's field of view",
                user_index=j)
        clusters[best_i].append(j)
        if best_sq > sq_radius[best_i]:
            sq_radius[best_i] = best_sq
            cost[best_i] = best_sq ** half_exp
    if order_seed is not None:
        for cluster in clusters:
            cluster.sort()
    return CellAssociation(clusters)

