"""Greedy cell association under a min-size-clustering objective.

Each UAV serves the users inside one disk; a non-empty cell's power grows
with the (m+3)-th power of the 3D distance to its farthest user and an
empty cell costs nothing, so association quality is the sum of
(farthest distance)^(m+3) over the disks actually in use.  Exact
minimization is combinatorial, so users are folded in greedily: all K
disks start at zero radius, and each user joins the disk whose cost grows
the least, which prices a cell's first user at the full d^(m+3) and makes
parking many users under one UAV attractive when the per-cell floor
z_u^(m+3) outweighs the extra radius.  Large, wide layouts scan by cell,
and there a user first checks the disks that already hold it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .channel import InfeasibleError
from .geometry import _finite_points


@dataclass
class CellAssociation:
    """Partition of user indices into one (possibly empty) cluster per UAV."""

    clusters: list[list[int]]

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


def greedy_min_size_clustering(
    uav_centers: Sequence[Sequence[float]],
    users: Sequence[Sequence[float]],
    exponent: float,
    z_u: float,
    fov_ground_radius: float = math.inf,
) -> CellAssociation:
    """Assign each user to the cell whose disk cost grows the least.

    Users are processed in index order.  Disks start at zero radius and
    zero cost, so a user entering an empty cell pays that cell's full
    (r^2+z_u^2)^(e/2) while a user already inside an occupied disk costs
    nothing; ties go to the lowest UAV index.  Candidates farther than
    fov_ground_radius from a UAV are never assigned to it; a user outside
    every UAV's field of view raises InfeasibleError.  The running total
    after each insertion is the sum of (farthest 3D distance)^e over the
    non-empty cells of the partial assignment, and never decreases.

    Growth is never negative, so a user's scan stops at zero growth.  With
    16+ UAVs spread wider than 2 * fov_ground_radius on some axis, a user
    scans only the UAVs its grid cell lists, in index order, which gives a
    full scan's clusters.  There, for exponents of at least 1, a user first
    joins the first disk holding it at zero growth among those its cell
    of a grid a third as fine lists.  A NaN or infinite coordinate, a z_u
    not finite and > 0, an exponent not finite and >= 0, or a
    fov_ground_radius not > 0 raises ValueError.
    """
    # every comparison is written so that NaN fails it
    if not 0.0 < z_u < math.inf:
        raise ValueError("z_u must be finite and > 0")
    if not 0.0 <= exponent < math.inf:
        raise ValueError("exponent must be finite and >= 0")
    if not fov_ground_radius > 0.0:
        raise ValueError("fov_ground_radius must be > 0")
    if not uav_centers:
        raise ValueError("at least one UAV center is required")
    centers = _finite_points(uav_centers, "UAV center")
    points = _finite_points(users, "user")
    cells = _reach_cells(centers, points, fov_ground_radius)
    everyone = [(i, cx, cy) for i, (cx, cy) in enumerate(centers)]

    z2 = z_u * z_u
    half_exp = 0.5 * exponent
    # Squared 3D radius and cost per disk; zero while the disk is empty, so
    # the generic growth formula prices the first user at full cost.
    sq_radius = [0.0] * len(centers)
    cost = [0.0] * len(centers)
    clusters: list[list[int]] = [[] for _ in centers]
    # Held cells of side R/3, each listing in index order the disks that
    # may hold a user there at zero growth, and per disk the squared ground
    # distance past which it grows (the 1e-9 term outweighs rounding s).
    side = fov_ground_radius / 3.0
    held: Optional[dict] = {} if cells is not None and exponent >= 1.0 else None
    inner = [-math.inf] * len(centers)

    for j, (ux, uy) in enumerate(points):
        best_i = -1
        best_growth = math.inf
        best_sq = 0.0
        if held is not None:
            for i, cx, cy in held.get(
                    (math.floor(ux / side), math.floor(uy / side)), ()):
                dx = cx - ux
                dy = cy - uy
                d2 = dx * dx + dy * dy
                if d2 > inner[i] or math.sqrt(d2) > fov_ground_radius:
                    continue
                r = math.hypot(dx, dy)
                s = r * r + z2
                if s <= sq_radius[i] or s ** half_exp - cost[i] == 0.0:
                    best_i, best_sq = i, s
                    break    # the full scan stops at this same first zero
        if best_i < 0:
            candidates = everyone if cells is None else cells.get(
                (math.floor(ux / fov_ground_radius),
                 math.floor(uy / fov_ground_radius)), ())
            for i, cx, cy in candidates:
                dx = cx - ux
                dy = cy - uy
                # pricing's FOV test, so a cell it forms never prices as inf
                if math.sqrt(dx * dx + dy * dy) > fov_ground_radius:
                    continue
                r = math.hypot(dx, dy)
                s = r * r + z2
                growth = s ** half_exp - cost[i] if s > sq_radius[i] else 0.0
                if growth < best_growth:
                    best_i = i
                    best_growth = growth
                    best_sq = s
                    if growth == 0.0:
                        break    # growth is never negative: nothing later wins
        if best_i < 0:
            raise InfeasibleError(
                f"user {j} lies outside every UAV's field of view",
                user_index=j)
        clusters[best_i].append(j)
        if best_sq > sq_radius[best_i]:
            sq_radius[best_i] = best_sq
            cost[best_i] = best_sq ** half_exp
            if held is not None:
                inner[best_i] = best_sq - z2 + 1e-9 * best_sq
                disk = everyone[best_i]
                reach = math.sqrt(inner[best_i])
                for key in _cells_within(disk[1], disk[2], reach, side):
                    listed = held.setdefault(key, [])
                    if disk not in listed:
                        bisect.insort(listed, disk)
    return CellAssociation(clusters)


def _reach_cells(centers: list, users: list, radius: float) -> Optional[dict]:
    # Cells of side r keyed (floor(x / r), floor(y / r)), each listing in
    # index order every (i, cx, cy) in reach; None where a plain scan is
    # faster, or where coordinates reach 1e12 cells (the pad spans many).
    xs = [c[0] for c in centers]
    ys = [c[1] for c in centers]
    coords = itertools.chain(xs, ys, itertools.chain.from_iterable(users))
    if not (len(centers) >= 16
            and 2.0 * radius < max(max(xs) - min(xs), max(ys) - min(ys))
            and max(map(abs, coords)) < 1e12 * radius):
        return None
    cells: dict[tuple[int, int], list] = {}
    for i, (cx, cy) in enumerate(centers):
        for key in _cells_within(cx, cy, radius, radius):
            cells.setdefault(key, []).append((i, cx, cy))
    return cells


def _cells_within(cx: float, cy: float, reach: float, side: float):
    # Keys (floor(x / side), floor(y / side)) of the cells that reach
    # meets around (cx, cy), padded well past key and distance rounding.
    kx, ky = cx / side, cy / side
    pad = reach / side + 1e-12 * (1.0 + abs(kx) + abs(ky))
    return itertools.product(range(math.floor(kx - pad), math.floor(kx + pad) + 1),
                             range(math.floor(ky - pad), math.floor(ky + pad) + 1))
