"""Slow, obviously-correct reference implementations the tests compare against.

None of these runs in the package: each one restates a quantity the
production code folds into a faster or closed form (the randomized
smallest enclosing disk, the greedy association, the d^(m+3) power law),
so agreement between the two is the check.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional, Sequence

from uavvlc.assignment import CellAssociation, farthest_user
from uavvlc.channel import (_LN2, _TWO_PI, InfeasibleError, Requirements,
                            VlcParams)
from uavvlc.geometry import (Disk, Point2, _circumdisk, _covers,
                             _diameter_disk)


def sed_bruteforce(points: Iterable[Sequence[float]]) -> Disk:
    """Exact smallest enclosing disk by exhaustive candidate enumeration.

    Tries every point-pair diameter disk and every point-triple
    circumcircle, keeping the smallest that covers the whole set.  O(n^4),
    capped at 12 points.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("sed_bruteforce requires at least one point")
    if len(pts) > 12:
        raise ValueError("sed_bruteforce is an O(n^4) oracle; use <= 12 points")
    if len(pts) == 1:
        return Disk(Point2(*pts[0]), 0.0)

    best: Optional[tuple[float, float, float]] = None
    candidates: list[tuple[float, float, float]] = []
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(_diameter_disk(pts[i], pts[j]))
            for k in range(j + 1, n):
                cand = _circumdisk(pts[i], pts[j], pts[k])
                if cand is not None:
                    candidates.append(cand)
    for cand in candidates:
        if best is not None and cand[2] >= best[2]:
            continue
        if all(_covers(*cand, p) for p in pts):
            best = cand
    assert best is not None
    return Disk(Point2(best[0], best[1]), best[2])


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


def exhaustive_min_size_clustering(
    uav_centers: Sequence[Sequence[float]],
    users: Sequence[Sequence[float]],
    exponent: float,
    z_u: float,
) -> tuple[CellAssociation, float]:
    """Optimal association by trying every assignment.

    K^U candidates; keep U and K tiny.
    """
    n_users = len(users)
    n_uavs = len(uav_centers)
    if n_uavs ** n_users > 2_000_000:
        raise ValueError("instance too large for exhaustive enumeration")
    best_assoc: Optional[CellAssociation] = None
    best_cost = math.inf
    for labels in itertools.product(range(n_uavs), repeat=n_users):
        clusters: list[list[int]] = [[] for _ in range(n_uavs)]
        for j, i in enumerate(labels):
            clusters[i].append(j)
        assoc = CellAssociation(clusters)
        c = cluster_cost(assoc, uav_centers, users, exponent, z_u)
        if c < best_cost:
            best_cost = c
            best_assoc = assoc
    assert best_assoc is not None
    return best_assoc, best_cost


def lambertian_order(tx_semi_angle: float) -> float:
    """Lambertian order m = -ln 2 / ln(cos Phi_1/2) of an LED, in doubles.

    tx_semi_angle is the half-power semi-angle in radians, in (0, pi/2).
    """
    if not 0.0 < tx_semi_angle < math.pi / 2.0:
        raise ValueError("tx_semi_angle must be in (0, pi/2) radians")
    return -_LN2 / math.log(math.cos(tx_semi_angle))


def concentrator_gain(psi: float, params: VlcParams) -> float:
    """Optical concentrator gain: n_r^2 / sin^2(Psi_c) inside the FOV, else 0.

    psi is the incidence angle in radians.
    """
    if psi < 0.0:
        raise ValueError("incidence angle must be >= 0")
    inside = psi <= math.radians(params.fov_semi_angle_deg)
    return params.fov_gain if inside else 0.0


def min_power_rate(gain: float, reqs: Requirements, params: VlcParams) -> float:
    """Smallest transmit power whose rate bound meets rate_threshold."""
    if gain <= 0.0:
        raise InfeasibleError("zero channel gain: user outside the field of view")
    # 2^(2 C_th) - 1 via expm1 keeps small thresholds exact
    arg = _TWO_PI / math.e * math.expm1(2.0 * reqs.rate_threshold * _LN2)
    return params.noise_std * math.sqrt(arg) / (params.illum_factor * gain)


def min_power_illum(gain: float, reqs: Requirements, params: VlcParams) -> float:
    """Smallest transmit power with xi * P * h >= illum_threshold."""
    if gain <= 0.0:
        raise InfeasibleError("zero channel gain: user outside the field of view")
    return reqs.illum_threshold / (params.illum_factor * gain)
