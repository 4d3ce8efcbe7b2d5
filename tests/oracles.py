"""Slow, obviously-correct reference implementations the tests compare against.

None of these runs in the package: each one restates a quantity the
production code folds into a faster or closed form (the randomized
smallest enclosing disk, the greedy association, the lattice-bracketed
nearest position, the d^(m+3) power law,
the decimal series behind the link constants) or bounds what it can
reach (the exact minimum-power layout), so agreement between the two is
the check.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Optional, Sequence

import mpmath

from uavvlc.assignment import CellAssociation, farthest_user
from uavvlc.channel import (_LN2, _TWO_PI, InfeasibleError, Requirements,
                            VlcParams, constraint_coefficients,
                            min_power_for_radius)
from uavvlc.geometry import Disk, Point2, Rect
from uavvlc.optimizer import DeploymentSolution, IterationEntry

# Containment slack and collinearity guard of the package's disk code.
_MEMBERSHIP_TOL = 1e-10
_DET_GUARD = 1e-12


# The smallest-enclosing-disk loop and its helpers written plainly: prefix
# slices, _covers with *disk unpacking and function calls throughout, so
# the kernel is checked against code it does not share.


def _covers(cx: float, cy: float, r: float, p: Sequence[float]) -> bool:
    return math.hypot(p[0] - cx, p[1] - cy) <= r + _MEMBERSHIP_TOL * max(1.0, r)


def _diameter_disk(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(a[0] - cx, a[1] - cy), math.hypot(b[0] - cx, b[1] - cy))
    return cx, cy, r


def _circumdisk(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> Optional[tuple[float, float, float]]:
    """Disk through three points, or None when they are (near) collinear.

    The points are translated so their bounding-box midpoint sits at the
    origin before solving; this keeps the determinant test meaningful for
    clusters far from the origin.
    """
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy))
    if abs(d) <= _DET_GUARD * max(1.0, scale * scale):
        return None
    x = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
         + (cx * cx + cy * cy) * (ay - by)) / d
    y = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
         + (cx * cx + cy * cy) * (bx - ax)) / d
    # Radius from the rounded center, so that the disk covers its own points
    # where rounding x + ox exceeds the membership slack (coordinates ~1e8).
    x, y = x + ox, y + oy
    r = max(
        math.hypot(x - a[0], y - a[1]),
        math.hypot(x - b[0], y - b[1]),
        math.hypot(x - c[0], y - c[1]),
    )
    return x, y, r


def _cross(ox: float, oy: float, px: float, py: float, qx: float, qy: float) -> float:
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)


def _sed_one_boundary(
    pts: Sequence[tuple[float, float]], p: tuple[float, float], two_boundary
) -> tuple[float, float, float]:
    # Smallest disk over pts with p known to lie on the boundary.
    disk = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _covers(*disk, q):
            if disk[2] == 0.0:
                disk = _diameter_disk(p, q)
            else:
                disk = two_boundary(pts[: i + 1], p, q)
    return disk


def _sed_two_boundary(
    pts: Sequence[tuple[float, float]],
    p: tuple[float, float],
    q: tuple[float, float],
) -> tuple[float, float, float]:
    # Smallest disk over pts with both p and q on the boundary, the textbook
    # step (Welzl 1991; de Berg et al. 4.7, MiniDiscWith2Points): each point
    # outside the disk makes it the circumcircle of p, q and that point, and
    # a (near) collinear point leaves it as it is.
    disk = _diameter_disk(p, q)
    for r_pt in pts:
        if not _covers(*disk, r_pt):
            disk = _circumdisk(p, q, r_pt) or disk
    return disk


def _sed_two_boundary_extremes(
    pts: Sequence[tuple[float, float]],
    p: tuple[float, float],
    q: tuple[float, float],
) -> tuple[float, float, float]:
    # The same disk by a second route that reads pts in no order: candidate
    # centers lie on the perpendicular bisector of pq; keep the extreme
    # circumcircle on each side of the line pq, then the smaller of the two.
    circ = _diameter_disk(p, q)
    left: Optional[tuple[float, float, float]] = None
    right: Optional[tuple[float, float, float]] = None
    left_x = right_x = 0.0
    px, py = p
    qx, qy = q
    for r_pt in pts:
        if _covers(*circ, r_pt):
            continue
        side = _cross(px, py, qx, qy, r_pt[0], r_pt[1])
        cand = _circumdisk(p, q, r_pt)
        if cand is None:
            continue
        cand_x = _cross(px, py, qx, qy, cand[0], cand[1])
        if side > 0.0 and (left is None or cand_x > left_x):
            left, left_x = cand, cand_x
        elif side < 0.0 and (right is None or cand_x < right_x):
            right, right_x = cand, cand_x
    if left is None and right is None:
        return circ
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def hull_reference(pts: Sequence[tuple[float, float]]) -> set[tuple[float, float]]:
    """Convex hull vertices by Andrew's monotone chain, as a set.

    Points on a hull edge are not vertices.  The package's filter before
    it inlined the cross product.
    """
    ordered = sorted(set(pts))
    chains: list[list[tuple[float, float]]] = [[], []]
    for chain, seq in zip(chains, (ordered, reversed(ordered))):
        for p in seq:
            while len(chain) >= 2 and _cross(*chain[-2], *chain[-1], *p) <= 0.0:
                chain.pop()
            chain.append(p)
    return set(chains[0]) | set(chains[1])


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


def sed_unfiltered(points: Iterable[Sequence[float]], rng_seed: int = 0,
                   two_boundary=_sed_two_boundary) -> Disk:
    """The randomized incremental disk on every point, interior ones too.

    Shuffles with random.Random(rng_seed) and runs the loop above with
    two_boundary as its two-point step (the textbook one by default), with
    no convex-hull filter and no cached shuffle order.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("sed_unfiltered requires at least one point")
    random.Random(rng_seed).shuffle(pts)
    disk: Optional[tuple[float, float, float]] = None
    for i, p in enumerate(pts):
        if disk is None or not _covers(*disk, p):
            disk = _sed_one_boundary(pts[: i + 1], p, two_boundary)
    assert disk is not None
    return Disk(Point2(disk[0], disk[1]), disk[2])


def nearest_scan(users: Sequence[Sequence[float]],
                 positions: Sequence[Sequence[float]]) -> CellAssociation:
    """Each user at its nearest position by a plain scan of every position.

    No lattice bracket: ties go to the lowest index because only a strictly
    smaller squared distance moves the best.  Those squares overflow past
    about 1.34e154 m, so this is a reference for closer inputs only.
    """
    points = [(float(p[0]), float(p[1])) for p in positions]
    clusters: list[list[int]] = [[] for _ in points]
    for j, (ux, uy) in enumerate(users):
        best_i = 0
        best_s = math.inf
        for i, (px, py) in enumerate(points):
            dx = px - ux
            dy = py - uy
            s = dx * dx + dy * dy
            if s < best_s:
                best_s = s
                best_i = i
        clusters[best_i].append(j)
    return CellAssociation(clusters)


def greedy_reference(uav_centers: Sequence[Sequence[float]],
                     users: Sequence[Sequence[float]],
                     exponent: float, z_u: float,
                     fov_ground_radius: float = math.inf) -> CellAssociation:
    """Greedy min-size clustering by a plain scan of every UAV per user.

    No early exit and no spatial buckets: each user prices every UAV in
    index order and joins the first one with the least cost growth.
    """
    centers = [(float(c[0]), float(c[1])) for c in uav_centers]
    z2 = z_u * z_u
    half_exp = 0.5 * exponent
    sq_radius = [0.0] * len(centers)
    cost = [0.0] * len(centers)
    clusters: list[list[int]] = [[] for _ in centers]
    for j, u in enumerate(users):
        ux, uy = float(u[0]), float(u[1])
        best_i = -1
        best_growth = math.inf
        best_sq = 0.0
        for i, (cx, cy) in enumerate(centers):
            dx, dy = cx - ux, cy - uy
            if math.sqrt(dx * dx + dy * dy) > fov_ground_radius:
                continue
            r = math.hypot(dx, dy)
            s = r * r + z2
            growth = s ** half_exp - cost[i] if s > sq_radius[i] else 0.0
            if growth < best_growth:
                best_i, best_growth, best_sq = i, growth, s
        if best_i < 0:
            raise InfeasibleError(
                f"user {j} lies outside every UAV's field of view",
                user_index=j)
        clusters[best_i].append(j)
        if best_sq > sq_radius[best_i]:
            sq_radius[best_i] = best_sq
            cost[best_i] = best_sq ** half_exp
    return CellAssociation(clusters)


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


def exact_min_power_layout(users: Sequence[Sequence[float]], num_uavs: int,
                           params: VlcParams) -> tuple[float, list[Disk]]:
    """Least total unit power of any placement of num_uavs UAVs, and its disks.

    An optimal cell sits at the smallest enclosing disk of its cluster,
    which 1, 2 or 3 of its users fix, and pays (r^2 + z_u^2)^((m+3)/2) for
    that disk's radius r.  So the optimum is the cheapest cover of the users
    by at most num_uavs such disks within the FOV ground radius (Bilo et
    al., ESA 2005): branch and bound takes a disk through the lowest
    uncovered user, cheapest first, until the cost so far reaches the best
    cover found.  inf and no disks when no cover exists.
    """
    z2 = params.uav_height ** 2
    half_exp = 0.5 * (params.lambertian_m + 3.0)
    pts = [(float(u[0]), float(u[1])) for u in users]
    cheapest: dict[int, tuple[float, Disk]] = {}    # covered users -> disk
    for k in (1, 2, 3):
        for subset in itertools.combinations(pts, k):
            disk = sed_bruteforce(subset)
            if disk.radius > params.fov_ground_radius:
                continue
            covered = sum(1 << j for j, p in enumerate(pts)
                          if _covers(disk.center.x, disk.center.y, disk.radius, p))
            cost = (disk.radius * disk.radius + z2) ** half_exp
            if covered not in cheapest or cost < cheapest[covered][0]:
                cheapest[covered] = (cost, disk)
    disks = sorted((cost, covered, disk)
                   for covered, (cost, disk) in cheapest.items())
    through = [[d for d in disks if d[1] >> j & 1] for j in range(len(pts))]
    best_total, best_disks = math.inf, []

    def search(uncovered: int, left: int, spent: float, chosen: list[Disk]):
        nonlocal best_total, best_disks
        if not uncovered:    # reached only below the best so far
            best_total, best_disks = spent, chosen
            return
        if not left:
            return
        j = (uncovered & -uncovered).bit_length() - 1
        for cost, covered, disk in through[j]:
            if spent + cost >= best_total:
                break
            search(uncovered & ~covered, left - 1, spent + cost, chosen + [disk])

    search((1 << len(pts)) - 1, num_uavs, 0.0, [])
    return best_total, best_disks


def lambertian_order(tx_semi_angle: float) -> float:
    """Lambertian order m = -ln 2 / ln(cos Phi_1/2) of an LED, in doubles.

    tx_semi_angle is the half-power semi-angle in radians, in (0, pi/2).
    """
    if not 0.0 < tx_semi_angle < math.pi / 2.0:
        raise ValueError("tx_semi_angle must be in (0, pi/2) radians")
    return -_LN2 / math.log(math.cos(tx_semi_angle))


def link_constants(tx_semi_angle_deg: float, fov_semi_angle_deg: float,
                   refractive_index: float) -> tuple[float, float, float]:
    """Lambertian order, concentrator gain and FOV tangent by mpmath.

    40-digit sin, cos, tan and log, each constant rounded once to double:
    the derivation VlcParams used before its 50-digit decimal series.
    """
    with mpmath.mp.workdps(40):
        phi = mpmath.radians(mpmath.mpf(tx_semi_angle_deg))
        psi = mpmath.radians(mpmath.mpf(fov_semi_angle_deg))
        m = float(-mpmath.log(2) / mpmath.log(mpmath.cos(phi)))
        sin2_psi = float(mpmath.sin(psi) ** 2)
        tan_psi = (math.inf if fov_semi_angle_deg >= 90.0
                   else float(mpmath.tan(psi)))
    return m, refractive_index ** 2 / sin2_psi, tan_psi


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


# sa2 as the package priced it before it became a cached layout: per
# sub-area through min_power_for_radius, from the thresholds themselves.


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
