"""Planar geometry primitives and the smallest enclosing disk.

The minimum-radius disk covering a finite point set is unique and is
determined by at most three of the points on its boundary, and is found
here by the expected linear-time randomized incremental method, run on
the convex hull vertices only, since no point inside the hull fixes it.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Iterable, NamedTuple, Optional, Sequence

# Containment checks accept a point this far outside the stated radius so
# that boundary points survive rounding; scaled by radius for large disks.
_MEMBERSHIP_TOL = 1e-10

# Circumcenters come from a 2x2 perpendicular-bisector system; determinants
# below this (relative to the squared coordinate scale) mean collinear.
_DET_GUARD = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class Rect(NamedTuple):
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def center(self) -> Point2:
        return Point2((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def half_diagonal(self) -> float:
        """Distance from the center to any corner."""
        return math.hypot(self.width / 2.0, self.height / 2.0)

    def contains(self, p: Sequence[float]) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1


class Disk(NamedTuple):
    center: Point2
    radius: float

    def contains(self, p: Sequence[float]) -> bool:
        """Membership with a tolerance of 1e-10 * max(1, radius)."""
        return _covers(self.center.x, self.center.y, self.radius, p)


def _finite_points(points: Iterable[Sequence[float]], name: str) -> list:
    # float pairs; a NaN or infinite coordinate is an error naming its index
    pts = [(float(p[0]), float(p[1])) for p in points]
    for k, (x, y) in enumerate(pts):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{name} {k} has a non-finite coordinate ({x}, {y})")
    return pts


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


@functools.lru_cache(maxsize=32)
def _shuffle_order(n: int, rng_seed: int) -> tuple[int, ...]:
    # Random(seed).shuffle's swaps depend only on the length and the seed
    order = list(range(n))
    random.Random(rng_seed).shuffle(order)
    return tuple(order)


def _hull_vertices(pts: Sequence[tuple[float, float]]) -> set[tuple[float, float]]:
    # Andrew's monotone chain; points on a hull edge are not vertices.
    ordered = sorted(set(pts))
    chains: list[list[tuple[float, float]]] = [[], []]
    for chain, seq in zip(chains, (ordered, reversed(ordered))):
        for p in seq:
            while len(chain) >= 2 and _cross(*chain[-2], *chain[-1], *p) <= 0.0:
                chain.pop()
            chain.append(p)
    return set(chains[0]) | set(chains[1])


def smallest_enclosing_disk(
    points: Iterable[Sequence[float]], rng_seed: int = 0
) -> Disk:
    """Minimum-radius disk covering all points.

    Randomized incremental construction: points are shuffled once with a
    seeded generator (so results are reproducible), then folded in one at a
    time.  A point outside the current disk must lie on the boundary of the
    final disk over the prefix, which restarts the scan with that point
    pinned; the same argument pins a second point one level down, after
    which the best disk is found by scanning circumcircles.

    Points that are not convex hull vertices are dropped after the shuffle,
    the rest keeping their order; they never fix the disk, so the floats are
    the same unless gaps between points are below the 1e-10 * radius slack
    (a 1 m cluster 1e8 away): then the disk may move by about 5e-9 of its
    radius, still covering every point.  NaN or infinite coordinates raise.
    """
    pts = _finite_points(points, "point")
    if not pts:
        raise ValueError("smallest_enclosing_disk requires at least one point")
    pts = [pts[k] for k in _shuffle_order(len(pts), rng_seed)]
    if len(pts) > 3:
        hull = _hull_vertices(pts)
        pts = [p for p in pts if p in hull]

    disk: Optional[tuple[float, float, float]] = None
    for i, p in enumerate(pts):
        if disk is None or not _covers(*disk, p):
            disk = _sed_one_boundary(pts[: i + 1], p)
    assert disk is not None
    return Disk(Point2(disk[0], disk[1]), disk[2])


def _sed_one_boundary(
    pts: Sequence[tuple[float, float]], p: tuple[float, float]
) -> tuple[float, float, float]:
    # Smallest disk over pts with p known to lie on the boundary.
    disk = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _covers(*disk, q):
            if disk[2] == 0.0:
                disk = _diameter_disk(p, q)
            else:
                disk = _sed_two_boundary(pts[: i + 1], p, q)
    return disk


def _sed_two_boundary(
    pts: Sequence[tuple[float, float]],
    p: tuple[float, float],
    q: tuple[float, float],
) -> tuple[float, float, float]:
    # Smallest disk over pts with both p and q on the boundary.  Candidate
    # centers lie on the perpendicular bisector of pq; track the extreme
    # circumcircle on each side of the line pq and keep the smaller.
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

