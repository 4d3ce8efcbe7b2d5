"""Planar geometry primitives and the smallest enclosing disk.

The minimum-radius disk covering a finite point set is unique and is
determined by at most three of the points on its boundary, and is found
here by the expected linear-time randomized incremental method.  From 8
points on it runs on the convex hull vertices only, since no point inside
the hull fixes the disk; below that it runs on all points, with the same
result, because the hull costs more than the interior points it saves.
From 32 points on, the points strictly inside a box between the four
diagonal extremes are dropped before the hull is found (Akl and Toussaint,
1978): each of them is strictly inside the hull, so the hull is the same.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Iterable, NamedTuple, Sequence

# Containment checks accept a point this far outside the stated radius so
# that boundary points survive rounding; scaled by radius for large disks.
_MEMBERSHIP_TOL = 1e-10

# Circumcenters come from a 2x2 perpendicular-bisector system; determinants
# below this (relative to the squared coordinate scale) mean collinear.
_DET_GUARD = 1e-12

# The hull filter runs from this many points on: below it, finding the hull
# costs more than the Welzl loop saves on the interior points; at 7 points
# the two measured the same.
_HULL_MIN_POINTS = 8

# The box filter runs from this many points on; a cell of a paper scenario
# holds at most 16 users, so only larger solves reach it.
_BOX_MIN_POINTS = 32


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


class Disk(NamedTuple):
    center: Point2
    radius: float

    def contains(self, p: Sequence[float]) -> bool:
        """Membership with a tolerance of 1e-10 * max(1, radius)."""
        return (math.hypot(p[0] - self.center.x, p[1] - self.center.y)
                <= _bound(self.radius))


class _Checked(list):
    # Float pairs that _finite_points has checked, which it passes on as
    # they are; only _finite_points and lists of its items build one.
    __slots__ = ()


def _finite_points(points: Iterable[Sequence[float]], name: str) -> _Checked:
    # float pairs; a NaN or infinite coordinate is an error naming its index
    if type(points) is _Checked:
        return points
    pts = _Checked([(float(p[0]), float(p[1])) for p in points])
    for k, (x, y) in enumerate(pts):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{name} {k} has a non-finite coordinate ({x}, {y})")
    return pts


def _bound(r: float) -> float:
    # The largest distance from the center that a disk of radius r covers;
    # the conditional is max(1.0, r), NaN included, without the call.
    return r + _MEMBERSHIP_TOL * (r if r > 1.0 else 1.0)


@functools.lru_cache(maxsize=32)
def _shuffle_order(n: int, rng_seed: int) -> tuple[int, ...]:
    # Random(seed).shuffle's swaps depend only on the length and the seed
    order = list(range(n))
    random.Random(rng_seed).shuffle(order)
    return tuple(order)


def _outside_box(pts: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    # The points not strictly inside the box between the four diagonal
    # extremes p1..p4 (least and greatest x + y and x - y, as rounded).  A
    # point inside it has one of them in each open quadrant around it, so it
    # lies strictly inside their hull, whichever points they are.
    s = [x + y for x, y in pts]
    d = [x - y for x, y in pts]
    p1, p3 = pts[s.index(min(s))], pts[s.index(max(s))]
    p2, p4 = pts[d.index(max(d))], pts[d.index(min(d))]
    x0, x1 = max(p1[0], p4[0]), min(p2[0], p3[0])
    y0, y1 = max(p1[1], p2[1]), min(p3[1], p4[1])
    return [p for p in pts if not (x0 < p[0] < x1 and y0 < p[1] < y1)]


def _hull_vertices(pts: Sequence[tuple[float, float]]) -> set[tuple[float, float]]:
    # Andrew's monotone chain; points on a hull edge are not vertices.
    ordered = sorted(set(pts))
    chain: list = [None] * len(ordered)
    hull = set()
    for seq in (ordered, ordered[::-1]):
        k = 0
        for p in seq:
            x, y = p
            while k >= 2:
                (ox, oy), (ax, ay) = chain[k - 2], chain[k - 1]
                # o, a, p make no left turn: a is no vertex of this chain
                if not (ax - ox) * (y - oy) - (ay - oy) * (x - ox) <= 0.0:
                    break
                k -= 1
            chain[k] = p
            k += 1
        hull.update(chain[:k])
    return hull


def smallest_enclosing_disk(
    points: Iterable[Sequence[float]], rng_seed: int = 0
) -> Disk:
    """Minimum-radius disk covering all points.

    Randomized incremental construction: points are shuffled once with a
    seeded generator (so results are reproducible), then folded in one at a
    time.  A point outside the current disk must lie on the boundary of the
    final disk over the prefix, which restarts the scan with that point
    pinned; one level down a second point is pinned, and each point outside
    the disk then makes it the circle through that point and the two pinned.

    From 8 points on, points that are not convex hull vertices are dropped
    after the shuffle, the rest keeping their order; they never fix the
    disk, so the floats are the same unless gaps between points are below
    the 1e-10 * radius slack (a 1 m cluster 1e8 away): then the disk may
    move by about 5e-9 of its radius, still covering every point.  Below 8
    points the loop runs on all of them, where the hull costs more than the
    interior points it would save, with the same result.  From 32 points
    on, the points strictly inside the box between the four diagonal
    extremes are dropped before the hull is found: they lie strictly
    inside it, so the hull and the disk are the same.  NaN or infinite
    coordinates raise.
    """
    pts = _finite_points(points, "point")
    if not pts:
        raise ValueError("smallest_enclosing_disk requires at least one point")
    pts = [pts[k] for k in _shuffle_order(len(pts), rng_seed)]
    if len(pts) >= _HULL_MIN_POINTS:
        hull = _hull_vertices(_outside_box(pts) if len(pts) >= _BOX_MIN_POINTS
                              else pts)
        pts = [p for p in pts if p in hull]

    cx, cy = pts[0]
    r = 0.0
    bound = _bound(r)
    hypot = math.hypot
    for i in range(1, len(pts)):
        x, y = pts[i]
        if not hypot(x - cx, y - cy) <= bound:
            cx, cy, r = _sed_one_boundary(pts, i, x, y)
            bound = _bound(r)
    return Disk(Point2(cx, cy), r)


def _sed_one_boundary(
    pts: Sequence[tuple[float, float]], end: int, px: float, py: float
) -> tuple[float, float, float]:
    # Smallest disk over pts[: end + 1] with (px, py) known to lie on the
    # boundary.
    cx, cy, r = px, py, 0.0
    bound = _bound(r)
    hypot = math.hypot
    for k in range(end + 1):
        qx, qy = pts[k]
        if not hypot(qx - cx, qy - cy) <= bound:
            if r == 0.0:
                # the disk on pq as diameter; its radius is the larger of the
                # two rounded distances, so that it covers both ends
                cx = (px + qx) / 2.0
                cy = (py + qy) / 2.0
                ra = hypot(px - cx, py - cy)
                rb = hypot(qx - cx, qy - cy)
                r = rb if rb > ra else ra
            else:
                cx, cy, r = _sed_two_boundary(pts, k, pts[end], pts[k])
            bound = _bound(r)
    return cx, cy, r


def _sed_two_boundary(
    pts: Sequence[tuple[float, float]],
    end: int,
    p: tuple[float, float],
    q: tuple[float, float],
) -> tuple[float, float, float]:
    # Smallest disk over pts[: end + 1] with p and q on its boundary: from pq's
    # diameter disk, each point outside makes it the circle through p, q and it.
    px, py = p
    qx, qy = q
    hypot = math.hypot
    cx = (px + qx) / 2.0
    cy = (py + qy) / 2.0
    r = max(hypot(px - cx, py - cy), hypot(qx - cx, qy - cy))
    bound = _bound(r)
    lo_x, hi_x = qx if qx < px else px, qx if qx > px else px
    lo_y, hi_y = qy if qy < py else py, qy if qy > py else py
    for k in range(end + 1):
        sx, sy = pts[k]
        if hypot(sx - cx, sy - cy) <= bound:
            continue
        # The circumcircle of p, q and s, solved about their bounding-box midpoint
        # o (min and max as the builtins tie) to keep the guard meaningful far out.
        ox = ((sx if sx < lo_x else lo_x) + (sx if sx > hi_x else hi_x)) / 2.0
        oy = ((sy if sy < lo_y else lo_y) + (sy if sy > hi_y else hi_y)) / 2.0
        ax, ay = px - ox, py - oy
        bx, by = qx - ox, qy - oy
        tx, ty = sx - ox, sy - oy
        scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(tx), abs(ty))
        # past 1e100 cubes overflow: solve over a power of two, which rounds alike
        f = 1.0 if scale <= 1e100 else math.ldexp(1.0, math.frexp(scale)[1])
        if f > 1.0:
            ax, ay, bx, by, tx, ty, scale = (
                v / f for v in (ax, ay, bx, by, tx, ty, scale))
        d = 2.0 * (ax * (by - ty) + bx * (ty - ay) + tx * (ay - by))
        if abs(d) <= _DET_GUARD * max(1.0, scale * scale):
            continue    # (near) collinear: no circle through the three
        a2, b2, t2 = ax * ax + ay * ay, bx * bx + by * by, tx * tx + ty * ty
        cx = (a2 * (by - ty) + b2 * (ty - ay) + t2 * (ay - by)) / d * f + ox
        cy = (a2 * (tx - bx) + b2 * (ax - tx) + t2 * (bx - ax)) / d * f + oy
        # Radius from the rounded center, so that the disk covers its own
        # points where rounding the center exceeds the slack (coordinates ~1e8).
        r = max(hypot(cx - px, cy - py), hypot(cx - qx, cy - qy),
                hypot(cx - sx, cy - sy))
        bound = _bound(r)
    return cx, cy, r
