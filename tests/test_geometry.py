import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _sed_two_boundary as sed_two_boundary_reference
from oracles import hull_reference, sed_bruteforce, sed_unfiltered
from uavvlc.geometry import (Disk, Point2, Rect, _hull_vertices,
                             _sed_two_boundary, _shuffle_order,
                             smallest_enclosing_disk)


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def random_points(rng, n, lo=0.0, hi=10.0):
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestSmallEnclosingDisk:
    def test_single_point_zero_radius(self):
        d = smallest_enclosing_disk([(3.0, -2.0)])
        assert d.center == Point2(3.0, -2.0)
        assert d.radius == 0.0

    def test_two_points_diameter_disk(self):
        d = smallest_enclosing_disk([(0.0, 0.0), (4.0, 0.0)])
        assert d.center == Point2(2.0, 0.0)
        assert d.radius == pytest.approx(2.0, abs=1e-12)

    def test_three_point_circumcircle(self):
        # (0,0), (2,0), (1,-1) all lie on the circle centered (1,0), r=1
        d = smallest_enclosing_disk([(0.0, 0.0), (2.0, 0.0), (1.0, -1.0)])
        assert dist(d.center, (1.0, 0.0)) < 1e-9
        assert d.radius == pytest.approx(1.0, abs=1e-9)

    def test_interior_point_does_not_change_disk(self):
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, -1.0), (1.0, 0.5)]
        d = smallest_enclosing_disk(pts)
        assert dist(d.center, (1.0, 0.0)) < 1e-9
        assert d.radius == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_points_collapse(self):
        d = smallest_enclosing_disk([(1.0, 1.0)] * 3)
        assert d.radius == 0.0

    def test_collinear_points_use_extremes(self):
        d = smallest_enclosing_disk([(0.0, 0.0), (1.0, 1.0), (5.0, 5.0),
                                     (3.0, 3.0)])
        assert dist(d.center, (2.5, 2.5)) < 1e-9
        assert d.radius == pytest.approx(dist((0, 0), (2.5, 2.5)), abs=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            smallest_enclosing_disk([])

    def test_coverage_and_minimality_on_random_sets(self):
        rng = random.Random(101)
        for _ in range(60):
            pts = random_points(rng, rng.randint(1, 12))
            d = smallest_enclosing_disk(pts)
            for p in pts:
                assert dist(d.center, p) <= d.radius + 1e-9
            ref = sed_bruteforce(pts)
            assert abs(d.radius - ref.radius) <= 1e-9

    def test_boundary_support(self):
        # at least two points must sit on the boundary circle
        rng = random.Random(7)
        for _ in range(40):
            pts = random_points(rng, rng.randint(2, 10))
            d = smallest_enclosing_disk(pts)
            on_boundary = sum(1 for p in pts
                              if abs(dist(d.center, p) - d.radius) <= 1e-7)
            assert on_boundary >= 2

    def test_permutation_invariance(self):
        rng = random.Random(13)
        pts = random_points(rng, 9)
        base = smallest_enclosing_disk(pts)
        for k in range(20):
            shuffled = list(pts)
            random.Random(k).shuffle(shuffled)
            d = smallest_enclosing_disk(shuffled, rng_seed=k)
            assert dist(d.center, base.center) < 1e-9
            assert abs(d.radius - base.radius) < 1e-9

    def test_seed_determinism(self):
        pts = random_points(random.Random(3), 8)
        assert smallest_enclosing_disk(pts, 5) == smallest_enclosing_disk(pts, 5)

    def test_scale_translate_equivariance(self):
        rng = random.Random(17)
        pts = random_points(rng, 7)
        base = smallest_enclosing_disk(pts)
        alpha, tx, ty = 3.5, -20.0, 12.0
        moved = [(alpha * x + tx, alpha * y + ty) for x, y in pts]
        d = smallest_enclosing_disk(moved)
        assert dist(d.center, (alpha * base.center.x + tx,
                               alpha * base.center.y + ty)) < 1e-8
        assert d.radius == pytest.approx(alpha * base.radius, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=1, max_size=8))
    def test_matches_bruteforce_on_arbitrary_inputs(self, pts):
        d = smallest_enclosing_disk(pts)
        ref = sed_bruteforce(pts)
        assert abs(d.radius - ref.radius) <= 1e-9 * max(1.0, ref.radius)
        for p in pts:
            assert dist(d.center, p) <= d.radius + 1e-9 * max(1.0, d.radius)


def on_circle(rng, n, cx=3.0, cy=-1.0, r=2.0):
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles]


class TestHullFilter:
    """The hull-filtered disk equals the unfiltered loop, bit for bit."""

    # every size on both sides of the 8-point hull crossover, then larger
    @pytest.mark.parametrize("n", [*range(1, 21), 50, 300, 2000])
    def test_matches_unfiltered_on_uniform_sets(self, n):
        rng = random.Random(n)
        for seed in range(12 if n < 300 else 2):
            pts = random_points(rng, n)
            assert smallest_enclosing_disk(pts, seed) == sed_unfiltered(pts, seed)

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("kind", ["duplicates", "collinear",
                                      "co-circular", "uniform"])
    def test_matches_unfiltered_on_special_sets(self, kind, offset):
        rng = random.Random(41)
        for seed in range(40):
            n = rng.randint(4, 40)
            if kind == "duplicates":
                base = random_points(rng, rng.randint(1, 6))
                pts = [rng.choice(base) for _ in range(n)]
            elif kind == "collinear":
                pts = [(t, 0.5 * t - 2.0)
                       for t in (rng.uniform(-5.0, 5.0) for _ in range(n))]
            elif kind == "co-circular":
                pts = on_circle(rng, n)
            else:
                pts = random_points(rng, n)
            pts = [(x + offset, y + offset) for x, y in pts]
            assert _hull_vertices(pts) == hull_reference(pts)
            assert smallest_enclosing_disk(pts, seed) == sed_unfiltered(pts, seed)

    def test_covers_every_point_far_from_the_origin(self):
        # a circumcircle's radius is taken from its rounded center, so the
        # disk covers its own points where that rounding exceeds the slack
        rng = random.Random(9)
        for seed in range(100):
            pts = [(x + 1e8, y - 1e8) for x, y in random_points(rng, 6)]
            d = smallest_enclosing_disk(pts, seed)
            assert all(d.contains(p) for p in pts)
            assert d.radius < 10.0

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
    def test_cached_order_is_the_shuffle(self, seed):
        for n in range(301):
            expected = list(range(n))
            random.Random(seed).shuffle(expected)
            assert list(_shuffle_order(n, seed)) == expected


@st.composite
def awkward_point_sets(draw):
    # 1-6 base points repeated with duplicates, optionally a run of points
    # on the segment between two of them, all shifted by up to 1e8
    coord = st.floats(-10.0, 10.0)
    base = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    pts = draw(st.lists(st.sampled_from(base), min_size=1, max_size=20))
    (ax, ay), (bx, by) = draw(st.sampled_from(base)), draw(st.sampled_from(base))
    pts += [(ax + t * (bx - ax), ay + t * (by - ay))
            for t in draw(st.lists(st.floats(0.0, 1.0), max_size=8))]
    offset = st.sampled_from([0.0, 1e8, -1e8]) | st.floats(-1e8, 1e8)
    ox, oy = draw(offset), draw(offset)
    return [(x + ox, y + oy) for x, y in pts]


def min_gap(pts):
    # smallest distance between two distinct points; inf with one point
    distinct = sorted(set(pts))
    return min((math.hypot(a[0] - b[0], a[1] - b[1])
                for i, a in enumerate(distinct) for b in distinct[i + 1:]),
               default=math.inf)


class TestSedProperty:
    @settings(max_examples=300, deadline=None)
    @given(pts=awkward_point_sets(), seed=st.integers(0, 2**32 - 1))
    def test_covers_and_matches_unfiltered(self, pts, seed):
        """The disk covers every point; it is the unfiltered loop's disk bit
        for bit unless two points are closer than the membership slack can
        separate (the sub-slack regime of the hull filter)."""
        disk = smallest_enclosing_disk(pts, seed)
        assert all(disk.contains(p) for p in pts)
        if min_gap(pts) >= 1e-6:
            assert disk == sed_unfiltered(pts, seed)



class TestTwoBoundaryExits:
    """The two-boundary step's exits that random sets hardly reach: each
    rounding-only path gives the oracle's disk bit for bit."""

    P, Q = (0.0, 0.0), (2.0, 0.0)

    def disk(self, *outside):
        pts = [self.P, *outside, self.Q]
        got = _sed_two_boundary(pts, len(pts) - 1, self.P, self.Q)
        assert got == sed_two_boundary_reference(pts, self.P, self.Q)
        return got

    def test_outside_point_on_the_line_is_skipped(self):
        # (5, 0) lies past the diameter disk, exactly on the line pq
        assert self.disk((5.0, 0.0)) == (1.0, 0.0, 1.0)

    def test_far_nearly_collinear_point_is_skipped(self):
        # on a side of pq by 2e-12, below the determinant guard
        assert self.disk((100.0, 1e-12)) == (1.0, 0.0, 1.0)
        assert self.disk((-100.0, -1e-12), (1.0, 1.5))[1] > 0.0

    @pytest.mark.parametrize("above,below,keep_above", [
        ((1.0, 1.5), (1.0, -1.2), False),
        ((1.0, 1.2), (1.0, -1.5), True),
        ((1.0, 1.5), (1.0, -1.5), True),    # a tie keeps the left circle
        ((0.5, 3.0), (1.7, -0.9), False)])
    def test_outside_points_on_both_sides_keep_the_smaller_circle(
            self, above, below, keep_above):
        for outside in ((above, below), (below, above)):
            x, y, r = self.disk(*outside)
            assert (y > 0.0) == keep_above
            assert r > 1.0

class TestNonFinite:
    # a NaN at index 0, axis 0 used to be left out of the disk silently
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index,axis", [(0, 0), (3, 1)])
    def test_rejected_and_named(self, bad, index, axis):
        pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.0], [0.5, 0.5]]
        pts[index][axis] = bad
        with pytest.raises(ValueError, match=f"^point {index} has a non-finite"):
            smallest_enclosing_disk(pts)


class TestBruteforceOracle:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            sed_bruteforce([])

    def test_too_many_points_rejected(self):
        with pytest.raises(ValueError):
            sed_bruteforce([(float(i), 0.0) for i in range(13)])

    def test_duplicates(self):
        d = sed_bruteforce([(2.0, 2.0), (2.0, 2.0), (2.0, 2.0)])
        assert d.radius == 0.0

    def test_collinear_extremes(self):
        d = sed_bruteforce([(0.0, 0.0), (4.0, 0.0), (1.0, 0.0)])
        assert d.center == Point2(2.0, 0.0)
        assert d.radius == pytest.approx(2.0, abs=1e-12)


class TestDiskAndRect:
    def test_disk_contains_tolerance(self):
        d = Disk(Point2(0.0, 0.0), 1.0)
        assert d.contains((1.0, 0.0))
        assert d.contains((1.0 + 5e-11, 0.0))
        assert not d.contains((1.0 + 1e-6, 0.0))

    def test_rect_center_and_corners(self):
        r = Rect(0.0, 0.0, 5.0, 5.0)
        assert r.center() == Point2(2.5, 2.5)
        assert r.half_diagonal() == pytest.approx(2.5 * math.sqrt(2.0),
                                                  rel=1e-15)
