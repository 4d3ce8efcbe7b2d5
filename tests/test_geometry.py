import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _sed_two_boundary as sed_two_boundary_reference
from oracles import _sed_two_boundary_extremes as sed_two_boundary_extremes
from oracles import hull_reference, sed_bruteforce, sed_unfiltered
import uavvlc.geometry
from uavvlc.geometry import (Disk, Point2, Rect, _Checked, _finite_points,
                             _hull_vertices, _outside_box, _sed_two_boundary,
                             _shuffle_order, smallest_enclosing_disk)


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

    # every size on both sides of the 8-point hull crossover, then larger;
    # on these sets the order-free two-point step gives the same bits too
    @pytest.mark.parametrize("n", [*range(1, 21), 50, 300, 2000])
    def test_matches_unfiltered_on_uniform_sets(self, n):
        rng = random.Random(n)
        for seed in range(12 if n < 300 else 2):
            pts = random_points(rng, n)
            disk = smallest_enclosing_disk(pts, seed)
            assert disk == sed_unfiltered(pts, seed)
            assert disk == sed_unfiltered(pts, seed, sed_two_boundary_extremes)

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

    # From 32 points on, the points strictly inside the box between the
    # diagonal extremes are dropped before the hull: on both sides of that
    # size and far above it, the hull and the disk are the full set's
    @pytest.mark.parametrize("n", [31, 32, 33, 300])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("kind", ["uniform", "disk", "grid", "duplicates",
                                      "signed zeros"])
    def test_box_keeps_the_hull_and_the_disk(self, monkeypatch, kind, offset, n):
        rng = random.Random(n)
        for seed in range(12 if n < 300 else 3):
            if kind == "disk":
                pts = [(5.0 + r * math.cos(a), 5.0 + r * math.sin(a))
                       for r, a in ((4.0 * math.sqrt(rng.random()),
                                     rng.uniform(0.0, 2.0 * math.pi))
                                    for _ in range(n))]
            elif kind == "grid":    # 0.1-spaced: rows, columns and diagonals
                pts = [(0.1 * rng.randint(0, 12), 0.1 * rng.randint(0, 12))
                       for _ in range(n)]
            elif kind == "duplicates":
                base = random_points(rng, rng.randint(1, 8))
                pts = [rng.choice(base) for _ in range(n)]
            elif kind == "signed zeros":
                pts = [(rng.choice([0.0, -0.0, x]), rng.choice([0.0, -0.0, y]))
                       for x, y in random_points(rng, n, -1.0, 1.0)]
            else:
                pts = random_points(rng, n)
            pts = [(x + offset, y + offset) for x, y in pts]
            kept = _outside_box(pts)
            assert set(kept) <= set(pts)
            assert _hull_vertices(kept) == _hull_vertices(pts) == hull_reference(pts)
            disk = smallest_enclosing_disk(pts, seed)
            with monkeypatch.context() as m:
                m.setattr(uavvlc.geometry, "_BOX_MIN_POINTS", 10 ** 9)
                assert smallest_enclosing_disk(pts, seed) == disk
            assert disk == sed_unfiltered(pts, seed)

    def test_box_drops_the_interior(self):
        # the extremes of x + y and x - y are the corners, so the box is the
        # open square: its inside goes and its edges stay
        corners = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
        edges = [(2.0, 0.0), (4.0, 2.0), (2.0, 4.0), (0.0, 2.0)]
        inside = [(1.0, 1.0), (2.0, 2.0), (3.9, 0.1), (1e-300, 3.0)]
        assert _outside_box(corners + inside + edges) == corners + edges

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
    @settings(max_examples=200, deadline=None)
    @given(pts=awkward_point_sets(),
           more=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                         min_size=32, max_size=60))
    def test_box_keeps_the_hull(self, pts, more):
        """The box drops no hull vertex and leaves the hull the same, also
        with a cluster up to 1e8 from the rest, duplicates and collinear runs."""
        pts = pts + more
        assert _hull_vertices(_outside_box(pts)) == _hull_vertices(pts)

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


class TestCoCircular:
    """Points on one circle tie on the boundary, so the shuffle decides which
    of them fix the disk: every order still gives a disk that covers every
    point and has the smallest radius, exact or 1e-12 off the circle."""

    @pytest.mark.parametrize("jitter", [0.0, 1e-12])
    def test_every_shuffle_covers_and_is_smallest(self, jitter):
        rng = random.Random(29)
        for _ in range(100):
            circle = on_circle(rng, rng.randint(3, 12), rng.uniform(-20.0, 20.0),
                               rng.uniform(-20.0, 20.0), rng.uniform(0.5, 20.0))
            pts = [(x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter))
                   for x, y in circle]
            ref = sed_bruteforce(pts)
            for seed in range(20):
                disk = smallest_enclosing_disk(pts, seed)
                assert all(disk.contains(p) for p in pts)
                assert abs(disk.radius - ref.radius) <= 1e-9


class TestTwoBoundaryExits:
    """The two-boundary step's paths that random sets hardly reach: each
    gives the oracle's disk bit for bit."""

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

    # No disk through p and q covers outside points on both sides of pq, so
    # a feasible call has its outside points on one side; the others may lie
    # on either.  Each order gives the smallest enclosing disk of the set.
    @pytest.mark.parametrize("others", [
        [(1.0, 1.5), (1.0, -0.3)],
        [(1.0, 1.5), (0.5, 1.6), (1.0, -0.3)],
        [(1.0, -1.2), (0.4, -1.3), (1.5, 0.2)]])
    def test_points_on_both_sides_give_the_smallest_disk(self, others):
        for outside in (others, others[::-1]):
            got = self.disk(*outside)
            pts = [self.P, *outside, self.Q]
            assert got == sed_two_boundary_extremes(pts, self.P, self.Q)
            ref = sed_bruteforce(pts)
            assert dist(got[:2], ref.center) <= 1e-9
            assert abs(got[2] - ref.radius) <= 1e-9
            assert got[2] > 1.0


class TestFarOffsets:
    """Past offsets of about 1e102 the circumcircle's cubes overflowed: the
    disk came back NaN, or as one of the points with radius 0."""

    @pytest.mark.parametrize("k", [330, 345, 512, 1000, 1020])
    def test_a_scaled_triangle_scales_its_disk(self, k):
        s = 2.0 ** k
        unit = smallest_enclosing_disk([(0.0, 0.0), (3.0, 0.0), (1.0, 2.0)])
        pts = [(0.0, 0.0), (3.0 * s, 0.0), (s, 2.0 * s)]
        disk = smallest_enclosing_disk(pts)
        assert disk == Disk(Point2(unit.center.x * s, unit.center.y * s),
                            unit.radius * s)
        assert all(disk.contains(p) for p in pts)


class TestNonFinite:
    # a NaN at index 0, axis 0 used to be left out of the disk silently
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index,axis", [(0, 0), (3, 1)])
    def test_rejected_and_named(self, bad, index, axis):
        pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.0], [0.5, 0.5]]
        pts[index][axis] = bad
        with pytest.raises(ValueError, match=f"^point {index} has a non-finite"):
            smallest_enclosing_disk(pts)


class TestCheckedPoints:
    def test_checked_points_pass_unchanged(self):
        pts = _finite_points([(1, 2), Point2(3.0, -0.0)], "point")
        assert type(pts) is _Checked
        assert pts == [(1.0, 2.0), (3.0, -0.0)]
        assert _finite_points(pts, "point") is pts

    def test_disk_of_checked_points_is_the_same(self):
        rng = random.Random(3)
        for n in (5, 40):
            pts = random_points(rng, n)
            assert (smallest_enclosing_disk(_finite_points(pts, "point"))
                    == smallest_enclosing_disk(pts))


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
