import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sed_bruteforce
from uavvlc.geometry import Disk, Point2, Rect, smallest_enclosing_disk


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
        assert len(r.corners()) == 4
        assert r.half_diagonal() == pytest.approx(2.5 * math.sqrt(2.0),
                                                  rel=1e-15)
        assert r.contains((2.5, 5.0))
        assert not r.contains((2.5, 5.1))
