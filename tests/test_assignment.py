import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cluster_cost, exhaustive_min_size_clustering,
                     greedy_reference)
from uavvlc.assignment import (CellAssociation, _reach_cells,
                               greedy_min_size_clustering)
from uavvlc.channel import InfeasibleError

Z_U = 8.0
EXPONENT = 4.0    # m + 3 with m = 1


def greedy(centers, users, **kw):
    return greedy_min_size_clustering(centers, users, EXPONENT, Z_U, **kw)


def cost(assoc, centers, users):
    return cluster_cost(assoc, centers, users, EXPONENT, Z_U)


class TestCellAssociation:
    def test_labels_round_trip(self):
        assoc = CellAssociation([[0, 2], [1], []])
        assert assoc.labels(3) == [0, 1, 0]

    def test_labels_rejects_missing_user(self):
        with pytest.raises(ValueError):
            CellAssociation([[0], []]).labels(2)

    def test_labels_rejects_duplicate_user(self):
        with pytest.raises(ValueError):
            CellAssociation([[0, 1], [1]]).labels(2)


class TestClusterCost:
    def test_single_nadir_user(self):
        assoc = CellAssociation([[0], [], []])
        c = cost(assoc, [(0.0, 0.0), (5.0, 0.0), (9.0, 9.0)], [(0.0, 0.0)])
        assert c == pytest.approx(Z_U ** EXPONENT, rel=1e-15)

    def test_empty_association_is_free(self):
        assoc = CellAssociation([[], []])
        assert cost(assoc, [(0.0, 0.0), (5.0, 0.0)], []) == 0.0

    def test_order_within_cluster_is_irrelevant(self):
        users = [(1.0, 0.0), (2.0, 1.0), (0.5, -3.0)]
        centers = [(0.0, 0.0)]
        a = cost(CellAssociation([[0, 1, 2]]), centers, users)
        b = cost(CellAssociation([[2, 0, 1]]), centers, users)
        assert a == b

    def test_only_farthest_user_matters(self):
        centers = [(0.0, 0.0)]
        far = [(4.0, 0.0)]
        both = [(4.0, 0.0), (1.0, 1.0)]
        assert cost(CellAssociation([[0]]), centers, far) == \
            cost(CellAssociation([[0, 1]]), centers, both)


class TestGreedy:
    def test_single_uav_takes_everyone(self):
        users = [(1.0, 1.0), (9.0, 2.0), (4.0, 7.0)]
        assoc = greedy([(5.0, 5.0)], users)
        assert assoc.clusters == [[0, 1, 2]]

    def test_user_at_uav_center_joins_it(self):
        centers = [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)]
        assoc = greedy(centers, [(6.0, 0.0)])
        assert assoc.clusters == [[], [0], []]

    def test_two_uav_reference_instance(self):
        # one user near each center; splitting beats any merge
        centers = [(-5.0, 0.0), (5.0, 0.0)]
        users = [(-4.0, 0.0), (4.0, 0.0)]
        assoc = greedy(centers, users)
        assert assoc.clusters == [[0], [1]]
        assert cost(assoc, centers, users) == pytest.approx(2.0 * 65.0 ** 2,
                                                            rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        centers = [(-1.0, 0.0), (1.0, 0.0)]
        assoc = greedy(centers, [(0.0, 0.0)])
        assert assoc.clusters == [[0], []]

    def test_zero_growth_keeps_user_in_enlarged_disk(self):
        # first user stretches disk 0 to 3D radius sqrt(89); the second is
        # 1 m from center 1 but already inside disk 0, so staying there is
        # free while opening disk 1 would cost its full activation
        centers = [(0.0, 0.0), (6.0, 0.0)]
        users = [(-5.0, 0.0), (5.0, 0.0)]
        assoc = greedy(centers, users)
        assert assoc.clusters == [[0, 1], []]

    def test_partition_invariant_on_random_instances(self):
        rng = random.Random(33)
        for _ in range(50):
            n = rng.randint(1, 20)
            users = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
            centers = [(rng.uniform(0, 10), rng.uniform(0, 10))
                       for _ in range(rng.randint(1, 5))]
            assoc = greedy(centers, users)
            labels = assoc.labels(n)    # raises if not a partition
            assert len(labels) == n

    def test_running_cost_monotone_in_prefix(self):
        rng = random.Random(8)
        users = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)]
        centers = [(2.5, 2.5), (7.5, 7.5)]
        previous = 0.0
        for k in range(1, len(users) + 1):
            assoc = greedy(centers, users[:k])
            c = cost(assoc, centers, users[:k])
            assert c >= previous - 1e-9
            previous = c

    def test_respects_fov_radius(self):
        centers = [(0.0, 0.0), (9.0, 0.0)]
        # user at x=5 is 5 m from UAV 0 and 4 m from UAV 1
        assoc = greedy(centers, [(5.0, 0.0)], fov_ground_radius=4.5)
        assert assoc.clusters == [[], [0]]

    def test_unreachable_user_is_infeasible(self):
        with pytest.raises(InfeasibleError) as err:
            greedy([(0.0, 0.0)], [(9.0, 0.0)], fov_ground_radius=5.0)
        assert err.value.user_index == 0

    def test_deterministic(self):
        rng = random.Random(55)
        users = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(10)]
        centers = [(2.5, 5.0), (7.5, 5.0)]
        assert greedy(centers, users).clusters == greedy(centers,
                                                         users).clusters

    def test_no_uavs_rejected(self):
        with pytest.raises(ValueError):
            greedy([], [(0.0, 0.0)])


def outcome(solver, centers, users, radius, z_u=Z_U):
    """Clusters, or the index of the first user no UAV reaches."""
    try:
        return solver(centers, users, EXPONENT, z_u, radius).clusters
    except InfeasibleError as err:
        return err.user_index


class TestGreedyAgainstReference:
    """Early exit and buckets give the plain scan's clusters exactly."""

    @staticmethod
    def assert_same(centers, users, radius, bucketed=True, z_u=Z_U):
        # the bucket path is the one under test unless said otherwise
        points = [(float(x), float(y)) for x, y in users]
        assert (_reach_cells(centers, points, radius) is not None) == bucketed
        assert (outcome(greedy_min_size_clustering, centers, users, radius, z_u)
                == outcome(greedy_reference, centers, users, radius, z_u))

    @staticmethod
    def unreachable_last(rng, users, far):
        # every fifth instance ends with a user no UAV reaches, so the
        # infeasible user's index is compared too
        if rng.random() < 0.2:
            users.insert(rng.randrange(len(users) + 1), far)
        return users

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_random_instances(self, offset):
        rng = random.Random(12)
        for _ in range(25):
            radius = rng.uniform(1.0, 10.0)
            side = rng.uniform(3.0, 10.0) * radius
            centers = [(rng.uniform(0, side) + offset,
                        rng.uniform(0, side) - offset)
                       for _ in range(rng.randint(25, 100))]
            users = []
            for _ in range(rng.randint(50, 300)):
                cx, cy = rng.choice(centers)
                a = rng.uniform(0.0, 2.0 * math.pi)
                d = rng.uniform(0.0, radius)
                users.append((cx + d * math.cos(a), cy + d * math.sin(a)))
            far = (offset - 2.0 * radius, -offset - 2.0 * radius)
            self.assert_same(centers, self.unreachable_last(rng, users, far),
                             radius)

    # 0.3 is not a double, so cell keys near borders round either way
    @pytest.mark.parametrize("radius", [2.5, 0.3])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_users_on_fov_edges_and_cell_borders(self, offset, radius):
        # centers on cell corners; users one FOV radius away along an axis
        # (on cell corners too) or slid along a cell border
        rng = random.Random(4)
        for _ in range(25):
            centers = [(radius * rng.randint(0, 8) + offset,
                        radius * rng.randint(0, 8) + offset)
                       for _ in range(rng.randint(25, 60))]
            users = []
            for cx, cy in rng.choices(centers, k=120):
                step = rng.choice([-radius, 0.0, radius])
                slide = rng.uniform(-radius, radius)
                users.append(rng.choice([(cx + step, cy), (cx, cy + step),
                                         (cx + slide, cy), (cx, cy + slide)]))
            far = (offset + 12.0 * radius, offset + 0.5 * radius)
            self.assert_same(centers, self.unreachable_last(rng, users, far),
                             radius)

    # z_u sets how much of r^2 the rounding of s = r^2 + z_u^2 loses
    @pytest.mark.parametrize("z_u", [0.01, Z_U, 1000.0])
    @pytest.mark.parametrize("radius", [2.5, 0.3])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_users_on_grown_rims(self, offset, radius, z_u):
        # UAVs on held-cell corners and edge midpoints, so disks straddle
        # cell borders; users a whole number of held cells from a UAV along
        # an axis (on a border, or at the nadir), and repeats of earlier
        # users, which sit on a grown rim at exactly its squared radius
        rng = random.Random(9)
        side = radius / 3.0
        for _ in range(20):
            centers = [(0.5 * side * rng.randint(0, 50) + offset,
                        0.5 * side * rng.randint(0, 50) + offset)
                       for _ in range(rng.randint(16, 40))]
            users = []
            for _ in range(150):
                if users and rng.random() < 0.4:
                    users.append(rng.choice(users))
                    continue
                cx, cy = rng.choice(centers)
                k = side * rng.randint(0, 3)
                users.append(rng.choice([(cx + k, cy), (cx - k, cy),
                                         (cx, cy + k), (cx, cy - k)]))
            self.assert_same(centers, users, radius, z_u=z_u)

    @pytest.mark.parametrize("radius", [2.5, 0.3])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_lower_index_holder_beats_a_nearer_one(self, offset, radius):
        # user 0 stretches UAV 0's disk to two held cells, user 1 sits on
        # its rim at the mirror point (a cell border), user 2 opens UAV 1
        # one cell from that point, and user 3 repeats user 1: both disks
        # hold it at zero growth and the lower index must win, which needs
        # user 1's cell to list UAV 0.  UAVs 2 to 15 widen the layout.  At
        # 1000 m over R = 2.5 m, rounding s = r^2 + z_u^2 puts the rim past
        # the bare ground radius (the 1e-9 term of the bound covers it); at
        # 0.01 m and 1e8 the rounding of cell keys outruns that term (the
        # box pad covers it).
        side = radius / 3.0
        for z_u in (0.01, Z_U, 1000.0):
            for shift in range(30):
                x = offset + shift * side
                centers = [(x, offset), (x + 3.0 * side, offset)]
                centers += [(offset + (12.0 + 3.0 * k) * radius, offset)
                            for k in range(14)]
                users = [(x - 2.0 * side, offset), (x + 2.0 * side, offset),
                         (x + 4.0 * side, offset), (x + 2.0 * side, offset)]
                self.assert_same(centers, users, radius, z_u=z_u)
                assert outcome(greedy_min_size_clustering, centers, users,
                               radius, z_u)[:2] == [[0, 1, 3], [2]]

    def test_exponents_below_one_skip_the_held_cells(self):
        # s ** 1e-20 rounds to 1.0 for every s, so any non-empty disk in
        # reach takes a user at zero growth, however far its rim
        rng = random.Random(1)
        centers = [(rng.uniform(0, 25), rng.uniform(0, 25)) for _ in range(30)]
        users = [(cx + rng.uniform(-1.7, 1.7), cy + rng.uniform(-1.7, 1.7))
                 for cx, cy in rng.choices(centers, k=200)]
        assert _reach_cells(centers, users, 2.5) is not None
        for exponent in (1e-20, 0.5):
            assert (greedy_min_size_clustering(centers, users, exponent, Z_U, 2.5)
                    == greedy_reference(centers, users, exponent, Z_U, 2.5))

    def test_equidistant_uavs_tie_to_lowest_index(self):
        radius = 3.0
        # UAVs 3 to 15 are out of reach; they make the layout wide and large
        centers = [(2.0, 0.0), (0.0, 0.0), (-2.0, 0.0)]
        centers += [(20.0 + 7.0 * k, 0.0) for k in range(13)]
        users = [(0.0, 1.0), (-1.0, 0.5), (1.0, 0.5), (0.0, -1.0)]
        self.assert_same(centers, users, radius)
        assert outcome(greedy_min_size_clustering, centers,
                       [(-1.0, 0.5)], radius)[:3] == [[], [0], []]
        assert outcome(greedy_min_size_clustering, centers,
                       [(1.0, 0.0)], radius)[:3] == [[0], [], []]

    def test_small_or_clustered_layouts_keep_the_plain_scan(self):
        rng = random.Random(6)
        centers = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(30)]
        users = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(80)]
        self.assert_same(centers, users, 2.5, bucketed=False)
        self.assert_same(centers, users, math.inf, bucketed=False)
        # 15 UAVs spread far wider than 2 * radius still scan them all
        wide = [(7.0 * k, 0.0) for k in range(15)]
        self.assert_same(wide, [(7.0 * k + 1.0, 0.5) for k in range(15)],
                         2.5, bucketed=False)


class TestGreedyNonFinite:
    # a NaN user used to join UAV 0 at zero growth
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_user_rejected_and_named(self, bad):
        users = [(1.0, 1.0), (2.0, 2.0), (bad, 0.0)]
        with pytest.raises(ValueError, match="^user 2 has a non-finite"):
            greedy([(0.0, 0.0), (5.0, 5.0)], users)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_center_rejected_and_named(self, bad):
        with pytest.raises(ValueError, match="^UAV center 1 has a non-finite"):
            greedy([(0.0, 0.0), (5.0, bad)], [(1.0, 1.0)])



class TestGreedyBadParameters:
    # NaN used to put every user on UAV 0, an infinite height or NaN
    # exponent blamed user 0 for lying outside every field of view, a
    # negative exponent put the user 0.1 m from UAV 0 on UAV 1, and a NaN
    # radius served users past any field of view
    CENTERS = [(0.0, 0.0), (5.0, 0.0)]
    USERS = [(0.1, 0.0), (4.9, 0.0), (2.5, 0.0)]

    @pytest.mark.parametrize("z_u", [math.nan, math.inf, 0.0, -8.0])
    def test_height_rejected(self, z_u):
        with pytest.raises(ValueError, match="^z_u must be finite and > 0$"):
            greedy_min_size_clustering(self.CENTERS, self.USERS, EXPONENT, z_u)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -2.0])
    def test_exponent_rejected(self, exponent):
        with pytest.raises(ValueError,
                           match="^exponent must be finite and >= 0$"):
            greedy_min_size_clustering(self.CENTERS, self.USERS, exponent, Z_U)

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -10.0])
    def test_fov_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="^fov_ground_radius must be > 0$"):
            greedy(self.CENTERS, [(25.0, 0.0)], fov_ground_radius=radius)

    def test_edges_of_the_ranges_allowed(self):
        assert greedy(self.CENTERS, [(25.0, 0.0)],
                      fov_ground_radius=math.inf).clusters == [[], [0]]
        # a zero exponent prices every disk at 1, so UAV 0 takes everyone
        assert greedy_min_size_clustering(
            self.CENTERS, [(4.9, 0.0)], 0.0, Z_U).clusters == [[0], []]
        with pytest.raises(InfeasibleError):
            greedy(self.CENTERS, [(25.0, 0.0)], fov_ground_radius=10.0)

class TestGreedyVersusExhaustive:
    def test_never_beats_the_optimum_and_often_matches(self):
        rng = random.Random(42)
        equal = 0
        trials = 200
        for _ in range(trials):
            n = rng.randint(1, 8)
            users = [(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(n)]
            centers = [(rng.uniform(0, 10), rng.uniform(0, 10))
                       for _ in range(2)]
            g = cost(greedy(centers, users), centers, users)
            _, opt = exhaustive_min_size_clustering(centers, users,
                                                    EXPONENT, Z_U)
            assert g >= opt - 1e-9 * max(1.0, opt)
            if g <= opt + 1e-9 * max(1.0, opt):
                equal += 1
        assert equal / trials >= 0.70

    def test_exact_on_well_separated_groups(self):
        # two tight user groups, each much closer to its own center
        rng = random.Random(77)
        for _ in range(40):
            gap = rng.uniform(10.0, 20.0)
            c0, c1 = (0.0, 0.0), (gap, 0.0)
            users = []
            for base in (c0, c1):
                for _ in range(rng.randint(1, 4)):
                    users.append((base[0] + rng.uniform(-1, 1),
                                  base[1] + rng.uniform(-1, 1)))
            assoc = greedy([c0, c1], users)
            g = cost(assoc, [c0, c1], users)
            _, opt = exhaustive_min_size_clustering([c0, c1], users,
                                                    EXPONENT, Z_U)
            assert g == pytest.approx(opt, rel=1e-12)

    def test_exhaustive_rejects_oversized_instances(self):
        users = [(float(i), 0.0) for i in range(25)]
        centers = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        with pytest.raises(ValueError):
            exhaustive_min_size_clustering(centers, users, EXPONENT, Z_U)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=6),
           st.tuples(st.floats(0, 10), st.floats(0, 10)),
           st.tuples(st.floats(0, 10), st.floats(0, 10)))
    def test_lower_bound_property(self, users, c0, c1):
        centers = [c0, c1]
        g = cost(greedy(centers, users), centers, users)
        _, opt = exhaustive_min_size_clustering(centers, users, EXPONENT, Z_U)
        assert g >= opt - 1e-9 * max(1.0, opt)
