import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_min_size_clustering
from uavvlc.assignment import (CellAssociation, cluster_cost,
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
        assert assoc.num_clusters == 3

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

    def test_order_seed_still_partitions(self):
        rng = random.Random(5)
        users = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(15)]
        centers = [(2.5, 2.5), (7.5, 7.5), (2.5, 7.5)]
        assoc = greedy(centers, users, order_seed=99)
        assoc.labels(15)
        for cluster in assoc.clusters:
            assert cluster == sorted(cluster)

    def test_deterministic(self):
        rng = random.Random(55)
        users = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(10)]
        centers = [(2.5, 5.0), (7.5, 5.0)]
        assert greedy(centers, users).clusters == greedy(centers,
                                                         users).clusters

    def test_no_uavs_rejected(self):
        with pytest.raises(ValueError):
            greedy([], [(0.0, 0.0)])


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
