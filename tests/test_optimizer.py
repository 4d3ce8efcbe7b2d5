import itertools
import math
import random

import pytest

from oracles import min_power_illum, min_power_rate, sed_bruteforce
from uavvlc.assignment import CellAssociation
from uavvlc.channel import (InfeasibleError, Requirements,
                            constraint_coefficients, min_power_for_radius)
from uavvlc.geometry import Point2, Rect
from uavvlc.optimizer import (baseline_sa1, baseline_sa2, baseline_uavoo,
                              evaluate_power, geographic_association,
                              locate_uavs, nearest_position_association,
                              optimize)
from uavvlc.scenario import (default_params, default_requirements,
                             generate_scenario, make_grid, solve_scenario)

PARAMS = default_params()
REQS = default_requirements()
COEFFS = constraint_coefficients(PARAMS, REQS)
AREA = Rect(0.0, 0.0, 10.0, 10.0)
SUB_AREAS = make_grid(AREA, 2, 2)
CENTERS = [r.center() for r in SUB_AREAS]


# A feasible cell on which two farthest-user scans that priced infeasible
# reports and evaluate_power separately disagreed in the last digit.
CELL_UAV = Point2(8.639991353790613, 4.716533072931069)
CELL_USERS = [(4.840345123556942, 1.2864381571340666),
              (4.086854640910154, 6.866001961682188),
              (9.114220786493046, 6.049739199852111),
              (2.0083527713862273, 5.9782151188566015)]
CELL_POWER = 196442.61554508732
# Sub-area 0 is centered exactly on CELL_UAV; sub-area 1 is centered on
# (100, 100), far from every cell user.
CELL_SUB_AREAS = [Rect(CELL_UAV.x - 0.5, CELL_UAV.y - 0.5,
                       CELL_UAV.x + 0.5, CELL_UAV.y + 0.5),
                  Rect(99.5, 99.5, 100.5, 100.5)]


def random_users(seed, n=16):
    rng = random.Random(seed)
    return [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]


class TestAssociationHelpers:
    def test_nearest_position_ties_go_low(self):
        assoc = nearest_position_association([(5.0, 5.0)], CENTERS)
        assert assoc.clusters[0] == [0]

    def test_geographic_matches_rectangle_membership(self):
        rng = random.Random(2)
        users = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(200)]
        assoc = geographic_association(users, SUB_AREAS)
        labels = assoc.labels(len(users))
        for j, u in enumerate(users):
            rect = SUB_AREAS[labels[j]]
            assert rect.contains(u)


class TestLocateUavs:
    def test_single_user_cluster_sits_above_user(self):
        assoc = CellAssociation([[0], []])
        pos = locate_uavs(assoc, [(3.0, 4.0)], [(0.0, 0.0), (9.0, 9.0)])
        assert pos[0] == Point2(3.0, 4.0)
        assert pos[1] == Point2(9.0, 9.0)    # empty keeps previous

    def test_square_corners_centered(self):
        users = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
        assoc = CellAssociation([[0, 1, 2, 3]])
        pos = locate_uavs(assoc, users, [(9.0, 9.0)])
        assert math.hypot(pos[0].x - 2.0, pos[0].y - 2.0) < 1e-9

    def test_matches_bruteforce_centers(self):
        rng = random.Random(31)
        for _ in range(25):
            users = [(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(rng.randint(1, 10))]
            assoc = CellAssociation([list(range(len(users)))])
            pos = locate_uavs(assoc, users, [(0.0, 0.0)])
            ref = sed_bruteforce(users)
            assert math.hypot(pos[0].x - ref.center.x,
                              pos[0].y - ref.center.y) < 1e-9

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            locate_uavs(CellAssociation([[0]]), [(0.0, 0.0)], [])


class TestEvaluatePower:
    def test_all_nadir_users(self):
        users = list(CENTERS)
        assoc = CellAssociation([[0], [1], [2], [3]])
        per, total = evaluate_power(CENTERS, assoc, users, COEFFS, PARAMS)
        expected = COEFFS.prefactor * 8.0 ** 4
        for p in per:
            assert p == pytest.approx(expected, rel=1e-12)
        assert total == pytest.approx(4.0 * expected, rel=1e-12)

    def test_empty_cluster_draws_nothing(self):
        assoc = CellAssociation([[0], [], [], []])
        per, total = evaluate_power(CENTERS, assoc, [CENTERS[0]], COEFFS,
                                    PARAMS)
        assert per[1:] == [0.0, 0.0, 0.0]
        assert total == per[0]

    def test_moving_farthest_user_out_raises_only_its_cluster(self):
        users = [(2.5, 2.5), (4.0, 2.5), (7.5, 7.5)]
        assoc = CellAssociation([[0, 1], [2]])
        positions = [(2.5, 2.5), (7.5, 7.5)]
        per0, _ = evaluate_power(positions, assoc, users, COEFFS, PARAMS)
        users[1] = (5.0, 2.5)
        per1, _ = evaluate_power(positions, assoc, users, COEFFS, PARAMS)
        assert per1[0] > per0[0]
        assert per1[1] == per0[1]

    def test_agrees_with_per_user_constraint_power(self):
        from uavvlc.channel import channel_gain
        users = random_users(6)
        assoc = geographic_association(users, SUB_AREAS)
        positions = locate_uavs(assoc, users, CENTERS)
        per, _ = evaluate_power(positions, assoc, users, COEFFS, PARAMS)
        for i, cluster in enumerate(assoc.clusters):
            if not cluster:
                continue
            direct = 0.0
            for j in cluster:
                h = channel_gain(positions[i], users[j], PARAMS)
                direct = max(direct, min_power_rate(h, REQS, PARAMS),
                             min_power_illum(h, REQS, PARAMS))
            assert per[i] == pytest.approx(direct, rel=1e-12)

    def test_reports_offending_indices(self):
        users = [(0.0, 0.0), (20.0, 0.0)]
        assoc = CellAssociation([[0, 1]])
        with pytest.raises(InfeasibleError) as err:
            evaluate_power([(0.0, 0.0)], assoc, users, COEFFS, PARAMS)
        assert err.value.uav_index == 0
        assert err.value.user_index == 1


class TestInfeasibleReports:
    """An infeasible deployment prices its feasible cells as evaluate_power
    does, its violating cell as inf and its total as inf."""

    def assert_report(self, sol, users, step):
        cell = CellAssociation([[0, 1, 2, 3]])
        expected, _ = evaluate_power(sol.uav_positions[:1], cell, users,
                                     COEFFS, PARAMS)
        assert sol.per_uav_power == [expected[0], math.inf]
        assert not sol.feasible
        assert sol.total_power == math.inf
        assert sol.iterations == [(math.inf, step)]

    def test_evaluate_power_reference(self):
        per, total = evaluate_power([CELL_UAV], CellAssociation([[0, 1, 2, 3]]),
                                    CELL_USERS, COEFFS, PARAMS)
        assert per == [CELL_POWER]
        assert total == CELL_POWER

    def test_sa1(self):
        # the lone user of sub-area 1 sits 20 m out, beyond the 13.86 m FOV
        users = CELL_USERS + [(120.0, 100.0)]
        sol = baseline_sa1(users, CELL_SUB_AREAS, PARAMS, REQS)
        assert sol.uav_positions[0] == CELL_UAV
        assert sol.per_uav_power[0] == CELL_POWER
        self.assert_report(sol, users, "sa1")

    def test_uavoo(self):
        # sub-area 1's users are 30 m apart, so even its SED center is 15 m
        # from each of them
        users = CELL_USERS + [(85.0, 100.0), (115.0, 100.0)]
        sol = baseline_uavoo(users, CELL_SUB_AREAS, PARAMS, REQS)
        self.assert_report(sol, users, "uavoo")

    def test_optimize_locate_step(self):
        users = CELL_USERS + [(85.0, 100.0), (115.0, 100.0)]
        sol = optimize(users, [CELL_UAV, (100.0, 100.0)], PARAMS, REQS,
                       initial_association=CellAssociation([[0, 1, 2, 3],
                                                            [4, 5]]))
        self.assert_report(sol, users, "locate")


class TestOptimize:
    def test_single_uav_converges_to_sed_center(self):
        users = random_users(1, n=6)
        sol = optimize(users, [(5.0, 5.0)], PARAMS, REQS)
        ref = sed_bruteforce(users)
        assert math.hypot(sol.uav_positions[0].x - ref.center.x,
                          sol.uav_positions[0].y - ref.center.y) < 1e-9
        assert sol.association.clusters == [list(range(6))]
        assert sol.feasible

    def test_isolated_groups_are_a_fixed_point(self):
        # groups separated beyond the FOV ground radius cannot merge, so
        # the first greedy pass reproduces the initial association and the
        # loop stops after the locate step
        rng = random.Random(44)
        anchors = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)]
        users = []
        for cx, cy in anchors:
            for _ in range(3):
                users.append((cx + rng.uniform(-0.3, 0.3),
                              cy + rng.uniform(-0.3, 0.3)))
        sol = optimize(users, anchors, PARAMS, REQS)
        expected = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        assert sol.association.clusters == expected
        assert [e.step for e in sol.iterations] == ["init", "locate"]

    def test_trace_steps_and_monotonicity(self):
        for seed in range(30):
            users = random_users(seed)
            sol = optimize(users, CENTERS, PARAMS, REQS)
            steps = [e.step for e in sol.iterations]
            assert steps[0] == "init"
            assert steps[1] == "locate"
            assert set(steps[2:]) <= {"round"}
            powers = [e.total_power for e in sol.iterations]
            assert all(a >= b for a, b in zip(powers, powers[1:]))
            assert sol.total_power == powers[-1]

    def test_never_worse_than_uavoo(self):
        for seed in range(50):
            sc = generate_scenario(seed=seed)
            prop = solve_scenario(sc, "proposed")
            uav = solve_scenario(sc, "uavoo")
            assert prop.total_power <= uav.total_power

    def test_initial_states_match_baselines_exactly(self):
        # entry 0 evaluates sub-area centers with geographic association
        # (the sa1 deployment); entry 1 evaluates the relocated UAVs (the
        # uavoo deployment); both must agree to the bit
        for seed in range(20):
            sc = generate_scenario(seed=seed)
            prop = solve_scenario(sc, "proposed")
            sa1 = solve_scenario(sc, "sa1")
            uavoo = solve_scenario(sc, "uavoo")
            assert prop.iterations[0].total_power == sa1.total_power
            assert prop.iterations[1].total_power == uavoo.total_power

    def test_round_cap_respected(self):
        for seed in range(30):
            users = random_users(seed)
            sol = optimize(users, CENTERS, PARAMS, REQS, max_iters=20)
            rounds = [e for e in sol.iterations if e.step == "round"]
            assert len(rounds) <= 20

    def test_total_is_sum_of_per_uav(self):
        users = random_users(3)
        sol = optimize(users, CENTERS, PARAMS, REQS)
        assert sol.total_power == pytest.approx(math.fsum(sol.per_uav_power),
                                                rel=1e-15)

    def test_sed_position_is_locally_optimal(self):
        # perturbing any UAV never lowers its cluster's power
        users = random_users(10)
        sol = optimize(users, CENTERS, PARAMS, REQS)
        rng = random.Random(0)
        for i, cluster in enumerate(sol.association.clusters):
            if not cluster:
                continue
            base = sol.per_uav_power[i]
            cx, cy = sol.uav_positions[i]
            for _ in range(100):
                px = cx + rng.uniform(-2.0, 2.0)
                py = cy + rng.uniform(-2.0, 2.0)
                r = max(math.hypot(px - users[j][0], py - users[j][1])
                        for j in cluster)
                if r > PARAMS.fov_ground_radius:
                    continue
                perturbed = min_power_for_radius(r, COEFFS, PARAMS)
                assert perturbed >= base * (1.0 - 1e-12)

    def test_sed_center_minimizes_max_horizontal_distance(self):
        users = random_users(14, n=8)
        assoc = CellAssociation([list(range(8))])
        pos = locate_uavs(assoc, users, [(5.0, 5.0)])
        best = max(math.hypot(pos[0].x - u[0], pos[0].y - u[1])
                   for u in users)
        rng = random.Random(2)
        for _ in range(200):
            cand = (rng.uniform(0, 10), rng.uniform(0, 10))
            r = max(math.hypot(cand[0] - u[0], cand[1] - u[1]) for u in users)
            assert r >= best - 1e-9

    def test_power_ranking_equals_cost_ranking(self):
        # with positions fixed, total power is a fixed multiple of the
        # clustering cost, so the two orderings coincide
        from uavvlc.assignment import cluster_cost
        users = random_users(9, n=5)
        positions = [(2.5, 5.0), (7.5, 5.0)]
        records = []
        for labels in itertools.product(range(2), repeat=5):
            clusters = [[], []]
            for j, i in enumerate(labels):
                clusters[i].append(j)
            assoc = CellAssociation(clusters)
            _, total = evaluate_power(positions, assoc, users, COEFFS, PARAMS)
            c = cluster_cost(assoc, positions, users, COEFFS.exponent, 8.0)
            records.append((total, c))
        for total, c in records:
            assert total == pytest.approx(COEFFS.prefactor * c, rel=1e-12)

    def test_infeasible_when_user_unreachable(self):
        # a lone UAV pinned far from a user beyond the FOV ground radius
        users = [(0.0, 0.0), (30.0, 0.0)]
        sol = optimize(users, [(0.0, 0.0)], PARAMS, REQS)
        assert not sol.feasible
        assert sol.total_power == math.inf

    def test_requires_users_and_iterations(self):
        with pytest.raises(ValueError):
            optimize([], CENTERS, PARAMS, REQS)
        with pytest.raises(ValueError):
            optimize([(1.0, 1.0)], CENTERS, PARAMS, REQS, max_iters=0)


class TestBaselines:
    def test_sa1_nadir_users(self):
        users = list(CENTERS)
        sol = baseline_sa1(users, SUB_AREAS, PARAMS, REQS)
        expected = 4.0 * COEFFS.prefactor * 8.0 ** 4
        assert sol.total_power == pytest.approx(expected, rel=1e-12)

    def test_sa1_corner_user_distance(self):
        users = [(0.0, 0.0)]    # corner of the first 5x5 sub-area
        sol = baseline_sa1(users, SUB_AREAS, PARAMS, REQS)
        r = 2.5 * math.sqrt(2.0)
        expected = COEFFS.prefactor * (r * r + 64.0) ** 2
        assert sol.per_uav_power[0] == pytest.approx(expected, rel=1e-12)

    def test_sa2_reference_power(self):
        sol = baseline_sa2(SUB_AREAS, PARAMS, REQS)
        # corner of a 5x5 sub-area at height 8: d = sqrt(76.5)
        d = math.sqrt(76.5)
        assert d == pytest.approx(8.74642784226795, rel=1e-15)
        expected = 4.0 * COEFFS.prefactor * 76.5 ** 2
        assert sol.total_power == pytest.approx(expected, rel=1e-12)
        assert sol.association.clusters == [[], [], [], []]

    def test_sa2_ignores_users(self):
        a = baseline_sa2(SUB_AREAS, PARAMS, REQS)
        b = baseline_sa2(SUB_AREAS, PARAMS, REQS)
        assert a.total_power == b.total_power

    def test_sa2_infeasible_when_corner_leaves_fov(self):
        low = default_params(uav_height=2.0)    # ground radius 2 sqrt(3) < 2.5 sqrt(2)
        sol = baseline_sa2(SUB_AREAS, low, REQS)
        assert not sol.feasible
        assert sol.total_power == math.inf

    def test_uavoo_empty_sub_area(self):
        users = [(1.0, 1.0), (2.0, 2.0)]    # all in the first sub-area
        sol = baseline_uavoo(users, SUB_AREAS, PARAMS, REQS)
        assert sol.per_uav_power[1:] == [0.0, 0.0, 0.0]
        for i in (1, 2, 3):
            assert sol.uav_positions[i] == CENTERS[i]

    def test_uavoo_never_worse_than_sa1(self):
        for seed in range(50):
            sc = generate_scenario(seed=seed)
            uav = solve_scenario(sc, "uavoo")
            sa1 = solve_scenario(sc, "sa1")
            assert uav.total_power <= sa1.total_power

    def test_sa1_never_worse_than_sa2(self):
        for seed in range(50):
            sc = generate_scenario(seed=seed)
            sa1 = solve_scenario(sc, "sa1")
            sa2 = solve_scenario(sc, "sa2")
            assert sa1.total_power <= sa2.total_power
