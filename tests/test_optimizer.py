import functools
import itertools
import math
import random
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (baseline_sa2, cluster_cost, exact_min_power_layout,
                     min_power_illum, min_power_rate, sed_bruteforce)
import uavvlc.optimizer
from uavvlc.assignment import CellAssociation, greedy_min_size_clustering
from uavvlc.channel import (ConstraintCoefficients, InfeasibleError,
                            Requirements, _exponent,
                            constraint_coefficients, min_power_for_radius)
from uavvlc.geometry import Point2, Rect
from uavvlc.optimizer import (_descend, _priced, _start, evaluate_power,
                              geographic_association, locate_uavs,
                              nearest_position_association, optimize)
from uavvlc.scenario import (Scenario, ScenarioConfig, default_params,
                             default_requirements, generate_scenario, make_grid,
                             solve_scenario)

PARAMS = default_params()
REQS = default_requirements()
COEFFS = constraint_coefficients(PARAMS, REQS)
AREA = Rect(0.0, 0.0, 10.0, 10.0)
SUB_AREAS = make_grid(AREA, 2, 2)
CENTERS = [r.center() for r in SUB_AREAS]
CENTERS_3X3 = [r.center() for r in make_grid(AREA, 3, 3)]


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


def bits(solution):
    # every position, cluster, power, trace entry and flag, floats exactly
    return repr(astuple(solution))


def solve_fixed(scheme, users, sub_areas=SUB_AREAS, params=PARAMS):
    # a baseline on a fresh scenario over these users and sub-areas, the
    # one route to the schemes that park UAVs at the sub-area centers
    scenario = Scenario(AREA, tuple(sub_areas), tuple(Point2(*u) for u in users),
                        0, params, REQS)
    return solve_scenario(scenario, scheme)


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
            assert rect.x0 <= u[0] <= rect.x1 and rect.y0 <= u[1] <= rect.y1


class TestNearestPositionInput:
    """nearest_position_association also serves geographic_association,
    optimize's start and the sa1/uavoo baselines."""

    def test_no_positions_rejected(self):
        with pytest.raises(ValueError, match="^at least one UAV position is required$"):
            nearest_position_association([(1.0, 1.0)], [])
        with pytest.raises(ValueError, match="^at least one UAV position is required$"):
            optimize([(1.0, 1.0)], [], PARAMS, REQS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_user_named(self, bad):
        with pytest.raises(ValueError, match="^user 1 has a non-finite coordinate"):
            nearest_position_association([(1.0, 1.0), (bad, 2.0)], CENTERS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_named(self, bad):
        positions = [(1.0, 1.0), (2.0, 2.0), (3.0, bad)]
        with pytest.raises(ValueError,
                           match="^UAV position 2 has a non-finite coordinate"):
            nearest_position_association([(1.0, 1.0)], positions)

    def test_nan_user_named_by_every_caller(self):
        users = [(1.0, 1.0), (math.nan, 2.0)]
        calls = [lambda: geographic_association(users, SUB_AREAS),
                 lambda: optimize(users, CENTERS, PARAMS, REQS),
                 lambda: solve_fixed("sa1", users),
                 lambda: solve_fixed("uavoo", users)]
        for call in calls:
            with pytest.raises(ValueError, match="^user 1 has a non-finite coordinate"):
                call()

    def test_integer_input_gives_the_float_answer(self):
        users = [(1, 9), (6, 2), (5, 5), (9, 9)]
        floats = [(float(x), float(y)) for x, y in users]
        assert (nearest_position_association(users, [(2, 8), (8, 2)])
                == nearest_position_association(floats, [(2.0, 8.0), (8.0, 2.0)]))


class TestGeographicGrid:
    """On a row-major grid of sub-areas, the 2x2 centers whose columns and
    rows bracket a user give the scan of every center, ties to the lowest
    index included."""

    @pytest.fixture(autouse=True)
    def count_scans(self, monkeypatch):
        # calls that fall back to scanning every center
        self.scans = 0
        scan = uavvlc.optimizer.nearest_position_association

        def counted(users, positions):
            self.scans += 1
            return scan(users, positions)
        monkeypatch.setattr(uavvlc.optimizer, "nearest_position_association",
                            counted)

    def assert_scan(self, users, sub_areas, bracketed=True):
        centers = [r.center() for r in sub_areas]
        scans = self.scans
        assoc = geographic_association(users, sub_areas)
        assert self.scans == scans + (not bracketed)
        assert assoc == nearest_position_association(users, centers)

    @staticmethod
    def probes(rng, sub_areas, area):
        # every corner and edge midpoint of every sub-area, points slid
        # along its edges, the outer border, and points off the area
        users = []
        for r in sub_areas:
            xm, ym = r.center()
            users += [(x, y) for x in (r.x0, xm, r.x1) for y in (r.y0, ym, r.y1)]
            users += [(r.x0, rng.uniform(r.y0, r.y1)),
                      (rng.uniform(r.x0, r.x1), r.y1)]
        span = max(area.width, area.height)
        for far in (0.01, 1.0, 1e3, 1e4):
            users += [(area.x0 - far * span, rng.uniform(area.y0, area.y1)),
                      (rng.uniform(area.x0, area.x1), area.y1 + far * span),
                      (area.x1 + far * span, area.y0 - far * span)]
        users += [(rng.uniform(area.x0, area.x1), rng.uniform(area.y0, area.y1))
                  for _ in range(200)]
        rng.shuffle(users)
        return users

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 4), (10, 10),
                                       (1, 12), (12, 1)])
    def test_uniform_grids(self, shape, offset):
        rng = random.Random(shape[0] * 31 + shape[1])
        # 0.3 is not a double; whole-metre steps make edge users exact ties
        sizes = [(0.3 * k, 0.45 * k) for k in (1, 7, 33)] + [shape]
        for width, height in sizes:
            area = Rect(offset, -offset, offset + width, -offset + height)
            sub_areas = make_grid(area, *shape)
            users = self.probes(rng, sub_areas, area)
            self.assert_scan(users, sub_areas, len(sub_areas) > 9)
            # a user 1e9 area widths off, where rounding ties every column,
            # makes the whole call scan every center
            self.assert_scan(users + [(area.x1, area.y0 - 1e9 * width)],
                             sub_areas, bracketed=False)

    def test_uneven_grids_take_the_bracket(self):
        # columns and rows of any widths, from a twentieth of the widest up;
        # the last layout has one column ten times as wide as the rest
        rng = random.Random(3)
        layouts = [([0.0] + [rng.uniform(0.05, 1.0) for _ in range(11)],
                    [0.0] + [rng.uniform(0.05, 1.0) for _ in range(5)])
                   for _ in range(20)]
        layouts.append(([0.0, 0.3, 0.3, 3.0] + [0.3] * 7, [0.0] + [0.3] * 10))
        for widths, heights in layouts:
            xs = list(itertools.accumulate(widths))
            ys = list(itertools.accumulate(heights))
            sub_areas = [Rect(x0, y0, x1, y1) for y0, y1 in zip(ys, ys[1:])
                         for x0, x1 in zip(xs, xs[1:])]
            area = Rect(xs[0], ys[0], xs[-1], ys[-1])
            self.assert_scan(self.probes(rng, sub_areas, area), sub_areas)

    def test_other_lists_scan_every_center(self):
        rng = random.Random(5)
        area = Rect(0.0, 0.0, 3.0, 3.0)
        shuffled = make_grid(area, 10, 10)
        rng.shuffle(shuffled)
        reversed_rows = make_grid(area, 10, 10)[::-1]
        grid = make_grid(area, 10, 10)
        reversed_columns = [r for k in range(0, 100, 10) for r in grid[k:k + 10][::-1]]
        repeated_column = make_grid(area, 10, 10)
        repeated_column[1::10] = repeated_column[0::10]
        short = make_grid(area, 10, 10)[:-1]
        for sub_areas in (shuffled, reversed_rows, reversed_columns,
                          repeated_column, short):
            self.assert_scan(self.probes(rng, sub_areas, area), sub_areas,
                             bracketed=False)

    def test_errors_are_unchanged(self):
        with pytest.raises(ValueError, match="^at least one UAV position is required$"):
            geographic_association([(1.0, 1.0)], [])
        grid = make_grid(Rect(0.0, 0.0, 10.0, 10.0), 10, 10)
        users = [(1.0, 1.0), (math.nan, 2.0)]
        with pytest.raises(ValueError, match="^user 1 has a non-finite coordinate"):
            geographic_association(users, grid)
        grid[4] = Rect(math.nan, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^UAV position 4 has a non-finite"):
            geographic_association([(1.0, 1.0)], grid)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_previous_position_rejected(self, bad):
        # an empty cluster used to keep Point2(nan, 0.0)
        with pytest.raises(ValueError,
                           match="^UAV position 1 has a non-finite"):
            locate_uavs(CellAssociation([[0], []]), [(3.0, 4.0)],
                        [(0.0, 0.0), (bad, 0.0)])


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

    def test_zero_prefactor_still_rejects_out_of_fov(self):
        # a need that underflows the prefactor to 0 no longer prices at all;
        # the smallest positive prefactor still serves no user past the FOV
        params = replace(default_params(), noise_std=1e-320)
        with pytest.raises(OverflowError, match="^power prefactor "):
            constraint_coefficients(params, Requirements(1e-40, 0.0))
        coeffs = ConstraintCoefficients(5e-324, 0.0)
        users = [(0.0, 0.0), (1.0, 0.0), (20.0, 0.0)]
        per, total = evaluate_power([(0.0, 0.0), (5.0, 5.0)],
                                    CellAssociation([[0, 1], []]), users[:2],
                                    coeffs, params)
        assert per == [5e-324 * 65.0 ** 2, 0.0] and total == per[0] > 0.0
        with pytest.raises(InfeasibleError) as err:
            evaluate_power([(0.0, 0.0), (5.0, 5.0)],
                           CellAssociation([[0], [1, 2]]), users, coeffs, params)
        assert (err.value.uav_index, err.value.user_index) == (1, 2)


class TestCountMismatch:
    """evaluate_power rejects a deployment whose association and positions
    disagree on the UAV count, never pricing it short."""

    USERS = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    CASES = [([(0.0, 0.0), (5.0, 5.0)], [[0, 1, 2]]),
             ([(0.0, 0.0)], [[0, 1], [2]])]

    @pytest.mark.parametrize("positions, clusters", CASES)
    def test_evaluate_power_names_both_counts(self, positions, clusters):
        message = f"^association has {len(clusters)} clusters for {len(positions)} "
        with pytest.raises(ValueError, match=message + "UAV positions$"):
            evaluate_power(positions, CellAssociation(clusters), self.USERS,
                           COEFFS, PARAMS)


class TestBrokenPartition:
    """A user priced through index -1, priced twice or left out was priced
    without a word; evaluate_power and locate_uavs take only a partition."""

    USERS = [(1.0, 1.0), (2.0, 3.0), (6.0, 7.0)]
    POSITIONS = [(2.5, 2.5), (7.5, 7.5)]

    @pytest.mark.parametrize("clusters", [[[0, 1, -1], []], [[0, 1], [1, 2]],
                                          [[0], [1]], [[0, 1, 2], [3]]],
                             ids=["negative", "twice", "missing", "beyond"])
    def test_rejected(self, clusters):
        message = "^clusters do not partition the users$"
        with pytest.raises(ValueError, match=message):
            evaluate_power(self.POSITIONS, CellAssociation(clusters),
                           self.USERS, COEFFS, PARAMS)
        with pytest.raises(ValueError, match=message):
            locate_uavs(CellAssociation(clusters), self.USERS, self.POSITIONS)

    def test_the_count_is_named_first(self):
        broken = CellAssociation([[0, 1, -1], [], []])
        with pytest.raises(ValueError, match="^association has 3 clusters "):
            evaluate_power(self.POSITIONS, broken, self.USERS, COEFFS, PARAMS)
        with pytest.raises(ValueError, match="^association and previous_positions "):
            locate_uavs(broken, self.USERS, self.POSITIONS)


class TestInfeasibleReports:
    """An infeasible deployment prices its feasible cells as evaluate_power
    does, its violating cell as inf and its total as inf."""

    def assert_report(self, sol, users, step):
        # cell 0 alone, over the four users it serves
        cell = CellAssociation([[0, 1, 2, 3]])
        expected, _ = evaluate_power(sol.uav_positions[:1], cell, users[:4],
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
        sol = solve_fixed("sa1", users, CELL_SUB_AREAS)
        assert sol.uav_positions[0] == CELL_UAV
        assert sol.per_uav_power[0] == CELL_POWER
        self.assert_report(sol, users, "sa1")

    def test_uavoo(self):
        # sub-area 1's users are 30 m apart, so even its SED center is 15 m
        # from each of them
        users = CELL_USERS + [(85.0, 100.0), (115.0, 100.0)]
        sol = solve_fixed("uavoo", users, CELL_SUB_AREAS)
        self.assert_report(sol, users, "uavoo")

    def test_optimize_locate_step(self):
        # the cell users are nearest CELL_UAV, the two far ones (100, 100)
        users = CELL_USERS + [(85.0, 100.0), (115.0, 100.0)]
        sol = optimize(users, [CELL_UAV, (100.0, 100.0)], PARAMS, REQS)
        assert sol.association.clusters == [[0, 1, 2, 3], [4, 5]]
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
        users = random_users(9, n=5)
        positions = [(2.5, 5.0), (7.5, 5.0)]
        records = []
        for labels in itertools.product(range(2), repeat=5):
            clusters = [[], []]
            for j, i in enumerate(labels):
                clusters[i].append(j)
            assoc = CellAssociation(clusters)
            _, total = evaluate_power(positions, assoc, users, COEFFS, PARAMS)
            c = cluster_cost(assoc, positions, users, _exponent(PARAMS), 8.0)
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


class TestCycleStop:
    """The greedy rounds can cycle through associations that never beat the
    best state.  A round's positions fix every round after it, so a round
    whose positions repeat an earlier round's ends the descent with the
    result of any longer cap."""

    @staticmethod
    def scenario():
        return generate_scenario(11, num_users=40, grid=(3, 3),
                                 params=default_params(uav_height=3.0))

    def test_endless_cap_gives_the_capped_result(self, monkeypatch):
        expected = bits(solve_scenario(self.scenario(), "proposed", max_iters=20))
        inputs = []

        def counted(positions, *args, **kwargs):
            # fails a regression instead of hanging the suite
            inputs.append(list(positions))
            if len(inputs) > 50:
                raise AssertionError("the greedy rounds did not stop")
            return greedy_min_size_clustering(positions, *args, **kwargs)

        monkeypatch.setattr(uavvlc.optimizer, "greedy_min_size_clustering",
                            counted)
        sol = solve_scenario(self.scenario(), "proposed", max_iters=10 ** 9)
        assert bits(sol) == expected
        # the fifth call's positions would have been the third call's
        assert len(inputs) == 4
        assert [e.step for e in sol.iterations] == ["init", "locate", "round"]


class TestRelocationPastTheFov:
    """The SED keeps a point within its 1e-10 * r membership slack, so a
    cluster that greedy fits inside one UAV's FOV can relocate to a center
    that leaves a user a hair past it; that round ends the descent."""

    USERS = [(14.784744185765792, 39.2241292061972),
             (30.684197872040794, 16.730821620664187),
             (21.338081785443475, 13.243761825925324),
             (9.717351476333533, 19.794863756957156),
             (15.544704995310362, 14.584188259466398)]
    CENTERS = [(21.492114066569656, 27.099312123779633),
               (11.516749130154277, 5.713212089367544)]

    def test_keeps_the_best_state_so_far(self):
        # the first round relocates users 3 and 4 about 1e-14 m past the FOV
        start = _start(self.USERS, self.CENTERS, nearest_position_association(
            self.USERS, self.CENTERS), PARAMS, None)[1]
        assoc = greedy_min_size_clustering(start.positions, self.USERS, PARAMS)
        assert assoc.clusters == [[0, 1, 2, 3, 4], []]
        moved = locate_uavs(assoc, self.USERS, start.positions)
        with pytest.raises(InfeasibleError, match="^user 4 is outside the "
                                                  "field of view of UAV 0$"):
            evaluate_power(moved, assoc, self.USERS, COEFFS, PARAMS)
        sol = optimize(self.USERS, self.CENTERS, PARAMS, REQS)
        assert sol.feasible
        assert [e.step for e in sol.iterations] == ["init", "locate"]
        assert sol.association.clusters == [[0, 1, 3], [2, 4]]
        assert evaluate_power(sol.uav_positions, sol.association, self.USERS,
                              COEFFS, PARAMS) == (sol.per_uav_power,
                                                  sol.total_power)


class TestSharedDescent:
    """Thresholds reach the descent only through the power prefactor, so
    one threshold-free descent, priced last, serves any list of
    Requirements."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           shape=st.sampled_from([(12, CENTERS), (40, CENTERS_3X3)]),
           height=st.sampled_from([2.0, 3.0, 8.0, 12.0]),
           rates=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                          min_size=1, max_size=6),
           illum=st.sampled_from([0.0, 0.1, 0.6]),
           noise=st.sampled_from([1e-10, 0.05]),
           max_iters=st.sampled_from([1, 2, 20]),
           rel_tol=st.sampled_from([0.0, 1e-9, 0.05]))
    def test_each_requirements_gets_its_own_solve(self, seed, shape, height,
                                                  rates, illum, noise,
                                                  max_iters, rel_tol):
        num_users, centers = shape
        users = random_users(seed, n=num_users)
        params = replace(default_params(uav_height=height), noise_std=noise)
        start = _start(users, centers,
                       nearest_position_association(users, centers), params,
                       None)
        layout, trace = _descend(users, start, params, max_iters, rel_tol, None)
        for rate in rates:
            r = Requirements(rate, illum)
            sol = _priced(layout, trace, constraint_coefficients(params, r).prefactor)
            assert bits(sol) == bits(optimize(users, centers, params, r,
                                              max_iters, rel_tol))

    def test_results_share_no_list(self):
        users = random_users(5)
        prefactor = constraint_coefficients(PARAMS, Requirements(1.0, 0.1)).prefactor
        start = _start(users, CENTERS,
                       nearest_position_association(users, CENTERS), PARAMS,
                       None)
        layout, trace = _descend(users, start, PARAMS, 20, 1e-9, None)
        a, b = (_priced(layout, trace, prefactor) for _ in range(2))
        assert bits(a) == bits(b)
        a.uav_positions.append(Point2(-1.0, -1.0))
        a.association.clusters[0].append(-1)
        a.per_uav_power.append(-1.0)
        a.iterations.append(uavvlc.optimizer.IterationEntry(-1.0, "vandal"))
        assert bits(b) == bits(_priced(*_descend(users, start, PARAMS, 20, 1e-9,
                                                 None), prefactor))



class TestDescentSettings:
    # ScenarioConfig rejects these, but solve_scenario and optimize used to
    # run with them: NaN or a negative value never stops on the tolerance
    @pytest.mark.parametrize("rel_tol", [math.nan, -1e-9, math.inf])
    def test_bad_rel_tol_rejected(self, rel_tol):
        scenario = generate_scenario(0)
        with pytest.raises(ValueError, match="^rel_tol must be finite and >= 0$"):
            solve_scenario(scenario, "proposed", rel_tol=rel_tol)
        with pytest.raises(ValueError, match="^rel_tol must be finite and >= 0$"):
            optimize(scenario.users, CENTERS, PARAMS, REQS, rel_tol=rel_tol)

    def test_rel_tol_stops_after_a_small_enough_gain(self):
        # at the defaults proposed records two improving rounds on run 1;
        # under rel_tol 1 every gain is small enough, so the first one ends it
        scenario = ScenarioConfig(params=default_params(8.0)).scenario(1)
        full = solve_scenario(scenario, "proposed")
        stopped = solve_scenario(scenario, "proposed", rel_tol=1.0)
        rounds = [entry for entry in full.iterations if entry.step == "round"]
        assert len(rounds) == 2
        assert stopped.iterations == full.iterations[:-1]
        assert stopped.total_power == rounds[0].total_power


class TestBaselines:
    def test_sa1_nadir_users(self):
        users = list(CENTERS)
        sol = solve_fixed("sa1", users)
        expected = 4.0 * COEFFS.prefactor * 8.0 ** 4
        assert sol.total_power == pytest.approx(expected, rel=1e-12)

    def test_sa1_corner_user_distance(self):
        users = [(0.0, 0.0)]    # corner of the first 5x5 sub-area
        sol = solve_fixed("sa1", users)
        r = 2.5 * math.sqrt(2.0)
        expected = COEFFS.prefactor * (r * r + 64.0) ** 2
        assert sol.per_uav_power[0] == pytest.approx(expected, rel=1e-12)

    def test_sa2_reference_power(self):
        sol = solve_fixed("sa2", random_users(0))
        assert bits(sol) == bits(baseline_sa2(SUB_AREAS, PARAMS, REQS))
        # corner of a 5x5 sub-area at height 8: d = sqrt(76.5)
        d = math.sqrt(76.5)
        assert d == pytest.approx(8.74642784226795, rel=1e-15)
        expected = 4.0 * COEFFS.prefactor * 76.5 ** 2
        assert sol.total_power == pytest.approx(expected, rel=1e-12)
        assert sol.association.clusters == [[], [], [], []]

    def test_sa2_ignores_users(self):
        a = solve_fixed("sa2", random_users(1))
        b = solve_fixed("sa2", list(CENTERS))
        assert bits(a) == bits(b) == bits(baseline_sa2(SUB_AREAS, PARAMS, REQS))

    def test_sa2_infeasible_when_corner_leaves_fov(self):
        low = default_params(uav_height=2.0)    # ground radius 2 sqrt(3) < 2.5 sqrt(2)
        sol = solve_fixed("sa2", random_users(2), params=low)
        assert bits(sol) == bits(baseline_sa2(SUB_AREAS, low, REQS))
        assert not sol.feasible
        assert sol.total_power == math.inf

    def test_uavoo_empty_sub_area(self):
        users = [(1.0, 1.0), (2.0, 2.0)]    # all in the first sub-area
        sol = solve_fixed("uavoo", users)
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


class TestExactMinimum:
    """No scheme prices below the exact minimum-power layout."""

    @pytest.mark.parametrize("height", [2.0, 8.0])
    def test_oracle_matches_every_partition(self, height):
        # every split of 6 users into at most 3 cells, each cell at the
        # smallest enclosing disk of its users; at 2 m the FOV cuts some off
        params = default_params(uav_height=height)
        half_exp = 0.5 * (params.lambertian_m + 3.0)

        @functools.lru_cache(maxsize=None)
        def cell(members):
            r = sed_bruteforce([users[j] for j in members]).radius
            if r > params.fov_ground_radius:
                return math.inf
            return (r * r + height * height) ** half_exp

        for seed, num_uavs in itertools.product(range(4), (1, 2, 3)):
            users = random_users(seed, n=6)
            cell.cache_clear()
            brute = min(
                math.fsum(cell(tuple(j for j, c in enumerate(labels) if c == i))
                          for i in set(labels))
                for labels in itertools.product(range(num_uavs), repeat=6))
            total, disks = exact_min_power_layout(users, num_uavs, params)
            if brute == math.inf:
                assert (total, disks) == (math.inf, [])
                continue
            assert total == pytest.approx(brute, rel=1e-12)
            assert len(disks) <= num_uavs
            assert all(any(d.contains(u) for d in disks) for u in users)

    def test_no_scheme_beats_the_exact_layout(self):
        config = ScenarioConfig(params=default_params(8.0))
        for run in range(20):
            scenario = config.scenario(run)
            exact, _ = exact_min_power_layout(scenario.users, 4, scenario.params)
            floor = exact * COEFFS.prefactor * (1.0 - 1e-12)
            for scheme in ("proposed", "uavoo", "sa1", "sa2"):
                assert solve_scenario(scenario, scheme).total_power >= floor
