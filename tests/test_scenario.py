import dataclasses
import inspect
import itertools
import math
import random
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uavvlc
import uavvlc.optimizer
import uavvlc.scenario
from oracles import baseline_sa2
from uavvlc.channel import (ConstraintCoefficients, Requirements, VlcParams,
                            channel_gain, constraint_coefficients)
from uavvlc.geometry import Point2, Rect
from uavvlc.optimizer import (IterationEntry, _priced, evaluate_power,
                              optimize)
from uavvlc.scenario import (SCHEMES, Scenario, ScenarioConfig, _mean_std,
                             _scheme_layout, default_params,
                             default_requirements, generate_scenario,
                             make_grid, per_user_report, run_monte_carlo,
                             run_monte_carlo_batches, solve_scenario)

RATE_REQ = 2.0
ILLUM_REQ = 0.1

# One bad value per ScenarioConfig field that construction checks.
BAD_CONFIG_FIELDS = [("num_users", 0), ("area_size", math.nan),
                     ("base_seed", -1)]


class TestMakeGrid:
    def test_two_by_two_tiling(self):
        grid = make_grid(Rect(0.0, 0.0, 10.0, 10.0), 2, 2)
        assert len(grid) == 4
        assert grid[0] == Rect(0.0, 0.0, 5.0, 5.0)
        assert grid[1] == Rect(5.0, 0.0, 10.0, 5.0)    # row-major from y0
        assert grid[2] == Rect(0.0, 5.0, 5.0, 10.0)
        assert grid[3] == Rect(5.0, 5.0, 10.0, 10.0)

    def test_tiles_cover_area_exactly(self):
        area = Rect(-3.0, 1.0, 9.0, 7.0)
        grid = make_grid(area, 3, 2)
        assert sum(r.width * r.height for r in grid) == pytest.approx(
            area.width * area.height, rel=1e-12)
        rng = random.Random(7)
        for _ in range(100):
            p = (rng.uniform(-3.0, 9.0), rng.uniform(1.0, 7.0))
            assert any(r.x0 <= p[0] <= r.x1 and r.y0 <= p[1] <= r.y1
                       for r in grid)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            make_grid(Rect(0.0, 0.0, 1.0, 1.0), 0, 2)


class TestGenerateScenario:
    def test_deterministic_per_seed(self):
        a = generate_scenario(seed=5)
        b = generate_scenario(seed=5)
        assert a.users == b.users
        assert generate_scenario(seed=6).users != a.users

    def test_users_inside_area(self):
        sc = generate_scenario(seed=3, area_size=25.0, num_users=500)
        for u in sc.users:
            assert 0.0 <= u.x <= 25.0
            assert 0.0 <= u.y <= 25.0

    def test_uniform_mean(self):
        sc = generate_scenario(seed=11, num_users=100_000)
        mx = sum(u.x for u in sc.users) / len(sc.users)
        my = sum(u.y for u in sc.users) / len(sc.users)
        assert abs(mx - 5.0) < 0.05
        assert abs(my - 5.0) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_scenario(seed=0, num_users=0)
        with pytest.raises(ValueError):
            generate_scenario(seed=0, area_size=0.0)

    @pytest.mark.parametrize("area_size", [math.nan, math.inf])
    def test_rejects_non_finite_area(self, area_size):
        with pytest.raises(ValueError, match="area_size"):
            generate_scenario(seed=0, area_size=area_size)

    def test_grid_and_uav_count(self):
        sc = generate_scenario(seed=0, grid=(4, 2))
        assert len(sc.sub_areas) == 8


class TestSolveScenario:
    def test_unknown_scheme(self):
        sc = generate_scenario(seed=0)
        with pytest.raises(ValueError):
            solve_scenario(sc, "sa3")

    @settings(deadline=None, max_examples=60)
    @given(users=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
                          min_size=1, max_size=30),
           grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           height=st.floats(2.0, 12.0))
    def test_scheme_ordering_property(self, users, grid, height):
        # proposed <= uavoo <= sa1 <= sa2, an infeasible result counting as inf
        area = Rect(0.0, 0.0, 10.0, 10.0)
        scenario = Scenario(area, tuple(make_grid(area, *grid)),
                            tuple(Point2(x, y) for x, y in users), 0,
                            default_params(uav_height=height), default_requirements())
        sols = [solve_scenario(scenario, scheme) for scheme in SCHEMES]
        for sol in sols:
            assert sol.feasible == math.isfinite(sol.total_power)
        totals = [sol.total_power for sol in sols]
        assert totals == sorted(totals)

    def test_users_far_apart_are_infeasible(self):
        # 7 users over a 4e154 m square: their disk was NaN, and every
        # scheme raised "math domain error" where it should price inf
        scenario = generate_scenario(0, area_size=3.9786221684592404e154,
                                     grid=(1, 1), num_users=7)
        for scheme in SCHEMES:
            sol = solve_scenario(scenario, scheme)
            assert not sol.feasible and sol.total_power == math.inf

    def test_all_schemes_feasible_at_default_height(self):
        sc = generate_scenario(seed=1)
        for scheme in SCHEMES:
            sol = solve_scenario(sc, scheme)
            assert sol.feasible
            assert math.isfinite(sol.total_power)


def bits(solution):
    # every position, cluster, power, trace entry and flag; repr tells -0.0
    # from 0.0 and prints each float exactly
    return repr(astuple(solution))


def vandalize(solution):
    solution.uav_positions[0] = Point2(-1.0, -1.0)
    solution.association.clusters[0].append(-1)
    solution.association.clusters.append([-2])
    solution.per_uav_power[0] = -1.0
    solution.iterations.append(IterationEntry(-1.0, "vandal"))


class TestSharedStart:
    """sa1 and uavoo are proposed's first two states, so a Scenario computes
    them once; sharing them must change no bit of any result."""

    # (seed, height, grid): the paper defaults, 2 m and 3 m, where some sa1
    # runs are infeasible, and one 3 m UAV, where most uavoo runs are too
    CASES = ([(seed, 8.0, (2, 2)) for seed in range(14)]
             + [(seed, height, (2, 2)) for height in (2.0, 3.0) for seed in range(13)]
             + [(seed, 3.0, (1, 1)) for seed in range(6)])

    @staticmethod
    def scenario(seed, height, grid):
        return generate_scenario(seed, grid=grid, params=default_params(uav_height=height))

    @staticmethod
    def fresh(scenario):
        # sa1 and uavoo each solved first on a new instance, which shares
        # no cache with scenario; proposed and sa2 from plain lists
        users = [(u.x, u.y) for u in scenario.users]
        sub_areas = list(scenario.sub_areas)
        centers = [r.center() for r in sub_areas]
        params, reqs = scenario.params, scenario.reqs
        return {"proposed": optimize(users, centers, params, reqs),
                "uavoo": solve_scenario(replace(scenario), "uavoo"),
                "sa1": solve_scenario(replace(scenario), "sa1"),
                "sa2": baseline_sa2(sub_areas, params, reqs)}

    def test_every_order_matches_fresh_solves(self):
        infeasible = set()
        for case in self.CASES:
            expected = {scheme: bits(sol)
                        for scheme, sol in self.fresh(self.scenario(*case)).items()}
            for order in itertools.permutations(SCHEMES):
                scenario = self.scenario(*case)
                for scheme in order:
                    sol = solve_scenario(scenario, scheme)
                    assert bits(sol) == expected[scheme], (case, order)
                    if not sol.feasible:
                        infeasible.add(scheme)
        assert infeasible == set(SCHEMES)

    def test_mutating_a_result_leaves_the_scenario_alone(self):
        for case in self.CASES:
            scenario = self.scenario(*case)
            expected = {scheme: bits(sol) for scheme, sol in self.fresh(scenario).items()}
            for scheme in SCHEMES:
                vandalize(solve_scenario(scenario, scheme))
            for scheme in SCHEMES:
                assert bits(solve_scenario(scenario, scheme)) == expected[scheme]

    def test_equal_scenarios_keep_their_own_sign_bits(self):
        # 0.0 == -0.0, so these scenarios are equal and hash alike, but a
        # lone user's SED center keeps the sign of its coordinate
        area = Rect(-5.0, -5.0, 5.0, 5.0)
        a, b = (Scenario(area, (area,), (Point2(x, 1.0),), 0, default_params(),
                         default_requirements()) for x in (0.0, -0.0))
        assert a == b and hash(a) == hash(b)
        for scenario, sign in ((a, 1.0), (b, -1.0)):
            for scheme in ("uavoo", "proposed"):
                x = solve_scenario(scenario, scheme).uav_positions[0].x
                assert math.copysign(1.0, x) == sign

    @pytest.mark.parametrize("height", [3.0, 8.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_optimize_from_a_lattice_is_proposed(self, seed, height):
        # over 9 sub-areas both routes take the nearest-center bracket
        scenario = generate_scenario(seed, area_size=50.0, grid=(10, 10),
                                     num_users=300,
                                     params=default_params(uav_height=height))
        users = [(u.x, u.y) for u in scenario.users]
        centers = [r.center() for r in scenario.sub_areas]
        proposed = solve_scenario(scenario, "proposed")
        assert proposed.feasible
        assert bits(optimize(users, centers, scenario.params,
                             scenario.reqs)) == bits(proposed)


class TestPerUserReport:
    def test_thresholds_met_everywhere(self):
        for seed in range(20):
            sc = generate_scenario(seed=seed)
            for scheme in ("proposed", "uavoo", "sa1"):
                sol = solve_scenario(sc, scheme)
                for rep in per_user_report(sol, sc.users, sc.params):
                    assert rep.achieved_rate >= RATE_REQ - 1e-9
                    assert rep.achieved_illum >= ILLUM_REQ - 1e-12

    def test_binding_user_is_tight(self):
        # the farthest user of the costliest cluster pins its UAV's power,
        # so its binding constraint holds with equality
        sc = generate_scenario(seed=4)
        sol = solve_scenario(sc, "proposed")
        coeffs = constraint_coefficients(sc.params, sc.reqs)
        binding = (RATE_REQ if coeffs.rate_ratio > coeffs.v_illum
                   else ILLUM_REQ)
        reports = per_user_report(sol, sc.users, sc.params)
        slack = []
        for rep in reports:
            value = (rep.achieved_rate if binding is RATE_REQ
                     else rep.achieved_illum)
            slack.append(value / binding - 1.0)
        assert min(slack) == pytest.approx(0.0, abs=1e-9)

    def test_farthest_user_has_cluster_minimum(self):
        sc = generate_scenario(seed=8)
        sol = solve_scenario(sc, "proposed")
        reports = per_user_report(sol, sc.users, sc.params)
        for i, cluster in enumerate(sol.association.clusters):
            if len(cluster) < 2:
                continue
            px, py = sol.uav_positions[i]
            far = max(cluster, key=lambda j: math.hypot(px - sc.users[j].x,
                                                        py - sc.users[j].y))
            worst = min(reports[j].achieved_rate for j in cluster)
            assert reports[far].achieved_rate == pytest.approx(worst,
                                                               rel=1e-12)

    def test_light_beyond_floating_point_range_raises(self):
        # xi * P overflows and h underflows to 0, so user 0 read rate and
        # light nan; the prefactor (3.3e120) is a valid price
        params = replace(default_params(), detector_area=5e-324,
                         illum_factor=1e200)
        sc = replace(generate_scenario(0), params=params)
        sol = solve_scenario(sc, "proposed")
        assert sol.feasible and math.isfinite(sol.total_power)
        with pytest.raises(ValueError, match="^user 0 receives xi \\* P \\* h = nan"):
            per_user_report(sol, sc.users, params)

    def test_requires_feasible_solution(self):
        low = default_params(uav_height=2.0)
        sc = generate_scenario(seed=0, params=low)
        sol = solve_scenario(sc, "sa2")
        assert not sol.feasible
        with pytest.raises(ValueError):
            per_user_report(sol, sc.users, sc.params)


class TestOneFovTest:
    """Pricing, the greedy association and channel_gain all decide the FOV
    with sqrt(dx*dx + dy*dy) > R.  hypot can round the other way for a user
    on the edge, so a scheme used to count such a user in where another
    counted it out.  Users (R, 0), (-R, 0) and u, with u on the FOV edge of
    the origin."""

    PARAMS = default_params()
    R = PARAMS.fov_ground_radius
    PAST = (0.6842850481197861, 13.839499773218673)      # hypot <= R < sqrt
    INSIDE = (0.33240776766004027, 13.852418744609162)   # sqrt <= R < hypot

    def scenario(self, u, sub_areas):
        users = ((self.R, 0.0), (-self.R, 0.0), u)
        return Scenario(Rect(-20.0, -20.0, 20.0, 20.0), tuple(sub_areas),
                        tuple(Point2(*p) for p in users), 0, self.PARAMS,
                        default_requirements())

    def assert_consistent(self, scenario):
        # proposed returns, never above uavoo, and every user of each
        # user-priced scheme gets its thresholds
        sols = {scheme: solve_scenario(scenario, scheme)
                for scheme in ("proposed", "uavoo", "sa1")}
        assert all(sol.feasible for sol in sols.values())
        assert sols["proposed"].total_power <= sols["uavoo"].total_power
        for sol in sols.values():
            for rep in per_user_report(sol, scenario.users, scenario.params):
                assert rep.achieved_rate >= RATE_REQ - 1e-9
                assert rep.achieved_illum >= ILLUM_REQ - 1e-12
        return sols

    def test_past_the_edge_by_sqrt_is_outside(self):
        # u has its own sub-area; greedy used to hand it to the origin's
        # UAV, whose priced cell then raised from inside the descent
        x, y = u = self.PAST
        assert math.hypot(-x, -y) <= self.R < math.sqrt(x * x + y * y)
        sub_areas = [Rect(-1.0, -1.0, 1.0, 1.0),
                     Rect(x - 1.0, y - 1.0, x + 1.0, y + 1.0)]
        sols = self.assert_consistent(self.scenario(u, sub_areas))
        assert sols["uavoo"].total_power == 1139350.935701898
        assert sols["proposed"].association.clusters == [[0, 1], [2]]
        sol = optimize([(self.R, 0.0), (-self.R, 0.0), u], [(0.0, 0.0), u],
                       self.PARAMS, default_requirements())
        assert sol.feasible
        assert channel_gain((0.0, 0.0), u, self.PARAMS) == 0.0

    def test_inside_the_edge_by_sqrt_is_inside(self):
        # one UAV at the origin: greedy used to find u outside every FOV,
        # and per_user_report gave u no light while sa1 and uavoo paid for it
        x, y = u = self.INSIDE
        assert math.sqrt(x * x + y * y) <= self.R < math.hypot(-x, -y)
        sols = self.assert_consistent(
            self.scenario(u, [Rect(-1.0, -1.0, 1.0, 1.0)]))
        assert sols["proposed"].association.clusters == [[0, 1, 2]]
        assert channel_gain((0.0, 0.0), u, self.PARAMS) > 0.0


class TestPricedLast:
    """Thresholds reach a solve only through the power prefactor, so a
    scenario's geometry, solved once, gives every rate's own solve."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           height=st.sampled_from([2.0, 3.0, 8.0, 12.0]),
           rates=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
                          min_size=1, max_size=6),
           illum=st.sampled_from([0.0, 0.1, 0.6]),
           noise=st.sampled_from([1e-10, 0.05]))
    @example(seed=0, height=3.0, rates=[3.0, 1.0, 2.0, 1.0], illum=0.1,
             noise=1e-10)
    def test_each_rate_equals_a_fresh_solve(self, seed, height, rates, illum,
                                            noise):
        params = replace(default_params(uav_height=height), noise_std=noise)
        reqs = [Requirements(rate, illum) for rate in rates]
        # the scenario's own reqs are not read: give it another rate's
        shared = generate_scenario(seed, params=params,
                                   reqs=Requirements(0.25, illum))
        prefactors = [constraint_coefficients(params, r).prefactor
                      for r in reqs]
        for scheme in SCHEMES:
            layout, trace = _scheme_layout(shared, shared._layouts,
                                           scheme, params, 20, 1e-9)
            sols = [_priced(layout, trace, p) for p in prefactors]
            for r, sol in zip(reqs, sols):
                fresh = generate_scenario(seed, params=params, reqs=r)
                assert bits(sol) == bits(solve_scenario(fresh, scheme)), (scheme, r)

    @pytest.mark.parametrize("seed,sa1", [(0, 0.0), (9, math.inf), (4, 0.0)])
    def test_zero_prefactor(self, seed, sa1):
        # A 1e-40-bit need underflows the prefactor to 0, where the link
        # delivers rate 0, so a family with it is rejected.  A scenario
        # given it afterwards priced every served user at 0 W (sa1 at inf
        # where a user lies past its FOVs); now no scheme prices it, and
        # at a positive prefactor each scheme is feasible as it was then
        params = replace(default_params(uav_height=2.0), noise_std=1e-320)
        reqs = Requirements(1e-40, 0.0)
        with pytest.raises(OverflowError, match="^power prefactor "):
            constraint_coefficients(params, reqs)
        with pytest.raises(ValueError, match="^rate_threshold "):
            generate_scenario(seed, params=params, reqs=reqs)
        scenario = replace(generate_scenario(seed, params=params), reqs=reqs)
        for scheme in SCHEMES:
            with pytest.raises(OverflowError, match="^power prefactor "):
                solve_scenario(scenario, scheme)
        positive = replace(scenario, reqs=default_requirements())
        assert constraint_coefficients(params, positive.reqs).prefactor > 0.0
        feasible = {scheme: solve_scenario(positive, scheme).feasible
                    for scheme in SCHEMES}
        assert feasible == {"proposed": True, "uavoo": True,
                            "sa1": sa1 == 0.0, "sa2": False}

    def test_proposed_layout_is_the_same_at_every_rate(self):
        # rounds compare on unit power, so no rate keeps a round that is
        # lower only by a rounding step at its own prefactor
        params = replace(default_params(8.0), noise_std=0.05)
        layouts = set()
        for rate in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            scenario = generate_scenario(129, 15.0, (3, 3), 40, params,
                                         Requirements(rate, 0.6))
            sol = solve_scenario(scenario, "proposed")
            layouts.add(repr((sol.uav_positions, sol.association,
                              [entry.step for entry in sol.iterations])))
        assert len(layouts) == 1


class TestUncheckedScenario:
    """A Scenario built by dataclasses.replace skips ScenarioConfig's rules,
    so pricing itself must refuse a link it cannot price: the first three
    were "feasible" at 0 W, at inf W, and at a total of inf W, and the last,
    whose link constant N underflows to 0, raised ZeroDivisionError."""

    USERS = [(1.0, 1.0), (2.0, 3.0), (6.0, 7.0)]
    POSITIONS = [(2.5, 2.5), (7.5, 7.5)]

    @pytest.mark.parametrize("params, reqs, coeffs", [
        (replace(default_params(uav_height=2.0), noise_std=1e-320),
         Requirements(1e-40, 0.0), (0.0, 0.0)),
        (replace(default_params(), detector_area=5e-324),
         default_requirements(), (math.inf, 1.0)),
        (default_params(), Requirements(2.0, 1e303), None),
        (default_params(uav_height=1e-300), default_requirements(),
         (math.inf, math.inf))],
        ids=["zero", "inf", "total-overflow", "n-underflow"])
    def test_rejected_or_infeasible(self, params, reqs, coeffs):
        scenario = replace(generate_scenario(0), params=params, reqs=reqs)
        if coeffs is not None:
            with pytest.raises(OverflowError, match="^power prefactor "):
                ConstraintCoefficients(*coeffs)
            with pytest.raises(OverflowError, match="^power prefactor "):
                optimize(self.USERS, self.POSITIONS, params, reqs)
            with pytest.raises(OverflowError, match="^power prefactor "):
                solve_scenario(scenario, "proposed")
            return
        solutions = [optimize(self.USERS, self.POSITIONS, params, reqs)]
        solutions += [solve_scenario(scenario, scheme) for scheme in SCHEMES]
        for sol in solutions:
            assert sol.feasible is False
            assert math.isfinite(sol.total_power) == sol.feasible


class TestScenarioConfig:
    def test_scenario_k_is_seeded_base_seed_plus_k(self):
        params = default_params(uav_height=12.0)
        reqs = Requirements(1.5, 0.2)
        config = ScenarioConfig(area_size=20.0, grid=(3, 2), num_users=9,
                                base_seed=40, params=params, reqs=reqs)
        for k in (0, 5):
            assert config.scenario(k) == generate_scenario(
                seed=40 + k, area_size=20.0, grid=(3, 2), num_users=9,
                params=params, reqs=reqs)
        assert config.scenario() == config.scenario(0)

    def test_rejects_a_negative_seed(self):
        # random.Random(-k) draws what Random(k) draws, so a negative seed
        # would repeat the scenarios of a positive one without a word
        with pytest.raises(ValueError, match="^base_seed "):
            generate_scenario(-4)
        config = ScenarioConfig(base_seed=3)
        assert config.scenario(-3) == generate_scenario(0)
        with pytest.raises(ValueError, match="^base_seed "):
            config.scenario(-4)

    def test_descent_settings_are_the_librarys(self):
        # a config's max_iters reached run_monte_carlo but not solve_scenario,
        # so one config gave two answers; now no config sets them
        assert {f.name for f in dataclasses.fields(ScenarioConfig)} == {
            "area_size", "grid", "num_users", "base_seed", "params", "reqs"}
        with pytest.raises(TypeError):
            ScenarioConfig(max_iters=1)
        config = ScenarioConfig(base_seed=1)
        assert (config.max_iters, config.rel_tol) == (20, 1e-9)
        for function in (solve_scenario, optimize):
            parameters = inspect.signature(function).parameters
            assert parameters["max_iters"].default == 20
            assert parameters["rel_tol"].default == 1e-9
        assert run_monte_carlo(config, 1).stats["proposed"].totals == [
            solve_scenario(config.scenario(0), "proposed").total_power]

    @pytest.mark.parametrize("name,value", BAD_CONFIG_FIELDS)
    def test_rejects_bad_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name,value", BAD_CONFIG_FIELDS)
    def test_bad_field_never_reaches_a_run(self, monkeypatch, name, value):
        # replace() rebuilds the config, so the fault surfaces before
        # run_monte_carlo is entered, not inside one of its runs
        runs = []
        monkeypatch.setattr(uavvlc.scenario, "_run_group", runs.append)
        with pytest.raises(ValueError, match=f"^{name} "):
            run_monte_carlo(replace(ScenarioConfig(), **{name: value}), 3)
        assert runs == []

    @pytest.mark.parametrize("area_size", [1.7e308, 9e307])
    def test_rejects_area_whose_centres_overflow(self, area_size):
        # (x0 + x1) / 2 of a sub-area overflowed to inf mid-run
        with pytest.raises(ValueError, match="^area_size "):
            ScenarioConfig(area_size=area_size)
        with pytest.raises(ValueError, match="^area_size "):
            generate_scenario(seed=0, area_size=area_size)

    @pytest.mark.parametrize("params,reqs", [
        (default_params(), Requirements(600.0, 0.1)),       # expm1 overflows
        (default_params(), Requirements(2.0, 1e303)),       # the power is inf
        (default_params(uav_height=1e100), default_requirements()),
        (default_params(uav_height=1e-300), default_requirements()),   # n_const 0
        (replace(default_params(), illum_factor=1e-320), default_requirements())],
        ids=["rate", "illum", "high", "low", "illum_factor"])
    def test_rejects_thresholds_whose_power_overflows(self, monkeypatch, params,
                                                     reqs):
        # a run raised OverflowError or ZeroDivisionError, or priced every
        # scheme infeasible, where only the CLI checked the power
        message = "^rate_threshold .* beyond floating-point range"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(params=params, reqs=reqs)
        with pytest.raises(ValueError, match=message):
            generate_scenario(seed=0, params=params, reqs=reqs)
        runs = []
        monkeypatch.setattr(uavvlc.scenario, "_run_group", runs.append)
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(replace(ScenarioConfig(), params=params, reqs=reqs), 2)
        assert runs == []

    # finite cell powers, or the descent's unit powers, summed past the
    # double range, and math.fsum raised OverflowError in every scheme
    # (power) or in proposed (unit)
    @pytest.mark.parametrize("kwargs,message", [
        (dict(area_size=1.0, reqs=Requirements(2.0, 1.4e302)),
         "^rate_threshold .* over 4 cells puts the total transmit power"),
        (dict(params=default_params(uav_height=1e77)),
         "^uav_height 1e\\+77 m over 4 cells puts the total unit power")],
        ids=["power", "unit"])
    def test_rejects_a_total_beyond_floating_point_range(self, monkeypatch,
                                                         kwargs, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**kwargs)
        runs = []
        monkeypatch.setattr(uavvlc.scenario, "_run_group", runs.append)
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(replace(ScenarioConfig(), **kwargs), 2)
        assert runs == []

    # the grid's cell count times the largest cell power is finite, so no
    # scheme's sum overflows; one cell takes the thresholds four reject
    @pytest.mark.parametrize("kwargs", [
        dict(area_size=1.0, reqs=Requirements(2.0, 1.4e302 / 4.3)),
        dict(area_size=1.0, grid=(1, 1), reqs=Requirements(2.0, 1.4e302)),
        dict(params=default_params(uav_height=8e76))],
        ids=["power", "one-cell", "unit"])
    def test_every_scheme_sums_an_accepted_total(self, kwargs):
        config = ScenarioConfig(**kwargs)
        for k in range(3):
            scenario = config.scenario(k)
            for scheme in SCHEMES:
                sol = solve_scenario(scenario, scheme)
                assert sol.feasible and math.isfinite(sol.total_power)

    def test_a_sum_past_the_double_range_prices_infeasible(self):
        # replace() skips ScenarioConfig's cells x power rule, and math.fsum
        # raised OverflowError in every scheme; each cell still fits
        scenario = replace(ScenarioConfig(area_size=1.0).scenario(0),
                           reqs=Requirements(2.0, 1.4e302))
        coeffs = constraint_coefficients(scenario.params, scenario.reqs)
        sols = {scheme: solve_scenario(scenario, scheme) for scheme in SCHEMES}
        for scheme in ("uavoo", "sa1", "sa2"):
            sol = sols[scheme]
            assert not sol.feasible and sol.total_power == math.inf
            assert all(p < math.inf for p in sol.per_uav_power)
        assert evaluate_power(sols["uavoo"].uav_positions,
                              sols["uavoo"].association, scenario.users,
                              coeffs, scenario.params)[1] == math.inf
        # proposed's best layout has a lower unit power, and its sum fits
        proposed = sols["proposed"]
        assert proposed.feasible and proposed.total_power < math.inf
        assert proposed.total_power == math.fsum(proposed.per_uav_power)

    # a positive need whose prefactor underflowed to 0 was "feasible" at
    # 0 W, and every user received light 0, below its 1e-300 floor
    def test_rejects_a_positive_need_priced_at_zero_watts(self, monkeypatch):
        params = replace(default_params(), illum_factor=1e100)
        reqs = Requirements(0.0, 1e-300)
        with pytest.raises(OverflowError, match="^power prefactor "):
            constraint_coefficients(params, reqs)
        message = "^rate_threshold .* beyond floating-point range"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(params=params, reqs=reqs)
        with pytest.raises(ValueError, match=message):
            generate_scenario(seed=0, params=params, reqs=reqs)
        runs = []
        monkeypatch.setattr(uavvlc.scenario, "_run_group", runs.append)
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(replace(ScenarioConfig(), params=params, reqs=reqs), 2)
        assert runs == []

    # the gain at nadir overflowed, so a served user's rate was NaN; or its
    # z_u^2 rounded to 0, and per_user_report divided by zero
    @pytest.mark.parametrize("params", [
        replace(default_params(), detector_area=1.7e308),
        replace(default_params(uav_height=1e-170), tx_semi_angle_deg=80.0)],
        ids=["area", "height"])
    def test_rejects_a_channel_gain_beyond_floating_point_range(self, params):
        message = "^detector_area .* channel gain beyond floating-point range$"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(params=params)
        with pytest.raises(ValueError, match=message):
            generate_scenario(seed=0, params=params)

    # xi (m+1) A g z^(m+1) overflowed, so the prefactor was 0 and every
    # scheme "feasible" at 0 W with rate and light 0; or the gain underflowed
    # to 0 while xi * P overflowed, and a served user's rate and light were
    # NaN
    @pytest.mark.parametrize("params,message", [
        (replace(default_params(), illum_factor=1.7e308),
         "^rate_threshold .* beyond floating-point range"),
        (replace(default_params(), detector_area=5e-324, illum_factor=1e200),
         "^detector_area .* xi \\* P \\* h beyond floating-point range$")],
        ids=["link_overflow", "gain_underflow"])
    def test_rejects_a_received_light_beyond_floating_point_range(
            self, monkeypatch, params, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(params=params)
        with pytest.raises(ValueError, match=message):
            generate_scenario(seed=0, params=params)
        runs = []
        monkeypatch.setattr(uavvlc.scenario, "_run_group", runs.append)
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(replace(ScenarioConfig(), params=params), 2)
        assert runs == []

    @settings(max_examples=200, deadline=None)
    @given(area=st.sampled_from([1e-320, 1e-100, 1e-4, 1.0, 1e100, 1.7e308]),
           xi=st.sampled_from([1e-320, 1e-100, 1.0, 1e100, 1e200, 1.7e308]),
           height=st.sampled_from([1e-100, 1e-3, 8.0, 1e50, 1e100]),
           noise=st.sampled_from([1e-320, 1e-10, 1.0, 1e100]),
           rate=st.sampled_from([0.0, 1e-40, 2.0, 100.0]),
           illum=st.sampled_from([0.0, 1e-300, 0.1, 1e100]))
    @example(area=1e-4, xi=1.7e308, height=8.0, noise=1e-10, rate=2.0,
             illum=0.1)
    @example(area=5e-324, xi=1e200, height=8.0, noise=1e-10, rate=2.0,
             illum=0.1)
    def test_accepted_links_serve_a_finite_positive_light(
            self, area, xi, height, noise, rate, illum):
        # every served user's xi * P * h is finite and positive, and its
        # rate and light are never NaN
        try:
            params = VlcParams(detector_area=area, refractive_index=1.5,
                               tx_semi_angle_deg=60.0, fov_semi_angle_deg=60.0,
                               noise_std=noise, illum_factor=xi,
                               uav_height=height)
            reqs = Requirements(rate, illum)
            config = ScenarioConfig(area_size=10.0, num_users=8, params=params,
                                    reqs=reqs)
        except ValueError:
            return
        sol = solve_scenario(config.scenario(0), "proposed")
        if not sol.feasible:
            return
        for report in per_user_report(sol, config.scenario(0).users, params):
            assert not math.isnan(report.achieved_rate)
            assert 0.0 < report.achieved_illum < math.inf

    def test_accepts_largest_area_whose_double_is_finite(self):
        area_size = sys.float_info.max / 2
        scenario = ScenarioConfig(area_size=area_size, num_users=2).scenario()
        assert all(math.isfinite(c) for r in scenario.sub_areas
                   for c in r.center())

    @pytest.mark.parametrize("grid", [(0, 2), (2, 0), (-1, 3)])
    def test_rejects_empty_grid(self, monkeypatch, grid):
        with pytest.raises(ValueError, match="^grid "):
            ScenarioConfig(grid=grid)
        runs = []
        monkeypatch.setattr(uavvlc.scenario, "_run_group", runs.append)
        with pytest.raises(ValueError, match="^grid "):
            run_monte_carlo(replace(ScenarioConfig(), grid=grid), 3)
        assert runs == []


class TestMonteCarlo:
    def test_single_run_matches_direct_solve(self):
        config = ScenarioConfig(base_seed=17)
        summary = run_monte_carlo(config, num_runs=1)
        sc = generate_scenario(seed=17)
        for scheme in SCHEMES:
            direct = solve_scenario(sc, scheme)
            assert summary.stats[scheme].totals == [direct.total_power]
            assert summary.stats[scheme].mean == direct.total_power
            assert summary.stats[scheme].std == 0.0

    def test_sa2_has_no_variance(self):
        summary = run_monte_carlo(ScenarioConfig(), num_runs=10,
                                  schemes=("sa2",))
        stats = summary.stats["sa2"]
        assert stats.std <= 1e-12 * stats.mean

    def test_worker_count_does_not_change_results(self):
        config = ScenarioConfig(base_seed=3)
        serial = run_monte_carlo(config, num_runs=8, workers=1)
        parallel = run_monte_carlo(config, num_runs=8, workers=2)
        for scheme in SCHEMES:
            assert serial.stats[scheme].totals == parallel.stats[scheme].totals
        assert serial.reductions == parallel.reductions

    def test_pool_starts_at_most_one_worker_per_run(self, monkeypatch):
        import concurrent.futures
        asked = []

        class Capped(concurrent.futures.ProcessPoolExecutor):
            # records the request, and forks at most 2 whatever it was
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Capped)
        config = ScenarioConfig()
        summary = run_monte_carlo(config, 2, workers=6)
        assert asked == [2]
        assert repr(astuple(summary)) == repr(astuple(run_monte_carlo(config, 2)))

    def test_reductions_do_not_depend_on_thresholds(self):
        # every scheme's power scales by the same constraint prefactor, so
        # percentage reductions are a pure function of the geometry
        weak = ScenarioConfig(reqs=Requirements(2.0, 0.1))
        strong = ScenarioConfig(reqs=Requirements(2.0, 0.6))
        a = run_monte_carlo(weak, num_runs=20)
        b = run_monte_carlo(strong, num_runs=20)
        for scheme in ("uavoo", "sa1", "sa2"):
            assert a.reductions[scheme] == pytest.approx(
                b.reductions[scheme], abs=1e-9)

    def test_reduction_ordering(self):
        summary = run_monte_carlo(ScenarioConfig(), num_runs=50)
        r = summary.reductions
        assert 0.0 < r["uavoo"] <= r["sa1"] <= r["sa2"] < 100.0

    def test_infeasible_runs_counted(self):
        low = ScenarioConfig(params=default_params(uav_height=2.0))
        summary = run_monte_carlo(low, num_runs=3, schemes=("sa2",))
        assert summary.stats["sa2"].infeasible_runs == 3
        assert summary.stats["sa2"].mean == math.inf

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_monte_carlo(ScenarioConfig(), num_runs=0)
        with pytest.raises(ValueError):
            run_monte_carlo(ScenarioConfig(), num_runs=1, schemes=("nope",))

    @pytest.mark.parametrize("schemes", [("proposed", "proposed", "sa1"),
                                         ("sa2", "uavoo", "sa2")])
    def test_rejects_a_repeated_scheme(self, schemes):
        # stats kept one entry per scheme while the runs solved it twice
        with pytest.raises(ValueError,
                           match=f"^scheme '{schemes[0]}' is repeated$"):
            run_monte_carlo_batches([ScenarioConfig()], 1, schemes)


class TestMonteCarloBatches:
    """Configs that differ only in params and reqs share each run's users,
    association and disks; every summary still equals its own
    run_monte_carlo."""

    # heights 2 and 8, a rate repeated, one config whose num_users keeps it
    # out of the group, and one at 8 m whose 45 degree FOV prunes other
    # greedy candidates than the 60 degree configs do
    CONFIGS = ([ScenarioConfig(base_seed=4, params=default_params(uav_height=h),
                               reqs=Requirements(rate, 0.1))
                for h in (2.0, 8.0) for rate in (2.5, 1.0, 2.5)]
               + [ScenarioConfig(base_seed=4, reqs=Requirements(1.0, 0.1),
                                 num_users=12),
                  ScenarioConfig(base_seed=4, reqs=Requirements(1.0, 0.1),
                                 params=replace(default_params(8.0),
                                                fov_semi_angle_deg=45.0))])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_run_monte_carlo_in_any_order(self, workers):
        expected = {id(c): repr(astuple(run_monte_carlo(c, 5)))
                    for c in self.CONFIGS}
        for order in range(3):
            configs = list(self.CONFIGS)
            random.Random(order).shuffle(configs)
            summaries = run_monte_carlo_batches(configs, 5, workers=workers)
            assert [repr(astuple(s)) for s in summaries] == [
                expected[id(c)] for c in configs]

    def test_schemes_subset_and_order(self):
        schemes = ("sa2", "proposed")
        summaries = run_monte_carlo_batches(self.CONFIGS[:3], 4, schemes)
        for config, summary in zip(self.CONFIGS[:3], summaries):
            assert summary.schemes == schemes
            assert repr(astuple(summary)) == repr(astuple(
                run_monte_carlo(config, 4, schemes)))


class TestSedTable:
    """A Scenario keeps the SED centers of the clusters last located over
    its users, so a solve redoes no disk that the association before it
    held, and every solve over one user draw, single or batched, reuses
    disks by that rule."""

    @staticmethod
    def count_seds(monkeypatch):
        calls = [0]
        sed = uavvlc.optimizer.smallest_enclosing_disk

        def counted(*args, **kwargs):
            calls[0] += 1
            return sed(*args, **kwargs)
        monkeypatch.setattr(uavvlc.optimizer, "smallest_enclosing_disk", counted)
        return calls

    @pytest.mark.parametrize("height", [8.0, 12.0])
    def test_single_solves_make_the_batchs_calls(self, monkeypatch, height):
        calls = self.count_seds(monkeypatch)
        config = ScenarioConfig(base_seed=3, params=default_params(height))
        for k in range(100):
            scenario = config.scenario(k)
            for scheme in SCHEMES:
                solve_scenario(scenario, scheme)
                assert len(scenario._centers) <= len(scenario.sub_areas)
        singles, calls[0] = calls[0], 0
        run_monte_carlo(config, 100)
        assert singles == calls[0] > 0

    def test_two_heights_share_their_starts(self, monkeypatch):
        # both heights start from the geographic clusters, so the second
        # start solves no disk: 7.82 calls per run, where laying out each
        # height's start just before its descent made 11.7
        calls = self.count_seds(monkeypatch)
        run_monte_carlo_batches(
            [ScenarioConfig(base_seed=3, params=default_params(h))
             for h in (8.0, 12.0)], 200)
        assert 0 < calls[0] <= 7.85 * 200


class TestMeanStd:
    """The Monte Carlo statistics equal numpy's float64 mean and ddof=1 std
    bit for bit: the stored benchmark outputs were written with them."""

    @staticmethod
    def assert_matches_numpy(xs):
        mean, std = _mean_std(xs)
        assert mean == float(np.mean(xs))
        if len(xs) > 1:
            assert std == float(np.std(xs, ddof=1))
        else:
            assert std == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e12),
                    min_size=1, max_size=300))
    def test_matches_numpy(self, xs):
        self.assert_matches_numpy(xs)

    # the edges of the 8-wide unrolled block, of the 128-item block and of
    # the recursive split, and one length past numpy's 8192-item buffer
    @pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129, 136, 1000, 8193])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_numpy_at_block_edges(self, n, seed):
        rnd = random.Random(seed)
        self.assert_matches_numpy(
            [min(1e12, rnd.random() * 10.0 ** rnd.uniform(-3.0, 12.0))
             for _ in range(n)])

    def test_totals_near_the_double_range_stay_finite(self):
        # each total is finite, but the float64 sums overflowed: three means
        # and every std read inf, even sa2's over two equal totals
        mean, std = _mean_std([9.39e307, 9.40e307])
        assert mean == pytest.approx(9.395e307, rel=1e-15)
        assert std == pytest.approx(math.sqrt(0.5) * 1e305, rel=1e-12)
        summary = run_monte_carlo(
            ScenarioConfig(area_size=1.0, reqs=Requirements(2.0, 3.5e301)), 2)
        for scheme, stats in summary.stats.items():
            assert stats.infeasible_runs == 0
            assert math.isfinite(stats.mean) and math.isfinite(stats.std), scheme
            assert min(stats.totals) <= stats.mean <= max(stats.totals)
        assert summary.stats["sa2"].std == 0.0
        assert set(summary.reductions) == {"uavoo", "sa1", "sa2"}

    def test_package_imports_without_numpy(self):
        code = ("import sys; sys.modules['numpy'] = None; "
                "import uavvlc, uavvlc.cli")
        src = str(Path(uavvlc.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", code], cwd=src,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_package_runs_without_mpmath(self):
        # mpmath is only the tests' oracle for the link constants
        code = ("import sys; sys.modules['mpmath'] = None; "
                "import uavvlc, uavvlc.cli; "
                "s = uavvlc.generate_scenario(seed=0); "
                "assert uavvlc.solve_scenario(s, 'proposed').feasible")
        src = str(Path(uavvlc.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", code], cwd=src,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_package_imports_without_multiprocessing(self):
        # only a Monte Carlo batch with workers > 1 needs a process pool
        code = ("import sys, uavvlc, uavvlc.cli; "
                "assert 'multiprocessing' not in sys.modules")
        src = str(Path(uavvlc.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", code], cwd=src,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestDefaults:
    def test_default_requirements(self):
        reqs = default_requirements()
        assert reqs.rate_threshold == RATE_REQ
        assert reqs.illum_threshold == ILLUM_REQ

    def test_default_params_shape(self):
        p = default_params()
        assert p.uav_height == 8.0
        assert p.lambertian_m == 1.0
        assert p.fov_gain == 3.0
