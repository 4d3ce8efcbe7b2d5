import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavvlc
from uavvlc.channel import Requirements, constraint_coefficients
from uavvlc.geometry import Rect
from uavvlc.scenario import (SCHEMES, ScenarioConfig, _mean_std,
                             default_params, default_requirements,
                             generate_scenario, make_grid, per_user_report,
                             run_monte_carlo, solve_scenario)

RATE_REQ = 2.0
ILLUM_REQ = 0.1


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
            assert any(r.contains(p) for r in grid)

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
        assert sc.num_uavs == 8


class TestSolveScenario:
    def test_unknown_scheme(self):
        sc = generate_scenario(seed=0)
        with pytest.raises(ValueError):
            solve_scenario(sc, "sa3")

    def test_all_schemes_feasible_at_default_height(self):
        sc = generate_scenario(seed=1)
        for scheme in SCHEMES:
            sol = solve_scenario(sc, scheme)
            assert sol.feasible
            assert math.isfinite(sol.total_power)


class TestPerUserReport:
    def test_thresholds_met_everywhere(self):
        for seed in range(20):
            sc = generate_scenario(seed=seed)
            for scheme in ("proposed", "uavoo", "sa1"):
                sol = solve_scenario(sc, scheme)
                for rep in per_user_report(sol, sc.users, sc.params, sc.reqs):
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
        reports = per_user_report(sol, sc.users, sc.params, sc.reqs)
        slack = []
        for rep in reports:
            value = (rep.achieved_rate if binding is RATE_REQ
                     else rep.achieved_illum)
            slack.append(value / binding - 1.0)
        assert min(slack) == pytest.approx(0.0, abs=1e-9)

    def test_farthest_user_has_cluster_minimum(self):
        sc = generate_scenario(seed=8)
        sol = solve_scenario(sc, "proposed")
        reports = per_user_report(sol, sc.users, sc.params, sc.reqs)
        for i, cluster in enumerate(sol.association.clusters):
            if len(cluster) < 2:
                continue
            px, py = sol.uav_positions[i]
            far = max(cluster, key=lambda j: math.hypot(px - sc.users[j].x,
                                                        py - sc.users[j].y))
            worst = min(reports[j].achieved_rate for j in cluster)
            assert reports[far].achieved_rate == pytest.approx(worst,
                                                               rel=1e-12)

    def test_requires_feasible_solution(self):
        low = default_params(uav_height=2.0)
        sc = generate_scenario(seed=0, params=low)
        sol = solve_scenario(sc, "sa2")
        assert not sol.feasible
        with pytest.raises(ValueError):
            per_user_report(sol, sc.users, sc.params, sc.reqs)


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

    def test_package_imports_without_numpy(self):
        code = ("import sys; sys.modules['numpy'] = None; "
                "import uavvlc, uavvlc.cli")
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
