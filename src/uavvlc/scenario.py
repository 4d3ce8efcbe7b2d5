"""Scenario generation, per-user reporting, and Monte Carlo aggregation.

A scenario is a square service area split into a uniform grid of
rectangular sub-areas (one UAV each) plus user positions drawn i.i.d.
uniform over the area.  Draws come from Python's ``random.Random``
(Mersenne Twister), x before y for each user in index order, so a seed
fully determines a scenario on every platform.  Monte Carlo runs use
seeds ``base_seed + run_index`` and aggregate in run order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .channel import (Requirements, VlcParams, capacity_lower_bound,
                      channel_gain)
from .geometry import Point2, Rect
from .optimizer import (DeploymentSolution, baseline_sa1, baseline_sa2,
                        baseline_uavoo, optimize)

SCHEMES = ("proposed", "uavoo", "sa1", "sa2")


def default_params(uav_height: float = 8.0, noise_std: float = 1e-10,
                   illum_factor: float = 1.0) -> VlcParams:
    """Wide-beam LED defaults: 1 cm^2 detector, n_r = 1.5, 60 degree angles."""
    return VlcParams(
        detector_area=1e-4, refractive_index=1.5,
        tx_semi_angle_deg=60.0, fov_semi_angle_deg=60.0,
        noise_std=noise_std, illum_factor=illum_factor, uav_height=uav_height)


def default_requirements() -> Requirements:
    return Requirements(rate_threshold=2.0, illum_threshold=0.1)


def make_grid(area: Rect, grid_x: int, grid_y: int) -> list[Rect]:
    """Split area into grid_x * grid_y equal rectangles, row-major from y0."""
    if grid_x < 1 or grid_y < 1:
        raise ValueError("grid dimensions must be >= 1")
    dx = area.width / grid_x
    dy = area.height / grid_y
    return [Rect(area.x0 + ix * dx, area.y0 + iy * dy,
                 area.x0 + (ix + 1) * dx, area.y0 + (iy + 1) * dy)
            for iy in range(grid_y) for ix in range(grid_x)]


@dataclass(frozen=True)
class Scenario:
    area: Rect
    sub_areas: tuple[Rect, ...]
    users: tuple[Point2, ...]
    seed: int
    params: VlcParams
    reqs: Requirements


def generate_scenario(seed: int, area_size: float = 10.0,
                      grid: tuple[int, int] = (2, 2), num_users: int = 16,
                      params: Optional[VlcParams] = None,
                      reqs: Optional[Requirements] = None) -> Scenario:
    """Uniform users over a [0, area_size]^2 square with a grid of sub-areas."""
    if not 0.0 < area_size < math.inf:
        raise ValueError("area_size must be finite and > 0")
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    area = Rect(0.0, 0.0, float(area_size), float(area_size))
    rng = random.Random(seed)
    users = tuple(Point2(rng.uniform(0.0, area_size), rng.uniform(0.0, area_size))
                  for _ in range(num_users))
    return Scenario(area=area, sub_areas=tuple(make_grid(area, *grid)),
                    users=users, seed=seed,
                    params=params if params is not None else default_params(),
                    reqs=reqs if reqs is not None else default_requirements())


def solve_scenario(scenario: Scenario, scheme: str, max_iters: int = 20,
                   rel_tol: float = 1e-9) -> DeploymentSolution:
    """Run one scheme on one scenario."""
    users, params, reqs = scenario.users, scenario.params, scenario.reqs
    sub_areas = scenario.sub_areas
    if scheme == "proposed":
        centers = [r.center() for r in sub_areas]
        return optimize(users, centers, params, reqs,
                        max_iters=max_iters, rel_tol=rel_tol)
    if scheme == "uavoo":
        return baseline_uavoo(users, sub_areas, params, reqs)
    if scheme == "sa1":
        return baseline_sa1(users, sub_areas, params, reqs)
    if scheme == "sa2":
        return baseline_sa2(sub_areas, params, reqs)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass(frozen=True)
class UserReport:
    user_index: int
    achieved_rate: float     # bits per transmission
    achieved_illum: float    # xi * P * h
    serving_uav: int


def per_user_report(solution: DeploymentSolution,
                    users: Sequence[Sequence[float]],
                    params: VlcParams,
                    reqs: Requirements) -> list[UserReport]:
    """Rate and illumination actually received by each user."""
    if not solution.feasible:
        raise ValueError("per-user reports require a feasible solution")
    labels = solution.association.labels(len(users))
    reports = []
    for j, u in enumerate(users):
        i = labels[j]
        h = channel_gain(solution.uav_positions[i], u, params)
        p = solution.per_uav_power[i]
        reports.append(UserReport(
            user_index=j,
            achieved_rate=capacity_lower_bound(p, h, params),
            achieved_illum=params.illum_factor * p * h,
            serving_uav=i))
    return reports


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to regenerate a family of scenarios."""

    area_size: float = 10.0
    grid: tuple[int, int] = (2, 2)
    num_users: int = 16
    base_seed: int = 0
    params: VlcParams = field(default_factory=default_params)
    reqs: Requirements = field(default_factory=default_requirements)
    max_iters: int = 20
    rel_tol: float = 1e-9

    def scenario(self, run_index: int = 0) -> Scenario:
        """The family's scenario number run_index, seeded base_seed + run_index."""
        return generate_scenario(self.base_seed + run_index, self.area_size,
                                 self.grid, self.num_users, self.params,
                                 self.reqs)


@dataclass
class SchemeStats:
    scheme: str
    totals: list[float]          # feasible-run totals, run order
    mean: float
    std: float                   # sample std; 0 for a single run
    infeasible_runs: int


@dataclass
class MonteCarloSummary:
    config: ScenarioConfig
    num_runs: int
    schemes: tuple[str, ...]
    stats: dict[str, SchemeStats]
    reductions: dict[str, float]    # % mean power saved by proposed vs baseline


def _run_one(args) -> dict[str, tuple[float, bool]]:
    config, run_index, schemes = args
    scenario = config.scenario(run_index)
    out = {}
    for scheme in schemes:
        sol = solve_scenario(scenario, scheme,
                             max_iters=config.max_iters, rel_tol=config.rel_tol)
        out[scheme] = (sol.total_power, sol.feasible)
    return out


def _pairwise_sum(xs: Sequence[float]) -> float:
    """Sum of xs in pairwise order: halves split at a multiple of 8 down to
    blocks of at most 128, each summed by 8 interleaved accumulators.

    The montecarlo and sweep bytes pinned in bench/reference.json were
    written with this float64 summation order, and the means and stds
    change in their last digits under any other (statistics.fmean,
    math.fsum, a left-to-right sum), so the order is kept exactly.
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:    # not sum(): from Python 3.12 it compensates floats
            total += x
        return total
    if n <= 128:
        r = list(xs[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for k in range(8):
                r[k] += xs[i + k]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[tail:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def _mean_std(xs: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for one value) of non-empty xs."""
    n = len(xs)
    mean = _pairwise_sum(xs) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(_pairwise_sum([(x - mean) * (x - mean)
                                          for x in xs]) / (n - 1))


def run_monte_carlo(config: ScenarioConfig, num_runs: int,
                    schemes: Sequence[str] = SCHEMES,
                    workers: int = 1) -> MonteCarloSummary:
    """Repeat every scheme over num_runs seeded scenarios and aggregate.

    Means and standard deviations cover feasible runs only; infeasible
    runs are counted per scheme, never silently dropped.  Results are
    identical for any worker count because runs are aggregated in seed
    order.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    jobs = [(config, k, tuple(schemes)) for k in range(num_runs)]
    if workers > 1:
        # imported here: it pulls in multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs, chunksize=32))
    else:
        results = [_run_one(job) for job in jobs]

    stats: dict[str, SchemeStats] = {}
    for scheme in schemes:
        totals = [res[scheme][0] for res in results if res[scheme][1]]
        infeasible = num_runs - len(totals)
        if totals:
            mean, std = _mean_std(totals)
        else:
            mean, std = math.inf, 0.0
        stats[scheme] = SchemeStats(scheme, totals, mean, std, infeasible)

    reductions: dict[str, float] = {}
    if "proposed" in stats:
        p_mean = stats["proposed"].mean
        for scheme in schemes:
            if scheme != "proposed" and math.isfinite(stats[scheme].mean) \
                    and stats[scheme].mean > 0.0:
                reductions[scheme] = 100.0 * (1.0 - p_mean / stats[scheme].mean)
    return MonteCarloSummary(config=config, num_runs=num_runs,
                             schemes=tuple(schemes), stats=stats,
                             reductions=reductions)
