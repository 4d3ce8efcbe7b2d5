"""Scenario generation, per-user reporting, and Monte Carlo aggregation.

A scenario is a square service area split into a uniform grid of
rectangular sub-areas (one UAV each) plus user positions drawn i.i.d.
uniform over the area.  Draws come from Python's ``random.Random``
(Mersenne Twister), x before y for each user in index order, so a seed
fully determines a scenario on every platform.  Monte Carlo runs use
seeds ``base_seed + run_index`` and aggregate in run order.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional, Sequence

from .assignment import CellAssociation
from .channel import (Requirements, VlcParams, _unit_power,
                      capacity_lower_bound, channel_gain,
                      constraint_coefficients, min_power_for_radius)
from .geometry import Point2, Rect
from .optimizer import (MAX_ITERS, REL_TOL, DeploymentSolution, _descend,
                        _Layout, _priced, _start, _total,
                        geographic_association)

SCHEMES = ("proposed", "uavoo", "sa1", "sa2")


def default_params(uav_height: float = 8.0) -> VlcParams:
    """Wide-beam LED defaults: 1 cm^2 detector, n_r = 1.5, 60 degree angles."""
    return VlcParams(detector_area=1e-4, refractive_index=1.5,
                     tx_semi_angle_deg=60.0, fov_semi_angle_deg=60.0,
                     uav_height=uav_height)


def default_requirements() -> Requirements:
    return Requirements(rate_threshold=2.0, illum_threshold=0.1)


def make_grid(area: Rect, grid_x: int, grid_y: int) -> list[Rect]:
    """Split area into grid_x * grid_y equal rectangles, row-major from y0."""
    if not (grid_x >= 1 and grid_y >= 1):
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

    @functools.cached_property
    def _layouts(self) -> dict[str, _Layout]:
        # per instance, as equal scenarios may differ in sign bits (0.0 == -0.0)
        return _fixed_layouts(
            self.users, self.sub_areas, self.params,
            geographic_association(self.users, self.sub_areas), None)


def _fixed_layouts(users: Sequence[Point2], sub_areas: Sequence[Rect],
                   params: VlcParams, association: CellAssociation,
                   centers: Optional[dict[tuple[int, ...], Point2]]
                   ) -> dict[str, _Layout]:
    # Each fixed scheme's layout at any thresholds, sa1 and uavoo where
    # proposed starts; centers as _start reads it.  Under sa2 each UAV at its
    # sub-area center pays for the corner, users or not, so every cluster
    # stays empty
    positions = [r.center() for r in sub_areas]
    sa1, uavoo = _start(users, positions, association, params, centers)
    sa2 = _Layout(positions, CellAssociation([[] for _ in positions]),
                  [_unit_power(r.half_diagonal(), params) for r in sub_areas])
    return {"sa1": sa1, "uavoo": uavoo, "sa2": sa2}


def _check_layout(area_size: float, num_users: int, params: VlcParams,
                  reqs: Requirements, cells: int) -> None:
    # NaN fails each comparison; x0 + x1 of a sub-area is <= 2 * area_size
    if not (0.0 < area_size and 2.0 * area_size < math.inf):
        raise ValueError("area_size must be > 0 with 2 * area_size finite")
    if not num_users >= 1:
        raise ValueError("num_users must be >= 1")
    # A user's rate needs a finite gain, largest at nadir; named before the
    # power, as a detector_area that overflows the gain may overflow n_const.
    z = params.uav_height
    gain_error = ValueError(f"detector_area {params.detector_area!r} at height "
                            f"{z!r} m puts the channel gain beyond "
                            f"floating-point range")
    if z * z > 0.0 and not channel_gain((0, 0), (0, 0), params) < math.inf:
        raise gain_error
    # The largest power any run can ask for: users and UAV positions lie in
    # the area, so no priced cell reaches past its diagonal or the FOV ground
    # radius, and power grows with both the distance and the thresholds.  A
    # total sums one power (or unit power) per cell, each at most this one.
    radius = min(params.fov_ground_radius, area_size * math.sqrt(2.0))
    try:
        coeffs = constraint_coefficients(params, reqs)
        power = min_power_for_radius(radius, coeffs, params)
    except OverflowError:    # no positive finite prefactor
        power = math.inf
    if not cells * power < math.inf:
        raise ValueError(
            f"rate_threshold {reqs.rate_threshold!r} bits with illum_threshold "
            f"{reqs.illum_threshold!r} at height {z!r} m over {cells} cells puts "
            f"the total transmit power or the link budget beyond floating-point range")
    if not cells * _unit_power(radius, params) < math.inf:
        raise ValueError(f"uav_height {z!r} m over {cells} cells puts the total "
                         f"unit power (r^2 + z^2)^((m + 3) / 2) beyond "
                         f"floating-point range")
    if not z * z > 0.0:
        raise gain_error
    # What a served user receives, xi * P * h as per_user_report computes it,
    # lies between the largest power at the nadir gain and the smallest power
    # at the gain of the farthest reachable user: both finite and positive.
    for r_power, r_gain in ((radius, 0.0), (0.0, radius)):
        light = (params.illum_factor * min_power_for_radius(r_power, coeffs, params)
                 * channel_gain((0.0, 0.0), (r_gain, 0.0), params))
        if not 0.0 < light < math.inf:
            raise ValueError(
                f"detector_area {params.detector_area!r} with illum_factor "
                f"{params.illum_factor!r} at height {z!r} m puts the received "
                f"xi * P * h beyond floating-point range")


def generate_scenario(seed: int, area_size: float = 10.0,
                      grid: tuple[int, int] = (2, 2), num_users: int = 16,
                      params: Optional[VlcParams] = None,
                      reqs: Optional[Requirements] = None) -> Scenario:
    """Uniform users over a [0, area_size]^2 square with a grid of sub-areas;
    rejects a layout or thresholds as ScenarioConfig does."""
    params = params if params is not None else default_params()
    reqs = reqs if reqs is not None else default_requirements()
    return ScenarioConfig(area_size, grid, num_users, seed, params, reqs).scenario()


def solve_scenario(scenario: Scenario, scheme: str, max_iters: int = MAX_ITERS,
                   rel_tol: float = REL_TOL) -> DeploymentSolution:
    """Run one scheme on one scenario.

    sa1 and uavoo are proposed's first two states, and sa2 a layout that
    reads no user: each scenario computes them once and returns copies,
    equal to a fresh instance's solve and to optimize(users, centers) to
    the bit whatever the order of the calls.

    max_iters and rel_tol, the descent's round cap and relative-improvement
    floor, default to the ones every Monte Carlo run uses; a max_iters
    below 1 or a rel_tol not finite and >= 0 raises ValueError."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    prefactor = constraint_coefficients(scenario.params, scenario.reqs).prefactor
    return _priced(*_scheme_layout(scenario.users, scenario._layouts, scheme,
                                   scenario.params, max_iters, rel_tol, None),
                   prefactor)


def _scheme_layout(users: Sequence[Point2], layouts: dict[str, _Layout],
                   scheme: str, params: VlcParams, max_iters: int,
                   rel_tol: float,
                   centers: Optional[dict[tuple[int, ...], Point2]]
                   ) -> tuple[_Layout, list[tuple[str, list[float]]]]:
    # proposed descends from sa1's and uavoo's layouts, relocating through
    # centers, and every other scheme is one of the fixed layouts.
    if scheme == "proposed":
        return _descend(users, (layouts["sa1"], layouts["uavoo"]), params,
                        max_iters, rel_tol, centers)
    return layouts[scheme], [(scheme, layouts[scheme].units)]


@dataclass(frozen=True)
class UserReport:
    user_index: int
    achieved_rate: float     # bits per transmission
    achieved_illum: float    # xi * P * h
    serving_uav: int


def per_user_report(solution: DeploymentSolution,
                    users: Sequence[Sequence[float]],
                    params: VlcParams) -> list[UserReport]:
    """Rate and illumination actually received by each user.

    Raises ValueError naming the first user whose received xi * P * h is
    not a finite double, where its rate and light would read inf or NaN."""
    if not solution.feasible:
        raise ValueError("per-user reports require a feasible solution")
    labels = solution.association.labels(len(users))
    reports = []
    for j, u in enumerate(users):
        i = labels[j]
        h = channel_gain(solution.uav_positions[i], u, params)
        p = solution.per_uav_power[i]
        light = params.illum_factor * p * h
        if not light < math.inf:    # NaN fails it
            raise ValueError(f"user {j} receives xi * P * h = {light!r}, "
                             f"beyond floating-point range")
        reports.append(UserReport(
            user_index=j,
            achieved_rate=capacity_lower_bound(p, h, params),
            achieved_illum=light,
            serving_uav=i))
    return reports


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to regenerate a family of scenarios; construction
    rejects a bad area_size, grid, num_users or base_seed, and thresholds
    whose power at the farthest reachable user overflows or underflows to
    0, or whose sum over the grid's cells overflows.  The descent's round
    cap and floor, max_iters and rel_tol, are the same for every family."""

    area_size: float = 10.0
    grid: tuple[int, int] = (2, 2)
    num_users: int = 16
    base_seed: int = 0
    params: VlcParams = field(default_factory=default_params)
    reqs: Requirements = field(default_factory=default_requirements)
    max_iters: ClassVar[int] = MAX_ITERS
    rel_tol: ClassVar[float] = REL_TOL

    def __post_init__(self):
        _check_layout(self.area_size, self.num_users, self.params, self.reqs,
                      len(self._grid[1]))    # make_grid rejects a bad grid
        if not self.base_seed >= 0:     # Random(-k) draws as Random(k) does
            raise ValueError("base_seed must be >= 0")

    @functools.cached_property
    def _grid(self) -> tuple[Rect, tuple[Rect, ...]]:
        # the area and its sub-areas, the same in every scenario of the family
        area = Rect(0.0, 0.0, float(self.area_size), float(self.area_size))
        return area, tuple(make_grid(area, *self.grid))

    def scenario(self, run_index: int = 0) -> Scenario:
        """The family's scenario number run_index, seeded base_seed + run_index."""
        seed = self.base_seed + run_index
        if seed < 0:
            raise ValueError(f"base_seed + run_index must be >= 0, got {seed}")
        rng, size = random.Random(seed), self.area_size
        users = tuple(Point2(rng.uniform(0.0, size), rng.uniform(0.0, size))
                      for _ in range(self.num_users))
        return Scenario(*self._grid, users, seed, self.params, self.reqs)


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


def _run_group(args) -> list[tuple[Optional[float], ...]]:
    # One seeded run of configs equal but for params and reqs: per config,
    # each scheme's total power, or None where infeasible.  They share the
    # run's users, its geographic association and the SED center of every
    # cluster, which read no link parameter; each distinct params solves its
    # layouts once, and each reqs prices them.  Tuples keep the per-run
    # results small.
    configs, run_index, schemes = args
    scenario = configs[0].scenario(run_index)
    users, sub_areas = scenario.users, scenario.sub_areas
    association = geographic_association(users, sub_areas)
    # The SED-center table lives for one run, whose links all cluster the
    # same users.  A single solve keeps none: there the table would keep the
    # key of every round's clusters, which raised the peak memory of a
    # 10 000-user solve by about 18 %.
    centers: dict[tuple[int, ...], Point2] = {}
    units: dict[VlcParams, list[list[float]]] = {}
    results = []
    for config in configs:
        params = config.params
        if params not in units:
            layouts = _fixed_layouts(users, sub_areas, params, association,
                                     centers)
            units[params] = [
                _scheme_layout(users, layouts, scheme, params, MAX_ITERS,
                               REL_TOL, centers)[0].units
                for scheme in schemes]
        prefactor = constraint_coefficients(params, config.reqs).prefactor
        totals = [_total([prefactor * x for x in u]) for u in units[params]]
        results.append(tuple(t if t < math.inf else None for t in totals))
    return results


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
    """Mean and sample standard deviation (0 for one value) of non-empty xs.
    Where finite xs overflow either sum, the same sums run on xs over their
    largest magnitude and the results are scaled back."""
    n = len(xs)
    mean = _pairwise_sum(xs) / n
    std = 0.0 if n == 1 else math.sqrt(
        _pairwise_sum([(x - mean) * (x - mean) for x in xs]) / (n - 1))
    if math.isfinite(mean) and math.isfinite(std) \
            or not all(map(math.isfinite, xs)):
        return mean, std
    scale = max(map(abs, xs))
    mean, std = _mean_std([x / scale for x in xs])
    return mean * scale, std * scale


def run_monte_carlo(config: ScenarioConfig, num_runs: int,
                    schemes: Sequence[str] = SCHEMES,
                    workers: int = 1) -> MonteCarloSummary:
    """Repeat every scheme over num_runs seeded scenarios and aggregate.

    Means and standard deviations cover feasible runs only; infeasible
    runs are counted per scheme, never silently dropped.  Results are
    identical for any worker count because runs are aggregated in seed
    order.  The one-config case of run_monte_carlo_batches.
    """
    return run_monte_carlo_batches([config], num_runs, schemes, workers)[0]


def run_monte_carlo_batches(configs: Sequence[ScenarioConfig], num_runs: int,
                            schemes: Sequence[str] = SCHEMES,
                            workers: int = 1) -> list[MonteCarloSummary]:
    """run_monte_carlo for each config, in order, from one worker pool.

    Configs equal but for params and reqs draw the same scenarios.  Each run
    of such a group draws its users once and shares their geographic
    association and the smallest enclosing disk of every cluster, which
    read no link parameter; each distinct params solves its layouts once,
    and since the thresholds enter a solve only through the power
    prefactor, every reqs is priced from them.  Each summary equals
    run_monte_carlo(config, ...) bit for bit.  An unknown or repeated
    scheme raises ValueError.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    schemes = tuple(schemes)
    for k, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if scheme in schemes[:k]:    # the stats keep one entry per scheme
            raise ValueError(f"scheme {scheme!r} is repeated")
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        key = tuple(getattr(config, f.name) for f in fields(config)
                    if f.name not in ("params", "reqs"))
        groups.setdefault(key, []).append(index)
    summaries: list[MonteCarloSummary] = [None] * len(configs)
    with contextlib.ExitStack() as stack:
        run_all = map
        if workers > 1:
            # imported here: it pulls in multiprocessing, which serial runs never use
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            run_all = functools.partial(pool.map, chunksize=32)
        # one group at a time, so only one group's per-run results are held
        for members in groups.values():
            group = tuple(configs[i] for i in members)
            results = list(run_all(_run_group,
                                   [(group, k, schemes) for k in range(num_runs)]))
            for position, index in enumerate(members):
                summaries[index] = _summarize(
                    configs[index], num_runs, schemes,
                    [result[position] for result in results])
    return summaries


def _summarize(config: ScenarioConfig, num_runs: int, schemes: tuple[str, ...],
               results: list[tuple[Optional[float], ...]]) -> MonteCarloSummary:
    stats: dict[str, SchemeStats] = {}
    for column, scheme in enumerate(schemes):
        totals = [res[column] for res in results if res[column] is not None]
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
                             schemes=schemes, stats=stats,
                             reductions=reductions)
