"""Command-line front end.

Four modes: ``single`` solves one seeded scenario and writes a JSON record
plus per-user CSVs; ``montecarlo`` aggregates many runs at fixed
thresholds; ``sweep`` tabulates mean power versus the rate threshold for
each height and scheme; ``fig4`` emits per-user rate/illumination tables
for two threshold cases.  Configuration comes from an optional flat
key=value file overridden by flags; everything is deterministic given the
config, so repeated invocations produce byte-identical outputs.

Exit codes: 0 all requested runs feasible, 2 some run infeasible,
1 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, get_type_hints

from .channel import (Requirements, VlcParams, constraint_coefficients,
                      min_power_for_radius)
from .optimizer import DeploymentSolution
from .scenario import (SCHEMES, MonteCarloSummary, Scenario, ScenarioConfig,
                       per_user_report, run_monte_carlo, solve_scenario)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2

PER_USER_COLUMNS = ["user_index", "x_m", "y_m", "serving_uav",
                    "achieved_rate_bits", "achieved_illum",
                    "rate_threshold", "illum_threshold"]
SWEEP_COLUMNS = ["axis_name", "axis_value", "scheme", "height_m",
                 "mean_total_power_w", "std_total_power_w", "runs"]
MC_COLUMNS = ["scheme", "height_m", "mean_total_power_w",
              "std_total_power_w", "runs", "infeasible_runs"]


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass
class RunConfig:
    mode: str = "single"
    seed: int = 0
    runs: int = 100
    users: int = 16
    area_size: float = 10.0
    grid: tuple[int, int] = (2, 2)
    heights: list[float] = field(default_factory=lambda: [8.0])
    detector_area_m2: float = 1e-4
    refractive_index: float = 1.5
    tx_semi_angle_deg: float = 60.0
    fov_semi_angle_deg: float = 60.0
    noise_std_a: float = 1e-10
    illum_factor: float = 1.0
    rate_threshold_bits: float = 2.0
    illum_threshold: float = 0.1
    cth_sweep: tuple[float, float, float] = (1.0, 3.0, 0.5)
    schemes: list[str] = field(default_factory=lambda: list(SCHEMES))
    out: str = "results"
    max_iters: int = 20
    rel_tol: float = 1e-9

    def params_at(self, height: float) -> VlcParams:
        return VlcParams(
            detector_area=self.detector_area_m2,
            refractive_index=self.refractive_index,
            tx_semi_angle_deg=self.tx_semi_angle_deg,
            fov_semi_angle_deg=self.fov_semi_angle_deg,
            noise_std=self.noise_std_a,
            illum_factor=self.illum_factor,
            uav_height=height)


def _parse_int(field_name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{field_name}: expected an integer, got {raw!r}") from None


def _parse_float(field_name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{field_name}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{field_name}: expected a finite number, got {raw!r}")
    return value


def _parse_grid(raw: str) -> tuple[int, int]:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid: expected KXxKY like 2x2, got {raw!r}")
    gx, gy = (_parse_int("grid", p) for p in parts)
    if gx < 1 or gy < 1:
        raise ConfigError("grid: both dimensions must be >= 1")
    return gx, gy


def _parse_heights(raw: str) -> list[float]:
    values = [_parse_float("heights", p) for p in raw.split(",") if p.strip()]
    if not values:
        raise ConfigError("heights: empty list")
    return values


def _parse_sweep(raw: str) -> tuple[float, float, float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"cth_sweep: expected FROM:TO:STEP, got {raw!r}")
    return tuple(_parse_float("cth_sweep", p) for p in parts)


def _parse_schemes(raw: str) -> list[str]:
    names = [p.strip() for p in raw.split(",") if p.strip()]
    if not names:
        raise ConfigError("schemes: empty list")
    for name in names:
        if name not in SCHEMES:
            raise ConfigError(
                f"schemes: unknown scheme {name!r}; expected from {SCHEMES}")
    return names


# RunConfig fields with their own syntax; every other field parses by its
# declared type.  Config-file keys and flags both go through _parse_field.
_FIELD_TYPES = get_type_hints(RunConfig)
_SPECIAL_PARSERS = {"grid": _parse_grid, "heights": _parse_heights,
                    "cth_sweep": _parse_sweep, "schemes": _parse_schemes}
_TYPE_PARSERS = {int: _parse_int, float: _parse_float}


def _parse_field(name: str, raw: str):
    if name in _SPECIAL_PARSERS:
        return _SPECIAL_PARSERS[name](raw)
    parse = _TYPE_PARSERS.get(_FIELD_TYPES[name])
    return parse(name, raw) if parse is not None else raw


def apply_config_file(cfg: RunConfig, path: str) -> None:
    """Apply key=value lines; '#' starts a comment, blank lines skipped."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"config: cannot read {path!r}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config {path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"config {path}:{lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_field(key, value))


def validate_config(cfg: RunConfig) -> None:
    if cfg.mode not in ("single", "sweep", "montecarlo", "fig4"):
        raise ConfigError(f"mode: unknown mode {cfg.mode!r}")
    positive = [("runs", cfg.runs), ("users", cfg.users),
                ("area_size", cfg.area_size),
                ("detector_area_m2", cfg.detector_area_m2),
                ("refractive_index", cfg.refractive_index),
                ("noise_std_a", cfg.noise_std_a),
                ("illum_factor", cfg.illum_factor),
                ("max_iters", cfg.max_iters)]
    positive += [("heights", h) for h in cfg.heights]
    # each comparison is written so that NaN fails it
    for name, value in positive:
        if not 0 < value < math.inf:
            raise ConfigError(f"{name}: must be finite and > 0, got {value}")
    if not 0.0 < cfg.tx_semi_angle_deg < 90.0:
        raise ConfigError("tx_semi_angle_deg: must be in (0, 90)")
    if not 0.0 < cfg.fov_semi_angle_deg <= 90.0:
        raise ConfigError("fov_semi_angle_deg: must be in (0, 90]")
    if not (0.0 <= cfg.rate_threshold_bits < math.inf
            and 0.0 <= cfg.illum_threshold < math.inf):
        raise ConfigError("thresholds: must be finite and >= 0")
    if cfg.rate_threshold_bits == 0.0 and cfg.illum_threshold == 0.0:
        raise ConfigError("thresholds: at least one of rate_threshold_bits/"
                          "illum_threshold must be > 0")
    if not 0.0 <= cfg.rel_tol < math.inf:
        raise ConfigError("rel_tol: must be finite and >= 0")
    lo, hi, step = cfg.cth_sweep
    if not (0.0 <= lo <= hi < math.inf and 0.0 < step < math.inf):
        raise ConfigError("cth_sweep: need finite 0 <= FROM <= TO and STEP > 0")
    _check_power_finite(cfg, "thresholds", cfg.rate_threshold_bits)
    if cfg.mode == "sweep":
        if lo == 0.0 and cfg.illum_threshold == 0.0:
            raise ConfigError("cth_sweep: FROM must be > 0 when "
                              "illum_threshold is 0")
        _check_power_finite(cfg, "cth_sweep", hi)
    if cfg.mode in ("single", "fig4") and len(cfg.heights) > 1:
        raise ConfigError(f"heights: {cfg.mode} mode takes one height, "
                          f"got {len(cfg.heights)}")


def _check_power_finite(cfg: RunConfig, name: str,
                        rate_threshold: float) -> None:
    """Reject thresholds whose power at the farthest reachable user overflows.

    Users and UAV positions lie inside the area, so no priced cell reaches
    beyond the area diagonal or the FOV ground radius; power grows with
    both the distance and the rate threshold, so this is the largest power
    any run can ask for.
    """
    reqs = Requirements(rate_threshold, cfg.illum_threshold)
    for height in cfg.heights:
        params = cfg.params_at(height)
        radius = min(params.fov_ground_radius, cfg.area_size * math.sqrt(2.0))
        try:
            power = min_power_for_radius(
                radius, constraint_coefficients(params, reqs), params)
        except OverflowError:
            power = math.inf
        if not power < math.inf:
            raise ConfigError(
                f"{name}: rate threshold {rate_threshold!r} bits with "
                f"illumination threshold {cfg.illum_threshold!r} needs a "
                f"transmit power beyond floating-point range at height "
                f"{height!r} m")


def workers_from_env() -> int:
    raw = os.environ.get("UAVVLC_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"UAVVLC_THREADS: expected an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError("UAVVLC_THREADS: must be >= 1")
    return workers


def _fmt(value: float) -> str:
    # repr of a Python float round-trips exactly (17 significant digits max)
    return repr(float(value))


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _solution_record(solution: DeploymentSolution) -> dict:
    return {
        "feasible": solution.feasible,
        "total_power_w": solution.total_power,
        "per_uav_power_w": list(solution.per_uav_power),
        "uav_positions": [[p.x, p.y] for p in solution.uav_positions],
        "clusters": [list(c) for c in solution.association.clusters],
        "trace": [[entry.total_power, entry.step]
                  for entry in solution.iterations],
    }


def _config_record(cfg: RunConfig) -> dict:
    record = asdict(cfg)
    record["grid"] = f"{cfg.grid[0]}x{cfg.grid[1]}"
    record["cth_sweep"] = ":".join(repr(v) for v in cfg.cth_sweep)
    return record


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True)
                    + "\n")


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_per_user_csv(path: Path, scenario: Scenario,
                        solution: DeploymentSolution) -> None:
    users, reqs = scenario.users, scenario.reqs
    reports = per_user_report(solution, users, scenario.params, reqs)
    # reports come in user index order, one per user
    _write_csv(path, PER_USER_COLUMNS, (
        [rep.user_index, _fmt(u.x), _fmt(u.y), rep.serving_uav,
         _fmt(rep.achieved_rate), _fmt(rep.achieved_illum),
         _fmt(reqs.rate_threshold), _fmt(reqs.illum_threshold)]
        for rep, u in zip(reports, users)))


def _scenario_config(cfg: RunConfig, height: float,
                     rate_threshold: float) -> ScenarioConfig:
    return ScenarioConfig(
        area_size=cfg.area_size, grid=cfg.grid, num_users=cfg.users,
        base_seed=cfg.seed, params=cfg.params_at(height),
        reqs=Requirements(rate_threshold, cfg.illum_threshold),
        max_iters=cfg.max_iters, rel_tol=cfg.rel_tol)


def run_single(cfg: RunConfig, out_dir: Path) -> int:
    scenario = _scenario_config(cfg, cfg.heights[0],
                                cfg.rate_threshold_bits).scenario()
    record = {"config": _config_record(cfg), "seed": cfg.seed, "schemes": {}}
    status = EXIT_OK
    for scheme in cfg.schemes:
        solution = solve_scenario(scenario, scheme,
                                  max_iters=cfg.max_iters, rel_tol=cfg.rel_tol)
        record["schemes"][scheme] = _solution_record(solution)
        if not solution.feasible:
            status = EXIT_INFEASIBLE
        print(f"{scheme}: total_power_w={_fmt(solution.total_power)} "
              f"feasible={solution.feasible}")
        if scheme != "sa2" and solution.feasible:
            _write_per_user_csv(out_dir / f"per_user_{scheme}.csv",
                                scenario, solution)
    _write_json(out_dir / "single_result.json", record)
    return status


def _batches(cfg: RunConfig, rate_thresholds: Sequence[float]
             ) -> Iterator[tuple[float, float, MonteCarloSummary]]:
    """A Monte Carlo batch per height and rate threshold, heights outermost."""
    workers = workers_from_env()
    for height in cfg.heights:
        for rate_threshold in rate_thresholds:
            yield height, rate_threshold, run_monte_carlo(
                _scenario_config(cfg, height, rate_threshold), cfg.runs,
                schemes=cfg.schemes, workers=workers)


def run_montecarlo(cfg: RunConfig, out_dir: Path) -> int:
    status = EXIT_OK
    rows = []
    payload = {"config": _config_record(cfg), "heights": {}}
    for height, _, summary in _batches(cfg, [cfg.rate_threshold_bits]):
        height_record = {"reductions_percent": dict(summary.reductions),
                         "schemes": {}}
        for scheme in cfg.schemes:
            st = summary.stats[scheme]
            rows.append([scheme, _fmt(height), _fmt(st.mean), _fmt(st.std),
                         cfg.runs, st.infeasible_runs])
            height_record["schemes"][scheme] = {
                "mean_total_power_w": st.mean,
                "std_total_power_w": st.std,
                "runs": cfg.runs,
                "infeasible_runs": st.infeasible_runs,
            }
            if st.infeasible_runs:
                status = EXIT_INFEASIBLE
        payload["heights"][_fmt(height)] = height_record
        for scheme, pct in summary.reductions.items():
            print(f"height {height} m: proposed saves {pct:.2f}% vs {scheme}")
    _write_csv(out_dir / "montecarlo.csv", MC_COLUMNS, rows)
    _write_json(out_dir / "montecarlo.json", payload)
    return status


def _sweep_values(sweep: tuple[float, float, float]) -> list[float]:
    lo, hi, step = sweep
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9 * max(1.0, step):
            break
        values.append(v)
        k += 1
    return values


def run_sweep(cfg: RunConfig, out_dir: Path) -> int:
    status = EXIT_OK
    rows = []
    for height, cth, summary in _batches(cfg, _sweep_values(cfg.cth_sweep)):
        for scheme in cfg.schemes:
            st = summary.stats[scheme]
            rows.append(["rate_threshold_bits", _fmt(cth), scheme,
                         _fmt(height), _fmt(st.mean), _fmt(st.std), cfg.runs])
            if st.infeasible_runs:
                status = EXIT_INFEASIBLE
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    print(f"sweep: wrote {len(rows)} rows")
    return status


def run_fig4(cfg_case1: RunConfig, cfg_case2: RunConfig, out_dir: Path) -> int:
    status = EXIT_OK
    for label, cfg in (("case1", cfg_case1), ("case2", cfg_case2)):
        scenario = _scenario_config(cfg, cfg.heights[0],
                                    cfg.rate_threshold_bits).scenario()
        solution = solve_scenario(scenario, "proposed",
                                  max_iters=cfg.max_iters, rel_tol=cfg.rel_tol)
        if not solution.feasible:
            print(f"{label}: infeasible")
            status = EXIT_INFEASIBLE
            continue
        _write_per_user_csv(out_dir / f"fig4_{label}.csv", scenario, solution)
        print(f"{label}: total_power_w={_fmt(solution.total_power)} "
              f"users={len(scenario.users)}")
    return status


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route through ConfigError
    # instead so usage problems share exit code 1 with config problems.
    def error(self, message):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uavvlc",
        description="Minimum-power LED UAV deployment: single runs, "
                    "Monte Carlo aggregates, threshold sweeps, per-user tables.")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--mode", help="single, montecarlo, sweep or fig4")
    parser.add_argument("--seed")
    parser.add_argument("--runs")
    parser.add_argument("--users")
    parser.add_argument("--height", dest="heights", action="append",
                        metavar="HEIGHT",
                        help="UAV height in meters; repeat for several")
    parser.add_argument("--cth-sweep", metavar="FROM:TO:STEP",
                        help="rate-threshold sweep for sweep mode")
    parser.add_argument("--schemes", help="comma list from "
                                          "proposed,uavoo,sa1,sa2")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--case1", help="config overrides for fig4 case 1")
    parser.add_argument("--case2", help="config overrides for fig4 case 2")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        apply_config_file(cfg, args.config)
    for name in _FIELD_TYPES:
        raw = getattr(args, name, None)
        if raw is not None:
            # repeated --height flags arrive as a list: the file's comma list
            setattr(cfg, name, _parse_field(
                name, ",".join(raw) if isinstance(raw, list) else raw))
    validate_config(cfg)
    return cfg


def _case_config(base: RunConfig, path: Optional[str],
                 rate_threshold: float, illum_threshold: float) -> RunConfig:
    cfg = replace(base, heights=list(base.heights), schemes=list(base.schemes))
    cfg.rate_threshold_bits = rate_threshold
    cfg.illum_threshold = illum_threshold
    if path:
        apply_config_file(cfg, path)
        if cfg.mode != base.mode:
            raise ConfigError(f"mode: a {base.mode} case file cannot set mode "
                              f"{cfg.mode!r}")
    validate_config(cfg)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.mode == "single":
            return run_single(cfg, out_dir)
        if cfg.mode == "montecarlo":
            return run_montecarlo(cfg, out_dir)
        if cfg.mode == "sweep":
            return run_sweep(cfg, out_dir)
        # fig4: threshold pairs where rate (case 1) and illumination
        # (case 2) tend to be the binding constraint, overridable by file
        case1 = _case_config(cfg, args.case1, 1.2, 0.1)
        case2 = _case_config(cfg, args.case2, 1.8, 0.6)
        return run_fig4(case1, case2, out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
