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
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence, get_type_hints

from .channel import Requirements, VlcParams
from .optimizer import DeploymentSolution
from .scenario import (SCHEMES, Scenario, ScenarioConfig, per_user_report,
                       run_monte_carlo_batches, solve_scenario)

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
MAX_SWEEP_POINTS = 10_000    # each cth_sweep point is a batch per height


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


def _parse_scheme(field_name: str, raw: str) -> str:
    name = raw.strip()
    if name not in SCHEMES:
        raise ConfigError(
            f"{field_name}: unknown scheme {name!r}; expected from {SCHEMES}")
    return name


def _parse_list(sep: str, parse_item, count: int, form: str,
                field_name: str, raw: str):
    # exactly count items as a tuple, or with count 0 a non-empty list with
    # blank items skipped; a letter sep (grid's 2x2) matches in either case
    parts = (raw.lower() if sep.isalpha() else raw).split(sep)
    if count and len(parts) != count:
        raise ConfigError(f"{field_name}: expected {form}, got {raw!r}")
    values = [parse_item(field_name, p) for p in parts if count or p.strip()]
    if not values:
        raise ConfigError(f"{field_name}: empty list")
    return tuple(values) if count else values


# The parser of every config key, flags and config files alike: by its
# RunConfig type, a str kept as written, and the lists by their syntax.
_PARSERS = {name: {int: _parse_int, float: _parse_float}.get(
                hint, lambda field_name, raw: raw)
            for name, hint in get_type_hints(RunConfig).items()}
_PARSERS.update(
    grid=partial(_parse_list, "x", _parse_int, 2, "KXxKY like 2x2"),
    heights=partial(_parse_list, ",", _parse_float, 0, ""),
    cth_sweep=partial(_parse_list, ":", _parse_float, 3, "FROM:TO:STEP"),
    schemes=partial(_parse_list, ",", _parse_scheme, 0, ""))


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
        if key not in _PARSERS:
            raise ConfigError(f"config {path}:{lineno}: unknown key {key!r}")
        setattr(cfg, key, _PARSERS[key](key, value))


# Library messages start with the field name, and errors report it as the
# config key: these five are spelled differently, and threshold faults are
# reported as "thresholds" (a sweep point's rate threshold as "cth_sweep").
_CONFIG_KEYS = {"detector_area": "detector_area_m2", "noise_std": "noise_std_a",
                "uav_height": "heights", "num_users": "users",
                "base_seed": "seed", "illum_threshold": "thresholds"}


def validate_config(cfg: RunConfig) -> list[ScenarioConfig]:
    """Check cfg; return the scenario family of every (height, rate
    threshold) the run solves, heights outermost.  The library objects check
    their own fields and the overflow rule; this adds the CLI's rules."""
    if cfg.mode not in _RUNNERS:
        raise ConfigError(f"mode: unknown mode {cfg.mode!r}")
    # each comparison is written so that NaN fails it
    if not cfg.runs >= 1:
        raise ConfigError(f"runs: must be >= 1, got {cfg.runs}")
    repeats = [s for k, s in enumerate(cfg.schemes) if s in cfg.schemes[:k]]
    if repeats and cfg.mode != "fig4":    # fig4 does not read schemes
        raise ConfigError(f"schemes: scheme {repeats[0]!r} is repeated")
    lo, hi, step = cfg.cth_sweep
    if not (0.0 <= lo <= hi < math.inf and 0.0 < step < math.inf):
        raise ConfigError("cth_sweep: need finite 0 <= FROM <= TO and STEP > 0")
    # the key that names a rate threshold's faults
    source = "cth_sweep" if cfg.mode == "sweep" else "thresholds"
    rates = (_sweep_values(cfg.cth_sweep) if cfg.mode == "sweep"
             else [cfg.rate_threshold_bits])
    families = []
    try:
        for height in cfg.heights:
            params = VlcParams(
                detector_area=cfg.detector_area_m2,
                refractive_index=cfg.refractive_index,
                tx_semi_angle_deg=cfg.tx_semi_angle_deg,
                fov_semi_angle_deg=cfg.fov_semi_angle_deg,
                noise_std=cfg.noise_std_a, illum_factor=cfg.illum_factor,
                uav_height=height)
            families += [ScenarioConfig(
                area_size=cfg.area_size, grid=cfg.grid, num_users=cfg.users,
                base_seed=cfg.seed, params=params,
                reqs=Requirements(rate, cfg.illum_threshold))
                for rate in rates]
    except ValueError as err:
        name, _, rest = str(err).partition(" ")
        key = {**_CONFIG_KEYS, "rate_threshold": source}.get(name, name)
        raise ConfigError(f"{key}: {rest}") from None
    if cfg.mode in ("single", "fig4") and len(cfg.heights) > 1:
        raise ConfigError(f"heights: {cfg.mode} mode takes one height, "
                          f"got {len(cfg.heights)}")
    return families


def workers_from_env() -> int:
    workers = _parse_int("UAVVLC_THREADS", os.environ.get("UAVVLC_THREADS", "1"))
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
    record = dict(asdict(cfg), max_iters=ScenarioConfig.max_iters,
                  rel_tol=ScenarioConfig.rel_tol)
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
    reports = per_user_report(solution, users, scenario.params)
    # reports come in user index order, one per user
    _write_csv(path, PER_USER_COLUMNS, (
        [rep.user_index, _fmt(u.x), _fmt(u.y), rep.serving_uav,
         _fmt(rep.achieved_rate), _fmt(rep.achieved_illum),
         _fmt(reqs.rate_threshold), _fmt(reqs.illum_threshold)]
        for rep, u in zip(reports, users)))


def run_single(cfg: RunConfig, families: list[ScenarioConfig],
               out_dir: Path) -> int:
    scenario = families[0].scenario()
    record = {"config": _config_record(cfg), "seed": cfg.seed, "schemes": {}}
    status = EXIT_OK
    for scheme in cfg.schemes:
        solution = solve_scenario(scenario, scheme)
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


def run_montecarlo(cfg: RunConfig, families: list[ScenarioConfig],
                   out_dir: Path) -> int:
    status = EXIT_OK
    rows = []
    payload = {"config": _config_record(cfg), "heights": {}}
    for summary in run_monte_carlo_batches(families, cfg.runs, cfg.schemes,
                                           workers_from_env()):
        height = summary.config.params.uav_height
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
    top = hi + 1e-9 * max(1.0, step)
    # counted before listed: FROM + STEP may round back to FROM
    if lo + step == lo or not (top - lo) / step < MAX_SWEEP_POINTS:
        raise ConfigError(f"cth_sweep: STEP {step!r} must advance FROM {lo!r} "
                          f"and give at most {MAX_SWEEP_POINTS} points")
    values = []
    v = lo
    while v <= top:
        values.append(v)
        v = lo + len(values) * step
    return values


def run_sweep(cfg: RunConfig, families: list[ScenarioConfig],
              out_dir: Path) -> int:
    status = EXIT_OK
    rows = []
    for summary in run_monte_carlo_batches(families, cfg.runs, cfg.schemes,
                                           workers_from_env()):
        cth = summary.config.reqs.rate_threshold
        height = summary.config.params.uav_height
        for scheme in cfg.schemes:
            st = summary.stats[scheme]
            rows.append(["rate_threshold_bits", _fmt(cth), scheme,
                         _fmt(height), _fmt(st.mean), _fmt(st.std), cfg.runs])
            if st.infeasible_runs:
                status = EXIT_INFEASIBLE
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    print(f"sweep: wrote {len(rows)} rows")
    return status


def run_fig4(cfg: RunConfig, families: list[ScenarioConfig],
             out_dir: Path) -> int:
    status = EXIT_OK
    for label, family in zip(("case1", "case2"), families):
        scenario = family.scenario()
        solution = solve_scenario(scenario, "proposed")
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
    for name, parse in _PARSERS.items():
        raw = getattr(args, name, None)
        if raw is not None:
            # repeated --height flags arrive as a list: the file's comma list
            setattr(cfg, name, parse(
                name, ",".join(raw) if isinstance(raw, list) else raw))
    return cfg


# Keys that fig4 reads once, from the main config, never from a case file.
_FIG4_MAIN_KEYS = ("mode", "runs", "cth_sweep", "schemes", "out")


def _case_config(base: RunConfig, path: Optional[str], rate_threshold: float,
                 illum_threshold: float) -> ScenarioConfig:
    cfg = replace(base, rate_threshold_bits=rate_threshold,
                  illum_threshold=illum_threshold)
    if path:
        apply_config_file(cfg, path)
        for key in _FIG4_MAIN_KEYS:
            if getattr(cfg, key) != getattr(base, key):
                raise ConfigError(f"{key}: a fig4 case file cannot set {key}")
    return validate_config(cfg)[0]


_RUNNERS = {"single": run_single, "montecarlo": run_montecarlo,
            "sweep": run_sweep, "fig4": run_fig4}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        # fig4 solves only its two cases, each validated with its own
        # thresholds: rate (case 1) and illumination (case 2) tend to bind
        families = ([_case_config(cfg, args.case1, 1.2, 0.1),
                     _case_config(cfg, args.case2, 1.8, 0.6)]
                    if cfg.mode == "fig4" else validate_config(cfg))
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[cfg.mode](cfg, families, out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
