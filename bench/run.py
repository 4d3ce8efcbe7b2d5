#!/usr/bin/env python3
"""Benchmark of the uavvlc package through its CLI and library API.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-mc --seed 0 --seconds 30 --trace 0

The workloads, metrics and the layer each metric should move are described
in bench/README.md.  Each run derives the scenario base seed from
``--seed``, runs the workload's CLI command and library calls in rounds
until ``--seconds`` of measuring is used, checks every output, and prints a
report, an environment record and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the CLI again under the span tracer of bench/tracing.py and reports the
per-layer metrics.

``--smoke`` shrinks every workload to a few seconds of work, for the
benchmark's own tests.  ``--record-reference`` runs the CLI once for the
given seed and stores the hashes of its output files in
bench/reference.json; do that only when a change is meant to move outputs.

The package is imported from ``src/`` of the checkout the script sits in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from spawner import Proc, Spawner
from tracing import SCHEMES, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

# A run must end within 180 s: a process still running this long after the
# start is killed and counted as failed.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 7        # at least this many set-up probes per run
SETUP_PER_ROUND = 2
PROBE_SAMPLES = 5

# Fresh interpreter: import the package, then build the link parameters for
# each height the way the CLI does.  argv: SRC_DIR HEIGHT...
SETUP_PROBE = """
import sys, time
import uavvlc
from uavvlc import VlcParams
if not uavvlc.__file__.startswith(sys.argv[1]):
    sys.exit(3)
t0 = time.perf_counter()
for h in sys.argv[2:]:
    VlcParams.from_degrees(detector_area=1e-4, refractive_index=1.5,
                           tx_semi_angle_deg=60.0, fov_semi_angle_deg=60.0,
                           noise_std=1e-10, illum_factor=1.0,
                           uav_height=float(h))
print(repr((time.perf_counter() - t0) * 1e3))
"""


@dataclass(frozen=True)
class Workload:
    """One CLI command plus the library calls that do the same work."""

    name: str
    mode: str                      # CLI --mode
    users: int
    grid: tuple[int, int]
    area_size: float
    heights: tuple[float, ...]
    runs: int                      # Monte Carlo runs per (height, threshold)
    workers: int                   # UAVVLC_THREADS and run_monte_carlo workers
    expected_exit: int
    outputs: tuple[str, ...]
    cth_sweep: tuple[float, float, float] = (1.0, 3.0, 0.5)
    smoke: bool = False

    @property
    def reference_key(self) -> str:
        return f"{self.name}@smoke" if self.smoke else self.name

    def shrunk(self) -> "Workload":
        return replace(self, runs=min(self.runs, 10), users=min(self.users, 200),
                       grid=(2, 2), area_size=10.0, smoke=True)

    def thresholds(self) -> list[Optional[float]]:
        """Rate thresholds per height: the sweep values, or None for the default."""
        if self.mode != "sweep":
            return [None]
        lo, hi, step = self.cth_sweep
        values, k = [], 0
        while lo + k * step <= hi + 1e-9 * max(1.0, step):
            values.append(lo + k * step)
            k += 1
        return values

    def points(self) -> list[tuple[float, Optional[float]]]:
        """(height, rate threshold) pairs in the order the CLI visits them."""
        return [(h, c) for h in self.heights for c in self.thresholds()]

    def config_text(self, base_seed: int) -> str:
        lines = {
            "mode": self.mode, "seed": base_seed, "runs": self.runs,
            "users": self.users, "area_size": repr(self.area_size),
            "grid": f"{self.grid[0]}x{self.grid[1]}",
            "heights": ",".join(repr(h) for h in self.heights),
            "cth_sweep": ":".join(repr(v) for v in self.cth_sweep),
            # A fixed relative path: the JSON outputs record it.
            "out": "out",
        }
        return "".join(f"{k} = {v}\n" for k, v in lines.items())


# Why each workload exists is in bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("paper-mc", "montecarlo", users=16, grid=(2, 2), area_size=10.0,
             heights=(8.0, 12.0), runs=1000, workers=1, expected_exit=0,
             outputs=("montecarlo.csv", "montecarlo.json")),
    Workload("dense-solve", "single", users=10000, grid=(10, 10),
             area_size=50.0, heights=(8.0,), runs=1, workers=1,
             expected_exit=0,
             outputs=("single_result.json", "per_user_proposed.csv",
                      "per_user_uavoo.csv", "per_user_sa1.csv")),
    # Exit status 2 is the right answer: sa2 is infeasible at 2 m.
    Workload("low-alt-sweep", "sweep", users=16, grid=(2, 2), area_size=10.0,
             heights=(2.0, 3.0), runs=200, workers=2, expected_exit=2,
             outputs=("sweep.csv",)),
)}


def base_seed_for(workload: Workload, seed: int) -> int:
    """Scenario base seed the program receives for a benchmark seed."""
    return random.Random(f"{workload.name}:{seed}").randrange(1_000_000)


# ----------------------------------------------------------------- checks

def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def _power(text) -> float:
    # JSON writes non-finite power as null; CSV writes repr(inf) as "inf".
    return math.inf if text is None else float(text)


def ordered(totals: list[float]) -> bool:
    """proposed <= uavoo <= sa1 <= sa2, infeasible counted as infinite."""
    return all(a <= b for a, b in zip(totals, totals[1:]))


def read_results(workload: Workload, out_dir: Path) -> dict:
    """(height, threshold, scheme) -> tuple of the reported power figures."""
    results = {}
    if workload.mode == "single":
        record = json.loads((out_dir / "single_result.json").read_text())
        for scheme, sol in record["schemes"].items():
            results[(workload.heights[0], None, scheme)] = (_power(sol["total_power_w"]),)
        return results
    name = "montecarlo.csv" if workload.mode == "montecarlo" else "sweep.csv"
    with (out_dir / name).open(newline="") as fh:
        for row in csv.DictReader(fh):
            cth = float(row["axis_value"]) if workload.mode == "sweep" else None
            key = (float(row["height_m"]), cth, row["scheme"])
            values = (_power(row["mean_total_power_w"]),
                      float(row["std_total_power_w"]))
            if workload.mode == "montecarlo":
                values += (int(row["infeasible_runs"]),)
            results[key] = values
    return results


def check_outputs(workload: Workload, out_dir: Path, code: int,
                  reference: Optional[dict]) -> list[str]:
    """Problems with one CLI run's exit status and output files."""
    if code != workload.expected_exit:
        return [f"exit status {code}, expected {workload.expected_exit}"]
    missing = [n for n in workload.outputs if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output {n}" for n in missing]
    problems = []
    if reference is not None:
        problems += [f"{n} differs from the reference" for n in workload.outputs
                     if file_sha256(out_dir / n) != reference.get(n)]
    try:
        results = read_results(workload, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return problems + [f"unreadable output: {err!r}"]
    for height, cth in workload.points():
        totals = [results.get((height, cth, s), (math.nan,))[0] for s in SCHEMES]
        if not ordered(totals):
            problems.append(f"scheme order broken at height {height} "
                            f"threshold {cth}: {totals}")
    if workload.mode == "single":
        for name in workload.outputs[1:]:
            with (out_dir / name).open() as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != workload.users:
                problems.append(f"{name} has {rows} rows, expected {workload.users}")
    return problems


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered_values = sorted(values)
    return ordered_values[max(0, math.ceil(q * len(ordered_values)) - 1)]


# --------------------------------------------------------------- the runs

class Ledger:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def guarded(self, what: str, fn: Callable[[], list[str]]) -> None:
        # A benchmark step must report a raising operation as failed, and go on.
        try:
            problems = fn()
        except Exception:
            problems = [traceback.format_exc(limit=3).strip().replace("\n", " | ")]
        self.record(what, problems)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 program, spawner: Spawner):
        self.u = program
        self.spawner = spawner
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.base_seed = base_seed_for(workload, seed)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.ledger = Ledger()
        self.work = WORK / (workload.name + ("-smoke" if workload.smoke else ""))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (self.work / "workload.cfg").write_text(workload.config_text(self.base_seed))
        self.reference = load_reference().get(workload.reference_key, {}).get(str(seed))
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        UAVVLC_THREADS=str(workload.workers))
        self.expected: Optional[dict] = None     # parsed from the first good CLI run
        self.report: list[str] = []
        # The library calls' inputs, one per (height, threshold) point, as
        # the CLI builds them from its defaults.
        reqs = program.default_requirements()
        self.configs = [program.ScenarioConfig(
            area_size=workload.area_size, grid=workload.grid,
            num_users=workload.users, base_seed=self.base_seed,
            params=program.default_params(height),
            reqs=reqs if cth is None else program.Requirements(cth, reqs.illum_threshold))
            for height, cth in workload.points()]

    def timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def python(self, args: list[str], log: str, workers: Optional[int] = None,
               err_log: Optional[str] = None) -> Proc:
        env = self.env if workers is None else dict(self.env, UAVVLC_THREADS=str(workers))
        return self.spawner.run([sys.executable, *args], self.work, env,
                                self.work / log, self.timeout(),
                                self.work / err_log if err_log else None)

    def cli(self, workers: Optional[int] = None,
            traced: Optional[str] = None) -> Proc:
        """One CLI command, plain or under the tracer; outputs checked.

        Every run writes to the same relative ``out`` directory, because
        the JSON outputs record that path.
        """
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        cli_args = ["--config", "workload.cfg"]
        if traced:
            args = [str(BENCH / "trace_cli.py"), str(SRC), f"{traced}.json",
                    f"{traced}.spans.csv", "--", *cli_args]
        else:
            args = ["-m", "uavvlc", *cli_args]
        proc = self.python(args, f"{traced or 'cli'}.log", workers)
        problems = check_outputs(self.w, out_dir, proc.code, self.reference)
        if not problems and self.expected is None:
            self.expected = read_results(self.w, out_dir)
        self.ledger.record(f"CLI run{' ' + traced if traced else ''}", problems)
        return proc

    def library_batch(self) -> Optional[float]:
        """The workload through the library; its duration, None if it raised."""
        u, configs = self.u, self.configs
        elapsed = []

        def batch() -> list[str]:
            t0 = time.perf_counter()
            if self.w.mode == "single":
                cfg = configs[0]
                scenario = u.generate_scenario(
                    seed=cfg.base_seed, area_size=cfg.area_size, grid=cfg.grid,
                    num_users=cfg.num_users, params=cfg.params, reqs=cfg.reqs)
                sols = {s: u.solve_scenario(scenario, s) for s in SCHEMES}
                elapsed.append(time.perf_counter() - t0)
                got = {(self.w.heights[0], None, s): (sol.total_power,)
                       for s, sol in sols.items()}
            else:
                summaries = [u.run_monte_carlo(cfg, self.w.runs, workers=self.w.workers)
                             for cfg in configs]
                elapsed.append(time.perf_counter() - t0)
                got = {}
                for (height, cth), summary in zip(self.w.points(), summaries):
                    for s in SCHEMES:
                        st = summary.stats[s]
                        values = (st.mean, st.std)
                        if self.w.mode == "montecarlo":
                            values += (st.infeasible_runs,)
                        got[(height, cth, s)] = values
            if self.expected is None:
                return ["no checked CLI output to compare with"]
            return [f"library result {k} = {v}, CLI wrote {self.expected.get(k)}"
                    for k, v in got.items() if self.expected.get(k) != v]

        self.ledger.guarded("library batch", batch)
        return elapsed[0] if elapsed else None

    def serial_pass(self) -> list[float]:
        """Every seeded run of the workload, one at a time; per-run seconds."""
        u = self.u
        samples = []
        for cfg in self.configs:
            for k in range(self.w.runs):
                def one_run() -> list[str]:
                    t0 = time.perf_counter()
                    scenario = u.generate_scenario(
                        cfg.base_seed + k, cfg.area_size, cfg.grid,
                        cfg.num_users, cfg.params, cfg.reqs)
                    totals = [u.solve_scenario(scenario, s, max_iters=cfg.max_iters,
                                               rel_tol=cfg.rel_tol).total_power
                              for s in SCHEMES]
                    samples.append(time.perf_counter() - t0)
                    return [] if ordered(totals) else [f"scheme order broken: {totals}"]
                self.ledger.guarded(f"serial run seed {cfg.base_seed + k}", one_run)
        return samples

    def rounds(self, steps: Callable[[], None]) -> int:
        """Repeat steps while another round fits in --seconds."""
        start = time.perf_counter()
        done, last = 0, 0.0
        while done == 0 or time.perf_counter() - start + last <= self.seconds:
            t0 = time.perf_counter()
            steps()
            last = time.perf_counter() - t0
            done += 1
        return done

    def setup_probe(self) -> float:
        proc = self.python(["-c", SETUP_PROBE, str(SRC), *map(repr, self.w.heights)],
                           "setup.log")
        self.ledger.record("set-up probe", [] if proc.code == 0 else
                           [f"exit status {proc.code}"])
        return proc.wall_s

    def worker_equivalence(self) -> None:
        """The 1-worker CLI must write the same bytes as the workload's run."""
        out_dir = self.work / "out"
        before = {n: (out_dir / n).read_bytes() for n in self.w.outputs
                  if (out_dir / n).is_file()}
        self.cli(workers=1)
        self.ledger.guarded("worker-count equivalence", lambda: [
            f"{n} differs between {self.w.workers} workers and 1"
            for n in self.w.outputs
            if before.get(n) != (out_dir / n).read_bytes()])

    # -- the two kinds of run

    def measure(self) -> dict[str, float]:
        self.setup_probe()    # warms the file cache and writes bytecode
        setup, walls, rss, batch_s, latencies = [], [], [], [], []

        def one_round() -> None:
            # Set-up probes are spread over the run, like the other samples,
            # because the machine's speed drifts over tens of seconds.
            setup.extend(self.setup_probe() for _ in range(SETUP_PER_ROUND))
            proc = self.cli()
            walls.append(proc.wall_s)
            rss.append(proc.rss_mb)
            elapsed = self.library_batch()
            if elapsed is not None:
                batch_s.append(elapsed)
            if self.w.mode == "single":
                latencies.extend([elapsed] if elapsed is not None else [])
            else:
                latencies.extend(self.serial_pass())

        n = self.rounds(one_round)
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.setup_probe())
        if self.w.workers > 1:
            self.worker_equivalence()
        runs_per_batch = len(self.w.points()) * self.w.runs
        rates = [runs_per_batch / t for t in batch_s]
        lat_ms = [t * 1e3 for t in latencies]

        def samples(values) -> str:
            return " ".join(f"{v:.4g}" for v in values)
        self.report += [
            f"setup_s      median of {len(setup)} fresh interpreters after one "
            f"warm-up: {samples(setup)}",
            f"wall_s       median of {n} CLI runs: {samples(walls)}",
            f"runs_per_s   median of {len(rates)} library batches of {runs_per_batch} "
            f"runs, {self.w.workers} worker(s): {samples(rates)}",
            f"run_p50_ms   median of {len(lat_ms)} serial runs",
            f"peak_rss_mb  median of {n} CLI runs: {samples(rss)}",
        ]
        if len(lat_ms) >= 1000:
            self.report.append(f"run_p99_ms   {percentile(lat_ms, 0.99):.4f} ms "
                               f"over {len(lat_ms)} serial runs")
        return {
            "setup_s": median(setup),
            "wall_s": median(walls),
            "runs_per_s": median(rates),
            "run_p50_ms": median(lat_ms),
            "peak_rss_mb": median(rss),
        }

    def import_probes(self) -> dict[str, float]:
        """Import-time breakdown from python -X importtime, and bare start-up."""
        cum: dict[str, list[float]] = {"numpy": [], "mpmath": [], "uavvlc": []}
        from_degrees, bare = [], []
        args = ["-X", "importtime", "-c", SETUP_PROBE, str(SRC),
                *map(repr, self.w.heights)]
        for _ in range(PROBE_SAMPLES):
            proc = self.python(args, "importtime.out", err_log="importtime.err")
            self.ledger.record("import-time probe", [] if proc.code == 0 else
                               [f"exit status {proc.code}"])
            if proc.code != 0:
                continue
            found = dict.fromkeys(cum, 0.0)
            err = self.work / "importtime.err"
            for line in err.read_text().splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2] in found:
                    found[parts[2]] = int(parts[1]) / 1e3
            err.unlink()
            for k, v in found.items():
                cum[k].append(v)
            from_degrees.append(float((self.work / "importtime.out").read_text()))
            bare.append(self.python(["-c", "pass"], "bare.log").wall_s)
        numpy_ms, mpmath_ms = median(cum["numpy"]), median(cum["mpmath"])
        return {
            "channel.from_degrees.ms": median(from_degrees),
            "setup.import.numpy_ms": numpy_ms,
            "setup.import.mpmath_ms": mpmath_ms,
            "setup.import.uavvlc_self_ms": median(cum["uavvlc"]) - numpy_ms - mpmath_ms,
            "bare_interpreter_s": median(bare),
        }

    def trace(self) -> dict[str, float]:
        probes = self.import_probes()
        bare_s = probes.pop("bare_interpreter_s")
        per_round: list[dict[str, float]] = []
        walls, blocking_sums = [], []
        breakdown: dict[str, float] = {}

        def traced_run(label: str, workers: Optional[int] = None):
            """The CLI under the tracer: its summary and its wall time."""
            summary = self.work / f"{label}.json"
            summary.unlink(missing_ok=True)
            proc = self.cli(workers=workers, traced=label)
            if not summary.is_file():
                return None, math.nan
            summary = json.loads(summary.read_text())
            return summary, proc.wall_s - summary["post_s"]

        def one_round() -> None:
            main, traced_wall = traced_run("traced")
            layers = main
            if self.w.workers > 1:
                # Spans inside pool workers are not collected: the layer
                # figures come from the same command run with one worker.
                layers, _ = traced_run("traced-serial", workers=1)
            # Last, so that the outputs left are the workload's own.
            walls.append(self.cli().wall_s)
            if main is None or layers is None:
                return
            metrics = dict(layers["layers"])
            for name in ("cli.main.self_s", "scenario.run_monte_carlo.batches",
                         "scenario.run_monte_carlo.batch_s"):
                metrics[name] = main["layers"][name]
            # Spans nest, so their self times add up to the cli.main span.
            blocking = bare_s + main["import_s"] + main["main_s"]
            blocking_sums.append(blocking - walls[-1])
            metrics["trace.overhead_s"] = traced_wall - walls[-1]
            metrics["trace.unaccounted_s"] = traced_wall - blocking
            per_round.append(metrics)
            breakdown.clear()
            breakdown.update({"interpreter start-up": bare_s,
                              "import uavvlc": main["import_s"]})
            breakdown.update(main["self_by_name"])

        n = self.rounds(one_round)
        if self.w.workers > 1:
            self.worker_equivalence()
        if not per_round:    # every traced run failed, and was counted so
            per_round.append(dict.fromkeys(
                [*layer_metrics([]), "trace.overhead_s", "trace.unaccounted_s"], math.nan))
        metrics = {name: median([m[name] for m in per_round]) for name in per_round[0]}
        metrics.update(probes)
        wall = median(walls)
        excess, overhead = median(blocking_sums), metrics["trace.overhead_s"]
        self.report.append(
            f"traced {len(per_round)} of {n} round(s); blocking-path self times "
            f"(start-up, import, spans) exceed the untraced CLI wall {wall:.4f} s "
            f"by {excess:+.4f} s; tracing overhead {overhead:+.4f} s; "
            f"{'within' if abs(excess) <= abs(overhead) else 'NOT within'} it")
        self.report.append("blocking path of the last traced run, self time and "
                           "share (a 2x faster layer saves at most half its share):")
        total = sum(breakdown.values())
        for name, secs in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            self.report.append(f"  {name:36s} {secs:10.4f} s {100 * secs / total:7.2f}%")
        return metrics

    def record_reference(self) -> int:
        out_dir = self.work / "out"
        self.reference = None
        proc = self.cli()
        problems = check_outputs(self.w, out_dir, proc.code, None)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference = load_reference()
        reference.setdefault(self.w.reference_key, {})[str(self.seed)] = {
            n: file_sha256(out_dir / n) for n in self.w.outputs}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0


# ------------------------------------------------------------------- main

def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        loadavg = [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        loadavg = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "cpu_count": os.cpu_count(), "loadavg_at_start": loadavg}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="store output hashes for this seed and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uavvlc" / "__init__.py").is_file():
        print(f"error: no uavvlc package under {SRC}", file=sys.stderr)
        return 2
    with Spawner() as spawner:    # before this process imports the package
        return run(args, spawner)


def run(args, spawner: Spawner) -> int:
    sys.path.insert(0, str(SRC))
    import uavvlc
    if not Path(uavvlc.__file__).resolve().is_relative_to(SRC):
        print(f"error: uavvlc imported from {uavvlc.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bench = Bench(workload.shrunk() if args.smoke else workload,
                  args.seed, args.seconds, uavvlc, spawner)
    if args.record_reference:
        return bench.record_reference()
    env = environment()
    measured = bench.trace() if args.trace else bench.measure()

    units = declared_metrics(bool(args.trace))
    if set(measured) != set(units):
        raise RuntimeError(f"metrics {sorted(set(measured) ^ set(units))} do not "
                           "match BENCHMARK.json")
    ledger = bench.ledger
    checked = ("reference hashes and invariants" if bench.reference is not None
               else "invariants only: no reference for this seed")
    print(f"workload {workload.name} seed {args.seed} (base seed "
          f"{bench.base_seed}), outputs checked against {checked}")
    for line in bench.report:
        print(line)
    print(f"failed_share {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.6f}")
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        # A value is missing (NaN) only when every operation behind it failed.
        "metrics": {name: {"value": measured[name] if math.isfinite(measured[name])
                           else 0.0, "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
