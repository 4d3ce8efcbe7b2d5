"""In-memory spans around calls into the uavvlc package's public functions.

The spans are recorded from outside the package: ``Tracer.install`` replaces
every module attribute bound to a traced function with a wrapper, so calls
that cross a module boundary (``optimizer`` calling
``smallest_enclosing_disk``) and calls inside a module (``optimize`` calling
``locate_uavs``) both go through it.  A span holds its name, start, end, the
span that was open when it started, and the run it belongs to: the
``seed@height`` of the scenario being generated or solved, inherited by
every span below it.  Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly because the traced code is single-threaded
within one process, so the self times of all spans under a root add up to
the root's duration.
"""

from __future__ import annotations

import bisect
import csv
import functools
import time
from contextlib import contextmanager
from pathlib import Path

SCHEMES = ("proposed", "uavoo", "sa1", "sa2")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "info")

    def __init__(self, sid, name, parent, run, info):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.info = info
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Per traced function: span name, and an optional describe(args, kwargs)
# returning (run id or None, info) before the call, and conclude(span,
# result) after it.  Describers only keep references or take lengths, so
# the cost they add inside the parent's span stays small.
def _describe_sed(args, kwargs):
    return None, {"points": len(_arg(args, kwargs, 0, "points"))}


def _describe_greedy(args, kwargs):
    centers = _arg(args, kwargs, 0, "uav_centers")
    users = _arg(args, kwargs, 1, "users")
    fov = _arg(args, kwargs, 4, "fov_ground_radius")
    return None, {"pairs": len(centers) * len(users),
                  "call": (centers, users, fov)}


def _describe_geographic(args, kwargs):
    users = _arg(args, kwargs, 0, "users")
    return None, {"pairs": len(users) * len(_arg(args, kwargs, 1, "sub_areas"))}


def _describe_generate(args, kwargs):
    seed = _arg(args, kwargs, 0, "seed")
    params = _arg(args, kwargs, 4, "params")
    height = params.uav_height if params is not None else 8.0
    return f"{seed}@{height!r}", None


def _describe_solve(args, kwargs):
    scenario = _arg(args, kwargs, 0, "scenario")
    scheme = _arg(args, kwargs, 1, "scheme")
    geometry = (scheme, scenario.seed, len(scenario.users),
                len(scenario.sub_areas), scenario.area,
                scenario.params.uav_height)
    run = f"{scenario.seed}@{scenario.params.uav_height!r}"
    return run, {"scheme": scheme, "geometry": geometry}


def _conclude_optimize(span, solution):
    span.info = {"improving_rounds": sum(
        1 for entry in solution.iterations if entry.step == "round")}


def _conclude_solve(span, solution):
    span.info["feasible"] = solution.feasible


TRACED = {
    # (module, function): (span name, describe, conclude)
    ("geometry", "smallest_enclosing_disk"): ("geometry.sed", _describe_sed, None),
    ("assignment", "greedy_min_size_clustering"):
        ("assignment.greedy", _describe_greedy, None),
    ("optimizer", "geographic_association"):
        ("optimizer.geographic_association", _describe_geographic, None),
    ("optimizer", "locate_uavs"): ("optimizer.locate_uavs", None, None),
    ("optimizer", "evaluate_power"): ("optimizer.evaluate_power", None, None),
    ("optimizer", "optimize"): ("optimizer.optimize", None, _conclude_optimize),
    ("optimizer", "baseline_uavoo"): ("optimizer.baseline_uavoo", None, None),
    ("optimizer", "baseline_sa1"): ("optimizer.baseline_sa1", None, None),
    ("optimizer", "baseline_sa2"): ("optimizer.baseline_sa2", None, None),
    ("scenario", "generate_scenario"):
        ("scenario.generate_scenario", _describe_generate, None),
    ("scenario", "solve_scenario"):
        ("scenario.solve_scenario", _describe_solve, _conclude_solve),
    ("scenario", "per_user_report"): ("scenario.per_user_report", None, None),
    ("scenario", "run_monte_carlo"): ("scenario.run_monte_carlo", None, None),
    ("channel", "channel_gain"): ("channel.channel_gain", None, None),
}


class Tracer:
    """Collects spans in memory; one tracer per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _begin(self, name, run, info) -> Span:
        parent = self._open[-1] if self._open else None
        if run is None and parent is not None:
            run = parent.run
        span = Span(len(self.spans), name,
                    parent.sid if parent is not None else -1, run, info)
        self.spans.append(span)
        self._open.append(span)
        return span

    @contextmanager
    def span(self, name):
        span = self._begin(name, None, None)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, describe=None, conclude=None):
        begin, stack, clock = self._begin, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run, info = describe(args, kwargs) if describe else (None, None)
            span = begin(name, run, info)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if conclude is not None:
                conclude(span, result)
            return result

        return traced

    def install(self, package) -> None:
        """Route every module's reference to a traced function through a span."""
        modules = [package] + [vars(package)[name] for name in
                               ("geometry", "assignment", "optimizer",
                                "scenario", "channel", "cli") if name in vars(package)]
        for (module_name, func_name), (name, describe, conclude) in TRACED.items():
            original = getattr(vars(package).get(module_name), func_name, None)
            if original is None:
                continue    # gone from the package; its metrics read zero
            wrapper = self.wrap(original, name, describe, conclude)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write_spans(self, path: Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "run"])
            for s in self.spans:
                writer.writerow([s.sid, s.name, repr(s.start), repr(s.end),
                                 s.parent, s.run])


def _pruned_pairs(centers, users, fov) -> int:
    # (user, UAV) pairs the greedy pass skips as outside the field of view.
    # Squared distances against the squared radius; the pass itself compares
    # hypot() with the radius, which can differ only for a user exactly on
    # the boundary.
    if fov is None:
        return 0
    xs = sorted((float(u[0]), float(u[1])) for u in users)
    keys = [p[0] for p in xs]
    r2 = fov * fov
    inside = 0
    for c in centers:
        cx, cy = float(c[0]), float(c[1])
        lo = bisect.bisect_left(keys, cx - fov)
        hi = bisect.bisect_right(keys, cx + fov)
        inside += sum(1 for ux, uy in xs[lo:hi]
                      if (ux - cx) * (ux - cx) + (uy - cy) * (uy - cy) <= r2)
    return len(centers) * len(users) - inside


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, busy and self times, and ratios from one traced run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_s = self_time_by_name(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.info[key] for s in by_name.get(name, ()))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    greedy = by_name.get("assignment.greedy", [])
    pruned = sum(_pruned_pairs(*s.info["call"]) for s in greedy)
    optimize_ids = {s.sid for s in by_name.get("optimizer.optimize", ())}
    rounds_run = sum(1 for s in greedy if s.parent in optimize_ids)
    solves = by_name.get("scenario.solve_scenario", [])
    seen, repeats = set(), 0
    for s in solves:
        repeats += s.info["geometry"] in seen
        seen.add(s.info["geometry"])
    infeasible = sum(1 for s in solves if not s.info["feasible"])

    sed, sed_points = "geometry.sed", total("geometry.sed", "points")
    gr, gr_pairs = "assignment.greedy", total("assignment.greedy", "pairs")
    geo = "optimizer.geographic_association"
    mc = "scenario.run_monte_carlo"
    metrics = {
        "geometry.sed.calls": calls(sed),
        "geometry.sed.points": sed_points,
        "geometry.sed.busy_s": busy(sed),
        "geometry.sed.us_per_call": per(busy(sed), calls(sed), 1e6),
        "geometry.sed.ns_per_point": per(busy(sed), sed_points, 1e9),
        "assignment.greedy.calls": calls(gr),
        "assignment.greedy.busy_s": busy(gr),
        "assignment.greedy.ns_per_pair": per(busy(gr), gr_pairs, 1e9),
        "assignment.greedy.fov_pruned_share": per(pruned, gr_pairs),
        "optimizer.geographic_association.busy_s": busy(geo),
        "optimizer.geographic_association.ns_per_pair":
            per(busy(geo), total(geo, "pairs"), 1e9),
        "optimizer.locate_uavs.self_s": self_s.get("optimizer.locate_uavs", 0.0),
        "optimizer.evaluate_power.calls": calls("optimizer.evaluate_power"),
        "optimizer.evaluate_power.busy_s": busy("optimizer.evaluate_power"),
        "optimizer.optimize.self_s": self_s.get("optimizer.optimize", 0.0),
        "optimizer.rounds_per_solve": per(rounds_run, len(optimize_ids)),
        "optimizer.useful_round_ratio":
            per(total("optimizer.optimize", "improving_rounds"), rounds_run),
        "optimizer.infeasible_share": per(infeasible, len(solves)),
        "scenario.generate_scenario.us": per(busy("scenario.generate_scenario"),
                                             calls("scenario.generate_scenario"), 1e6),
        "scenario.per_user_report.busy_s": busy("scenario.per_user_report"),
        "channel.channel_gain.calls": calls("channel.channel_gain"),
        "scenario.run_monte_carlo.batches": calls(mc),
        "scenario.run_monte_carlo.batch_s": per(busy(mc), calls(mc)),
        "scenario.repeat_geometry_share": per(repeats, len(solves)),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    for scheme in SCHEMES:
        times = [s.duration for s in solves if s.info["scheme"] == scheme]
        metrics[f"optimizer.solve.{scheme}.us"] = per(sum(times), len(times), 1e6)
    return metrics
