"""Alternating deployment optimization and fixed-placement baselines.

One round of the optimizer re-associates users to UAVs with the greedy
disk-growth pass (positions held fixed), then moves each UAV to the
smallest-enclosing-disk center of its cluster (association held fixed).
The per-cell power is a fixed prefactor times (farthest 3D distance)^(m+3),
so the SED center is the unique power-minimizing position for a given
cluster; the greedy pass carries no such guarantee, so the loop runs a
bounded number of rounds and returns the best state it visited.

The thresholds enter only through that prefactor, which neither step
reads and which scales every cell alike.  So the descent compares unit
powers, its best layout is the same at every threshold, and each
Requirements prices it last: a rate sweep walks the rounds once.

Baselines: sa1 parks UAVs at sub-area centers and pays for the actual
farthest user of each sub-area; sa2 parks them there and pays for the
sub-area corner whether or not anyone is present; uavoo keeps the
geographic association but moves UAVs to SED centers.  Each is a
threshold-free _Layout that a Scenario computes once and _priced prices,
and solve_scenario is their only route.  sa1 and uavoo are the proposed
scheme's first two states ("init" and "locate"), built by _start, the one
start builder that optimize and the scenario layouts both call.  A locate
step solves an SED only for a cluster missing from its table of those last
located over the same users, a Scenario's or a fresh one.  Feasible means
a finite priced total: no user past the FOV, no power overflowing.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .assignment import (CellAssociation, farthest_user,
                         greedy_min_size_clustering)
from .channel import (ConstraintCoefficients, InfeasibleError, Requirements,
                      VlcParams, _unit_power, constraint_coefficients)
from .geometry import Point2, Rect, _finite_points, smallest_enclosing_disk

# The descent's round cap and relative-improvement floor, which the paper
# leaves open; optimize and solve_scenario take others per call.
MAX_ITERS = 20
REL_TOL = 1e-9


class IterationEntry(NamedTuple):
    total_power: float
    step: str    # "init", "locate", "round", or a baseline name


@dataclass
class DeploymentSolution:
    """One deployment: positions, association, powers, and the search trace."""

    uav_positions: list[Point2]
    association: CellAssociation
    per_uav_power: list[float]
    total_power: float
    iterations: list[IterationEntry]
    feasible: bool


def nearest_position_association(users: Sequence[Sequence[float]],
                                 positions: Sequence[Sequence[float]]) -> CellAssociation:
    """Assign each user to the closest position; ties to the lowest index.

    On a row-major lattice of over 9 positions (columns and rows strictly
    increasing) a user compares only the 2x2 that bracket it, with the same
    answer, unless it is a million grid gaps off; squares past the double
    range are compared on coordinates scaled by a power of two.  Raises
    ValueError with no positions or a NaN or infinite coordinate.
    """
    if not positions:
        raise ValueError("at least one UAV position is required")
    points = _finite_points(positions, "UAV position")
    every = range(len(points))
    far, cells = math.inf, None
    if len(points) > 9:
        cols = [p[1] for p in points].count(points[0][1])
        xs = [p[0] for p in points[:cols]]
        ys = [p[1] for p in points[::cols]]
        # rows and columns must increase; past far, rounding may tie any position
        gap = min(b - a for v in (xs, ys) for a, b in zip(v, v[1:]))
        if gap > 0.0 and points == [(x, y) for y in ys for x in xs]:
            far = 1e12 * gap * gap
            cells = [[tuple(iy * cols + ix
                            for iy in range(max(ky - 1, 0), min(ky + 1, len(ys)))
                            for ix in range(max(kx - 1, 0), min(kx + 1, cols)))
                      for kx in range(cols + 1)] for ky in range(len(ys) + 1)]
    clusters: list[list[int]] = [[] for _ in points]
    for j, (ux, uy) in enumerate(_finite_points(users, "user")):
        scan = every if cells is None else \
            cells[bisect.bisect_left(ys, uy)][bisect.bisect_left(xs, ux)]
        best_i, best_s = _nearest(points, scan, ux, uy)
        if best_s > far:
            best_i, best_s = _nearest(points, every, ux, uy)
        if best_s == math.inf:    # every square overflowed
            k = 500 - max(math.frexp(abs(c))[1] for p in (*points, (ux, uy)) for c in p)
            best_i = _nearest([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in points],
                              every, math.ldexp(ux, k), math.ldexp(uy, k))[0]
        clusters[best_i].append(j)
    return CellAssociation(clusters)


def _nearest(points: Sequence[tuple[float, float]], scan: Sequence[int],
             ux: float, uy: float) -> tuple[int, float]:
    # the first of scan's points nearest (ux, uy), and its squared distance
    best_i, best_s = 0, math.inf
    for i in scan:
        px, py = points[i]
        dx = px - ux
        dy = py - uy
        s = dx * dx + dy * dy
        if s < best_s:
            best_i, best_s = i, s
    return best_i, best_s


def geographic_association(users: Sequence[Sequence[float]],
                           sub_areas: Sequence[Rect]) -> CellAssociation:
    """Sub-area membership association.

    Implemented as nearest sub-area center (lowest index on ties), which
    coincides with rectangle membership for uniform grid tilings (the
    Voronoi cells of a rectangular lattice are the rectangles themselves).
    """
    return nearest_position_association(users, [r.center() for r in sub_areas])


def locate_uavs(association: CellAssociation,
                users: Sequence[Sequence[float]],
                previous_positions: Sequence[Sequence[float]]) -> list[Point2]:
    """SED center of each cluster; empty clusters keep their previous position.
    A NaN or infinite coordinate, or an association that does not partition
    the users, raises ValueError."""
    if len(association.clusters) != len(previous_positions):
        raise ValueError("association and previous_positions disagree on UAV count")
    association.labels(len(users))
    return _locate(association, users,
                   [Point2(x, y) for x, y in
                    _finite_points(previous_positions, "UAV position")], {})


def _locate(association: CellAssociation, users: Sequence[Sequence[float]],
            positions: Sequence[Point2],
            centers: dict[bytes, Point2]) -> list[Point2]:
    # locate_uavs on checked positions.  centers maps the clusters last
    # located over these users to their SED centers: the same points in the
    # same order give the same disk, so only a new cluster solves one.  It is
    # left holding this association's clusters, keyed by packed indices: a
    # tuple would keep the index ints of a dropped association alive.
    positions = list(positions)
    located = {}
    for i, cluster in enumerate(association.clusters):
        if cluster:
            key = array("i", cluster).tobytes()
            center = centers.get(key)
            if center is None:
                center = smallest_enclosing_disk([users[j] for j in cluster]).center
            positions[i] = located[key] = center
    centers.clear()
    centers.update(located)
    return positions


class _Layout(NamedTuple):
    # A deployment before any threshold: each cell's unit power (0 when
    # empty, inf past the FOV).
    positions: list[Point2]
    association: CellAssociation
    units: list[float]


def _units(positions: Sequence[Sequence[float]],
           association: CellAssociation,
           users: Sequence[Sequence[float]], params: VlcParams) -> list[float]:
    # Per-UAV unit powers of a fixed deployment, each cell paying for its
    # farthest user; the association is not checked
    return [_unit_power(math.sqrt(farthest_user(center, cluster, users)[0]),
                        params) if cluster else 0.0
            for center, cluster in zip(positions, association.clusters)]


def evaluate_power(positions: Sequence[Sequence[float]],
                   association: CellAssociation,
                   users: Sequence[Sequence[float]],
                   coeffs: ConstraintCoefficients,
                   params: VlcParams) -> tuple[list[float], float]:
    """Per-UAV and total transmit power for a fixed deployment.

    Each non-empty cell pays for its farthest user; empty cells draw zero.
    The total is inf when the cells' powers sum past the double range.
    Raises ValueError when the association and the positions disagree on
    the UAV count, or when the association does not partition the users,
    and InfeasibleError naming the UAV and user when someone sits outside
    their serving UAV's field of view, where no power serves them.
    """
    if len(association.clusters) != len(positions):
        raise ValueError(f"association has {len(association.clusters)} clusters "
                         f"for {len(positions)} UAV positions")
    association.labels(len(users))
    units = _units(positions, association, users, params)
    if math.inf in units:
        i = units.index(math.inf)
        j = farthest_user(positions[i], association.clusters[i], users)[1]
        raise InfeasibleError(
            f"user {j} is outside the field of view of UAV {i}",
            uav_index=i, user_index=j)
    per = [coeffs.prefactor * unit for unit in units]
    return per, _total(per)


def _total(powers: Sequence[float]) -> float:
    # the sum of cell (or unit) powers; an inf power (past the FOV) or a sum
    # past the double range is inf, and so infeasible
    try:
        return math.fsum(powers)
    except OverflowError:
        return math.inf


def _priced(layout: _Layout, trace: Sequence[tuple[str, list[float]]],
            prefactor: float) -> DeploymentSolution:
    # The layout and its (step, units) trace at one prefactor, sharing no
    # list with either; the only place a DeploymentSolution is built.
    per = [prefactor * unit for unit in layout.units]
    total = _total(per)
    return DeploymentSolution(
        list(layout.positions),
        CellAssociation([list(c) for c in layout.association.clusters]),
        per, total,
        [IterationEntry(_total([prefactor * unit for unit in units]), step)
         for step, units in trace],
        total < math.inf)


def _start(users: Sequence[Sequence[float]], positions: Sequence[Sequence[float]],
           association: CellAssociation, params: VlcParams,
           centers: dict[bytes, Point2]) -> tuple[_Layout, _Layout]:
    # The "init" layout and the "locate" one, with every UAV at its cluster's
    # SED center (from centers, as _locate reads it): from sub-area centers,
    # sa1's and uavoo's at any thresholds.
    fixed = [Point2(float(p[0]), float(p[1])) for p in positions]
    init = _Layout(fixed, association,
                   _units(fixed, association, users, params))
    located = _locate(association, users, fixed, centers)
    return init, _Layout(located, association,
                         _units(located, association, users, params))


def _descend(users: Sequence[Sequence[float]], start: tuple[_Layout, _Layout],
             params: VlcParams, max_iters: int, rel_tol: float,
             centers: dict[bytes, Point2]
             ) -> tuple[_Layout, list[tuple[str, list[float]]]]:
    # Greedy rounds from start's "locate" layout: the best layout and its
    # (step, units) trace, "init" first when feasible.  Rounds compare unit
    # powers, so the result is the same at every positive prefactor.
    if not users:
        raise ValueError("at least one user is required")
    fixed, best = start
    trace = [("locate", best.units)]
    if math.inf in best.units:
        return best, trace
    if math.inf not in fixed.units:    # fixed initial placement may violate the FOV
        trace.insert(0, ("init", fixed.units))
    best_total = _total(best.units)
    positions, assoc = best.positions, best.association
    seen = set()
    for _ in range(max_iters):
        # a round's input fixes every round after it, and the best only falls
        key = tuple(positions)
        if key in seen:
            break
        seen.add(key)
        cand_assoc = greedy_min_size_clustering(positions, users, params)
        if cand_assoc.clusters == assoc.clusters:
            break    # association fixed point; relocation would change nothing
        positions = _locate(cand_assoc, users, positions, centers)
        assoc = cand_assoc
        units = _units(positions, assoc, users, params)
        if math.inf in units:
            break    # relocation put a user past the FOV; keep the best so far
        total = _total(units)
        if total < best_total:
            best = _Layout(positions, assoc, units)
            trace.append(("round", units))
            if best_total - total <= rel_tol * best_total:
                break
            best_total = total
    return best, trace


def _check_descent(max_iters: int, rel_tol: float) -> None:
    if not max_iters >= 1:    # NaN fails this comparison and the next
        raise ValueError("max_iters must be >= 1")
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError("rel_tol must be finite and >= 0")


def optimize(users: Sequence[Sequence[float]],
             uav_initial_positions: Sequence[Sequence[float]],
             params: VlcParams,
             reqs: Requirements,
             max_iters: int = MAX_ITERS,
             rel_tol: float = REL_TOL) -> DeploymentSolution:
    """Alternate greedy re-association and SED relocation, keep the best state.

    Starts from the given positions with each user at its nearest one,
    applies one location step, then runs full rounds of
    (re-associate, relocate), at most max_iters of them.  The greedy pass
    is a heuristic, so a round may raise total power; such rounds still
    advance the working state (they can unlock better associations later)
    but only rounds that improve on the best unit power (power over the
    prefactor) so far are recorded in the trace, which is therefore
    strictly decreasing in unit power after the "locate" entry.  The loop
    stops at an association fixed point, when a round's positions repeat
    an earlier round's (the rounds would cycle), when an improvement falls
    below rel_tol of the unit power, a ratio the same at every threshold,
    or at the round cap; the best state seen is returned.  A round whose
    relocated positions leave a user outside its UAV's field of view (a
    rounding step past the edge) also ends the descent, keeping the best
    state so far.  From sub-area centers this is solve_scenario's
    "proposed", bit for bit.  A max_iters below 1, or a rel_tol that is
    not finite and >= 0, raises ValueError.
    """
    _check_descent(max_iters, rel_tol)
    assoc = nearest_position_association(users, uav_initial_positions)
    centers: dict[bytes, Point2] = {}
    start = _start(users, uav_initial_positions, assoc, params, centers)
    prefactor = constraint_coefficients(params, reqs).prefactor
    return _priced(*_descend(users, start, params, max_iters, rel_tol, centers),
                   prefactor)
