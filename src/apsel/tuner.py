"""Derivative-free tuning of the selection parameters (d, k).

A plain Nelder-Mead simplex runs in continuous 2-space; every candidate
point is clamped to the configured box and rounded to the nearest
integers before the objective (mean aggregation rate of the centrality
selector over the period graphs it is given) is evaluated. Evaluations
are memoized per integer pair, and the reported optimum is the best pair
the search ever touched, so the integer grid, not the simplex geometry,
has the last word.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

from .graph import Frozen
from .metrics import aggregation_rate
from .selection import centrality_select

__all__ = [
    "NelderMeadResult",
    "TuneResult",
    "TunerConfig",
    "nelder_mead",
    "tune_integer_objective",
    "tune_parameters",
    "write_tuning_trajectory_csv",
]

TRAJECTORY_HEADER = ["iteration", "d", "k", "objective"]


# The usual Nelder-Mead coefficients, the objective spread that ends the
# search, and one tuning run's iteration budget, which no search seen on
# boxes up to 100 x 100 came near (at most 77 trajectory rows).
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5
TOLERANCE = 1e-10
MAX_ITERATIONS = 500


class TunerConfig(Frozen):
    """The integer search box [1, d_max] x [1, k_max].

    d is capped at 10 hops by default; k's ceiling is in principle the
    network diameter, 10 covers every trace this package generates.
    """

    __slots__ = ("d_max", "k_max")

    def __init__(self, d_max: int = 10, k_max: int = 10):
        self._set(d_max=d_max, k_max=k_max)
        for name, value in (("d_max", d_max), ("k_max", k_max)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


class NelderMeadResult(NamedTuple):
    """Where a Nelder-Mead search stopped.

    converged means the objective spread across the simplex collapsed
    below TOLERANCE, not that point is a minimum (see ``nelder_mead``).
    """

    point: tuple[float, ...]
    value: float
    evaluations: int
    converged: bool
    trajectory: tuple[tuple[tuple[float, ...], float], ...]


def _clamp(x, bounds):
    if bounds is None:
        return tuple(float(v) for v in x)
    return tuple(float(min(max(v, lo), hi)) for v, (lo, hi) in zip(x, bounds))


def _move(origin, coef, head, tail, bounds):
    """The point origin + coef * (head - tail), elementwise, clamped into bounds."""
    return _clamp([o + coef * (h - t) for o, h, t in zip(origin, head, tail)], bounds)


def _affine_rank(points) -> int:
    """Exact dimension of the affine hull of float points: Gaussian
    elimination over Fractions on the edge vectors from the first point."""
    from fractions import Fraction  # here alone, so importing apsel loads no fractions

    first = [Fraction(v) for v in points[0]]
    m = [[Fraction(v) - f for v, f in zip(x, first)] for x in points[1:]]
    rank = 0
    for col in range(len(first)):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def nelder_mead(objective, initial_simplex, max_iterations: int = 500, bounds=None) -> NelderMeadResult:
    """Minimize `objective` from the given (p+1)-point simplex.

    Candidate points (including the initial vertices) are clamped into
    `bounds` before evaluation, so the objective is never probed
    outside the box. A clamped simplex whose edge vectors have exact rank
    below p is degenerate and rejected. Stops when the objective spread
    across the simplex stays below TOLERANCE for two consecutive simplex
    states (a flat initial simplex stops at once) or max_iterations is
    reached.
    The persistence requirement matters: a large simplex can land all
    its vertices on one contour of the objective for a single step, and
    stopping there would freeze the search far from any optimum.
    converged reports only that the spread collapsed, not that the point
    is a minimum: on (x-1)^2 + (y-2)^2 the nearly flat start
    [(0, 0), (1, 1), (2, nextafter(2, 3))] converges at (1.5, 1.5),
    value 0.5, while the minimum is 0 at (1, 2). The trajectory records
    the incumbent best (point, value) after every iteration, row 0 being
    the initial best, so the search ran len(trajectory) - 1 iterations.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    simplex = [_clamp(tuple(float(v) for v in x), bounds) for x in initial_simplex]
    p = len(simplex[0])
    if len(simplex) != p + 1 or any(len(x) != p for x in simplex):
        raise ValueError(f"need {p + 1} points of dimension {p}")
    if not all(math.isfinite(v) for x in simplex for v in x):
        raise ValueError("initial simplex has a non-finite coordinate")
    if _affine_rank(simplex) < p:
        raise ValueError("degenerate initial simplex")

    evaluations = 0

    def f(x):
        nonlocal evaluations
        evaluations += 1
        return objective(x)

    pts = [(f(x), x) for x in simplex]
    pts.sort()
    trajectory = [(pts[0][1], pts[0][0])]

    iteration = 0
    prev_below = pts[-1][0] - pts[0][0] < TOLERANCE
    converged = prev_below
    while not converged and iteration < max_iterations:
        iteration += 1
        best_v, best_x = pts[0]
        worst_v, worst_x = pts[-1]
        second_worst_v = pts[-2][0]
        # each column summed from 0.0, then divided, as np.mean does: a
        # column of -0.0 entries has centroid 0.0, not -0.0
        total = [0.0] * p
        for _, x in pts[:-1]:
            total = [a + b for a, b in zip(total, x)]
        centroid = [a / p for a in total]

        reflected = _move(centroid, REFLECTION, centroid, worst_x, bounds)
        fr = f(reflected)
        if best_v <= fr < second_worst_v:
            pts[-1] = (fr, reflected)
        elif fr < best_v:
            expanded = _move(centroid, EXPANSION, centroid, worst_x, bounds)
            fe = f(expanded)
            pts[-1] = (fe, expanded) if fe < fr else (fr, reflected)
        else:
            if fr < worst_v:  # outside: contract toward the reflected point
                contracted = _move(centroid, CONTRACTION, reflected, centroid, bounds)
                fc = f(contracted)
                accept = fc <= fr
            else:  # inside: contract toward the worst point
                # the same bits as centroid - CONTRACTION * (centroid - worst),
                # because no centroid entry is -0.0
                contracted = _move(centroid, CONTRACTION, worst_x, centroid, bounds)
                fc = f(contracted)
                accept = fc < worst_v
            if accept:
                pts[-1] = (fc, contracted)
            else:
                shrunk = [pts[0]]
                for _, x in pts[1:]:
                    nx = _move(best_x, SHRINK, x, best_x, bounds)
                    shrunk.append((f(nx), nx))
                pts = shrunk
        pts.sort()
        trajectory.append((pts[0][1], pts[0][0]))
        below = pts[-1][0] - pts[0][0] < TOLERANCE
        converged = below and prev_below
        prev_below = below

    return NelderMeadResult(
        point=pts[0][1],
        value=pts[0][0],
        evaluations=evaluations,
        converged=converged,
        trajectory=tuple(trajectory),
    )


def _round_to_grid(x: float) -> int:
    # round-half-up keeps the mapping monotone; banker's rounding does not
    return math.floor(x + 0.5)


class TuneResult(NamedTuple):
    d: int
    k: int
    value: float
    n_evaluations: int
    trajectory: tuple[tuple[int, int, float], ...]


def _unit_simplex(base: tuple[float, float], d_max: int, k_max: int):
    # step inward when a unit step would leave the box
    dx = 1.0 if base[0] + 1 <= d_max else -1.0
    dy = 1.0 if base[1] + 1 <= k_max else -1.0
    return [base, (base[0] + dx, base[1]), (base[0], base[1] + dy)]


def tune_integer_objective(objective, config: TunerConfig = TunerConfig()) -> TuneResult:
    """Maximize an integer objective f(d, k) over the box [1, d_max] x [1, k_max].

    The simplex explores continuous space, clamped into the box; each
    vertex is rounded onto the integer grid, and f is evaluated at most
    once per grid pair. Because rounding makes the surrogate piecewise
    constant, a shrunken simplex can flatline one cell away from the
    optimum; the search therefore restarts with a fresh unit simplex at
    the incumbent best pair until a restart brings no improvement, all
    within the one MAX_ITERATIONS budget. Returns the best pair among
    everything evaluated (lowest d, then lowest k on ties). Trajectory
    rows mirror the simplex's incumbent best per iteration as
    (d, k, objective).
    """
    d_max, k_max = config.d_max, config.k_max
    memo: dict[tuple[int, int], float] = {}

    def surrogate(x):
        pair = (_round_to_grid(x[0]), _round_to_grid(x[1]))
        if pair not in memo:
            memo[pair] = objective(*pair)
        return -memo[pair]

    def incumbent():
        return max(memo, key=lambda pr: (memo[pr], -pr[0], -pr[1]))

    trajectory: list[tuple[int, int, float]] = []
    if d_max == 1 or k_max == 1:
        # box too thin for a non-degenerate 2-simplex; scan it outright
        for d in range(1, d_max + 1):
            for k in range(1, k_max + 1):
                memo[(d, k)] = objective(d, k)
                b = incumbent()
                trajectory.append((b[0], b[1], memo[b]))
    else:
        bounds = [(1.0, float(d_max)), (1.0, float(k_max))]
        base = (1.0, float(min(4, k_max)))
        iterations_used = 0
        best_pair = None
        while iterations_used < MAX_ITERATIONS:
            budget = MAX_ITERATIONS - iterations_used
            res = nelder_mead(surrogate, _unit_simplex(base, d_max, k_max), budget, bounds=bounds)
            # a restart's initial row duplicates the incumbent
            for x, v in res.trajectory[1:] if trajectory else res.trajectory:
                trajectory.append((_round_to_grid(x[0]), _round_to_grid(x[1]), -v))
            iterations_used += max(len(res.trajectory) - 1, 1)
            now_best = incumbent()
            if now_best == best_pair:
                break
            best_pair = now_best
            base = (float(best_pair[0]), float(best_pair[1]))

    best_pair = incumbent()
    return TuneResult(
        d=best_pair[0],
        k=best_pair[1],
        value=memo[best_pair],
        n_evaluations=len(memo),
        trajectory=tuple(trajectory),
    )


def tune_parameters(graphs, config: TunerConfig = TunerConfig()) -> TuneResult:
    """Tune (d, k) to maximize the mean aggregation rate of
    ``centrality_select`` over graphs, one per scored period, each scored
    at every (d, k) the search tries. Raises ValueError, before any
    evaluation, for no graph or a graph with no vehicles. Deterministic
    for fixed graphs and config.
    """
    graphs = list(graphs)
    if not graphs or not all(g.n_vertices for g in graphs):
        raise ValueError("tuning needs at least one graph, and a vehicle in each")

    def mean_rate(d: int, k: int) -> float:
        total = 0.0
        for g in graphs:
            n_aps = len(centrality_select(g, d, k).aggregation_points)
            total += aggregation_rate(n_aps, g.n_vertices)
        return total / len(graphs)

    return tune_integer_objective(mean_rate, config)


def write_tuning_trajectory_csv(result: TuneResult, path) -> None:
    """One row per trajectory entry, numbered from 0 in the iteration column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_HEADER)
        writer.writerows((i, *row) for i, row in enumerate(result.trajectory))
