"""Vehicle traces and how snapshots of them become communication graphs.

A trace is a time-ordered list of (time, vehicle, x, y) samples. At any
sampled instant the vehicles' positions induce a unit-disk graph: two
vehicles are linked iff their Euclidean distance is at most the radio
range (boundary inclusive). The direction-constrained variant
additionally drops links between vehicles heading more than 45 degrees
apart, judged from their displacement over the previous sampling step;
a vehicle with no previous sample or zero displacement is
direction-neutral and keeps all its links.
"""

from __future__ import annotations

import bisect
import csv
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .graph import SnapshotGraph

__all__ = [
    "DisplacementVector",
    "RadioParams",
    "Trace",
    "TraceFormatError",
    "TracePoint",
    "build_direction_constrained_udg",
    "build_udg",
    "direction_angle",
    "displacements_at",
    "generate_two_way_roadway",
    "load_trace_csv",
    "snapshot_at",
    "write_trace_csv",
]

TRACE_HEADER = ["time", "id", "x", "y"]
# Two times closer than this fraction of the sampling period name the same
# instant: period boundaries are sums of float steps, and trace times are
# decimals read from text, so the two rarely agree to the last bit.
TIME_TOLERANCE = 1e-6


class TraceFormatError(ValueError):
    """Raised when a trace file or sample list is malformed."""


@dataclass(frozen=True, order=True)
class TracePoint:
    time: float
    vehicle: int
    x: float
    y: float


class Trace:
    """Immutable, time-sorted sequence of position samples.

    Duplicate (time, vehicle) pairs are rejected. sampling_period is
    inferred as the smallest positive gap between distinct sample
    times (1.0 when the trace has a single instant).
    """

    def __init__(self, points):
        pts = sorted(points, key=lambda p: (p.time, p.vehicle))
        if not pts:
            raise TraceFormatError("trace has no samples")
        by_time: dict[float, dict[int, tuple[float, float]]] = {}
        for p in pts:
            at = by_time.setdefault(p.time, {})
            if p.vehicle in at:
                raise TraceFormatError(
                    f"duplicate sample for vehicle {p.vehicle} at t={p.time}"
                )
            at[p.vehicle] = (p.x, p.y)
        self._points = tuple(pts)
        self._by_time = by_time
        times = sorted(by_time)
        self._times = tuple(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        self._period = min(gaps) if gaps else 1.0

    @property
    def points(self) -> tuple[TracePoint, ...]:
        return self._points

    @property
    def times(self) -> tuple[float, ...]:
        return self._times

    @property
    def span(self) -> tuple[float, float]:
        return self._times[0], self._times[-1]

    @property
    def sampling_period(self) -> float:
        return self._period

    @property
    def vehicles(self) -> tuple[int, ...]:
        return tuple(sorted({p.vehicle for p in self._points}))

    def positions_at(self, t: float) -> dict[int, tuple[float, float]]:
        return dict(self._by_time.get(t, {}))

    def instant_near(self, t: float) -> float | None:
        """The sampled instant nearest t, or None if it lies more than
        TIME_TOLERANCE sampling periods away."""
        i = bisect.bisect_left(self._times, t)
        near = min(self._times[max(i - 1, 0) : i + 1], key=lambda s: abs(s - t))
        return near if abs(near - t) <= TIME_TOLERANCE * self._period else None

    def instant_before(self, t: float) -> float | None:
        """The sampled instant preceding t, or None if there is none within
        one sampling period (give or take TIME_TOLERANCE of one) before t."""
        i = bisect.bisect_left(self._times, t)
        if not i:
            return None
        before = self._times[i - 1]
        return before if t - before <= (1 + TIME_TOLERANCE) * self._period else None

    def __len__(self):
        return len(self._points)


def load_trace_csv(path) -> Trace:
    """Read a trace from CSV with header time,id,x,y.

    Malformed rows, including a NaN or infinite time or coordinate, raise
    TraceFormatError naming the line.
    """
    points = []
    isfinite = math.isfinite
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise TraceFormatError(
                f"expected header {','.join(TRACE_HEADER)!r}, got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
            try:
                t, x, y = float(row[0]), float(row[2]), float(row[3])
                points.append(TracePoint(t, int(row[1]), x, y))
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            if not (isfinite(t) and isfinite(x) and isfinite(y)):
                raise TraceFormatError(f"line {lineno}: non-finite time or coordinate {row!r}")
    if not points:
        raise TraceFormatError(f"{path}: no samples")
    return Trace(points)


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for p in trace.points:
            writer.writerow([repr(p.time), p.vehicle, repr(p.x), repr(p.y)])


def snapshot_at(trace: Trace, t: float) -> dict[int, tuple[float, float]]:
    """Positions of all vehicles sampled exactly at time t.

    Raises outside the trace's time span; an in-span instant with no
    samples just yields an empty snapshot.
    """
    lo, hi = trace.span
    if not lo <= t <= hi:
        raise ValueError(f"t={t} outside trace span [{lo}, {hi}]")
    return trace.positions_at(t)


@dataclass(frozen=True)
class RadioParams:
    """range_r in meters, angle_threshold in degrees."""

    range_r: float = 100.0
    angle_threshold: float = 45.0

    def __post_init__(self):
        if self.range_r <= 0:
            raise ValueError(f"range_r must be positive, got {self.range_r}")
        if not 0 <= self.angle_threshold <= 180:
            raise ValueError(
                f"angle_threshold must be in [0, 180], got {self.angle_threshold}"
            )


# Grid cells are this much wider than the radio range, so float rounding
# in the cell index can never put an in-range pair two cells apart.
_CELL_SCALE = 1.01
# A cell (x, y) is keyed by the complex number x + iy: numpy sorts and
# searches complex numbers by real part, then imaginary part, which orders
# cells by column, then row. These are the key steps to a cell itself and
# to its forward neighbours (x, y+1), (x+1, y-1), (x+1, y), (x+1, y+1).
_FORWARD = np.array([0, 1j, 1 - 1j, 1, 1 + 1j])
# Cell coordinates must be exact integers in a float, with room for + 1.
_MAX_CELLS = 2.0**52


def build_udg(
    snapshot: dict[int, tuple[float, float]], radio: RadioParams = RadioParams()
) -> SnapshotGraph:
    """Unit-disk graph: edge iff distance <= range, boundary included.

    Vehicles are binned into square cells a little wider than the range
    (the fixed-radius grid of Bentley, Stanat & Williams, IPL 1977), so an
    in-range pair shares a cell or sits in adjacent ones. Each vehicle is
    paired only with the vehicles after it in its own cell and those in
    the cell's four forward neighbours, all in one vectorised pass, and
    each pair is decided by the exact ``sq <= r*r`` comparison on the
    position difference. Cells are found by binary search over the sorted
    cell keys, so memory grows with the number of vehicles and candidate
    pairs, never with the extent of the coordinates.

    Raises ValueError for a non-finite coordinate, a negative id, or a
    snapshot spanning 2**52 cells or more along an axis.
    """
    ids = sorted(snapshot)
    n = len(ids)
    pos = np.array([snapshot[v] for v in ids], dtype=float).reshape(n, 2)
    if not np.isfinite(pos).all():
        bad = ids[int(np.argmin(np.isfinite(pos).all(axis=1)))]
        raise ValueError(f"vehicle {bad} has a non-finite position {snapshot[bad]}")
    if n and ids[0] < 0:
        raise ValueError(f"vehicle ids must be non-negative, got {ids[0]}")
    if n < 2:
        return SnapshotGraph._from_sorted_adjacency({v: () for v in ids}, 0)

    r = radio.range_r
    cell = np.floor((pos - pos.min(axis=0)) / (_CELL_SCALE * r))
    if not cell.max() < _MAX_CELLS:
        raise ValueError(f"snapshot spans {cell.max():.3g} cells of {_CELL_SCALE * r} m")
    key = cell.view(complex).reshape(n)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    # sorted positions [lo, hi) of the five cells, per vehicle; in its own
    # cell a vehicle takes only the ones after it, so each pair comes once
    target = skey[:, None] + _FORWARD
    lo = np.searchsorted(skey, target)
    hi = np.searchsorted(skey, target, side="right")
    lo[:, 0] = np.arange(1, n + 1)
    count = hi - lo
    i = np.repeat(np.arange(n), count.sum(axis=1))
    flat = count.reshape(-1)
    j = np.arange(i.size) + np.repeat(lo.reshape(-1) - (np.cumsum(flat) - flat), flat)
    i, j = order[i], order[j]
    diff = pos[i] - pos[j]
    within = (diff * diff).sum(axis=1) <= r * r
    i, j = i[within], j[within]

    src = np.concatenate((i, j))
    dst = np.concatenate((j, i))
    # the tuples hold the snapshot's own id objects, not fresh copies
    nbr = [ids[k] for k in dst[np.argsort(src * n + dst, kind="stable")].tolist()]
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    adj = {}
    start = 0
    for v, end in zip(ids, ends):
        adj[v] = tuple(nbr[start:end])
        start = end
    return SnapshotGraph._from_sorted_adjacency(adj, int(i.size))


@dataclass(frozen=True)
class DisplacementVector:
    """Movement of one vehicle over one sampling step."""

    dx: float
    dy: float
    magnitude: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "magnitude", math.hypot(self.dx, self.dy))

    @property
    def is_neutral(self) -> bool:
        return self.magnitude == 0.0


def direction_angle(wi: DisplacementVector, wj: DisplacementVector) -> float:
    """Angle in degrees between two displacement vectors, in [0, 180].

    atan2 of the cross/dot pair keeps boundary cases exact: parallel
    axis-aligned vs diagonal unit vectors come out at 45.0, not a hair
    above it.
    """
    if wi.is_neutral or wj.is_neutral:
        raise ValueError("direction angle undefined for a zero displacement")
    dot = wi.dx * wj.dx + wi.dy * wj.dy
    cross = wi.dx * wj.dy - wi.dy * wj.dx
    return math.degrees(math.atan2(abs(cross), dot))


def displacements_at(
    snapshot: dict[int, tuple[float, float]],
    prev_snapshot: dict[int, tuple[float, float]],
) -> dict[int, DisplacementVector]:
    """Per-vehicle displacement since the previous snapshot.

    Vehicles absent from the previous snapshot get no entry, which the
    direction filter treats as neutral.
    """
    out = {}
    for v, (x, y) in snapshot.items():
        if v in prev_snapshot:
            px, py = prev_snapshot[v]
            out[v] = DisplacementVector(x - px, y - py)
    return out


def build_direction_constrained_udg(
    snapshot: dict[int, tuple[float, float]],
    prev_snapshot: dict[int, tuple[float, float]],
    radio: RadioParams = RadioParams(),
) -> tuple[SnapshotGraph, int]:
    """Unit-disk graph minus links between oppositely-heading vehicles.

    An edge survives when either endpoint is direction-neutral (no
    previous sample, or zero displacement) or the angle between the two
    displacement vectors is at most the threshold. Returns the filtered
    graph and the number of edges removed.
    """
    base = build_udg(snapshot, radio)
    moving = {
        v: w for v, w in displacements_at(snapshot, prev_snapshot).items() if not w.is_neutral
    }
    # edges come in sorted order, so every kept list stays ascending
    kept: dict[int, list[int]] = {v: [] for v in base.vertices}
    removed = 0
    for i, j in base.edges():
        wi = moving.get(i)
        wj = moving.get(j)
        if wi is None or wj is None or direction_angle(wi, wj) <= radio.angle_threshold:
            kept[i].append(j)
            kept[j].append(i)
        else:
            removed += 1
    adj = {v: tuple(nbrs) for v, nbrs in kept.items()}
    return SnapshotGraph._from_sorted_adjacency(adj, base.n_edges - removed), removed


def generate_two_way_roadway(
    n_vehicles: int,
    area_side: float = 1000.0,
    duration: float = 60.0,
    speed_range: tuple[float, float] = (8.0, 14.0),
    seed: int = 0,
) -> Trace:
    """Synthetic straight two-lane road with opposing traffic.

    Even-id vehicles drive east in the lower lane, odd-id vehicles west
    in the upper lane, each at a constant per-vehicle speed drawn
    uniformly from speed_range. Positions are sampled at 1 Hz from t=0.
    Vehicles run straight without wrapping, so cross-lane displacement
    pairs stay at exactly 180 degrees for the whole trace.
    """
    if n_vehicles < 1:
        raise ValueError(f"n_vehicles must be >= 1, got {n_vehicles}")
    if duration < 1:
        raise ValueError(f"duration must be >= 1, got {duration}")
    lo, hi = speed_range
    if not 0 < lo <= hi:
        raise ValueError(f"bad speed_range {speed_range}")
    rng = random.Random(seed)
    mid = area_side / 2.0
    lanes = {0: mid - 2.0, 1: mid + 2.0}  # 4 m lane separation
    starts = [rng.uniform(0.0, area_side) for _ in range(n_vehicles)]
    speeds = [rng.uniform(lo, hi) for _ in range(n_vehicles)]
    points = []
    for t in range(int(duration)):
        for v in range(n_vehicles):
            heading = 1.0 if v % 2 == 0 else -1.0
            x = starts[v] + heading * speeds[v] * t
            points.append(TracePoint(float(t), v, x, lanes[v % 2]))
    return Trace(points)
