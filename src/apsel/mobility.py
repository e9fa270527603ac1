"""Vehicle traces and how snapshots of them become communication graphs.

A trace is a set of (time, vehicle, x, y) samples, held as typed-array
columns per sampled instant. At any sampled instant the vehicles'
positions induce a unit-disk graph: two vehicles are linked iff their
Euclidean distance is at most the radio range (boundary inclusive).
The direction-constrained variant additionally drops links between
vehicles heading more than 45 degrees apart, each judged from its
displacement since its own latest sample within the previous sampling
period; a vehicle with no such sample or zero displacement is
direction-neutral and keeps all its links.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import random
import sys
from array import array
from collections.abc import Mapping
from itertools import chain, groupby, islice
from operator import ge, itemgetter

from .graph import Frozen, SnapshotGraph, position_of, vertex_ids

__all__ = [
    "RadioParams",
    "Snapshot",
    "Trace",
    "TraceFormatError",
    "build_direction_constrained_udg",
    "build_udg",
    "generate_two_way_roadway",
    "load_trace_csv",
    "write_trace_csv",
]

TRACE_HEADER = ["time", "id", "x", "y"]
# Two times closer than this fraction of the sampling period name the same
# instant: period boundaries are sums of float steps, and trace times are
# decimals read from text, so the two rarely agree to the last bit.
TIME_TOLERANCE = 1e-6
# Links between moving vehicles whose headings differ by more than this
# many degrees are dropped by the direction filter.
ANGLE_THRESHOLD = 45.0


class TraceFormatError(ValueError):
    """Raised when a trace file or sample list is malformed."""


class Snapshot(Mapping):
    """Read-only ``{vehicle: (x, y)}`` view of one sampled instant.

    The ids are held ascending in one ``array('q')`` and the coordinates
    in two ``array('d')`` columns, so a sample costs 24 bytes and no
    object. Iteration and ``items()`` follow ascending id; a lookup is a
    binary search. It compares equal to the dict of its items.
    ``Trace`` makes them and shares the columns, never copies them.
    """

    __slots__ = ("_ids", "_xs", "_ys")

    def __init__(self, ids: array, xs: array, ys: array):
        self._ids, self._xs, self._ys = ids, xs, ys

    def __getitem__(self, v) -> tuple[float, float]:
        i = position_of(self._ids, v)
        if i < 0:
            raise KeyError(v)
        return self._xs[i], self._ys[i]

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return f"Snapshot({dict(self.items())!r})"


_EMPTY = Snapshot(array("q"), array("d"), array("d"))


def _instant(instants: dict[float, tuple], t: float) -> tuple[array, array, array]:
    """The (ids, xs, ys) columns being filled, in arrival order, for the
    instant at time t."""
    at = instants.get(t)
    if at is None:
        at = instants[t] = (array("q"), array("d"), array("d"))
    return at


def _frozen(instants: dict[float, tuple]) -> dict[float, Snapshot]:
    """Each instant's samples ordered by id, instants ascending. Raises for
    the smallest duplicated (time, vehicle) pair, naming the instant's time
    as it is keyed: the first read of its equal times, 0.0 or -0.0."""
    frozen = {}
    for t in sorted(instants):
        ids, xs, ys = instants[t]
        listed = ids.tolist()
        # skipping the sort for ids already ascending takes the load of the
        # 36k-sample sparse-exact trace from 46 to 32 ms (2-vCPU VM, CPython 3.11)
        if any(map(ge, listed, islice(listed, 1, None))):
            order = sorted(range(len(listed)), key=listed.__getitem__)
            ids = array("q", map(listed.__getitem__, order))
            for a, b in zip(ids, islice(ids, 1, None)):
                if a == b:
                    raise TraceFormatError(f"duplicate sample for vehicle {a} at t={t}")
            xs = array("d", map(xs.__getitem__, order))
            ys = array("d", map(ys.__getitem__, order))
        frozen[t] = Snapshot(ids, xs, ys)
    return frozen


def _id_error(v) -> str:
    return f"vehicle id {v!r} is not a signed 64-bit integer"


def _median_low(values):
    """statistics.median_low, without importing statistics: the lower
    middle of the sorted values."""
    return sorted(values)[(len(values) - 1) // 2]


class Trace:
    """Immutable position samples, held as columns per sampled instant.

    Each instant keeps its vehicle ids ascending in one ``array('q')``
    and their x and y in two ``array('d')``, about 26 bytes per sample
    with no object per sample; ``positions_at`` hands out a read-only
    ``Snapshot`` view of them. It is built from (time, vehicle, x, y)
    rows, in the CSV's column order; the rows may come in any order.
    Each time is stored as a float, as ``load_trace_csv`` reads it. A time
    or coordinate that is not a real number (a str or None) is rejected,
    so is a NaN or infinite one or an int too large for a float, an id
    that is not a signed 64-bit integer, and duplicate (time, vehicle)
    pairs, naming the smallest such pair. sampling_period is inferred as
    the median gap between consecutive sampled instants (the lower middle
    one for an even count; 1.0 when the trace has a single instant), so a
    stray sample just after an instant does not shrink it.
    """

    def __init__(self, samples):
        instants: dict[float, tuple] = {}
        isfinite = math.isfinite
        for p in samples:
            try:
                t, v, x, y = p
            except (TypeError, ValueError):
                got = len(p) if hasattr(p, "__len__") else type(p).__name__
                raise TraceFormatError(f"expected 4 fields, got {got}: {p!r}") from None
            try:
                finite = isfinite(t) and isfinite(x) and isfinite(y)
            except TypeError:
                raise TraceFormatError(f"time or coordinate is not a real number: {p!r}") from None
            except OverflowError:
                finite = False
            if not finite:
                raise TraceFormatError(f"non-finite time or coordinate {p!r}")
            ids, xs, ys = _instant(instants, float(t))
            try:
                ids.append(v)
            except (OverflowError, TypeError):
                raise TraceFormatError(f"{_id_error(v)}: {p!r}") from None
            xs.append(x)
            ys.append(y)
        if not instants:
            raise TraceFormatError("trace has no samples")
        self._set_instants(_frozen(instants))

    @classmethod
    def _from_instants(cls, instants: dict[float, Snapshot]) -> Trace:
        """Trusted constructor: instants is non-empty and ascending in time."""
        trace = cls.__new__(cls)
        trace._set_instants(instants)
        return trace

    def _set_instants(self, instants):
        self._instants = instants
        times = tuple(instants)
        self._times = times
        gaps = [b - a for a, b in zip(times, times[1:])]
        self._period = _median_low(gaps) if gaps else 1.0

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
        return tuple(sorted(set().union(*(at._ids for at in self._instants.values()))))

    def positions_at(self, t: float) -> Snapshot:
        """The vehicles sampled at the instant that t names (``instant_near``);
        empty when t names none."""
        t = self.instant_near(t)
        return _EMPTY if t is None else self._instants[t]

    def time_slack(self, t: float) -> float:
        """How far from t a time may lie and still name the same instant: TIME_TOLERANCE
        sampling periods plus a few ulps of t, which outgrow the first at epoch-scale t."""
        return TIME_TOLERANCE * self._period + 4 * math.ulp(t)

    def instant_near(self, t: float) -> float | None:
        """The sampled instant nearest t, or None if it lies farther than
        time_slack(t) away or t is not finite."""
        if not math.isfinite(t):
            # an infinite t has an infinite slack, which every instant is within
            return None
        i = bisect.bisect_left(self._times, t)
        near = min(self._times[max(i - 1, 0) : i + 1], key=lambda s: abs(s - t))
        return near if abs(near - t) <= self.time_slack(t) else None

    def positions_before(self, t: float) -> dict[int, tuple[float, float]]:
        """Each vehicle's latest position among the sampled instants before
        t that lie no more than one sampling period (give or take
        time_slack(t)) before it; a vehicle sampled at none of them is
        left out."""
        times = self._times
        i = j = bisect.bisect_left(times, t)
        reach = self._period + self.time_slack(t)
        while j and t - times[j - 1] <= reach:
            j -= 1
        prev: dict[int, tuple[float, float]] = {}
        for s in times[j:i]:
            at = self._instants[s]
            prev.update(zip(at._ids, zip(at._xs, at._ys)))
        return prev

    def __len__(self):
        return sum(map(len, self._instants.values()))


# The body of a trace file is read this many characters at a time, each
# read completed to a whole line.
BLOCK_SIZE = 1 << 14


def _read_records(instants: dict[float, tuple], lines, first_line: int) -> None:
    """Parse csv lines, the first of them the file's line first_line,
    record by record into their instants' columns, skipping blank lines;
    raise TraceFormatError for the first malformed record. This is the
    only code that rejects a record."""
    isfinite = math.isfinite
    # consecutive records mostly share their time field: reuse its
    # parsed value and its instant's columns (a 36k-sample CRLF trace
    # loads in 51 ms with the reuse, 56 without; 2-vCPU VM, CPython 3.11)
    last_field = None
    reader = csv.reader(lines)
    before = first_line - 1
    try:
        for row in reader:
            if len(row) != 4:
                if not row:
                    continue
                raise ValueError(f"expected 4 fields, got {len(row)}")
            field, v, x, y = row
            new_time = field != last_field
            if new_time:
                t = float(field)
            x, y, v = float(x), float(y), int(v)
            # t changes only with its field, so it is checked only then
            if not (isfinite(x) and isfinite(y)) or new_time and not isfinite(t):
                raise ValueError(f"non-finite time or coordinate {row!r}")
            if new_time:
                last_field = field
                ids, xs, ys = _instant(instants, t)
                add_id, add_x, add_y = ids.append, xs.append, ys.append
            try:
                add_id(v)
            except OverflowError:
                raise ValueError(_id_error(v)) from None
            add_x(x)
            add_y(y)
    except UnicodeDecodeError:  # met while reading ahead, so on no known line
        raise
    # csv.Error: a field over csv.field_size_limit(), or a NUL byte before Python 3.11
    except (ValueError, csv.Error) as exc:
        raise TraceFormatError(f"line {before + reader.line_num}: {exc}") from exc


def _take_block(instants: dict[float, tuple], block: str) -> bool:
    """Add a block of whole lines with no quote and no CR to their
    instants' columns, column by column, and return True; or add nothing
    and return False when a line might not be a plain valid record: other
    than 4 fields (a blank line too), a value that does not convert, is
    not finite or is an id outside int64, text longer than
    csv.field_size_limit(), or a last line with no newline. Instants are
    met in file order, as in ``_read_records``, so each is keyed by the
    first of its equal times read (0.0 or -0.0)."""
    n = block.count("\n")
    # each newline stays on the y field it ends, so a block of 4-field
    # lines splits into 4n + 1 fields with every newline in a y field
    fields = block.replace("\n", "\n,").split(",")
    ys = fields[3::4]
    if (
        not block.endswith("\n")
        or len(block) > csv.field_size_limit()
        or len(fields) != 4 * n + 1
        or "".join(ys).count("\n") != n
    ):
        return False
    try:
        ids = array("q", map(int, fields[1::4]))
        xs = array("d", map(float, fields[2::4]))
        ys = array("d", map(float, ys))
        # (time, length) of each run of records that share a time field
        runs = [(float(t), len(list(run))) for t, run in groupby(islice(fields, 0, 4 * n, 4))]
    except (ValueError, OverflowError):
        return False
    isfinite = math.isfinite
    # an inf or a nan makes its column's sum non-finite
    if not (isfinite(sum(xs)) and isfinite(sum(ys)) and isfinite(sum(t for t, _ in runs))):
        return False
    start = 0
    for t, count in runs:
        at_ids, at_xs, at_ys = _instant(instants, t)
        end = start + count
        at_ids += ids[start:end]
        at_xs += xs[start:end]
        at_ys += ys[start:end]
        start = end
    return True


def load_trace_csv(path) -> Trace:
    """Read a trace from CSV with header time,id,x,y.

    Records go straight into their instant's columns, in any row order;
    blank lines are skipped. Malformed records raise TraceFormatError
    naming the physical line on which the record ends (a quoted field may
    span lines), checked in this order: a line the csv module cannot read
    (header included), the field count, then float(time),
    float(x), float(y) and int(id), then a NaN or infinite time or
    coordinate, then an id outside the signed 64-bit range. A header other
    than time,id,x,y is reported before any record; a file with no
    samples, and then a duplicated (time, vehicle) pair, only once the
    whole file is read, naming the smallest such pair.

    The body is read BLOCK_SIZE characters at a time, completed to a whole
    line. A block of plain lines is converted column by column; a block
    that might hold anything else is parsed record by record, which alone
    raises for a record. From the first block with a quote or a CR on, the
    rest of the file is parsed record by record, as a quoted field may
    span blocks.
    """
    instants: dict[float, tuple] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
        if header != TRACE_HEADER:
            raise TraceFormatError(
                f"expected header {','.join(TRACE_HEADER)!r}, got {header!r}"
            )
        line = reader.line_num + 1
        while block := fh.read(BLOCK_SIZE):
            if not block.endswith("\n"):
                block += fh.readline()
            if '"' in block or "\r" in block:
                _read_records(instants, chain(io.StringIO(block, newline=""), fh), line)
                break
            if not _take_block(instants, block):
                _read_records(instants, io.StringIO(block, newline=""), line)
            line += block.count("\n")
    if not instants:
        raise TraceFormatError(f"{path}: no samples")
    return Trace._from_instants(_frozen(instants))


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for t, at in trace._instants.items():
            # the columns hold float64, whose str() is the shortest repr
            writer.writerows([t, v, x, y] for v, x, y in zip(at._ids, at._xs, at._ys))


class RadioParams(Frozen):
    """range_r in meters.

    ``build_udg`` links a pair iff ``dx*dx + dy*dy <= r*r``, so r*r must
    be a finite normal float: r lies within about [1.5e-154, 1.3e154].
    Outside it the square rounds to 0 or to inf and the test no longer
    measures distance. The message names no field, so the command line
    can show it for its ``--radius`` flag.
    """

    __slots__ = ("range_r",)

    def __init__(self, range_r: float = 100.0):
        r = range_r
        self._set(range_r=r)
        if not (r > 0 and sys.float_info.min <= r * r < math.inf):
            raise ValueError(
                f"radio range must be positive with a finite normal square"
                f" (about 1.5e-154 to 1.3e154), got {r}"
            )


# Strips are this much taller than the radio range, so that an in-range
# pair shares a strip or sits in adjacent ones.
_STRIP_SCALE = 1.01
# A snapshot may span fewer strip heights than this along either axis:
# past 2**52 the float quotient that gives a strip index has no
# fractional bits left.
_MAX_CELLS = 2.0**52


def _columns(snapshot: Mapping) -> tuple[list, list[float], list[float]]:
    """The snapshot's ids ascending, and their x and y as floats in the
    same order: a Snapshot's columns as they are, a plain mapping sorted."""
    if isinstance(snapshot, Snapshot):
        return snapshot._ids.tolist(), snapshot._xs.tolist(), snapshot._ys.tolist()
    ids = sorted(vertex_ids(snapshot))
    pos = [snapshot[v] for v in ids]
    return ids, [float(x) for x, _ in pos], [float(y) for _, y in pos]


def build_udg(snapshot: Mapping, radio: RadioParams = RadioParams()) -> SnapshotGraph:
    """Unit-disk graph: edge iff distance <= range, boundary included.

    A row-strip sweep finds the candidate pairs (the fixed-radius idea of
    Bentley, Stanat & Williams, IPL 1977). Each vehicle goes into the
    horizontal strip ``floor((y - y0) / w)`` of height w = 1.01 r, and each
    strip is sorted by x. A vehicle is paired with the vehicles after it
    in its own strip, and with a two-pointer window of each strip above
    whose lowest vehicle lies within w of this strip's highest one: in
    practice the next strip. Every candidate pair is tested once, by the
    exact ``dx*dx + dy*dy <= r*r`` comparison on coordinates converted
    with ``float()``. Time and memory grow with the vehicles and
    candidate pairs, never with the extent of the coordinates.

    No in-range pair is skipped, at any coordinate magnitude. Every skip
    rests on a rounded difference D of two coordinates exceeding w: the
    scan along a strip stops at the first b with ``xb - xa > w``, the
    window into a strip above drops b once ``xa - xb > w``, and the strips
    above stop at the first with ``bottom - top > w``. D is, up to its
    exact sign, the dx or dy that the distance test squares; for every
    later vehicle, further along in x or in a higher strip, rounding is
    monotone and the strip index is monotone in y, so that vehicle's own
    difference is at least D. As w = fl(1.01 r) exceeds r by far more
    than the rounding of a square, |D| > w gives fl(D*D) > fl(r*r), and
    adding the other, non-negative square cannot round the sum below
    fl(D*D), so the pair fails the test. This needs r*r to neither
    overflow nor underflow (r between about 1.5e-154 and 1.3e154 m), but
    not an exact strip index.

    The snapshot is a ``Snapshot`` view, whose columns are read as they
    are, or any ``{id: (x, y)}`` mapping, which is first put into the same
    ascending-id columns. Positions follow ascending id, as in
    ``SnapshotGraph.adjacency``. Raises ValueError for an id that is not
    an integer (``vertex_ids``), a non-finite coordinate, or a snapshot
    spanning 2**52 strip heights or more along an axis.
    """
    ids, xs, ys = _columns(snapshot)
    isfinite = math.isfinite
    for v, x, y in zip(ids, xs, ys):
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"vehicle {v} has a non-finite position {snapshot[v]}")
    vertices = tuple(ids)
    n = len(ids)
    if n < 2:
        return SnapshotGraph._from_sorted_adjacency(vertices, ((),) * n)

    r = radio.range_r
    w = _STRIP_SCALE * r
    x0, y0 = min(xs), min(ys)
    span = max((max(xs) - x0) / w, (max(ys) - y0) / w)
    if not span < _MAX_CELLS:
        raise ValueError(f"snapshot spans {span:.3g} cells of {w} m")
    floor = math.floor
    nbrs: list[list[int]] = [[] for _ in ids]
    by_key: dict[int, list] = {}
    for vehicle in zip(xs, ys, range(n), nbrs):
        key = floor((vehicle[1] - y0) / w)
        strip = by_key.get(key)
        if strip is None:
            by_key[key] = [vehicle]
        else:
            strip.append(vehicle)
    # each strip's (x, y, position, neighbours) tuples, ascending in x
    strips = [sorted(by_key[key]) for key in sorted(by_key)]
    bottoms = [min(map(itemgetter(1), strip)) for strip in strips]
    tops = [max(map(itemgetter(1), strip)) for strip in strips]

    rr = r * r
    for s, strip in enumerate(strips):
        m = len(strip)
        hi = 1
        for a, (xa, ya, pa, outa) in enumerate(strip, start=1):
            if hi < a:
                hi = a
            while hi < m and strip[hi][0] - xa <= w:
                hi += 1
            for xb, yb, pb, outb in strip[a:hi]:
                dx = xa - xb
                dy = ya - yb
                if dx * dx + dy * dy <= rr:
                    outa.append(pb)
                    outb.append(pa)
        for t in range(s + 1, len(strips)):
            if bottoms[t] - tops[s] > w:
                break
            above = strips[t]
            m = len(above)
            lo = hi = 0
            for xa, ya, pa, outa in strip:
                while lo < m and xa - above[lo][0] > w:
                    lo += 1
                if hi < lo:
                    hi = lo
                while hi < m and above[hi][0] - xa <= w:
                    hi += 1
                for xb, yb, pb, outb in above[lo:hi]:
                    dx = xa - xb
                    dy = ya - yb
                    if dx * dx + dy * dy <= rr:
                        outa.append(pb)
                        outb.append(pa)
    for out in nbrs:
        out.sort()
    return SnapshotGraph._from_sorted_adjacency(vertices, tuple(map(tuple, nbrs)))


def build_direction_constrained_udg(
    snapshot: Mapping, prev_snapshot: Mapping, radio: RadioParams = RadioParams()
) -> tuple[SnapshotGraph, int]:
    """Unit-disk graph minus links between oppositely-heading vehicles.

    A vehicle's heading is its displacement since prev_snapshot; it is
    direction-neutral when it has no previous sample or did not move. An
    edge survives when either endpoint is neutral or the angle between
    the two displacements is at most ANGLE_THRESHOLD. The angle is
    atan2(|cross|, dot), which keeps boundary cases exact: an
    axis-aligned and a diagonal heading come out at 45.0, not a hair
    above it. The filter runs on ``build_udg``'s position adjacency, and
    displacements are taken in float64, like its distances.
    Returns the filtered graph and the number of edges removed.
    """
    base = build_udg(snapshot, radio)
    ids, xs, ys = _columns(snapshot)
    moving = []
    for v, x, y in zip(ids, xs, ys):
        heading = None
        prev = prev_snapshot.get(v)
        if prev is not None:
            dx, dy = x - float(prev[0]), y - float(prev[1])
            if dx or dy:
                heading = (dx, dy)
        moving.append(heading)
    # each edge is judged from its lower end, in ascending order, so every
    # kept list stays ascending
    kept: list[list[int]] = [[] for _ in moving]
    removed = 0
    for i, (nbrs, mi, out) in enumerate(zip(base.adjacency, moving, kept)):
        for j in nbrs:
            if j <= i:
                continue
            mj = moving[j]
            if mi is not None and mj is not None:
                (xi, yi), (xj, yj) = mi, mj
                cross = xi * yj - yi * xj
                angle = math.degrees(math.atan2(abs(cross), xi * xj + yi * yj))
                # a NaN angle fails this test, so such an edge is dropped
                if not angle <= ANGLE_THRESHOLD:
                    removed += 1
                    continue
            out.append(j)
            kept[j].append(i)
    adjacency = tuple([tuple(out) for out in kept])
    return SnapshotGraph._from_sorted_adjacency(base.vertices, adjacency), removed


def check_roadway_params(n_vehicles, area_side, duration, speed_range) -> None:
    """Raise ValueError unless ``generate_two_way_roadway`` accepts these:
    at least one vehicle, a finite area, a finite duration of at least
    1 s and finite speeds with 0 < speed_min <= speed_max. The messages
    name no argument, so the command line can show them for its flags."""
    if n_vehicles < 1:
        raise ValueError(f"vehicle count must be >= 1, got {n_vehicles}")
    if not math.isfinite(area_side):
        raise ValueError(f"area must be finite, got {area_side}")
    if not (math.isfinite(duration) and duration >= 1):
        raise ValueError(f"duration must be finite and >= 1, got {duration}")
    lo, hi = speed_range
    if not 0 < lo <= hi < math.inf:
        raise ValueError(
            f"speeds must be finite with 0 < speed_min <= speed_max, got {lo} and {hi}"
        )


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
    check_roadway_params(n_vehicles, area_side, duration, speed_range)
    lo, hi = speed_range
    rng = random.Random(seed)
    mid = area_side / 2.0
    lanes = (mid - 2.0, mid + 2.0)  # 4 m lane separation
    starts = [rng.uniform(0.0, area_side) for _ in range(n_vehicles)]
    speeds = [rng.uniform(lo, hi) for _ in range(n_vehicles)]
    velocities = [(1.0 if v % 2 == 0 else -1.0) * speed for v, speed in enumerate(speeds)]
    # every instant holds the same ids and lane ordinates, so they share those columns
    ids = array("q", range(n_vehicles))
    ys = array("d", [lanes[v % 2] for v in range(n_vehicles)])
    instants = {
        float(t): Snapshot(ids, array("d", [x + u * t for x, u in zip(starts, velocities)]), ys)
        for t in range(int(duration))
    }
    return Trace._from_instants(instants)
