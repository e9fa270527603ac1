"""Benchmark inputs: seeded trace generators and the four workload definitions.

The generators live here, not in ``apsel``, so that a change to the
program's own roadway generator cannot change what the benchmark feeds
it. The program only ever receives the trace CSV written below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SPEED_RANGE = (8.0, 14.0)
LANE_OFFSET = 2.0  # half the 4 m lane separation


@dataclass(frozen=True)
class Algo:
    """One ``--algo`` argument and what the program calls its output.

    ``kind`` and ``params`` name the selector call that produces each
    row: ("centrality", (d, k)), ("rb", (slots,)) or ("exact", (d,)).
    """

    spec: str
    csv_name: str
    kind: str
    params: tuple[int, ...]
    direction: bool = False

    @property
    def d(self) -> int:
        return 1 if self.kind == "rb" else self.params[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # compare | run | tune
    algos: tuple[Algo, ...]
    extra_args: tuple[str, ...]
    # every check_stride-th period is recomputed through the library
    check_stride: int

    def cli_args(self, trace_path: str, out_dir: str, seed: int) -> list[str]:
        args = [self.command, "--trace", trace_path, "--seed", str(seed), *self.extra_args]
        if self.command == "tune":
            return args + ["--out", f"{out_dir}/tuning.csv"]
        for algo in self.algos:
            args += ["--algo", algo.spec]
        return args + ["--out", out_dir]

    def output_names(self) -> list[str]:
        if self.command == "tune":
            return ["tuning.csv"]
        names = [a.csv_name for a in self.algos]
        return names + (["summary.csv"] if self.command == "compare" else [])


CENTRALITY = Algo("centrality", "centrality_d1_k4.csv", "centrality", (1, 4))
CENTRALITY_D3 = Algo("centrality:d=3", "centrality_d3_k4.csv", "centrality", (3, 4))
CENTRALITY_DIR = Algo(
    "centrality:direction=true", "centrality_d1_k4_dir.csv", "centrality", (1, 4), True
)
RB = Algo("rb", "rb_T256.csv", "rb", (256,))
EXACT = Algo("exact", "exact_d1.csv", "exact", (1,))
EXACT_D2 = Algo("exact:d=2", "exact_d2.csv", "exact", (2,))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "roadway-compare",
            "the analysts' pipeline: 40 small graphs x 4 algorithms, per-call overhead and rebuilt graphs dominate",
            "compare",
            (CENTRALITY, CENTRALITY_D3, RB, CENTRALITY_DIR),
            ("--period", "1"),
            check_stride=5,
        ),
        Workload(
            "city-snapshot",
            "one 4000-vehicle snapshot: the O(n^2) UDG, the greedy max() scan and the rb frame dominate",
            "run",
            (CENTRALITY, RB, CENTRALITY_DIR),
            ("--t-start", "1"),
            check_stride=1,
        ),
        Workload(
            "roadway-tune",
            "40 graphs built once and scored 160 times by the tuner: closeness repeats and tuner work show",
            "tune",
            (),
            ("--period", "1", "--d-max", "2", "--k-max", "2"),
            check_stride=1,
        ),
        Workload(
            "sparse-exact",
            "1000 sparse 36-vehicle snapshots through exact d=1, d=2 and centrality: measures the B&B",
            "compare",
            (EXACT, EXACT_D2, CENTRALITY),
            ("--period", "1"),
            check_stride=20,
        ),
    )
}

# Rows are (time, id, x, y); times are whole seconds so that the
# program's float time lookups are exact.
Rows = list[tuple[float, int, float, float]]


def roadway_rows(n: int, length: float, duration: int, seed: int) -> Rows:
    """Two-lane road with opposing traffic, sampled at 1 Hz from t=0.

    Even ids drive east in the lower lane, odd ids west in the upper
    lane, each at a constant speed. Start positions are jittered on an
    even grid, so every seed has the same density and only the fine
    placement differs; vehicles run straight off the ends, as in the
    program's own generator.
    """
    rng = random.Random(seed)
    mid = length / 2.0
    starts = [(v + rng.random()) * length / n for v in range(n)]
    rng.shuffle(starts)
    speeds = [rng.uniform(*SPEED_RANGE) for _ in range(n)]
    rows = []
    for t in range(duration):
        for v in range(n):
            heading = 1.0 if v % 2 == 0 else -1.0
            lane = mid - LANE_OFFSET if v % 2 == 0 else mid + LANE_OFFSET
            rows.append((float(t), v, starts[v] + heading * speeds[v] * t, lane))
    return rows


def independent_roadway_rows(n: int, length: float, instants: int, seed: int) -> Rows:
    """``instants`` unrelated two-lane snapshots of ``n`` vehicles, 1 s apart.

    Exact branch-and-bound time per snapshot is heavy-tailed and
    consecutive snapshots of one moving road share their hard cases, so
    the sum over a moving trace varies by two orders of magnitude
    between seeds. Independent draws average the tail out.
    """
    rng = random.Random(seed)
    mid = length / 2.0
    rows = []
    for t in range(instants):
        for v in range(n):
            lane = mid - LANE_OFFSET if v % 2 == 0 else mid + LANE_OFFSET
            rows.append((float(t), v, rng.uniform(0.0, length), lane))
    return rows


def city_rows(n: int, mean_degree: float, radius: float, seed: int) -> Rows:
    """One 2-D snapshot at t=1 plus its predecessor at t=0.

    Vehicles are uniform on a square sized for the requested mean degree
    (n * pi * r^2 / side^2, ignoring the border) and each moves along
    one of the four axis headings, so the direction filter has both
    kept (same heading) and dropped (90 or 180 degree) links.
    """
    rng = random.Random(seed)
    side = math.sqrt(n * math.pi * radius * radius / mean_degree)
    headings = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
    rows = []
    for v in range(n):
        x, y = rng.uniform(0.0, side), rng.uniform(0.0, side)
        hx, hy = headings[rng.randrange(4)]
        speed = rng.uniform(*SPEED_RANGE)
        rows.append((0.0, v, x - hx * speed, y - hy * speed))
        rows.append((1.0, v, x, y))
    rows.sort()
    return rows


def workload_rows(name: str, seed: int) -> Rows:
    if name in ("roadway-compare", "roadway-tune"):
        return roadway_rows(300, 3000.0, 40, seed)
    if name == "city-snapshot":
        return city_rows(4000, 10.0, 100.0, seed)
    if name == "sparse-exact":
        return independent_roadway_rows(36, 3000.0, 1000, seed)
    raise KeyError(name)


def write_trace(rows: Rows, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("time,id,x,y\n")
        fh.writelines(f"{t!r},{v},{x!r},{y!r}\n" for t, v, x, y in rows)
