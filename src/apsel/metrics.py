"""Per-period bookkeeping for aggregation-point runs.

One row per delivery period: how many vehicles and links the snapshot
had, how many aggregation points were elected, the resulting traffic
reduction and cellular upload cost, plus churn counters (vehicles
notified of a changed point set, routing-table updates, consecutive
reelections). Costs assume every vehicle produces one fixed-size status
packet per delivery period and only aggregation points talk to the
cellular uplink.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from statistics import mean

__all__ = [
    "OffloadConstants",
    "PeriodMetrics",
    "RunMetrics",
    "aggregation_rate",
    "notification_count",
    "read_period_metrics_csv",
    "reelection_count",
    "routing_update_count",
    "summarize_run",
    "upload_cost",
    "write_period_metrics_csv",
    "write_run_summary_csv",
]

METRICS_HEADER = [
    "time",
    "n_vehicles",
    "n_edges",
    "n_aps",
    "aggregation_rate",
    "upload_cost_bps",
    "edges_examined",
    "n_notifications",
    "n_routing_updates",
]


@dataclass(frozen=True)
class OffloadConstants:
    """packet_size_eps in bytes, periods in seconds."""

    packet_size_eps: int = 120
    delivery_period: float = 10.0

    def __post_init__(self):
        if self.packet_size_eps <= 0:
            raise ValueError(f"packet_size_eps must be positive, got {self.packet_size_eps}")
        if self.delivery_period <= 0:
            raise ValueError(f"delivery_period must be positive, got {self.delivery_period}")


def aggregation_rate(n_aps: int, n_vehicles: int) -> float:
    """Fraction of per-vehicle uplink traffic saved: 1 - n_aps / n_vehicles."""
    if n_vehicles < 1:
        raise ValueError(f"n_vehicles must be >= 1, got {n_vehicles}")
    if not 1 <= n_aps <= n_vehicles:
        raise ValueError(f"n_aps={n_aps} outside [1, {n_vehicles}]")
    return 1.0 - n_aps / n_vehicles


def upload_cost(n_aps: int, consts: OffloadConstants = OffloadConstants()) -> float:
    """Cellular upload in bytes per second: one packet per point per period."""
    if n_aps < 0:
        raise ValueError(f"n_aps must be >= 0, got {n_aps}")
    return n_aps * consts.packet_size_eps / consts.delivery_period


def notification_count(prev_points, cur_points) -> int:
    """Vehicles that must hear about a point-set change: symmetric difference."""
    return len(set(prev_points) ^ set(cur_points))


def routing_update_count(prev_assignment: dict[int, int], cur_assignment: dict[int, int]) -> int:
    """Routing-table rewrites between periods.

    A vehicle assigned in both periods counts when its point changed; a
    newly assigned vehicle counts once; a vehicle that left coverage
    costs nothing (its stale entry just times out).
    """
    updates = 0
    for v, p in cur_assignment.items():
        if v not in prev_assignment or prev_assignment[v] != p:
            updates += 1
    return updates


def reelection_count(history) -> tuple[dict[int, int], float]:
    """How often each vehicle kept its aggregation-point role.

    history is the sequence of point sets over consecutive periods. A
    reelection is a vehicle present in two adjacent sets. Returns the
    per-vehicle counts (every vehicle ever elected gets an entry) and
    their mean, 0.0 when nothing was ever elected.
    """
    history = [set(s) for s in history]
    if not history:
        raise ValueError("history must contain at least one period")
    ever = sorted(set().union(*history))
    counts = dict.fromkeys(ever, 0)
    for prev, cur in zip(history, history[1:]):
        for v in prev & cur:
            counts[v] += 1
    return counts, (mean(counts.values()) if counts else 0.0)


@dataclass(frozen=True)
class PeriodMetrics:
    """One delivery period's outcome.

    aggregation_rate is None for a period with no vehicles (the rate is
    undefined there, not zero). n_reelections counts points carried
    over from the previous period; it feeds the run summary but stays
    out of the per-period CSV.
    """

    time: float
    n_vehicles: int
    n_edges: int
    n_aps: int
    aggregation_rate: float | None
    upload_cost_bps: float
    edges_examined: int
    n_notifications: int
    n_routing_updates: int
    n_reelections: int = 0


def write_period_metrics_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for r in rows:
            writer.writerow(
                [
                    repr(r.time),
                    r.n_vehicles,
                    r.n_edges,
                    r.n_aps,
                    "" if r.aggregation_rate is None else repr(r.aggregation_rate),
                    repr(r.upload_cost_bps),
                    r.edges_examined,
                    r.n_notifications,
                    r.n_routing_updates,
                ]
            )


def read_period_metrics_csv(path) -> list[PeriodMetrics]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise ValueError(f"expected header {','.join(METRICS_HEADER)!r}, got {header!r}")
        for row in reader:
            if not row:
                continue
            rows.append(
                PeriodMetrics(
                    time=float(row[0]),
                    n_vehicles=int(row[1]),
                    n_edges=int(row[2]),
                    n_aps=int(row[3]),
                    aggregation_rate=None if row[4] == "" else float(row[4]),
                    upload_cost_bps=float(row[5]),
                    edges_examined=int(row[6]),
                    n_notifications=int(row[7]),
                    n_routing_updates=int(row[8]),
                )
            )
    return rows


@dataclass(frozen=True)
class RunMetrics:
    """Whole-run aggregates over the per-period rows."""

    algorithm: str
    n_periods: int
    mean_aggregation_rate: float
    mean_upload_cost_bps: float
    mean_reelections: float
    total_notifications: int
    total_routing_updates: int
    total_edges_examined: int


def summarize_run(algorithm: str, rows) -> RunMetrics:
    rows = list(rows)
    if not rows:
        raise ValueError("cannot summarize an empty run")
    rates = [r.aggregation_rate for r in rows if r.aggregation_rate is not None]
    return RunMetrics(
        algorithm=algorithm,
        n_periods=len(rows),
        mean_aggregation_rate=mean(rates) if rates else 0.0,
        mean_upload_cost_bps=mean(r.upload_cost_bps for r in rows),
        mean_reelections=mean(r.n_reelections for r in rows),
        total_notifications=sum(r.n_notifications for r in rows),
        total_routing_updates=sum(r.n_routing_updates for r in rows),
        total_edges_examined=sum(r.edges_examined for r in rows),
    )


def write_run_summary_csv(summaries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "algorithm",
                "n_periods",
                "mean_aggregation_rate",
                "mean_upload_cost_bps",
                "mean_reelections",
                "total_notifications",
                "total_routing_updates",
                "total_edges_examined",
            ]
        )
        for s in summaries:
            writer.writerow(
                [
                    s.algorithm,
                    s.n_periods,
                    repr(s.mean_aggregation_rate),
                    repr(s.mean_upload_cost_bps),
                    repr(s.mean_reelections),
                    s.total_notifications,
                    s.total_routing_updates,
                    s.total_edges_examined,
                ]
            )
