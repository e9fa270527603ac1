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
    "PeriodMetrics",
    "RunMetrics",
    "aggregation_rate",
    "notification_count",
    "read_period_metrics_csv",
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

# Every vehicle's status packet, in bytes.
PACKET_SIZE_BYTES = 120


def aggregation_rate(n_aps: int, n_vehicles: int) -> float:
    """Fraction of per-vehicle uplink traffic saved: 1 - n_aps / n_vehicles."""
    if n_vehicles < 1:
        raise ValueError(f"n_vehicles must be >= 1, got {n_vehicles}")
    if not 1 <= n_aps <= n_vehicles:
        raise ValueError(f"n_aps={n_aps} outside [1, {n_vehicles}]")
    return 1.0 - n_aps / n_vehicles


def upload_cost(n_aps: int, delivery_period: float = 10.0) -> float:
    """Cellular upload in bytes per second: one packet per point per
    delivery period (in seconds)."""
    if n_aps < 0:
        raise ValueError(f"n_aps must be >= 0, got {n_aps}")
    if delivery_period <= 0:
        raise ValueError(f"delivery_period must be positive, got {delivery_period}")
    return n_aps * PACKET_SIZE_BYTES / delivery_period


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
