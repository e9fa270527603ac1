"""Command-line front end: traces in, per-period metrics CSVs out.

Subcommands:

* ``run``       select aggregation points per delivery period for one or
                more algorithms, one metrics CSV per algorithm
* ``compare``   same pipeline plus a merged summary CSV and a table
* ``gen-trace`` write a synthetic two-way roadway trace
* ``tune``      search (d, k) on a trace, write the search trajectory
* ``exact``     solve one snapshot to optimality and print the result

Every output is a pure function of (config, seed): rerunning a command
with the same inputs reproduces each CSV byte for byte. Settings come
from a plain ``key = value`` config file, command-line flags, or both;
flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .metrics import (
    OffloadConstants,
    PeriodMetrics,
    aggregation_rate,
    notification_count,
    routing_update_count,
    summarize_run,
    upload_cost,
    write_period_metrics_csv,
    write_run_summary_csv,
)
from .mobility import (
    RadioParams,
    Trace,
    build_direction_constrained_udg,
    build_udg,
    generate_two_way_roadway,
    load_trace_csv,
    write_trace_csv,
)
from .selection import centrality_select, exact_min_dominating_set, rb_select
from .tuner import TunerConfig, tune_parameters, write_tuning_trajectory_csv

__all__ = [
    "AlgoSpec",
    "ConfigError",
    "GenParams",
    "RunConfig",
    "main",
    "parse_algo_spec",
    "run_one_algorithm",
]

ALGO_NAMES = ("centrality", "rb", "exact")


class ConfigError(ValueError):
    """Raised for contradictory or incomplete run settings."""


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm plus its parameters, e.g. centrality with d=3, k=4."""

    name: str
    d: int = 1
    k: int = 4
    slots: int = 256
    direction: bool = False

    def __post_init__(self):
        if self.name not in ALGO_NAMES:
            raise ConfigError(f"unknown algorithm {self.name!r}, expected one of {ALGO_NAMES}")
        if self.d < 1 or self.k < 1 or self.slots < 1:
            raise ConfigError(f"d, k, slots must all be >= 1 (got {self.d}, {self.k}, {self.slots})")

    @property
    def tag(self) -> str:
        if self.name == "centrality":
            base = f"centrality_d{self.d}_k{self.k}"
        elif self.name == "rb":
            base = f"rb_T{self.slots}"
        else:
            base = f"exact_d{self.d}"
        return base + ("_dir" if self.direction else "")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_algo_spec(text: str, d=1, k=4, slots=256, direction=False) -> AlgoSpec:
    """Parse 'name' or 'name:key=value,...'; unset keys fall back to the
    supplied defaults (normally the global flags)."""
    name, _, params = text.strip().partition(":")
    fields = {"d": d, "k": k, "slots": slots, "direction": direction}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in fields:
                raise ConfigError(f"bad algorithm parameter {item!r} in {text!r}")
            fields[key] = _parse_bool(value) if key == "direction" else int(value)
    return AlgoSpec(name=name.strip(), **fields)


@dataclass(frozen=True)
class GenParams:
    n: int = 50
    area: float = 1000.0
    duration: float = 60.0
    speed_min: float = 8.0
    speed_max: float = 14.0


@dataclass(frozen=True)
class RunConfig:
    algos: tuple[AlgoSpec, ...]
    trace_path: str | None = None
    gen: GenParams | None = None
    radio: RadioParams = RadioParams()
    period: float = 10.0
    t_start: float | None = None
    t_end: float | None = None
    out_dir: str = "results"
    seed: int = 0

    def __post_init__(self):
        if not self.algos:
            raise ConfigError("at least one algorithm is required")
        if self.period <= 0:
            raise ConfigError(f"period must be positive, got {self.period}")
        if self.trace_path is None and self.gen is None:
            raise ConfigError("either a trace path or generator parameters are required")


def _load_trace(cfg: RunConfig) -> Trace:
    if cfg.trace_path is not None:
        return load_trace_csv(cfg.trace_path)
    g = cfg.gen
    return generate_two_way_roadway(
        g.n, g.area, g.duration, (g.speed_min, g.speed_max), seed=cfg.seed
    )


def _period_boundaries(trace: Trace, cfg: RunConfig) -> list[float]:
    lo, hi = trace.span
    start = lo if cfg.t_start is None else cfg.t_start
    end = hi if cfg.t_end is None else cfg.t_end
    if start < lo or end > hi or start > end:
        raise ConfigError(f"window [{start}, {end}] not within trace span [{lo}, {hi}]")
    boundaries = []
    i = 0
    while True:
        t = start + i * cfg.period
        if t > end + 1e-9:
            break
        boundaries.append(t)
        i += 1
    return boundaries


def _select(algo: AlgoSpec, graph, period_index: int, seed: int):
    if algo.name == "centrality":
        return centrality_select(graph, algo.d, algo.k)
    if algo.name == "rb":
        period_seed = (seed * 1_000_003 + period_index) % 2**63
        return rb_select(graph, algo.slots, period_seed)
    return exact_min_dominating_set(graph, algo.d)


def run_one_algorithm(trace: Trace, algo: AlgoSpec, cfg: RunConfig) -> list[PeriodMetrics]:
    """Per-period pipeline: snapshot, graph, selection, metrics row.

    Zero-vehicle periods emit a row with blank rate so the time series
    stays aligned across algorithms.
    """
    consts = OffloadConstants(delivery_period=cfg.period)
    rows = []
    prev_points: frozenset[int] = frozenset()
    prev_assignment: dict[int, int] = {}
    for index, t in enumerate(_period_boundaries(trace, cfg)):
        snapshot = trace.positions_at(t)
        if not snapshot:
            rows.append(
                PeriodMetrics(
                    time=t,
                    n_vehicles=0,
                    n_edges=0,
                    n_aps=0,
                    aggregation_rate=None,
                    upload_cost_bps=0.0,
                    edges_examined=0,
                    n_notifications=notification_count(prev_points, frozenset()),
                    n_routing_updates=0,
                    n_reelections=0,
                )
            )
            prev_points, prev_assignment = frozenset(), {}
            continue
        if algo.direction:
            prev_snapshot = trace.positions_at(t - trace.sampling_period)
            graph, _ = build_direction_constrained_udg(snapshot, prev_snapshot, cfg.radio)
        else:
            graph = build_udg(snapshot, cfg.radio)
        result = _select(algo, graph, index, cfg.seed)
        points = result.aggregation_points
        rows.append(
            PeriodMetrics(
                time=t,
                n_vehicles=graph.n_vertices,
                n_edges=graph.n_edges,
                n_aps=len(points),
                aggregation_rate=aggregation_rate(len(points), graph.n_vertices),
                upload_cost_bps=upload_cost(len(points), consts),
                edges_examined=result.edges_examined,
                n_notifications=notification_count(prev_points, points),
                n_routing_updates=routing_update_count(prev_assignment, result.assignment),
                n_reelections=len(prev_points & points),
            )
        )
        prev_points, prev_assignment = points, result.assignment
    return rows


def _execute_algorithms(cfg: RunConfig):
    trace = _load_trace(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    outputs = []
    for algo in cfg.algos:
        rows = run_one_algorithm(trace, algo, cfg)
        path = os.path.join(cfg.out_dir, f"{algo.tag}.csv")
        write_period_metrics_csv(rows, path)
        outputs.append((algo, rows, path))
    return outputs


def cmd_run(cfg: RunConfig) -> int:
    for algo, rows, path in _execute_algorithms(cfg):
        s = summarize_run(algo.tag, rows)
        print(
            f"{algo.tag}: periods={s.n_periods}"
            f" mean_rate={s.mean_aggregation_rate:.4f}"
            f" mean_upload_bps={s.mean_upload_cost_bps:.2f}"
            f" mean_reelections={s.mean_reelections:.3f}"
            f" -> {path}"
        )
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    summaries = [summarize_run(algo.tag, rows) for algo, rows, _ in _execute_algorithms(cfg)]
    summary_path = os.path.join(cfg.out_dir, "summary.csv")
    write_run_summary_csv(summaries, summary_path)
    width = max(len(s.algorithm) for s in summaries)
    print(f"{'algorithm':<{width}}  {'mean_rate':>9}  {'upload_bps':>10}  {'reelections':>11}")
    for s in summaries:
        print(
            f"{s.algorithm:<{width}}  {s.mean_aggregation_rate:>9.4f}"
            f"  {s.mean_upload_cost_bps:>10.2f}  {s.mean_reelections:>11.3f}"
        )
    print(f"-> {summary_path}")
    return 0


def cmd_gen_trace(args) -> int:
    trace = generate_two_way_roadway(
        args.n, args.area, args.duration, (args.speed_min, args.speed_max), seed=args.seed
    )
    write_trace_csv(trace, args.out)
    print(f"{len(trace)} samples, {len(trace.vehicles)} vehicles -> {args.out}")
    return 0


def cmd_tune(args, cfg: RunConfig) -> int:
    trace = _load_trace(cfg)
    times = _period_boundaries(trace, cfg)
    tuner_cfg = TunerConfig(
        max_iterations=args.max_iterations,
        d_bounds=(1, args.d_max),
        k_bounds=(1, args.k_max),
    )
    result = tune_parameters(trace, times, tuner_cfg, cfg.radio)
    write_tuning_trajectory_csv(result, args.out)
    print(
        f"d={result.d} k={result.k} rate={result.value:.4f}"
        f" evaluations={result.n_evaluations} -> {args.out}"
    )
    return 0


def cmd_exact(args, cfg: RunConfig) -> int:
    trace = _load_trace(cfg)
    t = trace.span[0] if args.time is None else args.time
    snapshot = trace.positions_at(t)
    if not snapshot:
        raise ConfigError(f"no vehicles sampled at t={t}")
    graph = build_udg(snapshot, cfg.radio)
    result = exact_min_dominating_set(graph, args.d)
    print(f"n_aps={len(result.aggregation_points)}")
    print(f"members={sorted(result.aggregation_points)}")
    return 0


def _read_config_file(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _add_source_flags(p):
    p.add_argument("--config", help="key = value settings file; flags override it")
    p.add_argument("--trace", help="trace CSV (time,id,x,y)")
    p.add_argument("--gen-n", type=int, help="generate a roadway trace with this many vehicles")
    p.add_argument("--gen-area", type=float, help="generated roadway length in meters")
    p.add_argument("--gen-duration", type=float, help="generated trace duration in seconds")
    p.add_argument("--gen-speed-min", type=float, help="generated minimum speed in m/s")
    p.add_argument("--gen-speed-max", type=float, help="generated maximum speed in m/s")
    p.add_argument("--radius", type=float, help="radio range in meters (default 100)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")


def _add_run_flags(p):
    _add_source_flags(p)
    p.add_argument(
        "--algo",
        action="append",
        metavar="NAME[:k=v,...]",
        help="centrality | rb | exact, with optional d=, k=, slots=, direction=; repeatable",
    )
    p.add_argument("--d", type=int, help="domination radius in hops (default 1)")
    p.add_argument("--k", type=int, help="centrality horizon in hops (default 4)")
    p.add_argument("--slots", type=int, help="reservation frame length (default 256)")
    p.add_argument(
        "--direction", action="store_true", default=None, help="drop links between opposing headings"
    )
    p.add_argument("--period", type=float, help="delivery period in seconds (default 10)")
    p.add_argument("--t-start", type=float, help="window start (default trace start)")
    p.add_argument("--t-end", type=float, help="window end (default trace end)")
    p.add_argument("--out", help="output directory (default results)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="apsel", description="aggregation-point selection on vehicle traces"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_flags(sub.add_parser("run", help="per-period selection, one metrics CSV per algorithm"))
    _add_run_flags(sub.add_parser("compare", help="run plus merged summary CSV"))

    g = sub.add_parser("gen-trace", help="write a synthetic two-way roadway trace")
    g.add_argument("--n", type=int, default=50)
    g.add_argument("--area", type=float, default=1000.0)
    g.add_argument("--duration", type=float, default=60.0)
    g.add_argument("--speed-min", type=float, default=8.0)
    g.add_argument("--speed-max", type=float, default=14.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="trace.csv")

    t = sub.add_parser("tune", help="search (d, k) maximizing mean aggregation rate")
    _add_source_flags(t)
    t.add_argument("--period", type=float, help="sampling stride over the trace (default 10)")
    t.add_argument("--t-start", type=float)
    t.add_argument("--t-end", type=float)
    t.add_argument("--max-iterations", type=int, default=500)
    t.add_argument("--d-max", type=int, default=10)
    t.add_argument("--k-max", type=int, default=10)
    t.add_argument("--out", default="tuning.csv", help="trajectory CSV path")

    e = sub.add_parser("exact", help="optimal point set for one snapshot")
    _add_source_flags(e)
    e.add_argument("--time", type=float, help="snapshot instant (default trace start)")
    e.add_argument("--d", type=int, default=1)

    return parser


def _build_run_config(args, need_algos=True) -> RunConfig:
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name, conv, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_cfg:
            raw = file_cfg[name]
            return _parse_bool(raw) if conv is bool else conv(raw)
        return default

    d = pick("d", int, 1)
    k = pick("k", int, 4)
    slots = pick("slots", int, 256)
    direction = pick("direction", bool, False)

    algo_texts = getattr(args, "algo", None)
    if algo_texts is None and "algo" in file_cfg:
        algo_texts = file_cfg["algo"].replace(";", " ").split()
    if need_algos:
        if not algo_texts:
            raise ConfigError("at least one --algo is required")
        algos = tuple(parse_algo_spec(a, d, k, slots, direction) for a in algo_texts)
    else:
        if direction:
            raise ConfigError(f"{args.command} builds unfiltered graphs; direction is not supported")
        algos = (AlgoSpec("centrality", d=d, k=k, slots=slots),)

    trace_path = pick("trace", str, None)
    gen_n = pick("gen_n", int, None)
    gen = None
    if gen_n is not None:
        gen = GenParams(
            n=gen_n,
            area=pick("gen_area", float, 1000.0),
            duration=pick("gen_duration", float, 60.0),
            speed_min=pick("gen_speed_min", float, 8.0),
            speed_max=pick("gen_speed_max", float, 14.0),
        )
    if trace_path is not None and gen is not None:
        raise ConfigError("--trace and --gen-n are mutually exclusive")

    return RunConfig(
        algos=algos,
        trace_path=trace_path,
        gen=gen,
        radio=RadioParams(range_r=pick("radius", float, 100.0)),
        period=pick("period", float, 10.0),
        t_start=pick("t_start", float, None),
        t_end=pick("t_end", float, None),
        out_dir=pick("out", str, "results"),
        seed=pick("seed", int, 0),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_build_run_config(args))
        if args.command == "compare":
            return cmd_compare(_build_run_config(args))
        if args.command == "gen-trace":
            return cmd_gen_trace(args)
        if args.command == "tune":
            return cmd_tune(args, _build_run_config(args, need_algos=False))
        if args.command == "exact":
            return cmd_exact(args, _build_run_config(args, need_algos=False))
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
