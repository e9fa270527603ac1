"""Command-line front end: traces in, per-period metrics CSVs out.

Subcommands:

* ``run``       select aggregation points per delivery period for one or
                more algorithms, one metrics CSV per algorithm
* ``compare``   same pipeline plus a merged summary CSV and a table
* ``gen-trace`` write a synthetic two-way roadway trace
* ``tune``      search (d, k) on a trace, write the search trajectory

Every output is a pure function of (config, seed): rerunning a command
with the same inputs reproduces each CSV byte for byte. Settings come
from a plain ``key = value`` config file, command-line flags, or both;
a file may set exactly the running subcommand's own flags, and flags
win. A setting has one flag and one help wherever it is taken, and an
algorithm's parameters are set only in its ``--algo`` spec. ``run``,
``compare`` and ``tune`` read one trace source, the ``--trace`` file; the
roadway generator's ``--gen-*`` flags are ``gen-trace``'s alone.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import Callable, NamedTuple

from .graph import Frozen, SnapshotGraph
from .metrics import (
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
    check_roadway_params,
    generate_two_way_roadway,
    load_trace_csv,
    write_trace_csv,
)
from .selection import (
    SelectionResult,
    assign_to_aggregation_points,
    centrality_select,
    exact_min_dominating_set,
    rb_select,
)
from .tuner import TunerConfig, tune_parameters, write_tuning_trajectory_csv

__all__ = [
    "AlgoSpec",
    "ConfigError",
    "GenParams",
    "RunConfig",
    "main",
    "parse_algo_spec",
    "run_algorithms",
]


class ConfigError(ValueError):
    """Raised for contradictory or incomplete run settings."""


class _Algorithm(NamedTuple):
    keys: tuple[str, ...]  # inline parameters it reads, besides direction
    tag: str  # output file stem, formatted with the AlgoSpec's fields
    select: Callable  # (AlgoSpec, graph, period seed) -> SelectionResult


# The only place that knows the algorithms. Each selector is called
# through its module-level name at call time, never stored here, so a
# wrapper bound to that name (as bench/tracer.py installs) sees every call.
ALGORITHMS = {
    "centrality": _Algorithm(
        ("d", "k"), "centrality_d{d}_k{k}", lambda a, g, seed: centrality_select(g, a.d, a.k)
    ),
    "rb": _Algorithm(("slots",), "rb_T{slots}", lambda a, g, seed: rb_select(g, a.slots, seed)),
    "exact": _Algorithm(("d",), "exact_d{d}", lambda a, g, seed: exact_min_dominating_set(g, a.d)),
}


class AlgoSpec(Frozen):
    """One algorithm plus its parameters, e.g. centrality with d=3, k=4."""

    __slots__ = ("name", "d", "k", "slots", "direction")

    def __init__(self, name: str, d: int = 1, k: int = 4, slots: int = 256,
                 direction: bool = False):
        self._set(name=name, d=d, k=k, slots=slots, direction=direction)
        if name not in ALGORITHMS:
            known = ", ".join(ALGORITHMS)
            raise ConfigError(f"unknown algorithm {name!r}, expected one of {known}")
        for key in ALGORITHMS[name].keys:  # a field it does not read goes unchecked
            if getattr(self, key) < 1:
                raise ConfigError(f"{name} {key} must be >= 1, got {getattr(self, key)}")

    @property
    def hops(self) -> int:
        """How far the selected points cover: d where the algorithm reads
        it. rb, which reads none, elects a 1-hop cover."""
        return self.d if "d" in ALGORITHMS[self.name].keys else 1

    @property
    def tag(self) -> str:
        tag = ALGORITHMS[self.name].tag.format(d=self.d, k=self.k, slots=self.slots)
        return tag + ("_dir" if self.direction else "")


# the words a direction= value may be written as
BOOLEANS = {"1": True, "true": True, "on": True, "yes": True,
            "0": False, "false": False, "off": False, "no": False}


def parse_algo_spec(text: str) -> AlgoSpec:
    """Parse 'name' or 'name:key=value,...'.

    An inline key must be one the algorithm reads (its ALGORITHMS keys,
    or direction); a key the text leaves unset keeps AlgoSpec's default.
    """
    name, _, params = text.strip().partition(":")
    name = AlgoSpec(name.strip()).name  # raises for an unknown algorithm
    readable = ALGORITHMS[name].keys + ("direction",)
    inline = {}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigError(f"bad algorithm parameter {item!r} in {text!r}")
            if key not in readable:
                raise ConfigError(f"{name} reads {', '.join(readable)}, not {key!r}")
            if key in inline:
                raise ConfigError(f"{name} sets {key} twice in {text!r}")
            try:
                inline[key] = BOOLEANS[value.strip().lower()] if key == "direction" else int(value)
            except (KeyError, ValueError):
                kind = "a boolean" if key == "direction" else "an integer"
                raise ConfigError(f"{name} {key} must be {kind}, got {value.strip()!r}") from None
    return AlgoSpec(name, **inline)


class GenParams(Frozen):
    __slots__ = ("n", "area", "duration", "speed_min", "speed_max")

    def __init__(self, n: int = 50, area: float = 1000.0, duration: float = 60.0,
                 speed_min: float = 8.0, speed_max: float = 14.0):
        self._set(n=n, area=area, duration=duration, speed_min=speed_min, speed_max=speed_max)
        # the generator's own checks, run at parse so that no output exists yet
        try:
            check_roadway_params(n, area, duration, (speed_min, speed_max))
        except ValueError as exc:
            raise ConfigError(f"gen {exc}") from exc


class TraceConfig(Frozen):
    """The instants a command reads from its trace and the radio that links vehicles."""

    __slots__ = ("radio", "period", "t_start", "t_end")

    def __init__(self, radio: RadioParams = RadioParams(), period: float = 10.0,
                 t_start: float | None = None, t_end: float | None = None):
        self._set(radio=radio, period=period, t_start=t_start, t_end=t_end)
        if not 0 < period < math.inf:
            raise ConfigError(f"period must be positive and finite, got {period}")
        for name, t in (("t_start", t_start), ("t_end", t_end)):
            if t is not None and not math.isfinite(t):
                raise ConfigError(f"{name} must be finite, got {t}")


class RunConfig(TraceConfig):
    """What ``run`` and ``compare`` do: the algorithms, their output
    directory and the seed that rb's reservation frames are drawn from."""

    __slots__ = ("algos", "out_dir", "seed")

    def __init__(self, algos: tuple[AlgoSpec, ...] = (), out_dir: str = "results", seed: int = 0,
                 **window):
        self._set(algos=algos, out_dir=out_dir, seed=seed)
        if not algos:
            raise ConfigError("at least one algorithm (--algo) is required")
        tags = [algo.tag for algo in algos]
        for tag in tags:
            if tags.count(tag) > 1:
                raise ConfigError(f"two --algo specs would both write {tag}.csv")
        super().__init__(**window)


def run_algorithms(trace: Trace, cfg: RunConfig) -> dict[AlgoSpec, list[PeriodMetrics]]:
    """Per-period pipeline of every spec in cfg.algos: graph, selection,
    assignment, metrics row. Returns each spec's rows, in cfg.algos order.

    Vehicles report to their nearest point within algo.hops hops, whatever
    d an rb spec made in code holds. Period i draws rb's frame from the
    seed (cfg.seed * 1_000_003 + i) mod 2**63. Zero-vehicle periods emit a
    row with blank rate so the time series stays aligned across algorithms.

    The loop is period-major: it walks ``trace.periods`` once, which
    rounds the boundaries and rejects the window, and runs every spec on
    each period's snapshot in cfg.algos order; each spec keeps its own
    points and assignment of the period before, for its churn counts.
    Of the trace it reads nothing else but ``positions_before``, for a
    direction spec's headings.
    Every spec calls build_udg (a direction spec inside the filter),
    and build_udg's memo answers each call with the period's one sweep
    while this loop holds the first plain spec's graph: the specs share
    that graph and, through the graph's own memo, its closeness tables. A
    direction spec placed before the first plain spec drops the base graph
    it built, so the plain specs cost a second sweep. No graph outlives
    its period.
    """
    runs = {algo: [] for algo in cfg.algos}
    # each spec's points and assignment in the period before
    before = dict.fromkeys(cfg.algos, (frozenset(), {}))
    for index, (t, snapshot) in enumerate(trace.periods(cfg.period, cfg.t_start, cfg.t_end)):
        period_seed = (cfg.seed * 1_000_003 + index) % 2**63
        base = None  # the period's unit-disk graph, held while the other specs run
        for algo in cfg.algos:
            if not snapshot:  # an empty period runs no selector
                graph, result = SnapshotGraph(()), SelectionResult(frozenset())
            else:
                if algo.direction:
                    prev = trace.positions_before(t)
                    graph = build_direction_constrained_udg(snapshot, prev, cfg.radio)[0]
                else:
                    graph = base = build_udg(snapshot, cfg.radio)
                result = ALGORITHMS[algo.name].select(algo, graph, period_seed)
            points = result.aggregation_points
            n = graph.n_vertices
            assignment = assign_to_aggregation_points(graph, points, algo.hops)
            prev_points, prev_assignment = before[algo]
            runs[algo].append(
                PeriodMetrics(
                    time=t,
                    n_vehicles=n,
                    n_edges=graph.n_edges,
                    n_aps=len(points),
                    aggregation_rate=aggregation_rate(len(points), n) if n else None,
                    upload_cost_bps=upload_cost(len(points), cfg.period),
                    edges_examined=result.edges_examined,
                    n_notifications=notification_count(prev_points, points),
                    n_routing_updates=routing_update_count(prev_assignment, assignment),
                    n_reelections=len(prev_points & points),
                )
            )
            before[algo] = points, assignment
        del base, graph  # freed before the next period's sweep
    return runs


def _note_unsampled(trace: Trace, missed: int, periods: int, consequence: str) -> None:
    """Say on stderr how many of the periods' boundaries name no sampled instant, if any."""
    if missed:
        print(f"note: {missed} of {periods} period boundaries name no sampled instant"
              f" (the trace is sampled every {trace.sampling_period} s); {consequence}",
              file=sys.stderr)


def _trace_path(s: dict) -> str:
    """The --trace file, the one trace source of run, compare and tune."""
    if "trace" not in s:
        raise ConfigError("--trace is required")
    return s["trace"]


def _execute_algorithms(trace_path: str, cfg: RunConfig):
    # every algorithm runs, and so checks the window, before --out is made:
    # a run that fails leaves no empty directory behind. An --out that
    # os.makedirs could not make, below a file, fails before the trace loads.
    existing = cfg.out_dir
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        under = "" if existing == cfg.out_dir else f" lies under {existing}, which"
        raise ConfigError(f"--out {cfg.out_dir}{under} is a file, not a directory")
    trace = load_trace_csv(trace_path)
    runs = run_algorithms(trace, cfg)
    # every sampled instant holds a sample, so a row with no vehicle is a
    # boundary that names none
    rows = next(iter(runs.values()))
    consequence = "their rows are blank and the churn counts restart after each"
    _note_unsampled(trace, sum(not row.n_vehicles for row in rows), len(rows), consequence)
    os.makedirs(cfg.out_dir, exist_ok=True)
    outputs = []
    for algo, rows in runs.items():
        path = os.path.join(cfg.out_dir, f"{algo.tag}.csv")
        write_period_metrics_csv(rows, path)
        outputs.append((summarize_run(algo.tag, rows), path))
    return outputs


def cmd_run(trace_path: str, cfg: RunConfig) -> int:
    for s, path in _execute_algorithms(trace_path, cfg):
        print(
            f"{s.algorithm}: periods={s.n_periods}"
            f" mean_rate={s.mean_aggregation_rate:.4f}"
            f" mean_upload_bps={s.mean_upload_cost_bps:.2f}"
            f" mean_reelections={s.mean_reelections:.3f}"
            f" -> {path}"
        )
    return 0


def cmd_compare(trace_path: str, cfg: RunConfig) -> int:
    summaries = [s for s, _ in _execute_algorithms(trace_path, cfg)]
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


def _check_out_file(out: str) -> None:
    """Raise ConfigError unless --out names a file in an existing directory,
    so that a command fails on it before it does any work."""
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"--out {out} must name a file in an existing directory")


def cmd_gen_trace(s: dict) -> int:
    out = s.get("out", "trace.csv")
    g = GenParams(**_fields(s, GenParams, "gen_"))
    _check_out_file(out)
    trace = generate_two_way_roadway(
        g.n, g.area, g.duration, (g.speed_min, g.speed_max), seed=s.get("seed", 0)
    )
    write_trace_csv(trace, out)
    print(f"{len(trace)} samples, {len(trace.vehicles)} vehicles -> {out}")
    return 0


def cmd_tune(s: dict) -> int:
    cfg = _trace_config(TraceConfig, s)
    out = s.get("out", "tuning.csv")
    tuner_cfg = TunerConfig(**_fields(s, TunerConfig))
    trace_path = _trace_path(s)
    # the search comes before the write, so an --out it could not write fails first
    _check_out_file(out)
    trace = load_trace_csv(trace_path)
    periods = list(trace.periods(cfg.period, cfg.t_start, cfg.t_end))
    # each graph is built as tune_parameters reads it, inside the tuner
    graphs = (build_udg(snapshot, cfg.radio) for _, snapshot in periods if snapshot)
    result = tune_parameters(graphs, tuner_cfg)
    write_tuning_trajectory_csv(result, out)
    print(
        f"d={result.d} k={result.k} rate={result.value:.4f}"
        f" evaluations={result.n_evaluations} -> {out}"
    )
    missed = sum(not snapshot for _, snapshot in periods)
    _note_unsampled(trace, missed, len(periods), "their periods are left out of the mean")
    if result.d == tuner_cfg.d_max or result.k == tuner_cfg.k_max:
        note = "the best pair lies on the box's edge; a larger --d-max or --k-max may score higher"
        print(f"note: {note}", file=sys.stderr)
    if "seed" in s:  # every subcommand takes --seed, so one script can pass it to each
        print("note: tune draws nothing at random, so it reads no --seed", file=sys.stderr)
    return 0


def _add_seed_flag(p):
    p.add_argument(
        "--seed",
        type=int,
        help="RNG seed (default 0) of rb's reservation frames in run and compare"
        " and of the roadway in gen-trace; tune reads none",
    )


def _add_source_flags(p):
    p.add_argument("--config", help="key = value settings file; flags override it")
    p.add_argument("--trace", help="trace CSV (time,id,x,y); required")
    _add_seed_flag(p)
    p.add_argument(
        "--radius", dest="range_r", type=float, metavar="R", help="radio range in m (default 100)"
    )
    p.add_argument("--period", type=float, help="delivery period in seconds (default 10)")
    p.add_argument("--t-start", type=float, help="window start (default trace start)")
    p.add_argument("--t-end", type=float, help="window end (default trace end)")


def _add_run_flags(p):
    _add_source_flags(p)
    p.add_argument(
        "--algo",
        action="append",
        metavar="NAME[:k=v,...]",
        help=" | ".join(f"{n}[:{'=,'.join(a.keys)}=]" for n, a in ALGORITHMS.items())
        + ", each also direction=; an unset key takes its default ("
        + ", ".join(
            f"{n}={str(v).lower()}"
            for n, v in zip(AlgoSpec.__slots__[1:], AlgoSpec.__init__.__defaults__)
        )
        + "); repeatable",
    )
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="output dir (default results)")


def _build_parser():
    """The argument parser and each subcommand's own parser, by name.

    A flag not given is absent (argparse.SUPPRESS): the config file, then
    the config classes' defaults, fill it."""
    parser = argparse.ArgumentParser(
        prog="apsel", description="aggregation-point selection on vehicle traces"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    _add_run_flags(command("run", "per-period selection, one metrics CSV per algorithm"))
    _add_run_flags(command("compare", "run plus merged summary CSV"))

    g = command("gen-trace", "write a synthetic two-way roadway trace")
    g.add_argument("--gen-n", type=int, help="generate a roadway of this many vehicles (default 50)")
    g.add_argument("--gen-area", type=float, help="generated roadway length in m (default 1000)")
    g.add_argument("--gen-duration", type=float, help="generated trace duration in s (default 60)")
    g.add_argument("--gen-speed-min", type=float, help="generated minimum speed in m/s (default 8)")
    g.add_argument("--gen-speed-max", type=float, help="generated maximum speed in m/s (default 14)")
    _add_seed_flag(g)
    g.add_argument("--out", help="trace CSV path (default trace.csv)")

    t = command("tune", "search (d, k) maximizing mean aggregation rate")
    _add_source_flags(t)
    t.add_argument("--d-max", type=int, help="search d in [1, D_MAX] hops (default 10)")
    t.add_argument("--k-max", type=int, help="search k in [1, K_MAX] hops (default 10)")
    t.add_argument("--out", help="trajectory CSV path (default tuning.csv)")

    return parser, sub.choices


def _flag_value(action: argparse.Action, text: str):
    """A config-file value, converted as its flag would convert it."""
    if isinstance(action, argparse._AppendAction):  # algo: several specs
        # a space next to a ',', ':' or '=' is inside a spec, as in its --algo flag
        return re.sub(r"\s*([,:=])\s*", r"\1", text.replace(";", " ")).split()
    return action.type(text) if action.type else text


def _settings(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """One subcommand's settings, keyed by flag destination: its explicit
    flags over its config file. A file key must name one of the
    subcommand's flags (dashes or underscores). A setting given nowhere
    is absent, so the config classes' defaults apply."""
    given = dict(vars(args))
    path = given.pop("config", None)
    if path is None:
        return given
    flags = {
        option[2:].replace("-", "_"): action
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and action.dest not in ("help", "config")
    }
    from_file = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            where = f"{path}:{lineno}"
            if not sep:
                raise ConfigError(f"{where}: expected 'key = value', got {raw.rstrip()!r}")
            if key not in flags:
                raise ConfigError(f"{where}: {key} is not supported by {parser.prog}")
            try:
                from_file[flags[key].dest] = _flag_value(flags[key], value.strip())
            except ValueError as exc:
                raise ConfigError(f"{where}: {key}: {exc}") from None
    return {**from_file, **given}


def _fields(s: dict, cls, prefix: str = "") -> dict:
    """The settings named prefix + a field of cls, keyed by field."""
    return {name: s[prefix + name] for name in cls._field_names() if prefix + name in s}


def _trace_config(cls, s: dict, **extra):
    """A TraceConfig or RunConfig from settings; absent ones keep the defaults."""
    return cls(radio=RadioParams(**_fields(s, RadioParams)), **_fields(s, cls), **extra)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        s = _settings(commands[args.command], args)
        if args.command in ("run", "compare"):
            algos = tuple(parse_algo_spec(text) for text in s.get("algo", ()))
            cfg = _trace_config(RunConfig, s, algos=algos)
            return (cmd_run if args.command == "run" else cmd_compare)(_trace_path(s), cfg)
        return {"gen-trace": cmd_gen_trace, "tune": cmd_tune}[args.command](s)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
