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
a file may set exactly the running subcommand's own flags, and flags
win. A setting has one flag and one help wherever it is taken: every
subcommand, ``gen-trace`` too, spells the roadway generator ``--gen-*``.
"""

from __future__ import annotations

import argparse
import math
import os
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
    """One algorithm plus its parameters, e.g. centrality with d=3, k=4.
    Specs with equal fields are equal and hash alike."""

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

    def _key(self) -> tuple:
        return self.name, self.d, self.k, self.slots, self.direction

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is AlgoSpec else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"AlgoSpec({fields})"

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
    """The trace a command reads (a file or a generated roadway), the
    instants it reads and the radio that links vehicles."""

    __slots__ = ("trace_path", "gen", "radio", "period", "t_start", "t_end", "seed")

    def __init__(self, trace_path: str | None = None, gen: GenParams | None = None,
                 radio: RadioParams = RadioParams(), period: float = 10.0,
                 t_start: float | None = None, t_end: float | None = None, seed: int = 0):
        self._set(trace_path=trace_path, gen=gen, radio=radio, period=period,
                  t_start=t_start, t_end=t_end, seed=seed)
        if not 0 < period < math.inf:
            raise ConfigError(f"period must be positive and finite, got {period}")
        for name, t in (("t_start", t_start), ("t_end", t_end)):
            if t is not None and not math.isfinite(t):
                raise ConfigError(f"{name} must be finite, got {t}")
        if (trace_path is None) == (gen is None):
            raise ConfigError("exactly one of --trace and a generator (--gen-*) is required")


class RunConfig(TraceConfig):
    """What ``run`` and ``compare`` do: the algorithms and their output directory."""

    __slots__ = ("algos", "out_dir")

    def __init__(self, algos: tuple[AlgoSpec, ...] = (), out_dir: str = "results", **trace):
        self._set(algos=algos, out_dir=out_dir)
        if not algos:
            raise ConfigError("at least one algorithm (--algo) is required")
        tags = [algo.tag for algo in algos]
        for tag in tags:
            if tags.count(tag) > 1:
                raise ConfigError(f"two --algo specs would both write {tag}.csv")
        super().__init__(**trace)


def _load_trace(cfg: TraceConfig) -> Trace:
    if cfg.trace_path is not None:
        return load_trace_csv(cfg.trace_path)
    g = cfg.gen
    return generate_two_way_roadway(
        g.n, g.area, g.duration, (g.speed_min, g.speed_max), seed=cfg.seed
    )


def _period_boundaries(trace: Trace, cfg: TraceConfig) -> list[float]:
    """The instants start + i * period up to the window end, each replaced
    by the sampled instant it rounds to; one that rounds to none stays as
    computed and reads as an empty snapshot. The window's ends round the
    same way before they are checked, so an end that names the first or
    last instant lies within the span. Raises ConfigError for a window
    outside the trace's span or ending before it starts, when no
    boundary rounds to a sampled instant, or when two read the same one."""

    def rounded(t: float) -> float:
        sampled = trace.instant_near(t)
        return t if sampled is None else sampled  # the instant 0.0 is falsy

    lo, hi = trace.span
    start = rounded(lo if cfg.t_start is None else cfg.t_start)
    end = rounded(hi if cfg.t_end is None else cfg.t_end)
    if not (lo <= start <= hi and lo <= end <= hi):
        raise ConfigError(f"window [{start}, {end}] not within trace span [{lo}, {hi}]")
    if start > end:
        raise ConfigError(f"window start {start} is after its end {end}")
    boundaries = []
    i = 0
    while True:
        t = rounded(start + i * cfg.period)
        if t > end + trace.time_slack(end):
            break
        if boundaries and t <= boundaries[-1]:
            raise ConfigError(
                f"period {cfg.period} s is below the trace's time resolution:"
                f" two boundaries read t={t}"
            )
        boundaries.append(t)
        i += 1
    # a boundary that rounds to no sampled instant equals none of them
    if set(boundaries).isdisjoint(trace.times):
        raise ConfigError(
            f"no period boundary in [{start}, {end}] every {cfg.period} s is a sampled instant"
        )
    return boundaries


def _period_graphs(trace: Trace, cfg: TraceConfig, direction: bool = False):
    """Each period's index, its boundary and its graph: the unit-disk graph
    of the vehicles sampled at the boundary, direction-filtered when
    direction is set, or None for a period with no vehicles."""
    for index, t in enumerate(_period_boundaries(trace, cfg)):
        snapshot = trace.positions_at(t)
        if not snapshot:
            graph = None
        elif direction:
            graph, _ = build_direction_constrained_udg(
                snapshot, trace.positions_before(t), cfg.radio
            )
        else:
            graph = build_udg(snapshot, cfg.radio)
        yield index, t, graph


def run_algorithms(trace: Trace, cfg: RunConfig) -> dict[AlgoSpec, list[PeriodMetrics]]:
    """Per-period pipeline of every spec in cfg.algos: graph, selection,
    assignment, metrics row. Returns each spec's rows, in cfg.algos order.

    Vehicles report to their nearest point within algo.hops hops, whatever
    d an rb spec made in code holds. Period i draws rb's frame from the
    seed (cfg.seed * 1_000_003 + i) mod 2**63. Zero-vehicle periods emit a
    row with blank rate so the time series stays aligned across algorithms.
    Each spec runs all periods in turn and builds its own graph for each.
    The benchmark's self-test pins the per-name call counts, such as
    len(cfg.algos) x periods graph builds, which any loop order gives as
    long as no graph is shared.
    """
    runs = {}
    for algo in cfg.algos:
        rows = runs[algo] = []
        prev_points: frozenset[int] = frozenset()
        prev_assignment: dict[int, int] = {}
        for index, t, graph in _period_graphs(trace, cfg, algo.direction):
            if graph is None:  # an empty period runs no selector
                graph, result = SnapshotGraph(()), SelectionResult(frozenset())
            else:
                period_seed = (cfg.seed * 1_000_003 + index) % 2**63
                result = ALGORITHMS[algo.name].select(algo, graph, period_seed)
            points = result.aggregation_points
            n = graph.n_vertices
            assignment = assign_to_aggregation_points(graph, points, algo.hops)
            rows.append(
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
            prev_points, prev_assignment = points, assignment
        del graph, assignment  # freed before the next spec builds its first graph
    return runs


def _note_unsampled(trace: Trace, missed: int, periods: int, consequence: str) -> None:
    """Say on stderr how many of the periods' boundaries name no sampled instant, if any."""
    if missed:
        print(f"note: {missed} of {periods} period boundaries name no sampled instant"
              f" (the trace is sampled every {trace.sampling_period} s); {consequence}",
              file=sys.stderr)


def _execute_algorithms(cfg: RunConfig):
    # every algorithm runs, and so checks the window, before --out is made:
    # a run that fails leaves no empty directory behind
    trace = _load_trace(cfg)
    runs = run_algorithms(trace, cfg)
    # every spec reads the same boundaries, and a period is empty iff its
    # boundary names no sampled instant: each instant holds a sample
    rows = next(iter(runs.values()))
    missed = sum(row.n_vehicles == 0 for row in rows)
    _note_unsampled(trace, missed, len(rows), "their rows are blank and the churn counts restart after each")
    os.makedirs(cfg.out_dir, exist_ok=True)
    outputs = []
    for algo, rows in runs.items():
        path = os.path.join(cfg.out_dir, f"{algo.tag}.csv")
        write_period_metrics_csv(rows, path)
        outputs.append((summarize_run(algo.tag, rows), path))
    return outputs


def cmd_run(cfg: RunConfig) -> int:
    for s, path in _execute_algorithms(cfg):
        print(
            f"{s.algorithm}: periods={s.n_periods}"
            f" mean_rate={s.mean_aggregation_rate:.4f}"
            f" mean_upload_bps={s.mean_upload_cost_bps:.2f}"
            f" mean_reelections={s.mean_reelections:.3f}"
            f" -> {path}"
        )
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    summaries = [s for s, _ in _execute_algorithms(cfg)]
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


def cmd_gen_trace(s: dict) -> int:
    out = s.get("out", "trace.csv")
    cfg = TraceConfig(gen=GenParams(**_fields(s, GenParams, "gen_")), **_fields(s, TraceConfig))
    trace = _load_trace(cfg)
    write_trace_csv(trace, out)
    print(f"{len(trace)} samples, {len(trace.vehicles)} vehicles -> {out}")
    return 0


def cmd_tune(s: dict) -> int:
    cfg = _trace_config(TraceConfig, s)
    out = s.get("out", "tuning.csv")
    tuner_cfg = TunerConfig(**_fields(s, TunerConfig))
    # the search comes before the write, so a directory that is not there fails first
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"no directory for --out {out}")
    trace = _load_trace(cfg)
    scored = []  # whether each period has a graph, filled as the tuner reads them

    def graphs():
        for _, _, graph in _period_graphs(trace, cfg):
            scored.append(graph is not None)
            if graph is not None:
                yield graph

    result = tune_parameters(graphs(), tuner_cfg)
    write_tuning_trajectory_csv(result, out)
    print(
        f"d={result.d} k={result.k} rate={result.value:.4f}"
        f" evaluations={result.n_evaluations} -> {out}"
    )
    _note_unsampled(trace, scored.count(False), len(scored), "their periods are left out of the mean")
    if result.d == tuner_cfg.d_max or result.k == tuner_cfg.k_max:
        note = "the best pair lies on the box's edge; a larger --d-max or --k-max may score higher"
        print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_exact(s: dict) -> int:
    cfg = _trace_config(TraceConfig, s)
    spec = AlgoSpec("exact", **_fields(s, AlgoSpec))
    trace = _load_trace(cfg)
    requested = s.get("time", trace.span[0])
    snapshot = trace.positions_at(requested)
    if not snapshot:
        raise ConfigError(f"no vehicles sampled at t={requested}")
    graph = build_udg(snapshot, cfg.radio)
    result = ALGORITHMS[spec.name].select(spec, graph, None)  # exact draws no frame
    print(f"n_aps={len(result.aggregation_points)}")
    print(f"members={sorted(result.aggregation_points)}")
    return 0


def _add_generator_flags(p):
    p.add_argument("--gen-n", type=int, help="generate a roadway of this many vehicles (default 50)")
    p.add_argument("--gen-area", type=float, help="generated roadway length in m (default 1000)")
    p.add_argument("--gen-duration", type=float, help="generated trace duration in s (default 60)")
    p.add_argument("--gen-speed-min", type=float, help="generated minimum speed in m/s (default 8)")
    p.add_argument("--gen-speed-max", type=float, help="generated maximum speed in m/s (default 14)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")


def _add_source_flags(p, window: bool = True):
    p.add_argument("--config", help="key = value settings file; flags override it")
    p.add_argument("--trace", dest="trace_path", metavar="TRACE", help="trace CSV (time,id,x,y)")
    _add_generator_flags(p)
    p.add_argument(
        "--radius", dest="range_r", type=float, metavar="R", help="radio range in m (default 100)"
    )
    if window:  # the period boundaries of run, compare and tune; exact reads one --time
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
    _add_generator_flags(g)
    g.add_argument("--out", help="trace CSV path (default trace.csv)")

    t = command("tune", "search (d, k) maximizing mean aggregation rate")
    _add_source_flags(t)
    t.add_argument("--d-max", type=int, help="search d in [1, D_MAX] hops (default 10)")
    t.add_argument("--k-max", type=int, help="search k in [1, K_MAX] hops (default 10)")
    t.add_argument("--out", help="trajectory CSV path (default tuning.csv)")

    e = command("exact", "optimal point set for one snapshot")
    _add_source_flags(e, window=False)
    e.add_argument("--time", type=float, help="snapshot instant (default trace start)")
    e.add_argument("--d", type=int, help="domination radius in hops (default 1)")

    return parser, sub.choices


def _flag_value(action: argparse.Action, text: str):
    """A config-file value, converted as its flag would convert it."""
    if isinstance(action, argparse._AppendAction):  # algo: several names
        return text.replace(";", " ").split()
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
    """The settings named prefix + a field (a slot) of cls or its bases, keyed by field."""
    names = [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())]
    return {name: s[prefix + name] for name in names if prefix + name in s}


def _trace_config(cls, s: dict, **extra):
    """A TraceConfig or RunConfig from settings; absent ones keep the defaults."""
    gen = _fields(s, GenParams, "gen_")
    return cls(
        gen=GenParams(**gen) if gen else None,
        radio=RadioParams(**_fields(s, RadioParams)),
        **_fields(s, cls),
        **extra,
    )


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        s = _settings(commands[args.command], args)
        if args.command in ("run", "compare"):
            algos = tuple(parse_algo_spec(text) for text in s.get("algo", ()))
            cfg = _trace_config(RunConfig, s, algos=algos)
            return cmd_run(cfg) if args.command == "run" else cmd_compare(cfg)
        return {"gen-trace": cmd_gen_trace, "tune": cmd_tune, "exact": cmd_exact}[args.command](s)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
