"""In-memory spans and counters around apsel's public functions.

``install`` replaces every module-level name under which an ``apsel``
module holds one of the traced functions. The consumers import by name
(``from .mobility import build_udg``), so wrapping only the defining
module would miss every call the pipeline makes.

A span records its layer name, its parent span, its start and its end.
Bookkeeping done after a call (counters, fingerprints, domination
checks) is timed and subtracted from every open span, so layer times
hold program work only. A layer's self time is its span's time minus
the time of its child spans.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "excluded", "children")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.excluded = 0.0  # bookkeeping time inside this span
        self.children = 0.0  # net time of direct child spans

    @property
    def net(self) -> float:
        return self.end - self.start - self.excluded


def _graph_key(g):
    return hash((g.vertices, tuple(map(g.neighbors, g.vertices))))


class Tracer:
    def __init__(self, verify_domination):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # (kind, params, n_vehicles, n_edges, n_aps, edges_examined) per selection
        self.selections: Counter = Counter()
        self.domination_failures = 0
        self.bookkeeping_s = 0.0
        self.patch_points: dict[str, list[str]] = defaultdict(list)
        self._stack: list[int] = []
        self._snapshots: set = set()
        self._scored: set = set()
        self._verify = verify_domination

    # -- spans -------------------------------------------------------

    def _call(self, name, func, observe, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].children += span.net
        if observe is not None:
            t0 = perf_counter()
            observe(self, args, kwargs, result)
            spent = perf_counter() - t0
            self.bookkeeping_s += spent
            for i in self._stack:
                self.spans[i].excluded += spent
        return result

    def wrap(self, name, func, observe=None):
        def traced(*args, **kwargs):
            return self._call(name, func, observe, args, kwargs)

        return traced

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    # -- reports -----------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total net time, self time, calls, longest call."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "max_s": 0.0})
            row["s"] += s.net
            row["self_s"] += s.net - s.children
            row["calls"] += 1
            row["max_s"] = max(row["max_s"], s.net)
        return out

    def span_records(self) -> list[tuple[str, int, float, float]]:
        return [(s.name, s.parent, s.start, s.end) for s in self.spans]

    # -- counters fed by the observers below ---------------------------

    def record_selection(self, kind, params, graph, result, d):
        points = result.aggregation_points
        self.selections[
            (kind, params, graph.n_vertices, graph.n_edges, len(points), result.edges_examined)
        ] += 1
        if not self._verify(graph, points, d):
            self.domination_failures += 1


def _bound(func):
    sig = inspect.signature(func)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _observers(selection):
    centrality_args = _bound(selection.centrality_select)
    rb_args = _bound(selection.rb_select)
    exact_args = _bound(selection.exact_min_dominating_set)

    def udg(tr, args, kwargs, g):
        snapshot = args[0] if args else kwargs["snapshot"]
        n = len(snapshot)
        tr.counts["mobility.build_udg.pairs_tested"] += n * (n - 1) // 2
        tr.counts["mobility.build_udg.edges"] += g.n_edges
        tr._snapshots.add(hash(frozenset(snapshot.items())))
        tr.counts["mobility.snapshots"] = len(tr._snapshots)

    def direction(tr, args, kwargs, result):
        tr.counts["mobility.direction_filter.edges_removed"] += result[1]

    def closeness(tr, args, kwargs, result):
        a = dict(zip(("g", "k"), args), **kwargs)
        tr.counts["graph.all_k_closeness.edges_examined"] += result[1]
        key = (_graph_key(a["g"]), a["k"])
        if key in tr._scored:
            tr.counts["graph.all_k_closeness.repeats"] += 1
        tr._scored.add(key)

    def centrality(tr, args, kwargs, result):
        a = centrality_args(args, kwargs)
        tr.record_selection("centrality", (a["d"], a["k"]), a["g"], result, a["d"])
        if tr.inside("tuner.tune_parameters"):
            tr.counts["tuner.centrality_calls"] += 1

    def rb(tr, args, kwargs, result):
        a = rb_args(args, kwargs)
        tr.counts["selection.rb_select.slots_simulated"] += result.slots_simulated
        tr.record_selection("rb", (a["slots"],), a["g"], result, 1)

    def exact(tr, args, kwargs, result):
        a = exact_args(args, kwargs)
        tr.record_selection("exact", (a["d"],), a["g"], result, a["d"])

    def tune(tr, args, kwargs, result):
        tr.counts["tuner.evaluations"] += result.n_evaluations

    return {
        ("mobility", "load_trace_csv"): ("mobility.load_trace_csv", None),
        ("mobility", "build_udg"): ("mobility.build_udg", udg),
        ("mobility", "build_direction_constrained_udg"): ("mobility.direction_filter", direction),
        ("graph", "all_k_closeness"): ("graph.all_k_closeness", closeness),
        ("selection", "centrality_select"): ("selection.centrality_select", centrality),
        ("selection", "assign_to_aggregation_points"): (
            "selection.assign_to_aggregation_points",
            None,
        ),
        ("selection", "rb_select"): ("selection.rb_select", rb),
        ("selection", "exact_min_dominating_set"): ("selection.exact_min_dominating_set", exact),
        ("tuner", "tune_parameters"): ("tuner.tune_parameters", tune),
        ("tuner", "write_tuning_trajectory_csv"): ("metrics.write_csv", None),
        ("metrics", "write_period_metrics_csv"): ("metrics.write_csv", None),
        ("metrics", "write_run_summary_csv"): ("metrics.write_csv", None),
        ("cli", "main"): ("cli", None),
    }


def install(tracer: Tracer) -> None:
    """Wrap each traced function under every name an apsel module binds it to."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "apsel" or name.startswith("apsel."))
    }
    for (module, attr), (span_name, observe) in _observers(modules["apsel.selection"]).items():
        original = getattr(modules[f"apsel.{module}"], attr)
        wrapper = tracer.wrap(span_name, original, observe)
        for mod_name, mod in modules.items():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    tracer.patch_points[f"{module}.{attr}"].append(f"{mod_name}.{name}")
