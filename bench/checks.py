"""Correctness checks on what one benchmark run's CLI invocations wrote.

Everything here runs outside the timed region. An operation is one
selection (one period of one algorithm, a row of its CSV) or one tuner
objective evaluation; a failed check marks the operations it covers.
Library calls go through ``apsel`` imported from the checkout's ``src``.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
from collections import Counter, defaultdict

from workloads import Workload

DEFAULT_SEED = 0
RB_SEED_STRIDE = 1_000_003  # the CLI's per-period reservation-frame seed
TUNE_LINE = re.compile(r"d=(\d+) k=(\d+) rate=([0-9.]+) evaluations=(\d+)")


class Ledger:
    """Attempted and failed operations, keyed (invocation, op)."""

    def __init__(self):
        self.attempted: set = set()
        self.failed: set = set()
        self.messages: list[str] = []

    def add(self, inv, ops):
        self.attempted.update((inv, op) for op in ops)

    def fail(self, inv, ops, message):
        self.failed.update((inv, op) for op in ops)
        self.messages.append(f"invocation {inv}: {message}")


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def snapshots(rows) -> dict[float, dict[int, tuple[float, float]]]:
    by_time: dict[float, dict[int, tuple[float, float]]] = defaultdict(dict)
    for t, v, x, y in rows:
        by_time[t][v] = (x, y)
    return dict(by_time)


def boundaries(times, period: float, t_start: float | None) -> list[float]:
    """Period start instants, as the CLI derives them from --period/--t-start."""
    start = times[0] if t_start is None else t_start
    out, i = [], 0
    while start + i * period <= times[-1] + 1e-9:
        out.append(start + i * period)
        i += 1
    return out


class Checker:
    def __init__(self, apsel, workload: Workload, seed: int, rows, digests: dict):
        self.apsel = apsel
        self.w = workload
        self.seed = seed
        self.snaps = snapshots(rows)
        self.times = sorted(self.snaps)
        args = dict(zip(workload.extra_args[::2], workload.extra_args[1::2]))
        period = float(args.get("--period", 10.0))
        t_start = float(args["--t-start"]) if "--t-start" in args else None
        self.bounds = boundaries(self.times, period, t_start)
        self.nonempty = [t for t in self.bounds if self.snaps.get(t)]
        self.digests = digests.get(workload.name, {}) if seed == DEFAULT_SEED else {}
        self.ledger = Ledger()
        self.aps_gap = 0
        self.edges_removed = 0
        self.evaluations = 0

    # -- what a run costs and covers -----------------------------------

    def vehicle_periods(self) -> int:
        """Sum over periods (and algorithms, for run/compare) of n_vehicles."""
        per_pass = sum(len(self.snaps[t]) for t in self.nonempty)
        return per_pass * max(1, len(self.w.algos))

    def ops(self, stdout: str) -> list:
        if self.w.command == "tune":
            m = TUNE_LINE.search(stdout)
            return [("tune", i) for i in range(int(m.group(4)) if m else 1)]
        return [(a.csv_name, i) for a in self.w.algos for i in range(len(self.bounds))]

    def _file_ops(self, name, all_ops):
        if name in ("summary.csv", "tuning.csv"):
            return all_ops
        return [op for op in all_ops if op[0] == name]

    # -- checks ---------------------------------------------------------

    def invocation(self, inv: int, result: dict, out_dir: str, reference: dict | None):
        """Check one invocation; returns its output digests."""
        ops = self.ops(result.get("stdout", ""))
        self.ledger.add(inv, ops)
        if result.get("rc") != 0:
            self.ledger.fail(inv, ops, f"CLI exited with {result.get('rc')}: {result.get('stderr', '')[-300:]}")
            return {}
        digests = {}
        for name in self.w.output_names():
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                self.ledger.fail(inv, self._file_ops(name, ops), f"{name} not written")
                continue
            digests[name] = sha256(path)
            expected = self.digests.get(name)
            if expected and digests[name] != expected:
                self.ledger.fail(inv, self._file_ops(name, ops), f"{name} differs from the recorded SHA-256")
            if reference is not None and digests[name] != reference.get(name):
                self.ledger.fail(inv, self._file_ops(name, ops), f"{name} differs from invocation 0")
        if reference is None:
            if self.w.command == "tune":
                self._tune(inv, ops, result["stdout"], out_dir)
            else:
                self._periods(inv, out_dir)
        return digests

    def _periods(self, inv, out_dir):
        a = self.apsel
        radio = a.RadioParams()
        tables = {}
        for algo in self.w.algos:
            path = os.path.join(out_dir, algo.csv_name)
            if not os.path.isfile(path):
                continue
            header, rows = read_csv(path)
            all_ops = [(algo.csv_name, i) for i in range(len(self.bounds))]
            if header[:4] != ["time", "n_vehicles", "n_edges", "n_aps"] or len(rows) != len(self.bounds):
                self.ledger.fail(inv, all_ops, f"{algo.csv_name}: bad header or {len(rows)} rows for {len(self.bounds)} periods")
                continue
            tables[algo.csv_name] = rows
            for i, (t, row) in enumerate(zip(self.bounds, rows)):
                n = len(self.snaps.get(t, {}))
                n_aps = int(row[3])
                rate_ok = row[4] == (repr(1.0 - n_aps / n) if n else "")
                if float(row[0]) != t or int(row[1]) != n or not rate_ok or not (n == 0 or 1 <= n_aps <= n):
                    self.ledger.fail(inv, [(algo.csv_name, i)], f"{algo.csv_name} row {i} inconsistent: {row}")

        # exact never needs more points than centrality at the same d
        for ex in (x for x in self.w.algos if x.kind == "exact"):
            for c in self.w.algos:
                if c.kind == "centrality" and c.d == ex.d and not c.direction:
                    for i, (re_, rc_) in enumerate(zip(tables.get(ex.csv_name, []), tables.get(c.csv_name, []))):
                        gap = int(rc_[3]) - int(re_[3])
                        self.aps_gap += gap
                        if gap < 0:
                            self.ledger.fail(inv, [(ex.csv_name, i), (c.csv_name, i)], f"exact d={ex.d} above centrality at row {i}")

        # recompute every check_stride-th period through the library
        stride = self.w.check_stride
        for i, t in enumerate(self.bounds):
            snap = self.snaps.get(t)
            if i % stride != self.seed % stride or not snap:
                continue
            base = a.build_udg(snap, radio)
            for algo in self.w.algos:
                rows = tables.get(algo.csv_name)
                if rows is None:
                    continue
                g = base
                if algo.direction:
                    g, removed = a.build_direction_constrained_udg(snap, self._previous(t), radio)
                    self.edges_removed += removed
                if algo.kind == "centrality":
                    res = a.centrality_select(g, *algo.params)
                elif algo.kind == "rb":
                    res = a.rb_select(g, algo.params[0], (self.seed * RB_SEED_STRIDE + i) % 2**63)
                else:
                    res = a.exact_min_dominating_set(g, algo.params[0])
                got = [int(v) for v in (rows[i][1], rows[i][2], rows[i][3], rows[i][6])]
                want = [g.n_vertices, g.n_edges, len(res.aggregation_points), res.edges_examined]
                if not a.verify_domination(g, res.aggregation_points, algo.d):
                    self.ledger.fail(inv, [(algo.csv_name, i)], f"{algo.csv_name} t={t}: not a {algo.d}-hop dominating set")
                if got != want:
                    self.ledger.fail(inv, [(algo.csv_name, i)], f"{algo.csv_name} t={t}: row {got} != recomputed {want}")
        direction = [x.csv_name for x in self.w.algos if x.direction]
        if direction and self.edges_removed == 0:
            ops = [(name, i) for name in direction for i in range(len(self.bounds))]
            self.ledger.fail(inv, ops, "direction filter removed no edge on the checked periods")

    def _previous(self, t):
        i = self.times.index(t)
        return self.snaps[self.times[i - 1]] if i else {}

    def _tune(self, inv, ops, stdout, out_dir):
        a = self.apsel
        m = TUNE_LINE.search(stdout)
        if not m:
            self.ledger.fail(inv, ops, f"no result line in tune output {stdout!r}")
            return
        d, k, rate, self.evaluations = int(m.group(1)), int(m.group(2)), float(m.group(3)), int(m.group(4))
        path = os.path.join(out_dir, "tuning.csv")
        if not os.path.isfile(path):
            return
        _, rows = read_csv(path)
        best_seen = max((float(r[3]) for r in rows), default=float("-inf"))
        total = 0.0
        for t in self.nonempty:
            g = a.build_udg(self.snaps[t], a.RadioParams())
            points = a.centrality_select(g, d, k).aggregation_points
            if not a.verify_domination(g, points, d):
                self.ledger.fail(inv, ops, f"tuned centrality d={d} k={k} at t={t} does not dominate")
            total += a.aggregation_rate(len(points), g.n_vertices)
        recomputed = total / len(self.nonempty)
        if abs(recomputed - rate) > 5e-5 or recomputed < best_seen - 1e-12:
            self.ledger.fail(
                inv, ops, f"tuner reported rate {rate} at d={d} k={k}; recomputed {recomputed!r}, best in trajectory {best_seen!r}"
            )

    # -- traced invocation: per-selection checks and patch-point self-test --

    def expected_calls(self) -> dict[str, int]:
        """Call counts the algorithm-major pipeline makes, from the workload alone."""
        p = len(self.nonempty)
        if self.w.command == "tune":
            return {
                "mobility.build_udg": p,
                "selection.centrality_select": self.evaluations * p,
                "graph.all_k_closeness": self.evaluations * p,
            }
        by_kind = Counter(x.kind for x in self.w.algos)
        return {
            "mobility.build_udg": len(self.w.algos) * p,
            "mobility.direction_filter": sum(x.direction for x in self.w.algos) * p,
            "graph.all_k_closeness": by_kind["centrality"] * p,
            "selection.centrality_select": by_kind["centrality"] * p,
            "selection.rb_select": by_kind["rb"] * p,
            "selection.exact_min_dominating_set": by_kind["exact"] * p,
        }

    def traced(self, inv, result, out_dir, reference):
        self.invocation(inv, result, out_dir, reference)
        ops = self.ops(result.get("stdout", ""))
        if result.get("rc") != 0:
            return
        if result["domination_failures"]:
            self.ledger.fail(inv, ops, f"{result['domination_failures']} selections do not dominate")
        layers = result["layers"]
        for name, want in self.expected_calls().items():
            got = layers.get(name, {}).get("calls", 0)
            if got != want:
                self.ledger.fail(inv, ops, f"self-test: traced {name} calls {got} != {want}; a patch point was missed")
        if any(x.direction for x in self.w.algos) and not result["counts"].get("mobility.direction_filter.edges_removed"):
            self.ledger.fail(inv, ops, "direction filter removed no edge (silent no-op)")
        if self.w.command == "tune":
            return
        traced_rows = Counter({tuple(_freeze(k)): n for *k, n in result["selections"]})
        csv_rows: Counter = Counter()
        for algo in self.w.algos:
            path = os.path.join(out_dir, algo.csv_name)
            _, rows = read_csv(path) if os.path.isfile(path) else ([], [])
            for row in rows:
                if int(row[1]):
                    csv_rows[(algo.kind, algo.params, int(row[1]), int(row[2]), int(row[3]), int(row[6]))] += 1
        if traced_rows != csv_rows:
            self.ledger.fail(inv, ops, "CSV rows (n_vehicles, n_edges, n_aps, edges_examined) differ from the traced selections")


def _freeze(key):
    kind, params, *rest = key
    return (kind, tuple(params), *rest)
