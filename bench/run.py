"""apsel benchmark: one workload through the real CLI, measured from outside.

Usage (from the repository root):

    python3 bench/run.py --workload roadway-compare --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all            # every workload, traced run included

The trace CSV is generated from --seed before anything is timed. Each
measured CLI invocation runs in its own child process, one at a time,
while the next one is expected to end within --seconds (at least three
invocations). Times are CPU times (user plus system), medians over the
run, scaled to reference seconds: each is divided by the CPU time of the
fixed loop in reference.py, run in the same process next to it, and
multiplied by REFERENCE_S. That divides out most of a shared host's
speed drift. Raw CPU and wall seconds go to the report. With
--trace 1 one more invocation runs with spans and counters around the
program's public functions, and the per-layer metrics are reported.
A human-readable report goes to stderr; the last line of stdout is the
JSON result. The exit code is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 170
MIN_INVOCATIONS = 3
SETUP_SLICE_S = 0.25  # CPU time of trace loads before each invocation

from checks import DEFAULT_SEED, Checker  # noqa: E402
from reference import REFERENCE_S, reference_cpu_s  # noqa: E402
from workloads import WORKLOADS, workload_rows, write_trace  # noqa: E402

# BENCHMARK.json's per_layer list: the layer metrics every workload exercises
PER_LAYER = (
    ("mobility.load_trace_csv.s", "s"),
    ("mobility.build_udg.s", "s"),
    ("mobility.build_udg.calls", "count"),
    ("mobility.snapshots", "count"),
    ("mobility.build_udg.calls_per_snapshot", "ratio"),
    ("mobility.build_udg.pairs_tested", "count"),
    ("mobility.build_udg.edges", "count"),
    ("mobility.direction_filter.edges_removed", "count"),
    ("graph.all_k_closeness.s", "s"),
    ("graph.all_k_closeness.calls", "count"),
    ("graph.all_k_closeness.repeats", "count"),
    ("graph.all_k_closeness.repeat_share", "ratio"),
    ("graph.all_k_closeness.edges_examined", "count"),
    ("selection.centrality_select.self_s", "s"),
    ("selection.centrality_select.calls", "count"),
    ("selection.assign_to_aggregation_points.s", "s"),
    ("selection.assign_to_aggregation_points.calls", "count"),
    ("selection.rb_select.calls", "count"),
    ("selection.rb_select.slots_simulated", "count"),
    ("selection.exact_min_dominating_set.calls", "count"),
    ("selection.exact.aps_gap", "count"),
    ("tuner.evaluations", "count"),
    ("tuner.centrality_calls", "count"),
    ("metrics.write_csv.s", "s"),
    ("cli.self_s", "s"),
)
# Times of layers that only some workloads reach; reported, not in PER_LAYER,
# because they read exactly 0 on the others.
EXTRA_LAYER = (
    ("mobility.direction_filter.self_s", "s"),
    ("selection.rb_select.self_s", "s"),
    ("selection.exact_min_dominating_set.s", "s"),
    ("selection.exact_min_dominating_set.max_instance_s", "s"),
    ("tuner.tune_parameters.s", "s"),
)


def run_child(cli_args: list[str], result_path: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, result_path, "1" if traced else "0", "--"]
    try:
        proc = subprocess.run(cmd + cli_args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "stdout": "", "stderr": f"killed after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return {"rc": proc.returncode or -1, "stdout": "", "stderr": proc.stderr[-2000:]}
    with open(result_path) as fh:
        return dict(json.load(fh), stderr=proc.stderr[-2000:])


def time_load(load_trace_csv, path: str) -> float:
    """CPU time of one trace load in this process."""
    gc.collect()
    t0 = time.process_time()
    load_trace_csv(path)
    return time.process_time() - t0


def layer_metrics(traced: dict, checker: Checker) -> dict[str, float]:
    layers, counts = traced["layers"], traced["counts"]

    def span(name, field="s"):
        return float(layers.get(name, {}).get(field, 0.0))

    calls = {name: int(row["calls"]) for name, row in layers.items()}
    udg_calls = calls.get("mobility.build_udg", 0)
    closeness_calls = calls.get("graph.all_k_closeness", 0)
    m = {
        "mobility.load_trace_csv.s": span("mobility.load_trace_csv"),
        "mobility.build_udg.s": span("mobility.build_udg"),
        "mobility.build_udg.calls": udg_calls,
        "mobility.snapshots": counts.get("mobility.snapshots", 0),
        "mobility.build_udg.pairs_tested": counts.get("mobility.build_udg.pairs_tested", 0),
        "mobility.build_udg.edges": counts.get("mobility.build_udg.edges", 0),
        "mobility.direction_filter.edges_removed": counts.get("mobility.direction_filter.edges_removed", 0),
        "graph.all_k_closeness.s": span("graph.all_k_closeness"),
        "graph.all_k_closeness.calls": closeness_calls,
        "graph.all_k_closeness.repeats": counts.get("graph.all_k_closeness.repeats", 0),
        "graph.all_k_closeness.edges_examined": counts.get("graph.all_k_closeness.edges_examined", 0),
        "selection.centrality_select.self_s": span("selection.centrality_select", "self_s"),
        "selection.centrality_select.calls": calls.get("selection.centrality_select", 0),
        "selection.assign_to_aggregation_points.s": span("selection.assign_to_aggregation_points"),
        "selection.assign_to_aggregation_points.calls": calls.get("selection.assign_to_aggregation_points", 0),
        "selection.rb_select.calls": calls.get("selection.rb_select", 0),
        "selection.rb_select.slots_simulated": counts.get("selection.rb_select.slots_simulated", 0),
        "selection.exact_min_dominating_set.calls": calls.get("selection.exact_min_dominating_set", 0),
        "selection.exact.aps_gap": checker.aps_gap,
        "tuner.evaluations": counts.get("tuner.evaluations", 0),
        "tuner.centrality_calls": counts.get("tuner.centrality_calls", 0),
        "metrics.write_csv.s": span("metrics.write_csv"),
        "cli.self_s": span("cli", "self_s"),
        "mobility.direction_filter.self_s": span("mobility.direction_filter", "self_s"),
        "selection.rb_select.self_s": span("selection.rb_select", "self_s"),
        "selection.exact_min_dominating_set.s": span("selection.exact_min_dominating_set"),
        "selection.exact_min_dominating_set.max_instance_s": span("selection.exact_min_dominating_set", "max_s"),
        "tuner.tune_parameters.s": span("tuner.tune_parameters"),
    }
    snaps = m["mobility.snapshots"]
    m["mobility.build_udg.calls_per_snapshot"] = udg_calls / snaps if snaps else 0.0
    m["graph.all_k_closeness.repeat_share"] = m["graph.all_k_closeness.repeats"] / closeness_calls if closeness_calls else 0.0
    return m


def describe(samples: list[float]) -> str:
    if len(samples) < 2:
        return f"median {samples[0]:.4f} (n=1)"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"median {statistics.median(samples):.4f} (n={len(samples)}, q1 {q1:.4f}, q3 {q3:.4f})"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import apsel

    w = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        trace_path = os.path.join(work, "trace.csv")
        write_trace(workload_rows(name, seed), trace_path)
        with open(os.path.join(HERE, "digests.json")) as fh:
            digests = json.load(fh)
        checker = Checker(apsel, w, seed, workload_rows(name, seed), digests)

        # A slice of set-up samples before each invocation spreads them over
        # the run, and the reference loop next to each slice gives the host's
        # speed for them in this process.
        runs, setup, setup_refs, spent = [], [], [], []
        started = time.perf_counter()
        while len(runs) < MIN_INVOCATIONS or time.perf_counter() - started + statistics.median(spent) <= seconds:
            t0 = time.perf_counter()
            setup_refs.append(reference_cpu_s())
            slice_start = len(setup)
            while sum(setup[slice_start:]) < SETUP_SLICE_S:
                setup.append(time_load(apsel.load_trace_csv, trace_path))
            out_dir = os.path.join(work, f"out{len(runs)}")
            os.makedirs(out_dir)
            runs.append(run_child(w.cli_args(trace_path, out_dir, seed), out_dir + ".json", False))
            spent.append(time.perf_counter() - t0)
        traced = None
        if trace:
            out_dir = os.path.join(work, "out-traced")
            os.makedirs(out_dir)
            traced = run_child(w.cli_args(trace_path, out_dir, seed), out_dir + ".json", True)

        # checks run after every timed invocation has ended
        reference = checker.invocation(0, runs[0], os.path.join(work, "out0"), None)
        for i, result in enumerate(runs[1:], start=1):
            checker.invocation(i, result, os.path.join(work, f"out{i}"), reference)
        if traced is not None:
            checker.traced(len(runs), traced, os.path.join(work, "out-traced"), reference)
        if seed == DEFAULT_SEED:
            print(f"output SHA-256: {json.dumps(reference)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = checker.ledger
    ok_runs = [r for r in runs if r.get("rc") == 0 and "wall_s" in r]
    walls = [r["wall_s"] for r in ok_runs] or [float("nan")]
    cpus = [r["cpu_s"] for r in ok_runs] or [float("nan")]
    refs = [statistics.mean(r["reference_s"]) for r in ok_runs] or [float("nan")]
    cpu_ref = [REFERENCE_S * c / ref for c, ref in zip(cpus, refs)]
    rss = [r["peak_rss_mb"] for r in ok_runs] or [float("nan")]
    wall, cpu = statistics.median(walls), statistics.median(cpus)
    setup_ref_s = REFERENCE_S * statistics.median(setup) / statistics.median(setup_refs)
    vp = checker.vehicle_periods()
    failed_share = len(ledger.failed) / max(1, len(ledger.attempted))
    print(f"== {name} seed={seed} ({len(runs)} invocations): {w.why}", file=sys.stderr)
    print(f"cpu_ref_s            {describe(cpu_ref)} s (cpu_s x {REFERENCE_S} s / reference loop)", file=sys.stderr)
    print(f"setup_s              {setup_ref_s:.4f} s (set-up CPU x {REFERENCE_S} s / reference loop)", file=sys.stderr)
    print(f"cpu_s (report only)  {describe(cpus)} s", file=sys.stderr)
    print(f"wall_s (report only) {describe(walls)} s", file=sys.stderr)
    print(f"set-up CPU (report)  {describe(setup)} s", file=sys.stderr)
    print(f"reference loop       {describe(refs)} s in the child, mean of the loops before and after each invocation", file=sys.stderr)
    print(f"reference loop       {describe(setup_refs)} s in the benchmark, one before each set-up slice", file=sys.stderr)
    print(f"peak_rss_mb          {describe(rss)} MB", file=sys.stderr)
    print(f"vehicle_periods_per_s {vp / cpu:.1f} veh-periods/s ({vp} vehicle-periods / median cpu_s; report only)", file=sys.stderr)
    print(f"failed_share         {failed_share:.4f} ({len(ledger.failed)} failed / {len(ledger.attempted)} attempted operations)", file=sys.stderr)
    for msg in ledger.messages[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if trace:
        metrics = {}
        if traced.get("rc") == 0:
            layer = layer_metrics(traced, checker)
            overhead = traced["wall_s"] - traced["bookkeeping_s"] - wall
            report_layers(name, layer, traced, overhead, wall)
            metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
            trace_file = os.path.join(WORK, f"trace-{name}-s{seed}.json")
            with open(trace_file, "w") as fh:
                json.dump(
                    {"workload": name, "seed": seed, "untraced_wall_s": wall, "untraced_cpu_s": cpu, "overhead_s": overhead, **traced},
                    fh,
                )
            print(f"spans written to {os.path.relpath(trace_file, ROOT)}", file=sys.stderr)
        else:
            print(f"traced invocation failed: {traced.get('stderr', '')}", file=sys.stderr)
    else:
        metrics = {
            "cpu_ref_s": {"value": statistics.median(cpu_ref), "unit": "s"},
            "setup_s": {"value": setup_ref_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    correct = not ledger.failed and not ledger.messages and bool(ok_runs)
    result = {
        "correct": correct,
        "attempted": max(1, len(ledger.attempted)),
        "failed": len(ledger.failed),
        "metrics": metrics,
    }
    return result, correct


def report_layers(name, m, traced, overhead, wall):
    out = sys.stderr
    print(f"-- {name} traced: wall_s {traced['wall_s']:.4f} s, of which bookkeeping {traced['bookkeeping_s']:.4f} s", file=out)
    print(f"tracing overhead     {overhead:+.4f} s (traced wall_s - bookkeeping - untraced median wall_s {wall:.4f})", file=out)
    for n, u in PER_LAYER + EXTRA_LAYER:
        v = m[n]
        if u == "s":
            print(f"  {n:<52} {v:>14.6f} s  {v / wall:6.1%} of untraced wall_s", file=out)
        else:
            print(f"  {n:<52} {v:>14,} {u}" if isinstance(v, int) else f"  {n:<52} {v:>14.4f} {u}", file=out)
    print(
        f"  computed: pairs_tested = sum n(n-1)/2 over build_udg calls; aps_gap = sum over d=1 periods of"
        f" centrality n_aps - exact n_aps (from the CSVs)",
        file=out,
    )
    print(
        f"  bases: calls_per_snapshot = {m['mobility.build_udg.calls']}/{m['mobility.snapshots']};"
        f" repeat_share = {m['graph.all_k_closeness.repeats']}/{m['graph.all_k_closeness.calls']}",
        file=out,
    )
    for target, names in sorted(traced["patch_points"].items()):
        print(f"  patched {target}: {', '.join(names)}", file=out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="every workload, with the traced invocation")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "apsel", "cli.py")):
        print(f"error: no apsel sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.all:
        ok = True
        for name in WORKLOADS:
            result, correct = run_workload(name, args.seed, args.seconds, True)
            print(json.dumps({"workload": name, **result}))
            ok = ok and correct
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload or --all is required")
    result, correct = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
