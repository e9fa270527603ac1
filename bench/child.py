"""One CLI invocation in a fresh process, optionally traced.

Usage: python3 bench/child.py ROOT RESULT_JSON TRACE(0|1) -- CLI_ARGS...

Imports apsel from ROOT/src, runs ``apsel.cli.main(CLI_ARGS)`` and
writes its exit code, captured stdout, wall and CPU time (import plus
main), peak RSS and, when traced, the spans and counters to RESULT_JSON.
CPU time is user plus system time of this process: on a shared host it
leaves out the time the process waited for a CPU, which wall time
counts. The fixed loop in ``reference.py`` runs just before and just
after, untimed as part of the invocation, so the benchmark can divide
out the host's speed at that moment.
Peak RSS is the kernel's high-water mark for the process, which is why
every measured invocation gets its own process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from reference import reference_cpu_s


def peak_rss_mb() -> float:
    """VmHWM, the peak resident set of this process image (Linux).

    ru_maxrss is not used: it survives exec, so a child would report the
    parent's peak at spawn time whenever that is higher.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    root, result_path, traced, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py ROOT RESULT_JSON TRACE(0|1) -- CLI_ARGS...")
    ref_before = reference_cpu_s()
    start, cpu_start = time.perf_counter(), time.process_time()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import apsel.cli

    if not os.path.abspath(apsel.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"apsel imported from {apsel.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if traced == "1":
        from apsel.selection import verify_domination
        from tracer import Tracer, install

        tracer = Tracer(verify_domination)
        install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = apsel.cli.main(argv)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    ref_after = reference_cpu_s()
    result = {
        "rc": rc,
        "stdout": out.getvalue(),
        "wall_s": wall,
        "cpu_s": cpu,
        "reference_s": [ref_before, ref_after],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result.update(
            bookkeeping_s=tracer.bookkeeping_s,
            layers=tracer.layer_times(),
            counts=dict(tracer.counts),
            selections=[[*key, n] for key, n in tracer.selections.items()],
            domination_failures=tracer.domination_failures,
            patch_points=tracer.patch_points,
            spans=tracer.span_records(),
        )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
