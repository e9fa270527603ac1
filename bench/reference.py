"""A fixed pure-Python workload that measures how fast the host runs right now.

On a shared host the CPU time of the same work drifts by 15 to 30 percent
over minutes, because other tenants contend for the physical core and its
caches. ``child.py`` runs this loop just before and just after each CLI
invocation, in the same process, and ``run.py`` runs it before each batch
of set-up loads. The benchmark reports a time t as t * REFERENCE_S / r,
where r is the loop's CPU time next to it: the seconds t would take on a
host where the loop takes REFERENCE_S. That keeps what the program costs
and drops much of the host's drift. The loop does what the program does
most, dict, set and list work in breadth-first searches, and uses nothing
from ``apsel``, so no change to the program can move it.
"""

from __future__ import annotations

import random
import time

VERTICES = 3000
DEGREE = 16
HOPS = 3
SOURCES = 600
# the loop's median CPU time on the 2-vCPU VM the benchmark was tuned on;
# a fixed scale, so reported times read as seconds on that host
REFERENCE_S = 0.3


def reference_cpu_s() -> float:
    """CPU time of one fixed batch of 3-hop searches on a fixed random graph."""
    start = time.process_time()
    rng = random.Random(12345)
    adj = [[rng.randrange(VERTICES) for _ in range(DEGREE)] for _ in range(VERTICES)]
    reached = 0
    for src in range(0, VERTICES, VERTICES // SOURCES):
        seen = {src}
        frontier = [src]
        for _ in range(HOPS):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        reached += len(seen)
    if reached <= SOURCES:
        raise AssertionError("reference loop did no work")
    return time.process_time() - start
