"""Machine-speed probe used to take slow phases of a shared host out of the timings.

On a shared 2-core host the same pure-Python code runs up to about twice
as slow, in phases that switch within a second.  CPU time slows with it,
so neither wall nor CPU time alone repeats.  A fixed kernel timed right
before and right after each request tracks those phases: over 80 s of one
repeated request the raw time moved by about 30% and its ratio to the
probe by about 4%.

A probe process running next to the worker on the other core was tried
too.  When the two cores share a physical core it slows the worker, and
its own speed then depends on what the worker runs: per-request times
scaled by it spread by 20-80%.  So the probe runs in the worker itself.

The kernel belongs to the benchmark, not to the package, so no change to
the package can move it.  A request time t measured between probes
averaging p is reported as t * REFERENCE_PROBE_S / p: seconds on a
machine where the probe takes REFERENCE_PROBE_S, about this host's fast
phase.
"""

from __future__ import annotations

import time

REFERENCE_PROBE_S = 0.015


def _kernel() -> int:
    """A frozen subset DP over ten vertices: dict and big-int work like the package's."""
    n = 10
    layer = {1 << v: {v: 1 << v} for v in range(n)}
    for _ in range(n - 1):
        nxt: dict[int, dict[int, int]] = {}
        for m, entry in layer.items():
            for e, bits in entry.items():
                for w in range(n):
                    if not (m >> w) & 1:
                        d = nxt.setdefault(m | (1 << w), {})
                        d[w] = d.get(w, 0) | ((bits << 1) & 0xFFFF) | (bits >> 3)
        layer = nxt
    return len(layer)


def probe() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a request that ran between two probes."""
    return REFERENCE_PROBE_S * 2 / (before + after)
