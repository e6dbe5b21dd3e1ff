#!/usr/bin/env python3
"""The exact search's frontier: cycle-free ``extremal_cyclic(30, n)``, n = 16..22.

extremal_cyclic(30, n) has no balanced cycle for n <= 30, so
``find_balanced_cycle`` sweeps every start to the end: the search's worst
case at each size.  Each run times the one search call and reports the
interpreter's peak resident memory (``ru_maxrss``), numpy and the package
included.  A row holds, per n, the median search time of REPEAT = 3 runs,
every run's time and the largest peak RSS.  Runs, probe and file format:
``tools/benchrec.py``.

    python3 tools/bench_frontier.py                          # n = 16..22
    python3 tools/bench_frontier.py --n 12 13 --out frontier.json
    python3 tools/bench_frontier.py --root ../other-checkout --label before
"""

from __future__ import annotations

import json

import benchrec

REPEAT = 3  # fresh interpreters per n; the median time is reported

_CHILD = """
import json, resource, sys, time
from balanced_cycles import extremal_cyclic, find_balanced_cycle
L = extremal_cyclic(30, int(sys.argv[1]))
start = time.perf_counter()
found = find_balanced_cycle(L)
wall = time.perf_counter() - start
print(json.dumps({"cycle_free": found is None, "wall_s": wall,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def main(argv: list[str] | None = None) -> None:
    parser = benchrec.parser(__doc__, "BENCH_frontier.json")
    parser.add_argument("--n", type=int, nargs="+", default=list(range(16, 23)),
                        help="vertex counts to run (default 16..22)")
    args = parser.parse_args(argv)
    rows = []
    for n in args.n:
        runs = [benchrec.run(args.root, _CHILD, n) for _ in range(REPEAT)]
        if not all(run["cycle_free"] for run in runs):
            raise SystemExit(f"extremal_cyclic(30, {n}) came back with a balanced cycle")
        rows.append({"n": n, "wall_s": benchrec.median(runs, "wall_s", 4),
                     "wall_s_runs": [round(run["wall_s"], 4) for run in runs],
                     "peak_rss_mib": round(max(run["peak_rss_mib"] for run in runs), 1),
                     "probe_s": benchrec.median(runs, "probe_s", 5)})
        print(json.dumps(rows[-1]), flush=True)
    benchrec.write(args, "find_balanced_cycle(extremal_cyclic(30, n)), cycle-free; wall_s is "
                         "the median search call over fresh interpreters, peak_rss_mib the "
                         "largest interpreter peak resident memory", "n", rows)


if __name__ == "__main__":
    main()
