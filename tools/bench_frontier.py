#!/usr/bin/env python3
"""The exact search's frontier: cycle-free ``extremal_cyclic(30, n)`` and
late-cycle ``extremal_cyclic(n - 1, n)``, n = 16..22.

extremal_cyclic(30, n) has no balanced cycle for n <= 30, so
``find_balanced_cycle`` sweeps every start to the end: the search's worst
case at each size.  extremal_cyclic(n - 1, n) is the paper's sharp case:
its only balanced cycles run through every vertex, so the sweep from
vertex 0 closes one at its last layer and the witness is rebuilt by a walk
back through all n vertices; the run checks that it is [0, ..., n-1].
Each run times the one search call and reports the interpreter's peak
resident memory (``ru_maxrss``), numpy and the package included.  A row,
keyed by (case, n), holds the median search time of REPEAT = 3 runs,
every run's time and the largest peak RSS.  Runs, probe and file format:
``tools/benchrec.py``.

    python3 tools/bench_frontier.py                          # both cases, n = 16..22
    python3 tools/bench_frontier.py --n 12 13 --late 13 --out frontier.json
    python3 tools/bench_frontier.py --n 24 --late --root ../other-checkout --label before
"""

from __future__ import annotations

import json

import benchrec

REPEAT = 3  # fresh interpreters per row; the median time is reported

_CHILD = """
import json, resource, sys, time
from balanced_cycles import extremal_cyclic, find_balanced_cycle
case, n = sys.argv[1], int(sys.argv[2])
L = extremal_cyclic(30, n) if case == "cycle-free" else extremal_cyclic(n - 1, n)
start = time.perf_counter()
found = find_balanced_cycle(L)
wall = time.perf_counter() - start
print(json.dumps({"cycle": None if found is None else list(found.vertices), "wall_s": wall,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def main(argv: list[str] | None = None) -> None:
    parser = benchrec.parser(__doc__, "BENCH_frontier.json")
    parser.add_argument("--n", type=int, nargs="*", default=list(range(16, 23)),
                        help="vertex counts of the cycle-free rows (default 16..22)")
    parser.add_argument("--late", type=int, nargs="*", default=list(range(16, 23)),
                        help="vertex counts of the late-cycle rows (default 16..22)")
    args = parser.parse_args(argv)
    rows = []
    for case, sizes in (("cycle-free", args.n), ("late", args.late)):
        for n in sizes:
            runs = [benchrec.run(args.root, _CHILD, case, n) for _ in range(REPEAT)]
            want = None if case == "cycle-free" else list(range(n))
            if any(run["cycle"] != want for run in runs):
                raise SystemExit(f"{case} n = {n}: the search returned "
                                 f"{runs[0]['cycle']}, not {want}")
            rows.append({"case": case, "n": n, "wall_s": benchrec.median(runs, "wall_s", 4),
                         "wall_s_runs": [round(run["wall_s"], 4) for run in runs],
                         "peak_rss_mib": round(max(run["peak_rss_mib"] for run in runs), 1),
                         "probe_s": benchrec.median(runs, "probe_s", 5)})
            print(json.dumps(rows[-1]), flush=True)
    benchrec.write(args, "find_balanced_cycle on cycle-free extremal_cyclic(30, n) (case "
                         "cycle-free) and on extremal_cyclic(n - 1, n), whose witness is "
                         "[0, ..., n-1] (case late); wall_s is the median search call over "
                         "fresh interpreters, peak_rss_mib the largest interpreter peak "
                         "resident memory", ("case", "n"), rows)


if __name__ == "__main__":
    main()
