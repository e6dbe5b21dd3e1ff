#!/usr/bin/env python3
"""The cost of ``compute_n``: label trials, seconds and trials per second per group.

Each run builds the group and times one ``compute_n(group,
node_budget=...)`` call.  A row holds, per group, the budget, n(G) (or
``lower_bound``, the bound reached when the budget runs out), the trials
spent (the result's ``nodes``), the median time of ``--repeat`` runs
(default 3), every run's time and the trials per second at the median.
Runs, probe and file format: ``tools/benchrec.py``.

    python3 tools/bench_compute_n.py                        # Z3, Z4, Z2xZ2, Z5
    python3 tools/bench_compute_n.py --groups Z3 --out compute_n.json
    python3 tools/bench_compute_n.py --groups S3 Z6 --repeat 1 --node-budget 20000000
    python3 tools/bench_compute_n.py --root ../other-checkout --label before
"""

from __future__ import annotations

import json
import statistics

import benchrec

DEFAULT_NODE_BUDGET = 2_000_000  # the package's default, so a parent tree runs the same call

_CHILD = """
import json, sys, time
from balanced_cycles import SearchSpaceTooLarge, build_group, compute_n
group = build_group(json.loads(sys.argv[1]))
budget = int(sys.argv[2])
start = time.perf_counter()
try:
    result = compute_n(group, node_budget=budget)
    run = {"n": result.value, "trials": result.nodes}
except SearchSpaceTooLarge as exc:
    run = {"n": None, "lower_bound": exc.lower_bound, "trials": budget}
run["wall_s"] = time.perf_counter() - start
print(json.dumps(run))
"""


def bench(args, name: str) -> dict:
    spec = json.dumps(benchrec.GROUPS[name])
    runs = [benchrec.run(args.root, _CHILD, spec, args.node_budget)
            for _ in range(args.repeat)]
    if len({(run["n"], run["trials"]) for run in runs}) != 1:
        raise SystemExit(f"{name}: runs disagree on n or trials: {runs}")
    wall = statistics.median(run["wall_s"] for run in runs)
    row = {"group": name, "node_budget": args.node_budget, "n": runs[0]["n"],
           "trials": runs[0]["trials"], "wall_s": round(wall, 4),
           "wall_s_runs": [round(run["wall_s"], 4) for run in runs],
           "trials_per_s": round(runs[0]["trials"] / wall),
           "probe_s": benchrec.median(runs, "probe_s", 5)}
    if runs[0]["n"] is None:
        row["lower_bound"] = runs[0]["lower_bound"]
    return row


def main(argv: list[str] | None = None) -> None:
    parser = benchrec.parser(__doc__, "BENCH_compute_n.json")
    parser.add_argument("--groups", nargs="+", choices=sorted(benchrec.GROUPS),
                        default=["Z3", "Z4", "Z2xZ2", "Z5"])
    parser.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    parser.add_argument("--repeat", type=int, default=3,
                        help="fresh interpreters per group; the median time is reported")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.node_budget < 0:
        parser.error("--repeat must be at least 1 and --node-budget at least 0")
    rows = []
    for name in args.groups:
        rows.append(bench(args, name))
        print(json.dumps(rows[-1]), flush=True)
    benchrec.write(args, "compute_n(group, node_budget=...) in fresh interpreters; trials is "
                         "the result's nodes, wall_s the median call, trials_per_s trials / "
                         "wall_s", "group", rows)


if __name__ == "__main__":
    main()
