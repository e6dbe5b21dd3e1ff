#!/usr/bin/env python3
"""The cost of ``compute_n``: label trials, seconds and trials per second per group.

Every run is a fresh interpreter that imports the package from the
``src`` directory of ``--root`` (default: this checkout), builds the
group and times one ``compute_n(group, node_budget=...)`` call.  It
reports n(G), or the lower bound reached when the budget runs out, and
the trials spent (``nodes``).

The file written to ``--out`` holds one entry per measured tree, under
``--label`` (default: the commit), with the machine, Python and numpy
versions, the commit of ``--root`` and whether its tracked files differ
from that commit.  Per group it holds the budget, the trial count, the
median time of ``--repeat`` runs (default 3), every run's time and the
trials per second at the median.  A group measured again under the same
label replaces its row and the other rows are kept, so slow groups can
be measured once in a separate call.  Standard library plus numpy.

    python3 tools/bench_compute_n.py                        # Z3, Z4, Z2xZ2, Z5
    python3 tools/bench_compute_n.py --groups Z3 --out compute_n.json
    python3 tools/bench_compute_n.py --groups S3 Z6 --repeat 1 --node-budget 20000000
    python3 tools/bench_compute_n.py --root ../other-checkout --label before
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from bench_frontier import ROOT, _git, machine

DEFAULT_NODE_BUDGET = 2_000_000  # the package's default, so a parent tree runs the same call
GROUPS = {
    "Z1": {"kind": "cyclic", "q": 1},
    "Z2": {"kind": "cyclic", "q": 2},
    "Z3": {"kind": "cyclic", "q": 3},
    "Z4": {"kind": "cyclic", "q": 4},
    "Z2xZ2": {"kind": "product", "left": {"kind": "cyclic", "q": 2},
              "right": {"kind": "cyclic", "q": 2}},
    "Z5": {"kind": "cyclic", "q": 5},
    "S3": {"kind": "metacyclic", "m": 3, "n": 2, "r": 2},
    "Z6": {"kind": "cyclic", "q": 6},
}

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


def measure(root: Path, name: str, budget: int) -> dict:
    """One compute_n call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(GROUPS[name]), str(budget)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def bench(root: Path, name: str, budget: int, repeat: int) -> dict:
    runs = [measure(root, name, budget) for _ in range(repeat)]
    if len({(run["n"], run["trials"]) for run in runs}) != 1:
        raise SystemExit(f"{name}: runs disagree on n or trials: {runs}")
    times = [run["wall_s"] for run in runs]
    wall = statistics.median(times)
    row = {"group": name, "node_budget": budget, "n": runs[0]["n"], "trials": runs[0]["trials"],
           "wall_s": round(wall, 4), "wall_s_runs": [round(t, 4) for t in times],
           "trials_per_s": round(runs[0]["trials"] / wall)}
    if runs[0]["n"] is None:
        row["lower_bound"] = runs[0]["lower_bound"]
    return row


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--groups", nargs="+", choices=sorted(GROUPS),
                        default=["Z3", "Z4", "Z2xZ2", "Z5"])
    parser.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    parser.add_argument("--repeat", type=int, default=3,
                        help="fresh interpreters per group; the median time is reported")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--label", help="name of this tree's entry (default: its commit)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_compute_n.json")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.node_budget < 0:
        parser.error("--repeat must be at least 1 and --node-budget at least 0")
    root = args.root.resolve()
    commit = _git(root, "rev-parse", "HEAD")
    modified = _git(root, "status", "--porcelain", "--untracked-files=no")
    rows = []
    for name in args.groups:
        rows.append(bench(root, name, args.node_budget, args.repeat))
        print(json.dumps(rows[-1]), flush=True)
    label = args.label or commit or str(root)
    report = {"what": "compute_n(group, node_budget=...) in fresh interpreters; trials is the "
                      "result's nodes, wall_s the median call, trials_per_s trials / wall_s",
              "runs": []}
    if args.out.exists():
        report["runs"] = json.loads(args.out.read_text())["runs"]
    kept = next((run["results"] for run in report["runs"] if run["label"] == label), [])
    measured = {row["group"] for row in rows}
    entry = {"label": label, "commit": commit,
             "modified": None if modified is None else bool(modified),
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "machine": machine(), "python": platform.python_version(),
             "numpy": numpy.__version__,
             "results": [row for row in kept if row["group"] not in measured] + rows}
    report["runs"] = [run for run in report["runs"] if run["label"] != label] + [entry]
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
