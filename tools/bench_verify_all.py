#!/usr/bin/env python3
"""The cost of a normalized ``verify_all``, phase by phase.

Every run is a fresh interpreter that imports the package from the
``src`` directory of ``--root`` (default: this checkout), builds the
group, makes one untimed ``verify_all(group, n, normalized=True)`` call
to fill the caches (cycle lists, byte tables), and then times, one after
the other, the phases such a call runs and the call itself:

* ``sieve_s``: ``harness._enumerate_chunk`` over every index, the
  odometer digits and the cycle-length sieve;
* ``recheck_s``: ``reach._recheck_cycle_free`` over the counterexamples,
  in stacks of ``BLOCK_ELEMS // n**2`` (one call per labelling on a tree
  from before the stacked re-check, whose re-check takes a Labelling);
* ``labellings_s``: one ``Labelling`` per counterexample;
* ``report_json_s``: the report as the CLI prints it,
  ``cli._emit(report.to_json())`` into a string buffer, so each tree is
  timed with its own encoder call;
* ``verify_all_s``: the whole call again.

The file written to ``--out`` holds one entry per measured tree, under
``--label`` (default: the commit), with the machine, Python and numpy
versions, the commit of ``--root`` and whether its tracked files differ
from that commit.  Per case it holds the labelling and counterexample
counts and, per phase, the median of ``--repeat`` runs (default 5).  A
case measured again under the same label replaces its row and the other
rows are kept.  Standard library plus numpy.

    python3 tools/bench_verify_all.py                        # Z4, Z2xZ2, Z3 on 4 vertices
    python3 tools/bench_verify_all.py --groups Z3 --out verify_all.json
    python3 tools/bench_verify_all.py --root ../other-checkout --label before
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

from bench_compute_n import GROUPS
from bench_frontier import ROOT, _git, machine

N = 4
PHASES = ("sieve_s", "recheck_s", "labellings_s", "report_json_s", "verify_all_s")

_CHILD = """
import contextlib, inspect, io, json, sys, time
import numpy as np
from balanced_cycles import Labelling, build_group, cli, harness, reach, verify_all
spec, n = json.loads(sys.argv[1]), int(sys.argv[2])
group = build_group(spec)
report = verify_all(group, n, normalized=True)
space = group.order ** len(harness._free_arcs(n, True))
clock = time.perf_counter
run = {"labellings": report.trials, "counterexamples": report.counterexample_count}
start = clock()
found = harness._enumerate_chunk(spec, n, True, 0, space)[1]
run["sieve_s"] = clock() - start
found = np.asarray(found, dtype=np.int64).reshape(-1, n, n)
stacked = "present" in inspect.signature(reach._recheck_cycle_free).parameters
start = clock()
if stacked:
    stack = max(1, harness.BLOCK_ELEMS // (n * n))
    present = ~np.eye(n, dtype=bool)
    for lo in range(0, len(found), stack):
        reach._recheck_cycle_free(group, found[lo:lo + stack], present)
else:
    for L in report.counterexamples:
        reach._recheck_cycle_free(L)
run["recheck_s"] = clock() - start
start = clock()
[Labelling(group, labels) for labels in found]
run["labellings_s"] = clock() - start
with contextlib.redirect_stdout(io.StringIO()):
    start = clock()
    cli._emit(report.to_json())
    run["report_json_s"] = clock() - start
start = clock()
verify_all(group, n, normalized=True)
run["verify_all_s"] = clock() - start
print(json.dumps(run))
"""


def measure(root: Path, name: str) -> dict:
    """One set of phase timings in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(GROUPS[name]), str(N)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def bench(root: Path, name: str, repeat: int) -> dict:
    runs = [measure(root, name) for _ in range(repeat)]
    if len({(run["labellings"], run["counterexamples"]) for run in runs}) != 1:
        raise SystemExit(f"{name}: runs disagree on the counts: {runs}")
    row = {"group": name, "n": N, "mode": "exhaustive_normalized",
           "labellings": runs[0]["labellings"], "counterexamples": runs[0]["counterexamples"]}
    for phase in PHASES:
        row[phase] = round(statistics.median(run[phase] for run in runs), 5)
    return row


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--groups", nargs="+", choices=sorted(GROUPS),
                        default=["Z4", "Z2xZ2", "Z3"])
    parser.add_argument("--repeat", type=int, default=5,
                        help="fresh interpreters per group; each phase's median is reported")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--label", help="name of this tree's entry (default: its commit)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_verify_all.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    root = args.root.resolve()
    commit = _git(root, "rev-parse", "HEAD")
    modified = _git(root, "status", "--porcelain", "--untracked-files=no")
    rows = []
    for name in args.groups:
        rows.append(bench(root, name, args.repeat))
        print(json.dumps(rows[-1]), flush=True)
    label = args.label or commit or str(root)
    report = {"what": f"normalized verify_all(group, {N}) in fresh interpreters after one "
                      "untimed call; each *_s is the median seconds of one phase "
                      "(tools/bench_verify_all.py)",
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
