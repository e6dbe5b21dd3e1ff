#!/usr/bin/env python3
"""The exact search's frontier: cycle-free ``extremal_cyclic(30, n)``, n = 16..22.

extremal_cyclic(30, n) has no balanced cycle for n <= 30, so
``find_balanced_cycle`` sweeps every start to the end: the search's worst
case at each size.  Every run of every n is a fresh interpreter that
imports the package from the ``src`` directory of ``--root`` (default:
this checkout), times the one search call and reports the interpreter's
peak resident memory, numpy and the package included.

The file written to ``--out`` holds one entry per measured tree, under
``--label`` (default: the commit), with the machine, Python and numpy
versions, the commit of ``--root`` and whether its tracked files differ
from that commit, and per n the median search time of REPEAT = 3 runs,
every run's time and the largest peak RSS.  An entry with the same label
is replaced and the others are kept, so two trees measured one after the
other in one session sit side by side.  Standard library plus numpy;
peak RSS reads ``ru_maxrss``, so this runs on Linux.

    python3 tools/bench_frontier.py                          # n = 16..22
    python3 tools/bench_frontier.py --n 12 13 --out frontier.json
    python3 tools/bench_frontier.py --root ../other-checkout --label before
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

ROOT = Path(__file__).resolve().parent.parent
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


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def measure(root: Path, n: int) -> dict:
    """One search in a fresh interpreter; exits if it finds a cycle."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(n)], env=env,
                          capture_output=True, text=True, check=True)
    run = json.loads(done.stdout)
    if not run["cycle_free"]:
        raise SystemExit(f"extremal_cyclic(30, {n}) came back with a balanced cycle")
    return run


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=list(range(16, 23)),
                        help="vertex counts to run (default 16..22)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--label", help="name of this tree's entry (default: its commit)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_frontier.json")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    commit = _git(root, "rev-parse", "HEAD")
    modified = _git(root, "status", "--porcelain", "--untracked-files=no")
    results = []
    for n in args.n:
        runs = [measure(root, n) for _ in range(REPEAT)]
        times = [run["wall_s"] for run in runs]
        results.append({"n": n, "wall_s": round(statistics.median(times), 4),
                        "wall_s_runs": [round(t, 4) for t in times],
                        "peak_rss_mib": round(max(run["peak_rss_mib"] for run in runs), 1)})
        print(json.dumps(results[-1]), flush=True)
    entry = {"label": args.label or commit or str(root), "commit": commit,
             "modified": None if modified is None else bool(modified),
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "machine": machine(), "python": platform.python_version(),
             "numpy": numpy.__version__, "results": results}
    report = {"what": "find_balanced_cycle(extremal_cyclic(30, n)), cycle-free; wall_s is the "
                      "median search call over fresh interpreters, peak_rss_mib the largest "
                      "interpreter peak resident memory",
              "runs": []}
    if args.out.exists():
        report["runs"] = json.loads(args.out.read_text())["runs"]
    report["runs"] = [run for run in report["runs"] if run["label"] != entry["label"]] + [entry]
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
