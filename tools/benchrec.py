"""The runner and the record writer of the ``tools/bench_*.py`` scripts.

A script measures the tree ``--root`` (default: this checkout): each run
is a fresh interpreter that imports the package from ``<root>/src``, runs
the script's child code and prints one JSON line.  Right before and right
after each run this interpreter times ``perfbench/calib.py``'s
``probe()``, a fixed kernel that tracks the host's speed, which drifts up
to 2x on a shared machine.  A row's ``probe_s`` is the median over its
runs of that before/after mean, so rows taken apart compare as
``wall_s / probe_s`` (or phase seconds / ``probe_s``).  The probe stays
in this interpreter: timed inside the child, right before and right
after its timed call, it tracked the child's time less well (three
five-run Z5 calls of ``bench_compute_n.py`` spread 25-29% in ``wall_s /
probe_s`` that way, against 7-14% this way, in CHANGES.md).

The file written to ``--out`` holds one entry per measured tree, under
``--label`` (default: the commit of ``--root``), with the machine, Python
and numpy versions, the commit and whether the tree's tracked files
differ from it.  A ``git archive`` export has no repository to ask: its
commit is read off ``ARCHIVED_COMMIT`` in its copy of this file, which
``git archive`` fills in (``export-subst`` in ``.gitattributes``), and
whether it differs is unknown (null).  Rows measured again under the
same label replace the rows with the same key and the other rows are
kept, so slow cases can be measured in a separate call and two trees
sit side by side.  Standard library plus numpy, on Linux.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import runpy
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
# the probe belongs to the benchmark: the same kernel times every tree
probe = runpy.run_path(str(ROOT / "perfbench" / "calib.py"))["probe"]
probe()  # the first run in an interpreter is slow

# git archive writes the exported commit's hash here; a checkout keeps the placeholder
ARCHIVED_COMMIT = "$Format:%H$"

GROUPS = dict({f"Z{q}": {"kind": "cyclic", "q": q} for q in range(1, 7)},
              Z2xZ2={"kind": "product", "left": {"kind": "cyclic", "q": 2},
                     "right": {"kind": "cyclic", "q": 2}},
              S3={"kind": "metacyclic", "m": 3, "n": 2, "r": 2})


def git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def archived_commit(root: Path) -> str | None:
    """The commit a ``git archive`` export ``root`` was made from, or None."""
    try:
        text = (root / "tools" / "benchrec.py").read_text()
    except OSError:
        return None
    found = re.search(r'^ARCHIVED_COMMIT = "([0-9a-f]{40})"$', text, re.MULTILINE)
    return found and found.group(1)


def machine() -> dict:
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def parser(doc: str, out: str) -> argparse.ArgumentParser:
    """The script's parser, with the flags every script takes."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--root", type=lambda path: Path(path).resolve(), default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--label", help="name of this tree's entry (default: its commit)")
    parser.add_argument("--out", type=Path, default=ROOT / out)
    return parser


def run(root: Path, child: str, *args) -> dict:
    """``child`` in a fresh interpreter on ``root/src``: its JSON line, with
    ``probe_s``, the mean of the probe right before and right after.  A
    child that fails stops the script with its exit status and stderr."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    before = probe()
    done = subprocess.run([sys.executable, "-c", child, *map(str, args)], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"a run on {root} exited with status {done.returncode}:\n"
                         f"{done.stderr}")
    return dict(json.loads(done.stdout), probe_s=(before + probe()) / 2)


def median(runs: list[dict], field: str, digits: int) -> float:
    return round(statistics.median(run[field] for run in runs), digits)


def write(args: argparse.Namespace, what: str, key: str | tuple[str, ...],
          rows: list[dict]) -> None:
    """Put ``rows`` into the entry of this tree in ``args.out``, replacing
    the entry's rows that have the same ``key``, one field or a tuple of them."""
    fields = (key,) if isinstance(key, str) else key

    def of(row: dict) -> tuple:
        return tuple(row[field] for field in fields)

    commit = git(args.root, "rev-parse", "HEAD") or archived_commit(args.root)
    modified = git(args.root, "status", "--porcelain", "--untracked-files=no")
    label = args.label or commit or str(args.root)
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    kept = next((entry["results"] for entry in runs if entry["label"] == label), [])
    measured = {of(row) for row in rows}
    entry = {"label": label, "commit": commit,
             "modified": None if modified is None else bool(modified),
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "machine": machine(), "python": platform.python_version(),
             "numpy": numpy.__version__,
             "results": [row for row in kept if of(row) not in measured] + rows}
    runs = [old for old in runs if old["label"] != label] + [entry]
    what += "; probe_s is the median perfbench/calib.py probe() around a run"
    args.out.write_text(json.dumps({"what": what, "runs": runs}, indent=1) + "\n")
