#!/usr/bin/env python3
"""The cost of a normalized ``verify_all``, phase by phase.

Each run builds the group, makes one untimed ``verify_all(group, n,
normalized=True)`` call to fill the caches (cycle lists, byte tables),
and then times, one after the other, the phases such a call runs and the
call itself:

* ``sieve_s``: ``harness._enumerate_chunk`` over every index: the
  2-cycles settled on the digits, then the cycle-length sieve on the
  labellings left;
* ``recheck_s``: ``reach._recheck_cycle_free`` over the counterexamples,
  in stacks of ``BLOCK_ELEMS // n**2``;
* ``labellings_s``: one ``Labelling`` per counterexample;
* ``report_json_s``: the report as the CLI prints it,
  ``cli._emit(report.to_json())`` into a string buffer;
* ``verify_all_s``: the whole call again.

A row holds, per group, the labelling and counterexample counts and, per
phase, the median of ``--repeat`` runs (default 5).  Runs, probe and
file format: ``tools/benchrec.py``.

    python3 tools/bench_verify_all.py                        # Z4, Z2xZ2, Z3 on 4 vertices
    python3 tools/bench_verify_all.py --groups Z3 --out verify_all.json
    python3 tools/bench_verify_all.py --root ../other-checkout --label before
"""

from __future__ import annotations

import json

import benchrec

N = 4
PHASES = ("sieve_s", "recheck_s", "labellings_s", "report_json_s", "verify_all_s")

_CHILD = """
import contextlib, io, json, sys, time
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
start = clock()
stack = max(1, harness.BLOCK_ELEMS // (n * n))
present = ~np.eye(n, dtype=bool)
for lo in range(0, len(found), stack):
    reach._recheck_cycle_free(group, found[lo:lo + stack], present)
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


def bench(args, name: str) -> dict:
    spec = json.dumps(benchrec.GROUPS[name])
    runs = [benchrec.run(args.root, _CHILD, spec, N) for _ in range(args.repeat)]
    if len({(run["labellings"], run["counterexamples"]) for run in runs}) != 1:
        raise SystemExit(f"{name}: runs disagree on the counts: {runs}")
    row = {"group": name, "n": N, "mode": "exhaustive_normalized",
           "labellings": runs[0]["labellings"], "counterexamples": runs[0]["counterexamples"]}
    for phase in PHASES:
        row[phase] = benchrec.median(runs, phase, 5)
    row["probe_s"] = benchrec.median(runs, "probe_s", 5)
    return row


def main(argv: list[str] | None = None) -> None:
    parser = benchrec.parser(__doc__, "BENCH_verify_all.json")
    parser.add_argument("--groups", nargs="+", choices=sorted(benchrec.GROUPS),
                        default=["Z4", "Z2xZ2", "Z3"])
    parser.add_argument("--repeat", type=int, default=5,
                        help="fresh interpreters per group; each phase's median is reported")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = []
    for name in args.groups:
        rows.append(bench(args, name))
        print(json.dumps(rows[-1]), flush=True)
    benchrec.write(args, f"normalized verify_all(group, {N}) in fresh interpreters after one "
                         "untimed call; each *_s is the median seconds of one phase "
                         "(tools/bench_verify_all.py)", "group", rows)


if __name__ == "__main__":
    main()
