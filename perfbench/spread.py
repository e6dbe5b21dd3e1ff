"""Run one workload on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload campaign --seeds 1 2 3 4 5

For every metric of the run's last line this prints the median of the
values over the seeds and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json.  A spread below a
third of the bound is marked steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                                "--seconds", str(spec["run_seconds"]),
                                                "--trace", str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            print(f"seed {seed}: {line['failed']} of {line['attempted']} requests failed")
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in line["metrics"].items()), flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
        print(f"{name:<40} median {median:<12.6g} spread {spread:7.2%} "
              f"bound {bound if bound is not None else '-'} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
