"""The repository benchmark: exact-check, proof-engine and campaign workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exact-check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from the seed, measures set-up
time in fresh interpreters, then runs the request list in a fresh worker
process for the time budget and checks every answer.  It prints a full
report (machine, versions, commit, every metric with its unit) and, as the
last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Times are
scaled to the reference speed of the probe in calib.py; the report keeps
the raw times too.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calib
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SPAWNS = 7  # fresh interpreters timed per run; the median is reported
RUN_TIMEOUT_S = 170  # the worker is killed when the whole run reaches this

END_TO_END = {"wall_s": "s", "req_p50_s": "s", "req_tail_s": "s",
              "peak_rss_mib": "MiB", "setup_s": "s"}
# Request-level metrics the end-to-end list of BENCHMARK.json cannot hold, because
# they are 0 on some workload; every run reports them, traced runs also in
# the result line.
REQUEST_LEVEL = [("trials_per_s", "1/s", "higher"), ("labellings_per_s", "1/s", "higher"),
                 ("compute_n_s", "s", "lower"), ("error_rate", "ratio", "lower")]
RUN_LEVEL = REQUEST_LEVEL + [
    ("trace.overhead_s", "s", "lower"), ("trace.overhead_share", "ratio", "lower"),
    ("counts.drift", "count", "lower"), ("bench.probe_s", "s", "lower"),
    ("bench.raw_wall_s", "s", "lower")]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of everything a --trace 1 run reports."""
    return (tracing.LAYER_METRICS + [(m, "s", "lower") for m in workloads.BASELINE_METRICS]
            + RUN_LEVEL)


# -- set-up --------------------------------------------------------------------

_SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "import balanced_cycles.cli; print(repr(time.perf_counter()))")
# The reference launch imports only what the environment provides: numpy.
_REFERENCE_CODE = "import sys, time; import numpy; print(repr(time.perf_counter()))"
REFERENCE_LAUNCH_S = 0.095  # about a reference launch in this host's fast phase


def _launch(code: str) -> float:
    """Seconds from launching a fresh interpreter on ``code`` until it prints its clock."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                         capture_output=True, text=True, timeout=20, check=True)
    return float(out.stdout.strip()) - start


def measure_setup() -> tuple[list[float], list[float]]:
    """Launch-to-``import balanced_cycles.cli`` times, raw and scaled, one per launch.

    The child prints its CLOCK_MONOTONIC reading once the import is done;
    the parent's reading just before the launch is the start.  Launches
    alternate with reference launches that import only numpy, and each
    time is scaled by the mean of the reference launches around it: launch
    time follows machine phases that the compute probe does not track.
    One untimed launch of each kind first fills the bytecode and file caches.
    """
    _launch(_SETUP_CODE)
    raw, scaled = [], []
    before = _launch(_REFERENCE_CODE)
    for _ in range(SETUP_SPAWNS):
        took = _launch(_SETUP_CODE)
        after = _launch(_REFERENCE_CODE)
        raw.append(took)
        scaled.append(took * REFERENCE_LAUNCH_S * 2 / (before + after))
        before = after
    return raw, scaled


# -- the worker ------------------------------------------------------------------

def run_worker(plan: dict, rundir: Path, timeout: float) -> tuple[dict, float]:
    """Run the worker process; return its results and its peak RSS in MiB."""
    plan_path, out_path = rundir / "plan.json", rundir / "result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path),
                             str(out_path)], cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out_path.read_text()), usage.ru_maxrss / 1024


# -- metrics ---------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest listed percentile with at least ten requests above it."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:  # p50 comes last, so it is reported even below ten
        q = nearest_rank(ordered, p)
        beyond = sum(v > q for v in ordered)
        if beyond >= 10:
            break
    return q, p, beyond


def end_to_end(result: dict, requests: list[dict]) -> dict:
    """Request-level metrics from the untraced rounds.

    Every round repeats the same requests, so each request's latency is
    taken as the median of its repeats.  ``wall_s`` is the sum of those
    latencies, one pass over the list; the percentiles run over all timed
    requests with those latencies.  A percentile thus stays on the same
    request from run to run, and one bad probe next to a long request
    moves neither.
    """
    by_id = {r["id"]: r for r in requests}
    rounds = [r for r in result["rounds"] if not r["traced"]]
    repeats: dict[str, list[float]] = {}
    for r in rounds:
        for rec in r["requests"]:
            repeats.setdefault(rec["id"], []).append(rec["norm_s"])
    latency = {rid: statistics.median(v) for rid, v in repeats.items()}
    timed = [latency[rid] for rid, v in repeats.items() for _ in v]
    tail_s, tail_p, beyond = tail(timed)
    out = {
        "wall_s": sum(latency.values()),
        "req_p50_s": statistics.median(timed),
        "req_tail_s": tail_s,
        "req_tail_percentile": tail_p,
        "req_tail_beyond": beyond,
        "requests_timed": len(timed),
        "rounds_timed": len(rounds),
        "bench.raw_wall_s": statistics.median(
            sum(rec["raw_s"] for rec in r["requests"]) for r in rounds),
        "bench.probe_s": statistics.median(result["probes"]),
    }
    # Campaign throughputs, over the requests of each kind in all timed rounds.
    trials = labellings = spent_random = spent_all = 0.0
    compute_n = []
    for r in rounds:
        compute_n.append(0.0)
        for rec in r["requests"]:
            exp = by_id[rec["id"]]["expect"]
            if exp["type"] == "verify" and exp["mode"] == "randomized":
                trials += exp["trials"]
                spent_random += rec["norm_s"]
            elif exp["type"] == "verify":
                labellings += exp["trials"]
                spent_all += rec["norm_s"]
            elif exp["type"] == "compute_n":
                compute_n[-1] += rec["norm_s"]
    out["trials_per_s"] = trials / spent_random if spent_random else 0
    out["labellings_per_s"] = labellings / spent_all if spent_all else 0
    out["compute_n_s"] = statistics.median(compute_n)
    return out


def per_layer(result: dict, untraced: dict, workload: str, seed: int) -> dict:
    """Per-layer metrics: medians of timings and first-round counts over traced rounds."""
    layers = [r["layers"] for r in result["rounds"] if r["traced"]]
    out = dict.fromkeys([name for name, _, _ in tracing.LAYER_METRICS]
                        + list(workloads.BASELINE_METRICS), 0)
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        out[name] = values[0] if name in tracing.EXACT_COUNTS else statistics.median(values)
    counts = {name: layers[0][name] for name in tracing.EXACT_COUNTS}
    drift = sum(any(layer[name] != counts[name] for layer in layers) for name in counts)
    # Compare with the last traced run at this seed in this checkout.
    store = WORK / "counts" / f"{workload}-{seed}.json"
    if store.exists():
        before = json.loads(store.read_text())
        drift += sum(before.get(name) != value for name, value in counts.items())
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(counts, sort_keys=True))
    repeats: dict[str, list[float]] = {}
    for r in result["rounds"]:
        for rec in r["requests"] if r["traced"] else ():
            repeats.setdefault(rec["id"], []).append(rec["norm_s"])
    traced_wall = sum(statistics.median(v) for v in repeats.values())
    out["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    out["trace.overhead_share"] = out["trace.overhead_s"] / untraced["wall_s"]
    out["counts.drift"] = drift
    return out


# -- one run ---------------------------------------------------------------------

def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": metadata.version("numpy")}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    rundir = WORK / f"{workload}-{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    requests = workloads.build(workload, seed, ROOT, rundir / "inputs")
    setup_raw, setup = measure_setup()
    plan = {"root": str(ROOT), "requests": requests, "seconds": seconds, "trace": trace}
    result, rss_mib = run_worker(plan, rundir, RUN_TIMEOUT_S - (time.perf_counter() - started))
    failures = [(rec["id"], rec["failure"]) for rnd in result["rounds"]
                for rec in rnd["requests"] if rec["failure"]]
    attempted = sum(len(rnd["requests"]) for rnd in result["rounds"])
    metrics = end_to_end(result, requests)
    metrics.update(setup_s=statistics.median(setup), setup_raw_s=statistics.median(setup_raw),
                   peak_rss_mib=rss_mib,
                   error_rate=len(failures) / attempted)
    if trace:
        metrics.update(per_layer(result, metrics, workload, seed))
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "clients": 1, "loop": "closed", "requests_per_round": len(requests),
              **machine(), "commit": git_commit(), "package": result["package"],
              "reference_probe_s": calib.REFERENCE_PROBE_S,
              "attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "metrics": metrics}
    (rundir / "report.json").write_text(json.dumps(report, indent=1))
    return report


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        names = [(name, unit) for name, unit, _ in per_layer_metrics()]
    else:
        names = list(END_TO_END.items())
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                        for name, unit in names}}


def print_table(report: dict) -> None:
    m = report["metrics"]
    print(f"== {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"tail=p{m['req_tail_percentile']} of {m['requests_timed']} requests")
    units = dict(END_TO_END, **{name: unit for name, unit, _ in per_layer_metrics()})
    for name in list(END_TO_END) + [n for n, _, _ in REQUEST_LEVEL]:
        print(f"  {name:<22} {m[name]:.6g} {units[name]}")
    for failure in report["failures"]:
        print(f"  FAILED {failure[0]}: {failure[1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "balanced_cycles" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_one(name, args.seed, args.seconds, bool(args.trace))
        print_table(report)
        print(json.dumps(report, sort_keys=True))
        reports.append(report)
    if len(reports) == 1:
        line = result_line(reports[0], bool(args.trace))
    else:
        lines = [result_line(r, bool(args.trace)) for r in reports]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {f"{r['workload']}.{k}": v for r, x in zip(reports, lines)
                            for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
