"""Runs one workload's request list in a fresh process and writes what it measured.

Started by run.py as ``python3 perfbench/worker.py PLAN OUT``.  PLAN is the
JSON the parent wrote: the repository root, the request list, the time
budget and whether to trace.  The package is imported from ``src/`` of
that root, as the test suite does, and CLI requests go through the public
entry point ``balanced_cycles.cli.main(argv)`` in this process.

Rounds repeat the request list until the budget is spent; the last round
always completes, so every request has the same number of repeats.  Every answer of
the first round is checked by a route independent of the code that
produced it; later rounds must reproduce the first round's answers.  In a
traced run, rounds alternate untraced and traced, so both see the same
machine phases and their difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import calib
import tracing

# Rounds start until the scaled budget is spent.  In slow phases a round is
# not started if it would take raw time past this multiple of the budget.
RAW_BUDGET_FACTOR = 2.0


# -- group arithmetic written from the group specs, not taken from the package --

def own_mul(spec: dict):
    kind = spec["kind"]
    if kind == "cyclic":
        q = spec["q"]
        return lambda a, b: (a + b) % q
    if kind == "product":
        left, right = own_mul(spec["left"]), own_mul(spec["right"])
        m = _order(spec["right"])
        return lambda a, b: left(a // m, b // m) * m + right(a % m, b % m)
    if kind == "metacyclic":
        m, n, r = spec["m"], spec["n"], spec["r"]
        return lambda a, b: ((a // n + pow(r, a % n, m) * (b // n)) % m) * n + (a % n + b % n) % n
    raise ValueError(f"no independent arithmetic for group kind {kind!r}")


def _order(spec: dict) -> int:
    kind = spec["kind"]
    if kind == "cyclic":
        return spec["q"]
    if kind == "product":
        return _order(spec["left"]) * _order(spec["right"])
    return spec["m"] * spec["n"]


def own_cycle_value(obj: dict, cycle: list[int]) -> int | None:
    """Product of the labels around ``cycle``; None if it is not a simple cycle of present arcs."""
    n = obj["n"]
    mask = obj.get("mask")
    if len(cycle) < 2 or len(set(cycle)) != len(cycle) or not all(0 <= v < n for v in cycle):
        return None
    mul = own_mul(obj["group"])
    value = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if mask is not None and not mask[a][b]:
            return None
        value = mul(value, obj["labels"][a][b])
    return value


def own_cycle_free(obj: dict) -> bool:
    """Brute force over every simple cycle, minimum vertex first."""
    n, labels = obj["n"], obj["labels"]
    mul = own_mul(obj["group"])

    def extend(start, last, value, used) -> bool:
        if mul(value, labels[last][start]) == 0 and last != start:
            return False
        for w in range(start + 1, n):
            if not used >> w & 1 and not extend(start, w, mul(value, labels[last][w]),
                                                used | 1 << w):
                return False
        return True

    return all(extend(s, s, 0, 1 << s) for s in range(n))


# -- checks ----------------------------------------------------------------------

class Checker:
    """Checks first-round answers independently and later rounds against them."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.first: dict[str, object] = {}
        self.round_results: dict[str, object] = {}

    def _labelling(self, req):
        with open(req["labelling"]) as handle:
            obj = json.load(handle)
        return obj, self.pkg.labelling_from_json(obj)

    def _witness(self, req, cycle) -> str | None:
        obj, L = self._labelling(req)
        if own_cycle_value(obj, cycle) != 0:
            return f"witness {cycle} is not a balanced cycle of the input"
        if self.pkg.cycle_value(L, cycle) != 0:
            return f"cycle_value disagrees on witness {cycle}"
        return None

    def first_round(self, req, result) -> str | None:
        exp = req["expect"]
        kind = exp["type"]
        if req["kind"] == "cli":
            code, out = result
            try:
                data = json.loads(out)
            except ValueError:
                return f"exit {code}, output is not JSON"
            return getattr(self, f"_cli_{kind}")(req, exp, code, data)
        return getattr(self, f"_lib_{kind}")(req, exp, result)

    def _cli_check(self, req, exp, code, data):
        cycle = data.get("balanced_cycle")
        if data.get("mode") != "exact":
            return f"mode {data.get('mode')!r}, expected exact"
        if exp["cycle"] is None:
            return None if code == 3 and cycle is None else f"exit {code}, cycle {cycle}; expected none"
        if code != 0 or cycle != exp["cycle"]:
            return f"exit {code}, cycle {cycle}; expected {exp['cycle']}"
        return self._witness(req, cycle)

    def _cli_key_lemma(self, req, exp, code, data):
        if code != 0 or data.get("within_hypothesis") is not True:
            return f"exit {code}, within_hypothesis {data.get('within_hypothesis')}"
        branch = data.get("branch")
        if exp["branch"] is not None and branch != exp["branch"]:
            return f"branch {branch!r}, expected {exp['branch']!r}"
        if branch == "cycle":
            return self._witness(req, data["cycle"])
        if branch != "certificate":
            return f"unexpected branch {branch!r}"
        c = data["certificate"]
        bits = lambda xs: sum(1 << e for e in xs)  # noqa: E731
        cert = self.pkg.StabilizerCertificate(X=bits(c["X"]), x=c["x"], R=bits(c["R"]),
                                              right_stab=bits(c["stab_r"]))
        failures = cert.validate(self._labelling(req)[1])
        return "; ".join(failures) or None

    def _cli_prime_find(self, req, exp, code, data):
        cycle = data.get("balanced_cycle")
        if code != 0 or not isinstance(cycle, list):
            return f"exit {code}, cycle {cycle}"
        if exp["length"] is not None and len(cycle) != exp["length"]:
            return f"cycle {cycle} is not the unique Hamiltonian balanced cycle"
        return self._witness(req, cycle)

    def _cli_verify(self, req, exp, code, data):
        trials, count, unresolved = data["trials"], data["counterexample_count"], data["unresolved"]
        found = sum(data["witness_lengths"].values())
        problems = []
        for key in ("mode", "n", "trials", "seed"):
            if data[key] != exp[key]:
                problems.append(f"{key} {data[key]!r}, expected {exp[key]!r}")
        if count != len(data["counterexamples"]) or unresolved != 0:
            problems.append("counterexample list or unresolved count is off")
        if found + count + unresolved != trials or sum(data["witness_methods"].values()) != found:
            problems.append("trials do not add up")
        if code != (1 if count else 0):
            problems.append(f"exit {code} with {count} counterexamples")
        for cex in data["counterexamples"]:
            if exp["mode"] == "exhaustive_normalized" and any(cex["labels"][0]):
                problems.append("counterexample is not normalized at vertex 0")
            if cex["n"] <= 9:
                free = own_cycle_free(cex)
            else:
                free = self.pkg.find_balanced_cycle(self.pkg.labelling_from_json(cex)) is None
            if not free:
                problems.append("reported counterexample has a balanced cycle")
                break
        return "; ".join(problems) or None

    def _cli_compute_n(self, req, exp, code, data):
        if code != 0 or data.get("n") != exp["n"]:
            return f"exit {code}, n = {data.get('n')}; expected {exp['n']}"
        witness = data["witness"]
        if witness["n"] != exp["n"] - 1 or not own_cycle_free(witness):
            return "witness is not a cycle-free labelling one vertex below n"
        if self.pkg.enumerate_balanced_cycles(self.pkg.labelling_from_json(witness)):
            return "enumerate_balanced_cycles finds a cycle in the witness"
        return None

    def _lib_reach_set(self, req, exp, result):
        return None  # checked against the retained table of the next request

    def _lib_reach_table(self, req, exp, result):
        _, L = self._labelling(req)
        last = None
        for _, last in self.pkg.reach.aggregated_reach_layers(L, (1 << L.n) - 1):
            pass
        final = last[(1 << L.n) - 1]
        if any(result.aggregate(x) != final[x] for x in range(L.n)):
            return "reach_table aggregates differ from the aggregated layers"
        return None

    def _lib_reach_set_between(self, req, exp, result):
        _, L = self._labelling(req)
        u, v = req["u"], req["v"]
        table = self.pkg.start_anchored_table(L, (1 << L.n) - 1, start=u).table
        union = 0
        for entry in table.values():
            union |= entry.get(v, 0)
        return None if union == result else "reach_set_between differs from the start-anchored table"

    def check(self, req, result, first: bool) -> str | None:
        """Check one answer; every round also ties each retained table to its reach set."""
        rid = req["id"]
        if req.get("call") == "reach_table":
            expected = self.round_results.get(req["expect"]["pair"])
            if result.aggregate(req["x"]) != expected:
                return "reach_table(...).aggregate(x) differs from reach_set(...)"
            summary = None  # tables are compared through their aggregates only
        elif req["kind"] == "cli":
            code, out = result
            data = json.loads(out) if out.strip() else None
            if isinstance(data, dict):
                data.pop("elapsed_seconds", None)
            summary = (code, data)
        else:
            summary = result
        if req.get("call") == "reach_set":
            self.round_results[rid] = result
        if first:
            self.first[rid] = summary
            return self.first_round(req, result)
        if summary != self.first.get(rid):
            return "answer differs from the first round's"
        return None


# -- running ------------------------------------------------------------------------

def _call(pkg, req):
    """One request, exactly as a client would send it."""
    if req["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main(list(req["argv"]))
        return code, out.getvalue()
    with open(req["labelling"]) as handle:
        L = pkg.labellings.labelling_from_json(json.load(handle))
    scope = (1 << L.n) - 1
    if req["call"] == "reach_set":
        return pkg.reach.reach_set(L, scope, req["x"])
    if req["call"] == "reach_table":
        return pkg.reach.reach_table(L, scope)
    return pkg.reach.reach_set_between(L, scope, req["u"], req["v"])


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import balanced_cycles
    import balanced_cycles.cli
    if Path(balanced_cycles.__file__).resolve().parent != (src / "balanced_cycles").resolve():
        raise SystemExit(f"imported balanced_cycles from {balanced_cycles.__file__}, not {src}")
    return balanced_cycles


def main(plan_path: str, out_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    pkg = _import_package(Path(plan["root"]))
    requests = plan["requests"]
    baselines = {r["id"]: r["baseline"] for r in requests if r.get("baseline")}
    budget, trace = plan["seconds"], plan["trace"]
    checker = Checker(pkg)
    probes = [calib.probe()]
    rounds, spans = [], []
    started = time.perf_counter()
    elapsed_norm = 0.0
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        tracer = tracing.Tracer() if traced else None
        round_start = time.perf_counter()
        records = []
        for req in requests:
            if records:  # the first request of a round follows the previous round's probe
                probes.append(calib.probe())
            if tracer:
                tracer.request = req["id"]
                tracer.install()
            failure = None
            t0 = time.perf_counter()
            try:
                result = _call(pkg, req)
            except (Exception, SystemExit) as exc:  # a crash is a failed request, not a stop
                result = None
                failure = "raised " + "".join(traceback.format_exception_only(exc)).strip()
            t1 = time.perf_counter()
            if tracer:
                tracer.uninstall()
            if failure is None:
                try:
                    failure = checker.check(req, result, first=index == 0)
                except Exception as exc:  # a malformed answer fails its check
                    failure = "check raised " + "".join(
                        traceback.format_exception_only(exc)).strip()
            result = None
            records.append({"id": req["id"], "raw_s": t1 - t0, "probe": len(probes) - 1,
                            "failure": failure})
        probes.append(calib.probe())
        checker.round_results.clear()
        for rec in records:
            rec["factor"] = calib.factor(probes[rec["probe"]], probes[rec["probe"] + 1])
            rec["norm_s"] = rec["raw_s"] * rec["factor"]
        layers = None
        if tracer:
            factors = {rec["id"]: rec["factor"] for rec in records}
            layers = tracing.summarize(tracer.spans, tracer.counts, factors, baselines)
            spans += [(index,) + span for span in tracer.spans]
        rounds.append({"traced": traced, "requests": records, "layers": layers})
        round_norm = sum(rec["norm_s"] for rec in records)
        round_raw = time.perf_counter() - round_start
        elapsed_norm += round_norm
        if len(rounds) >= (2 if trace else 1) and (
                elapsed_norm >= budget
                or time.perf_counter() - started + round_raw > RAW_BUDGET_FACTOR * budget):
            break
    Path(out_path).write_text(json.dumps({"package": pkg.__file__, "probes": probes,
                                          "rounds": rounds}))
    if trace:
        Path(out_path).with_name("spans.json").write_text(json.dumps(spans))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
