"""Spans and counters recorded around the package's public functions.

Nothing here changes the package.  ``Tracer.install`` replaces each traced
function by a wrapper in every package module that binds it (``harness``
and ``proof_engine`` import ``short_cycle_scan`` by name, for example), and
two hot methods by counting wrappers on their classes.  ``uninstall``
puts the originals back, so untraced rounds run the unmodified code.

A span is (name, start, end, parent, request, extra).  Spans stay in
memory and are written once, when the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from math import comb

# Span name -> (module, function).  The names double as metric prefixes.
SPANS = {
    "cli.main": ("cli", "main"),
    "labellings.labelling_from_json": ("labellings", "labelling_from_json"),
    "groups.build_group": ("groups", "build_group"),
    "groups.stabilizer": ("groups", "stabilizer"),
    "constructions.random_labelling": ("constructions", "random_labelling"),
    "reach.short_cycle_scan": ("reach", "short_cycle_scan"),
    "reach.find_balanced_cycle": ("reach", "find_balanced_cycle"),
    "reach.find_path_with_value": ("reach", "find_path_with_value"),
    "reach.reach_set": ("reach", "reach_set"),
    "reach.reach_set_between": ("reach", "reach_set_between"),
    "reach.reach_table": ("reach", "reach_table"),
    "reach.start_anchored_table": ("reach", "start_anchored_table"),
    "reach.enumerate_balanced_cycles": ("reach", "enumerate_balanced_cycles"),
    "proof_engine.key_lemma": ("proof_engine", "key_lemma"),
    "proof_engine.make_efficient_tuple": ("proof_engine", "make_efficient_tuple"),
    "proof_engine.prime_finder": ("proof_engine", "prime_finder"),
    "harness.verify_random": ("harness", "verify_random"),
    "harness.verify_all": ("harness", "verify_all"),
    "harness.compute_n": ("harness", "compute_n"),
}
LAYER_SPAN = "reach.layer"
MAX_LAYER = 14  # largest vertex scope any workload streams through aggregated layers


def _sweep_states(n: int, witness) -> int:
    """DP states find_balanced_cycle's start-anchored sweep builds on a complete digraph.

    Start s extends paths over the n-1-s larger vertices; layer j holds
    C(n-1-s, j) vertex sets times j endpoints.  The sweep stops after the
    layer in which it closes the returned cycle, whose first vertex is the
    start.  On a digraph with deleted arcs this is an upper bound.
    """
    stop_start, stop_layer = (n, 0) if witness is None else (witness[0], len(witness) - 1)
    total = 0
    for s in range(min(stop_start + 1, n)):
        others = n - 1 - s
        last = others if s < stop_start else stop_layer
        total += sum(comb(others, j) * j for j in range(1, last + 1))
    return total


def _between_states(scope: int, u: int, v: int) -> int:
    """States reach_set_between builds from u over a complete scope of k vertices."""
    k = scope.bit_count()
    return 0 if u == v else sum(comb(k - 1, j) * j for j in range(1, k))


def _table_states(table: dict) -> int:
    return sum(len(entry) for entry in table.values())


def _extra(name: str, args, result):
    """What a span records about its call besides timing (None when nothing)."""
    if name == "reach.short_cycle_scan":
        return {"hit": result is not None}
    if name == "reach.find_balanced_cycle":
        return {"states_computed": _sweep_states(args[0].n, result.vertices if result else None)}
    if name == "reach.reach_set_between":
        L, X, u, v = args[:4]
        scope = X if isinstance(X, int) else sum(1 << w for w in X)
        return {"states_computed": _between_states(scope, u, v)}
    if name in ("reach.reach_table", "reach.start_anchored_table"):
        return {"states": _table_states(result.table)}
    if name == "harness.verify_all":
        return {"labellings": result.trials}
    if name == "harness.compute_n":
        return {"nodes": result.nodes}
    return None


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request: str | None = None
        self.counts = {"groups.subset_mul_elem.calls": 0, "rng.words": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, parent: int, start: float, end: float,
               extra) -> None:
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.request, extra)

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, name, parent, start, time.perf_counter(), None)
                raise
            end = time.perf_counter()
            self._close(idx, name, parent, start, end, _extra(name, args, result))
            return result
        return wrapper

    def _layers(self, fn):
        """Wrap the aggregated-layer generator: one span per layer it yields."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx, parent = self._open()
                start = time.perf_counter()
                try:
                    size, layer = next(gen)
                except StopIteration:
                    self._close(idx, LAYER_SPAN, parent, start, time.perf_counter(), None)
                    return
                except BaseException:
                    self._close(idx, LAYER_SPAN, parent, start, time.perf_counter(), None)
                    raise
                end = time.perf_counter()
                self._close(idx, LAYER_SPAN, parent, start, end,
                            {"k": size, "states": _table_states(layer)})
                yield size, layer
        return wrapper

    def _count_subset_mul(self, fn):
        counts = self.counts

        def subset_mul_elem(group, bits, g):
            counts["groups.subset_mul_elem.calls"] += 1
            return fn(group, bits, g)
        return subset_mul_elem

    def _count_words(self, fn):
        counts = self.counts

        def next_word(rng):
            counts["rng.words"] += 1
            return fn(rng)
        return next_word

    # -- install / uninstall ---------------------------------------------

    def _replace_everywhere(self, orig, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "balanced_cycles" and not modname.startswith("balanced_cycles."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, orig))

    def install(self) -> None:
        from balanced_cycles import groups, reach, rng
        for name, (modname, attr) in SPANS.items():
            orig = getattr(sys.modules[f"balanced_cycles.{modname}"], attr)
            self._replace_everywhere(orig, self._span(name, orig))
        orig = reach.aggregated_reach_layers
        self._replace_everywhere(orig, self._layers(orig))
        for cls, attr, counted in ((groups.FiniteGroup, "subset_mul_elem",
                                    self._count_subset_mul),
                                   (rng.Xoshiro256StarStar, "next", self._count_words)):
            orig = cls.__dict__[attr]
            setattr(cls, attr, counted(orig))
            self._patched.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def _layer_metrics() -> list[tuple[str, str, str]]:
    s = lambda name: (name, "s", "lower")  # noqa: E731
    count = lambda name: (name, "count", "lower")  # noqa: E731
    out = [s("reach.find_balanced_cycle.s"), s("reach.find_balanced_cycle.self_s"),
           count("reach.find_balanced_cycle.calls"), count("groups.subset_mul_elem.calls"),
           count("reach.dp_states.measured"), count("reach.dp_states.computed"),
           ("reach.group_actions_per_state", "ratio", "lower")]
    for k in range(1, MAX_LAYER + 1):
        out += [count(f"reach.layer.{k}.states"), s(f"reach.layer.{k}.s")]
    out += [s("reach.reach_table.s"), s("reach.reach_set.s"), s("reach.reach_set_between.s"),
            s("reach.find_path_with_value.s"), s("proof_engine.key_lemma.s"),
            s("proof_engine.make_efficient_tuple.s"), s("proof_engine.prime_finder.s"),
            count("groups.stabilizer.calls"), s("groups.stabilizer.s"),
            count("reach.short_cycle_scan.calls"), s("reach.short_cycle_scan.s"),
            ("reach.scan_hit_ratio", "ratio", "higher"),
            count("rng.words"), ("rng.words_per_s", "1/s", "higher"),
            s("constructions.random_labelling.s"),
            s("harness.verify_random.s"), count("harness.verify_random.dp_escalations"),
            s("reach.enumerate_balanced_cycles.s"),
            s("harness.verify_all.s"), count("harness.verify_all.labellings"),
            s("harness.compute_n.s"), count("harness.compute_n.nodes"),
            ("harness.compute_n.nodes_per_s", "1/s", "higher"),
            count("cli.main.calls"), s("cli.main.self_s"),
            s("labellings.labelling_from_json.s"), s("groups.build_group.s")]
    return out


# (name, unit, better) of every per-layer metric a traced round reports.
LAYER_METRICS = _layer_metrics()

# Counts that must repeat exactly between rounds and runs at one seed.
EXACT_COUNTS = (["groups.subset_mul_elem.calls", "rng.words", "harness.compute_n.nodes",
                 "harness.verify_random.dp_escalations"]
                + [f"reach.layer.{k}.states" for k in range(1, MAX_LAYER + 1)])


def summarize(spans: list[tuple], counts: dict, factors: dict[str, float],
              baselines: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``factors`` maps request id to the speed factor of that request, which
    scales every span recorded during it.  ``baselines`` maps request id to
    the metric that reports the time of that request's main call, the first
    outermost span whose function name the metric names.
    """
    out: dict[str, float] = {name: 0 for name, _, _ in LAYER_METRICS}
    out.update({metric: 0 for metric in baselines.values()})
    out.update(counts)
    dur = [(end - start) * factors[request] for _, start, end, _, request, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    hits = 0
    for i, (name, start, end, parent, request, extra) in enumerate(spans):
        extra = extra or {}
        if name == LAYER_SPAN:
            if "k" in extra:
                out[f"reach.layer.{extra['k']}.states"] += extra["states"]
                out[f"reach.layer.{extra['k']}.s"] += dur[i]
                out["reach.dp_states.measured"] += extra["states"]
            continue
        for key, value in ((".calls", 1), (".self_s", dur[i] - child[i])):
            out[name + key] = out.get(name + key, 0) + value
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # outermost call of its name: recursion is not counted twice
            out[name + ".s"] = out.get(name + ".s", 0) + dur[i]
            metric = baselines.get(request)
            if metric and out[metric] == 0 and metric.split(".")[1] == name.split(".")[1]:
                out[metric] = dur[i]
        out["reach.dp_states.measured"] += extra.get("states", 0)
        out["reach.dp_states.computed"] += extra.get("states_computed", 0)
        out["harness.verify_all.labellings"] += extra.get("labellings", 0)
        out["harness.compute_n.nodes"] += extra.get("nodes", 0)
        if name == "reach.short_cycle_scan":
            hits += extra.get("hit", False)
            if not extra.get("hit", True) and parent >= 0 \
                    and spans[parent][0] == "harness.verify_random":
                out["harness.verify_random.dp_escalations"] += 1
    ratio = lambda a, b: out[a] / out[b] if out[b] else 0  # noqa: E731
    scans = out["reach.short_cycle_scan.calls"]
    out["reach.scan_hit_ratio"] = hits / scans if scans else 0
    states = out["reach.dp_states.measured"] + out["reach.dp_states.computed"]
    out["reach.group_actions_per_state"] = (
        out["groups.subset_mul_elem.calls"] / states if states else 0)
    out["rng.words_per_s"] = ratio("rng.words", "constructions.random_labelling.s")
    out["harness.compute_n.nodes_per_s"] = ratio("harness.compute_n.nodes", "harness.compute_n.s")
    return out
