"""Verification campaigns: exhaustive and randomized sweeps, and n(G) search.

Everything is deterministic given (group, n, mode, seed); campaign reports
carry per-trial witness statistics and every claimed counterexample is
re-verified through an independent exact route before it is reported.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .constructions import random_labelling
from .errors import SearchSpaceTooLarge
from .groups import FiniteGroup, build_group
from .labellings import Labelling
from .reach import (EXACT_CAP, all_simple_cycles, enumerate_balanced_cycles,
                    find_balanced_cycle, short_cycle_scan)
from .rng import trial_seeds

SEARCH_SPACE_CAP = 10 ** 8
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass
class VerdictReport:
    """Outcome of one campaign.

    ``counterexamples`` holds the balanced-cycle-free labellings found (all
    re-verified); ``witness_lengths`` counts found witnesses by cycle
    length, ``witness_methods`` by the engine that found them; a randomized
    trial is ``unresolved`` when the heuristic missed and exact escalation
    was unavailable.
    """

    group_name: str
    group_spec: dict
    n: int
    mode: str
    trials: int
    counterexamples: list[Labelling] = field(default_factory=list)
    witness_lengths: dict[int, int] = field(default_factory=dict)
    witness_methods: dict[str, int] = field(default_factory=dict)
    unresolved: int = 0
    seed: int | None = None
    elapsed: float = 0.0

    @property
    def counterexample_count(self) -> int:
        return len(self.counterexamples)

    def to_json(self) -> dict:
        return {
            "group": self.group_spec,
            "group_name": self.group_name,
            "n": self.n,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "counterexample_count": len(self.counterexamples),
            "counterexamples": [c.to_json() for c in self.counterexamples],
            "witness_lengths": {str(k): v for k, v in sorted(self.witness_lengths.items())},
            "witness_methods": dict(sorted(self.witness_methods.items())),
            "unresolved": self.unresolved,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _free_arcs(n: int, normalized: bool) -> list[tuple[int, int]]:
    """Row-major off-diagonal arcs; normalized mode pins the arcs out of vertex 0."""
    return [(u, v) for u in range(n) for v in range(n)
            if u != v and not (normalized and u == 0)]


def _cycle_arc_lists(n: int) -> list[list[tuple[int, int]]]:
    out = []
    for cyc in all_simple_cycles(n):
        out.append(list(zip(cyc, cyc[1:] + (cyc[0],))))
    return out


def _reverify_cycle_free(L: Labelling) -> None:
    """Independent exact re-check of a claimed counterexample."""
    if L.n <= 12:
        if enumerate_balanced_cycles(L):
            raise AssertionError("counterexample failed re-verification (enumeration)")
    if find_balanced_cycle(L) is not None:
        raise AssertionError("counterexample failed re-verification (DP search)")


def _enumerate_chunk(spec: dict, n: int, normalized: bool,
                     lo: int, hi: int) -> tuple[int, list[list[list[int]]], dict[int, int]]:
    """Check the labellings with odometer indices [lo, hi); pure, mergeable."""
    group = build_group(spec)
    order = group.order
    mul = group._rows
    free = _free_arcs(n, normalized)
    cycles = _cycle_arc_lists(n)
    labels = [[0] * n for _ in range(n)]
    rem = lo
    digits = [0] * len(free)
    for j in range(len(free) - 1, -1, -1):
        digits[j] = rem % order
        rem //= order
    for (u, v), d in zip(free, digits):
        labels[u][v] = d
    lengths: Counter[int] = Counter()
    counterexamples: list[list[list[int]]] = []
    idx = lo
    while True:
        hit = 0
        for arcs in cycles:
            value = 0
            for a, b in arcs:
                value = mul[value][labels[a][b]]
            if value == 0:
                hit = len(arcs)
                break
        if hit:
            lengths[hit] += 1
        else:
            counterexamples.append([row[:] for row in labels])
        idx += 1
        if idx >= hi:
            break
        j = len(free) - 1  # odometer increment
        while True:
            digits[j] += 1
            if digits[j] < order:
                u, v = free[j]
                labels[u][v] = digits[j]
                break
            digits[j] = 0
            u, v = free[j]
            labels[u][v] = 0
            j -= 1
    return hi - lo, counterexamples, dict(lengths)


def verify_all(group: FiniteGroup, n: int, normalized: bool = False,
               workers: int = 1) -> VerdictReport:
    """Enumerate every labelling (or every normalized one) and check exactly.

    Pinning the arcs out of vertex 0 to the identity is sound for
    counterexample existence: every labelling is shifting-equivalent to such
    a normal form and equivalence preserves the set of balanced cycles.
    """
    started = time.perf_counter()
    mode = "exhaustive_normalized" if normalized else "exhaustive"
    report = VerdictReport(group_name=group.name, group_spec=group.spec,
                           n=n, mode=mode, trials=0)
    if group.order == 1:
        # single labelling; every 2-cycle is balanced, so only n = 1 is free
        report.trials = 1
        L = Labelling(group, [[0] * n for _ in range(n)])
        if n == 1:
            report.counterexamples.append(L)
        else:
            witness = short_cycle_scan(L)
            report.witness_lengths[len(witness.vertices)] = 1
            report.witness_methods["scan"] = 1
        report.elapsed = time.perf_counter() - started
        return report

    free = _free_arcs(n, normalized)
    space = group.order ** len(free)
    if space > SEARCH_SPACE_CAP:
        raise SearchSpaceTooLarge(
            f"{group.order}^{len(free)} = {space} labellings exceed the cap of {SEARCH_SPACE_CAP}")
    if n > 7:
        raise SearchSpaceTooLarge(f"exhaustive checking keeps cycle lists only up to 7 vertices, got n={n}")

    # the executor forks all of its workers at once: never more than the
    # machine has cores, nor more than there are ranges to check
    workers = max(1, min(workers, os.cpu_count() or 1, space))
    if workers == 1:
        chunks = [_enumerate_chunk(group.spec, n, normalized, 0, space)]
    else:
        bounds = [space * i // workers for i in range(workers + 1)]
        ranges = list(zip(bounds, bounds[1:]))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_enumerate_chunk, group.spec, n, normalized, lo, hi)
                       for lo, hi in ranges]
            chunks = [f.result() for f in futures]

    lengths: Counter[int] = Counter()
    for trials, raw_counterexamples, chunk_lengths in chunks:
        report.trials += trials
        lengths.update(chunk_lengths)
        for raw in raw_counterexamples:
            L = Labelling(group, raw)
            _reverify_cycle_free(L)
            report.counterexamples.append(L)
    report.witness_lengths = dict(sorted(lengths.items()))
    if report.trials != len(report.counterexamples):
        report.witness_methods["cycle_list"] = report.trials - len(report.counterexamples)
    report.elapsed = time.perf_counter() - started
    return report


def verify_random(group: FiniteGroup, n: int, trials: int, seed: int,
                  escalate: bool = True, max_dp_vertices: int = EXACT_CAP) -> VerdictReport:
    """Randomized campaign: heuristic short-cycle scan first, exact on demand.

    Per-trial labellings are generated from sub-seeds derived from ``seed``,
    so reports are reproducible.  A scan miss escalates to the exact search
    when the instance fits under ``max_dp_vertices`` and EXACT_CAP (and
    ``escalate`` is set); otherwise the trial counts as unresolved.
    """
    started = time.perf_counter()
    report = VerdictReport(group_name=group.name, group_spec=group.spec, n=n,
                           mode="randomized", trials=trials, seed=seed)
    lengths: Counter[int] = Counter()
    methods: Counter[str] = Counter()
    for sub_seed in trial_seeds(seed, trials):
        L = random_labelling(group, n, sub_seed)
        witness = short_cycle_scan(L)
        if witness is not None:
            methods["scan"] += 1
            lengths[len(witness.vertices)] += 1
            continue
        if escalate and n <= min(max_dp_vertices, EXACT_CAP):
            witness = find_balanced_cycle(L, max_vertices=max_dp_vertices)
            if witness is not None:
                methods["dp"] += 1
                lengths[len(witness.vertices)] += 1
            else:
                _reverify_cycle_free(L)
                report.counterexamples.append(L)
        else:
            report.unresolved += 1
    report.witness_lengths = dict(sorted(lengths.items()))
    report.witness_methods = dict(sorted(methods.items()))
    report.elapsed = time.perf_counter() - started
    return report


@dataclass
class ComputeNResult:
    """n(G) together with a balanced-cycle-free witness one vertex below."""

    group_name: str
    group_spec: dict
    value: int
    witness: Labelling
    nodes: int

    def to_json(self) -> dict:
        return {"group": self.group_spec, "group_name": self.group_name,
                "n": self.value, "witness": self.witness.to_json(),
                "search_nodes": self.nodes}


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def _cycle_free_labelling(group: FiniteGroup, n: int, budget: _Budget) -> Labelling | None:
    """Backtracking search for a balanced-cycle-free labelling on n vertices.

    Arcs out of vertex 0 stay pinned to the identity (normalization is
    sound for existence).  Arcs are assigned vertex by vertex, and a partial
    assignment is pruned as soon as its fully-assigned sub-digraph closes a
    balanced cycle, which can only happen through the arc just placed.
    """
    order = group.order
    mul = group._rows
    inv = group._inv
    arcs: list[tuple[int, int]] = []
    for k in range(1, n):
        for j in range(k):
            if j != 0:
                arcs.append((j, k))
            arcs.append((k, j))
    labels = [[0] * n for _ in range(n)]
    assigned = [[k == 0 and j != 0 for j in range(n)] for k in range(n)]  # pinned row 0

    def closes_balanced(u: int, v: int, g: int) -> bool:
        # does some assigned simple path v -> u have value g^-1?
        target = inv[g]
        seen = [False] * n
        seen[v] = True
        seen[u] = True  # u only as the endpoint

        def dfs(a: int, value: int) -> bool:
            row = labels[a]
            arow = assigned[a]
            if arow[u] and mul[value][row[u]] == target:
                return True
            for b in range(n):
                if arow[b] and not seen[b]:
                    seen[b] = True
                    if dfs(b, mul[value][row[b]]):
                        return True
                    seen[b] = False
            return False

        return dfs(v, 0)

    def place(i: int) -> bool:
        if i == len(arcs):
            return True
        u, v = arcs[i]
        for g in range(order):
            if not budget.spend():
                raise SearchSpaceTooLarge("backtracking budget exhausted")
            labels[u][v] = g
            assigned[u][v] = True
            if not closes_balanced(u, v, g) and place(i + 1):
                return True
            assigned[u][v] = False
        labels[u][v] = 0
        return False

    if place(0):
        L = Labelling(group, labels)
        _reverify_cycle_free(L)
        return L
    return None


def compute_n(group: FiniteGroup, max_n: int | None = None,
              node_budget: int = DEFAULT_NODE_BUDGET) -> ComputeNResult:
    """Least n such that every labelling on n vertices has a balanced cycle.

    Searches n = 1, 2, ... with the pruned backtracking above.  On budget
    exhaustion the raised SearchSpaceTooLarge carries the best lower bound
    and its witness.
    """
    limit = max_n if max_n is not None else group.order + 2
    budget = _Budget(node_budget)
    witness: Labelling | None = None
    for n in range(1, limit + 1):
        if n == 1:
            # a single vertex has no cycles at all
            witness = Labelling(group, [[0]])
            continue
        try:
            found = _cycle_free_labelling(group, n, budget)
        except SearchSpaceTooLarge as exc:
            exc.lower_bound = n
            exc.witness = witness
            raise
        if found is None:
            assert witness is not None
            return ComputeNResult(group_name=group.name, group_spec=group.spec,
                                  value=n, witness=witness,
                                  nodes=node_budget - budget.left)
        witness = found
    raise SearchSpaceTooLarge(
        f"no conclusion up to n = {limit}", lower_bound=limit + 1, witness=witness)
