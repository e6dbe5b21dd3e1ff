"""Verification campaigns: exhaustive and randomized sweeps, and n(G) search.

Everything is deterministic given (group, n, mode, seed); campaign reports
carry per-trial witness statistics and every claimed counterexample is
re-verified through an independent exact route before it is reported.

Both campaigns check labellings in blocks, as one arc-major (n*n,
labellings) label array per block, with a cycle-length sieve (``_sieve``):
all simple cycles of one length are evaluated at once by Cayley-table
gathers over the labellings still alive, and a labelling dies at the first
length with a balanced cycle.  That is the length of its first balanced
cycle in (length, lexicographic) order, the witness length the reports
count.  Most labellings die at length 2, so the longer, more numerous
cycles only see the few survivors.

* ``verify_random`` draws a block of trials with ``rng.xoshiro_labels``
  and sieves lengths 2 and 3, the ``short_cycle_scan`` verdict.  Only the
  trials that survive become ``Labelling`` objects, in trial order, for
  exact escalation.
* ``verify_all`` turns a block of odometer indices into their base-|G|
  digits over the free arcs and sieves every length up to n.  The
  survivors are the counterexamples, in index order.

Both campaigns keep, re-verify and report every counterexample, so past
COUNTEREXAMPLE_CAP of them, checked after every block, a campaign stops
with ``SearchSpaceTooLarge``.

``BLOCK_ELEMS`` bounds the arrays: a block holds at most that many labels,
and a sieve step at most that many cycle values (one labelling at a time
when a length has more cycles than that), and a round of the random
generator makes at most ``rng.ROUND_WORDS`` words, so memory stays a few
MiB for any trial count and any n <= 64.

``compute_n`` finds n(G) by extending a cycle-free labelling one vertex at
a time, with the arcs out of vertex 0 pinned to the identity (every
labelling is shifting-equivalent to one so pinned, so this is sound for
existence).  In a cycle-free prefix on vertices 0..k-1, every new simple
cycle through k is k -> a ~> b -> k.  With the path table ``P[a][b]``, the
values of the simple paths a ~> b inside the prefix as a group bitmask
(``P[a][a]`` = {identity}, for the 2-cycles), the labels of k form a
bipartite CSP: out-labels ``x_a = l(k, a)`` against in-labels
``y_b = l(b, k)``, with ``y_0`` the pinned identity.  The pair is forbidden
exactly when ``(y_b x_a)^-1`` lies in ``P[a][b]``, the value of the cycle
then being the identity.  The x_a are placed first, each shrinking the y_b
domains (forward checking), and a branch dies when a domain empties; row a
of the table is walked, once per prefix, when x_a is first tried, so a
prefix that dies early never walks the later rows.  Given every x_a, the
y_b are independent: at the last vertex nonempty domains settle it, at
earlier ones the search enumerates the product of the domains.  One node
of the budget is one (variable, value) trial, x_a or y_b.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import BadSize, SearchSpaceTooLarge
from .groups import FiniteGroup, build_group
from .labellings import MAX_VERTICES, Labelling
from .reach import (EXACT_CAP, _extend_anchored, enumerate_balanced_cycles,
                    find_balanced_cycle, short_cycle_scan)
from .rng import trial_seeds, xoshiro_labels

SEARCH_SPACE_CAP = 10 ** 8
COUNTEREXAMPLE_CAP = 100_000  # about 0.9 KB per kept n=3 counterexample with its report
DEFAULT_NODE_BUDGET = 2_000_000
BLOCK_ELEMS = 1 << 16


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


@lru_cache(maxsize=8)
def _cycle_arcs(n: int, max_len: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Per length 2..max_len, every simple cycle of the complete digraph on n
    vertices as a read-only (length, cycles) array of flat arc indices
    u*n + v, arc i of each cycle in row i.

    Cycles start at their minimum vertex, so each is listed once; they are
    grown from paths one vertex at a time, by a larger vertex not on the path.
    """
    out = []
    vertices = np.arange(n)
    paths = vertices[:, None]
    for length in range(2, min(max_len, n) + 1):
        grow = (vertices > paths[:, :1]) & (vertices != paths[:, :, None]).all(axis=1)
        row, vertex = np.nonzero(grow)
        paths = np.column_stack([paths[row], vertex])
        arcs = (paths * n + np.roll(paths, -1, axis=1)).T.copy()
        arcs.setflags(write=False)
        out.append((length, arcs))
    return tuple(out)


def _sieve(table: np.ndarray, labels: np.ndarray, cycles) -> np.ndarray:
    """Length of each labelling's shortest balanced cycle among ``cycles``; 0 if none.

    ``labels`` is arc-major, (n*n, labellings): row u*n + v holds the label
    of arc (u, v) in every labelling.  ``cycles`` comes from ``_cycle_arcs``.
    A length is only evaluated on the labellings no shorter length has
    settled.
    """
    order = len(table)
    flat = table.ravel()
    first = np.zeros(labels.shape[1], dtype=np.int64)
    alive = np.arange(labels.shape[1])
    for length, arcs in cycles:
        step = max(1, BLOCK_ELEMS // arcs.shape[1])
        hit = np.zeros(alive.size, dtype=bool)
        for lo in range(0, alive.size, step):
            part = labels[:, lo:lo + step]
            value = part[arcs[0]]
            for arc in arcs[1:]:
                value = flat.take(value * order + part[arc])
            hit[lo:lo + step] = (value == 0).any(axis=0)
        first[alive[hit]] = length
        alive = alive[~hit]
        labels = labels[:, ~hit]
    return first


def _count_lengths(lengths: Counter[int], first: np.ndarray) -> None:
    """Add the sieve's witness lengths (0 = no witness) to ``lengths``."""
    for length, count in enumerate(np.bincount(first).tolist()):
        if length and count:
            lengths[length] += count


def _reverify_cycle_free(L: Labelling) -> None:
    """Independent exact re-check of a claimed counterexample."""
    if L.n <= 12:
        if enumerate_balanced_cycles(L):
            raise AssertionError("counterexample failed re-verification (enumeration)")
    if find_balanced_cycle(L) is not None:
        raise AssertionError("counterexample failed re-verification (DP search)")


def _check_counterexamples(count: int) -> None:
    if count > COUNTEREXAMPLE_CAP:
        raise SearchSpaceTooLarge(
            f"more than {COUNTEREXAMPLE_CAP} counterexamples (COUNTEREXAMPLE_CAP)")


def _enumerate_chunk(spec: dict, n: int, normalized: bool,
                     lo: int, hi: int) -> tuple[int, list[list[list[int]]], dict[int, int]]:
    """Check the labellings with odometer indices [lo, hi); pure, mergeable.

    Index i labels the free arcs (row-major) with its base-|G| digits, most
    significant first; pinned arcs and the diagonal are the identity.
    """
    group = build_group(spec)
    order = group.order
    free = [u * n + v for u, v in _free_arcs(n, normalized)]
    cycles = _cycle_arcs(n, n)
    block = max(1, BLOCK_ELEMS // (n * n))
    lengths: Counter[int] = Counter()
    counterexamples: list[list[list[int]]] = []
    for start in range(lo, hi, block):
        labels = np.zeros((n * n, min(block, hi - start)), dtype=np.int64)
        rest = np.arange(start, start + labels.shape[1], dtype=np.int64)
        for arc in reversed(free):  # least significant digit first
            above = rest // order
            labels[arc] = rest - above * order
            rest = above
        first = _sieve(group.table, labels, cycles)
        _count_lengths(lengths, first)
        counterexamples.extend(labels[:, first == 0].T.reshape(-1, n, n).tolist())
        _check_counterexamples(len(counterexamples))
    return hi - lo, counterexamples, dict(lengths)


def verify_all(group: FiniteGroup, n: int, normalized: bool = False,
               workers: int = 1) -> VerdictReport:
    """Enumerate every labelling (or every normalized one) and check exactly.

    Pinning the arcs out of vertex 0 to the identity is sound for
    counterexample existence: every labelling is shifting-equivalent to such
    a normal form and equivalence preserves the set of balanced cycles.
    """
    if n < 1:
        raise BadSize(f"vertex count {n} outside 1..{MAX_VERTICES}")
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

    _check_counterexamples(sum(len(chunk[1]) for chunk in chunks))
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

    Per-trial labellings are generated from sub-seeds derived from ``seed``
    (``random_labelling(group, n, sub_seed)``), so reports are reproducible.
    Trials run in blocks of ``BLOCK_ELEMS // n**2`` (see the module
    docstring); a trial the 2- and 3-cycle sieve misses escalates to the
    exact search when the instance fits under ``max_dp_vertices`` and
    EXACT_CAP (and ``escalate`` is set), and otherwise counts as unresolved.
    """
    started = time.perf_counter()
    if trials < 0:
        raise BadSize(f"trial count {trials} is negative")
    seeds = trial_seeds(seed, trials)
    if trials and not 2 <= n <= MAX_VERTICES:
        raise BadSize(f"vertex count {n} outside 2..{MAX_VERTICES}")
    report = VerdictReport(group_name=group.name, group_spec=group.spec, n=n,
                           mode="randomized", trials=trials, seed=seed)
    lengths: Counter[int] = Counter()
    methods: Counter[str] = Counter()
    block = max(1, BLOCK_ELEMS // (n * n or 1))
    for start in range(0, trials, block):
        labels = xoshiro_labels(group.order, n, seeds[start:start + block])
        first = _sieve(group.table, np.ascontiguousarray(labels.reshape(len(labels), n * n).T),
                       _cycle_arcs(n, 3))
        _count_lengths(lengths, first)
        hits = int(np.count_nonzero(first))
        if hits:
            methods["scan"] += hits
        for lab in labels[first == 0]:
            L = Labelling(group, lab)
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
        _check_counterexamples(len(report.counterexamples))
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

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise SearchSpaceTooLarge("backtracking budget exhausted")


def _path_row(labels: list[list[int]], k: int, a: int, pres, smul) -> list[int]:
    """Row a of the path table: entry b holds the values of the simple paths
    a ~> b inside vertices 0..k-1 as a group bitmask, and entry a is
    {identity}, the empty path.

    The start-anchored push step of ``reach`` run from a over the prefix,
    each layer OR-ed into the row by endpoint.
    """
    verts = list(range(k))
    row = [0] * k
    layer = {1 << a: {a: 1}}
    for _ in range(k - 1):
        layer = _extend_anchored(layer, verts, labels, pres, smul)
        for entry in layer.values():
            for b, bits in entry.items():
                row[b] |= bits
    row[a] = 1
    return row


def _cycle_free_labelling(group: FiniteGroup, n: int, budget: _Budget) -> Labelling | None:
    """Vertex-extension search for a balanced-cycle-free labelling on n vertices.

    See the module docstring.  Each y_b is kept as the domain of its inverse
    z_b = y_b^-1, from which placing x_a removes the set ``x_a P[a][b]``;
    z_0 starts as {identity}, so the row-0 pin is the rule that no domain
    may empty.
    """
    inv = group._inv
    smul = group.subset_mul_elem
    left_mul = [partial(group.elem_mul_subset, g) for g in range(group.order)]
    # every arc of the complete digraph is present
    pres = [[True] * n] * n
    full = group.full_subset()
    labels = [[0] * n for _ in range(n)]

    def extend(k: int) -> bool:
        if k == n:
            return True
        # cuts[a][g][b]: the z_b that x_a = g rules out, built when x_a is first tried
        cuts: list[list[list[int]]] = []
        outs = labels[k]

        def place_x(a: int, domains: list[int]) -> bool:
            if a == k:
                if k == n - 1:
                    for b in range(1, k):
                        labels[b][k] = inv[(domains[b] & -domains[b]).bit_length() - 1]
                    return True
                return place_y(1, domains)
            if a == len(cuts):
                paths = _path_row(labels, k, a, pres, smul)
                cuts.append([list(map(times, paths)) for times in left_mul])
            for g, cut in enumerate(cuts[a]):
                budget.spend()
                left_over = [d & ~c for d, c in zip(domains, cut)]
                if all(left_over):
                    outs[a] = g
                    if place_x(a + 1, left_over):
                        return True
            return False

        def place_y(b: int, domains: list[int]) -> bool:
            if b == k:
                return extend(k + 1)
            bits = domains[b]
            while bits:
                low = bits & -bits
                bits ^= low
                budget.spend()
                labels[b][k] = inv[low.bit_length() - 1]
                if place_y(b + 1, domains):
                    return True
            return False

        return place_x(0, [1] + [full] * (k - 1))

    if extend(1):
        L = Labelling(group, labels)
        _reverify_cycle_free(L)
        return L
    return None


def compute_n(group: FiniteGroup, max_n: int | None = None,
              node_budget: int = DEFAULT_NODE_BUDGET) -> ComputeNResult:
    """Least n such that every labelling on n vertices has a balanced cycle.

    Searches n = 1, 2, ... up to ``max_n`` (default |G| + 2) with the
    vertex-extension search of the module docstring, under one budget of
    ``node_budget`` (variable, value) trials shared by every n; ``nodes`` in
    the result, ``search_nodes`` in its JSON, is the number spent.  The
    witness is the cycle-free labelling found one vertex below, normalized
    at vertex 0 and re-verified.  On budget exhaustion the raised
    SearchSpaceTooLarge carries the best lower bound and its witness.
    """
    limit = max_n if max_n is not None else group.order + 2
    if limit < 1:
        raise BadSize(f"max_n {limit} is below 1")
    budget = _Budget(node_budget)
    witness: Labelling | None = None
    for n in range(1, limit + 1):
        try:
            found = _cycle_free_labelling(group, n, budget)
        except SearchSpaceTooLarge as exc:
            exc.lower_bound = n
            exc.witness = witness
            raise
        if found is None:
            return ComputeNResult(group_name=group.name, group_spec=group.spec,
                                  value=n, witness=witness,
                                  nodes=node_budget - budget.left)
        witness = found
    raise SearchSpaceTooLarge(
        f"no conclusion up to n = {limit}", lower_bound=limit + 1, witness=witness)
