"""Verification campaigns: exhaustive and randomized sweeps, and n(G) search.

Everything is deterministic given (group, n, mode, seed); campaign reports
carry per-trial witness statistics and every claimed counterexample is
re-checked before it is reported (see "What re-checks what" below).

Both campaigns check labellings in blocks, as one arc-major (n*n,
labellings) label array per block, with a cycle-length sieve (``_sieve``):
all simple cycles of one length, from reach's cycle lists, are evaluated
at once (``reach._cycle_values``) over the labellings still alive, and a
labelling dies at the first length with a balanced cycle.  That is the
length of its first balanced cycle in (length, lexicographic) order, the
witness length the reports count.  Most labellings die at length 2, so
the longer, more numerous cycles only see the few survivors, and once
none is left the sieve reads no further length.  The lists are built per
length as the sieve reads them (``reach._cycle_arcs``), so a longer list
is only built for a block that has survivors: the trivial group's one
labelling, at any n, reads the 2-cycle list alone.

* ``verify_random`` draws a block of trials with ``rng.xoshiro_labels``
  and sieves lengths 2 and 3, the ``short_cycle_scan`` verdict.  Only the
  trials that survive become ``Labelling`` objects, in trial order, for
  exact escalation.
* ``verify_all`` turns a block of odometer indices into their base-|G|
  digits over the free arcs and sieves every length up to n.  The
  survivors are the counterexamples, in index order, kept as one
  (count, n, n) int64 array (``_enumerate_chunk``'s result, which also
  crosses the process boundary with ``workers`` > 1).  They are
  re-checked as stacks of at most ``BLOCK_ELEMS // n**2`` labellings and
  become ``Labelling`` objects afterwards.

Both campaigns keep, re-verify and report every counterexample, so past
COUNTEREXAMPLE_CAP of them, checked after every block, a campaign stops
with ``SearchSpaceTooLarge``.

What re-checks what is one rule, kept in ``reach``'s module docstring: a
cycle-free verdict is confirmed by a route that did not produce it.  An
escalated trial's None from ``find_balanced_cycle`` (the dense kernel),
as a stack of one, and the sieve's counterexamples (the cycle lists), a
stack at a time, are confirmed on the dict layers by
``reach._recheck_cycle_free``: the same route and the same recurrence
for one labelling or a stack; ``compute_n``'s witness, whose
CSP built its path rows on the dict layers, by ``find_balanced_cycle``
finding nothing (``_reverify_cycle_free``).

``BLOCK_ELEMS`` bounds the arrays: a block holds at most that many labels,
and so does a stack of re-checked counterexamples, and a sieve step at
most that many cycle values (one labelling at a time when a length has
more cycles than that), and a round of the random
generator makes at most ``rng.ROUND_WORDS`` words, so memory stays a few
MiB for any trial count and any n <= 64.

``compute_n`` finds n(G) by extending a cycle-free labelling one vertex at
a time, with the arcs out of vertex 0 pinned to the identity (every
labelling is shifting-equivalent to one so pinned, so this is sound for
existence), and with the in-labels of vertex 0 sorted: ``l(k, 0)`` is
nondecreasing in k, so at k >= 2 the search tries no ``l(k, 0)`` below
``l(k-1, 0)``.  This too is sound for existence.  A permutation s of the
vertices that fixes 0 turns a labelling l into ``l'(u, v) =
l(s(u), s(v))``; it maps simple cycles to simple cycles with the same
values, so l' is cycle-free when l is, and pinned when l is, since
``l'(0, v) = l(0, s(v))`` is the identity.  Taking for s a permutation
of 1..n-1 that sorts ``l(., 0)`` makes l' sorted, and the prefixes of a
sorted labelling are sorted, so the vertex-by-vertex search reaches it.
(This symmetry cut is a lex-leader predicate in the sense of Crawford,
Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search
problems", KR 1996.)

In a cycle-free prefix on vertices 0..k-1, every new simple cycle through
k is k -> a ~> b -> k.  With the path table ``P[a][b]``, the values of
the simple paths a ~> b inside the prefix as a group bitmask
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
from functools import partial

import numpy as np

from .errors import BadSize, SearchSpaceTooLarge
from .groups import FiniteGroup, build_group, is_json_int
from .labellings import MAX_VERTICES, Labelling, complete_mask
from .reach import (EXACT_CAP, _anchored_layers, _cycle_arcs, _cycle_values,
                    _recheck_cycle_free, find_balanced_cycle, runs_exact)
from .rng import _check_seed, trial_seeds, xoshiro_labels

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


def _sieve(table: np.ndarray, labels: np.ndarray, cycles) -> np.ndarray:
    """Length of each labelling's shortest balanced cycle among ``cycles``; 0 if none.

    ``labels`` is arc-major, (n*n, labellings): row u*n + v holds the label
    of arc (u, v) in every labelling.  ``cycles`` comes from ``_cycle_arcs``.
    A length is only evaluated on the labellings no shorter length has
    settled, and once none is left no further length is read.
    """
    first = np.zeros(labels.shape[1], dtype=np.int64)
    alive = np.arange(labels.shape[1])
    for length, arcs in cycles:
        step = max(1, BLOCK_ELEMS // arcs.shape[1])
        hit = np.zeros(alive.size, dtype=bool)
        for lo in range(0, alive.size, step):
            value = _cycle_values(table, labels[:, lo:lo + step], arcs)
            hit[lo:lo + step] = (value == 0).any(axis=0)
        first[alive[hit]] = length
        alive = alive[~hit]
        if not alive.size:
            break
        labels = labels[:, ~hit]
    return first


def _count_lengths(lengths: Counter[int], first: np.ndarray) -> None:
    """Add the sieve's witness lengths (0 = no witness) to ``lengths``."""
    for length, count in enumerate(np.bincount(first).tolist()):
        if length and count:
            lengths[length] += count


def _reverify_cycle_free(L: Labelling) -> None:
    """Confirm the CSP's cycle-free witness by the exact search."""
    if find_balanced_cycle(L) is not None:
        raise AssertionError("cycle-free witness failed re-verification (exact search)")


def _check_counterexamples(count: int) -> None:
    if count > COUNTEREXAMPLE_CAP:
        raise SearchSpaceTooLarge(
            f"more than {COUNTEREXAMPLE_CAP} counterexamples (COUNTEREXAMPLE_CAP)")


def _enumerate_chunk(spec: dict, n: int, normalized: bool,
                     lo: int, hi: int) -> tuple[int, np.ndarray, dict[int, int]]:
    """Check the labellings with odometer indices [lo, hi); pure, mergeable.

    Index i labels the free arcs (row-major) with its base-|G| digits, most
    significant first; pinned arcs and the diagonal are the identity.  The
    counterexamples come back in index order as one (count, n, n) int64
    array.
    """
    group = build_group(spec)
    order = group.order
    free = [u * n + v for u, v in _free_arcs(n, normalized)]
    block = max(1, BLOCK_ELEMS // (n * n))
    lengths: Counter[int] = Counter()
    counterexamples = [np.zeros((0, n, n), dtype=np.int64)]
    kept = 0
    for start in range(lo, hi, block):
        labels = np.zeros((n * n, min(block, hi - start)), dtype=np.int64)
        rest = np.arange(start, start + labels.shape[1], dtype=np.int64)
        for arc in reversed(free):  # least significant digit first
            if rest[-1] == 0:  # rest ascends, so every index is out of digits
                break
            above = rest // order
            labels[arc] = rest - above * order
            rest = above
        first = _sieve(group.table, labels, _cycle_arcs(n, n))
        _count_lengths(lengths, first)
        counterexamples.append(labels[:, first == 0].T.reshape(-1, n, n))
        kept += len(counterexamples[-1])
        _check_counterexamples(kept)
    return hi - lo, np.concatenate(counterexamples), dict(lengths)


def verify_all(group: FiniteGroup, n: int, normalized: bool = False,
               workers: int = 1) -> VerdictReport:
    """Enumerate every labelling (or every normalized one) and check exactly.

    Pinning the arcs out of vertex 0 to the identity is sound for
    counterexample existence: every labelling is shifting-equivalent to such
    a normal form and equivalence preserves the set of balanced cycles.
    """
    if not (is_json_int(n, MAX_VERTICES + 1) and n >= 1):
        raise BadSize(f"vertex count {n} outside 1..{MAX_VERTICES}")
    if not (is_json_int(workers) and workers >= 1):
        raise BadSize(f"worker count {workers} is below 1 or not an integer")
    started = time.perf_counter()
    mode = "exhaustive_normalized" if normalized else "exhaustive"
    report = VerdictReport(group_name=group.name, group_spec=group.spec,
                           n=n, mode=mode, trials=0)
    free = _free_arcs(n, normalized)
    space = group.order ** len(free)
    if space > SEARCH_SPACE_CAP:
        raise SearchSpaceTooLarge(
            f"{group.order}^{len(free)} = {space} labellings exceed the cap of {SEARCH_SPACE_CAP}")

    # the executor forks all of its workers at once: never more than the
    # machine has cores, nor more than there are ranges to check
    workers = min(workers, os.cpu_count() or 1, space)
    if workers == 1:
        chunks = [_enumerate_chunk(group.spec, n, normalized, 0, space)]
    else:
        bounds = [space * i // workers for i in range(workers + 1)]
        ranges = list(zip(bounds, bounds[1:]))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_enumerate_chunk, group.spec, n, normalized, lo, hi)
                       for lo, hi in ranges]
            chunks = [f.result() for f in futures]

    found = np.concatenate([chunk[1] for chunk in chunks])
    _check_counterexamples(len(found))
    lengths: Counter[int] = Counter()
    for trials, _, chunk_lengths in chunks:
        report.trials += trials
        lengths.update(chunk_lengths)
    stack = max(1, BLOCK_ELEMS // (n * n))
    for lo in range(0, len(found), stack):
        _recheck_cycle_free(group, found[lo:lo + stack], complete_mask(n))
    report.counterexamples = [Labelling(group, labels) for labels in found]
    report.witness_lengths = dict(sorted(lengths.items()))
    if report.trials != len(report.counterexamples):
        report.witness_methods["cycle_list"] = report.trials - len(report.counterexamples)
    report.elapsed = time.perf_counter() - started
    return report


def verify_random(group: FiniteGroup, n: int, trials: int, seed: int,
                  max_dp_vertices: int = EXACT_CAP) -> VerdictReport:
    """Randomized campaign: heuristic short-cycle scan first, exact on demand.

    Per-trial labellings are generated from sub-seeds derived from ``seed``
    (``random_labelling(group, n, sub_seed)``), so reports are reproducible.
    Trials run in blocks of ``BLOCK_ELEMS // n**2`` (see the module
    docstring), and a block's sub-seeds are derived when it is drawn; a
    trial the 2- and 3-cycle sieve misses escalates to the exact search
    when ``reach.runs_exact(n, max_dp_vertices)`` holds, and otherwise
    counts as unresolved (so ``max_dp_vertices=0`` runs the scan alone; a
    negative one raises BadSize).  An n outside 2..64 raises BadSize
    whatever the trial count, 0 included.  A trial the exact search finds
    cycle-free is confirmed by ``reach._recheck_cycle_free`` before it is
    kept as a counterexample.
    """
    started = time.perf_counter()
    if not (is_json_int(trials) and trials >= 0):
        raise BadSize(f"trial count {trials} is negative or not an integer")
    _check_seed(seed)
    if not (is_json_int(n, MAX_VERTICES + 1) and n >= 2):
        raise BadSize(f"vertex count {n} outside 2..{MAX_VERTICES}")
    exact = runs_exact(n, max_dp_vertices)
    report = VerdictReport(group_name=group.name, group_spec=group.spec, n=n,
                           mode="randomized", trials=trials, seed=seed)
    lengths: Counter[int] = Counter()
    methods: Counter[str] = Counter()
    block = max(1, BLOCK_ELEMS // (n * n))
    for start in range(0, trials, block):
        labels = xoshiro_labels(group.order, n, trial_seeds(seed, min(block, trials - start), start))
        first = _sieve(group.table, np.ascontiguousarray(labels.reshape(len(labels), n * n).T),
                       _cycle_arcs(n, 3))
        _count_lengths(lengths, first)
        hits = int(np.count_nonzero(first))
        if hits:
            methods["scan"] += hits
        for lab in labels[first == 0]:
            L = Labelling(group, lab)
            if exact:
                witness = find_balanced_cycle(L)
                if witness is not None:
                    methods["dp"] += 1
                    lengths[len(witness.vertices)] += 1
                else:
                    _recheck_cycle_free(group, L.labels[None], L.present)
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

    The start-anchored layers of ``reach`` run from a over the prefix,
    each OR-ed into the row by endpoint.
    """
    row = [0] * k
    for layer in _anchored_layers(a, [b for b in range(k) if b != a], labels, pres, smul):
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
    order = group.order
    smul = group.subset_mul_elem
    left_mul = [partial(group.elem_mul_subset, g) for g in range(order)]
    # every arc of the complete digraph is present
    pres = [[True] * n] * n
    full = group.full_subset()
    labels = [[0] * n for _ in range(n)]

    def extend(k: int) -> bool:
        if k == n:
            return True
        # cuts[a] = (row a of the path table, built when x_a is first tried;
        # per g, the z_b that x_a = g rules out, built when g is first tried)
        cuts: list[tuple[list[int], list[list[int] | None]]] = []
        outs = labels[k]

        def place_x(a: int, domains: list[int]) -> bool:
            if a == k:
                if k == n - 1:
                    for b in range(1, k):
                        labels[b][k] = inv[(domains[b] & -domains[b]).bit_length() - 1]
                    return True
                return place_y(1, domains)
            if a == len(cuts):
                cuts.append((_path_row(labels, k, a, pres, smul), [None] * order))
            paths, by_g = cuts[a]
            # the sorting rule: l(k, 0) is nondecreasing in k (l(0, 0) = 0 at k = 1)
            for g in range(labels[k - 1][0] if a == 0 else 0, order):
                cut = by_g[g]
                if cut is None:
                    cut = by_g[g] = list(map(left_mul[g], paths))
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
        L = Labelling(group, np.array(labels, dtype=np.int64))
        # the CSP built its path rows on the dict layers, which the search never runs
        _reverify_cycle_free(L)
        return L
    return None


def compute_n(group: FiniteGroup, max_n: int | None = None,
              node_budget: int = DEFAULT_NODE_BUDGET) -> ComputeNResult:
    """Least n such that every labelling on n vertices has a balanced cycle.

    Searches n = 1, 2, ... up to ``max_n`` (default |G| + 2) with the
    vertex-extension search of the module docstring, under one budget of
    ``node_budget`` (variable, value) trials shared by every n, an integer
    >= 0 (BadSize otherwise); ``nodes`` in the result, ``search_nodes`` in
    its JSON, is the number spent.  The witness is the cycle-free
    labelling found one vertex below, normalized at vertex 0 and
    re-verified.  On budget exhaustion the raised
    SearchSpaceTooLarge carries the best lower bound and its witness.
    """
    limit = max_n if max_n is not None else group.order + 2
    if not (is_json_int(limit) and limit >= 1):
        raise BadSize(f"max_n {limit} is below 1 or not an integer")
    if not (is_json_int(node_budget) and node_budget >= 0):
        raise BadSize(f"node_budget {node_budget} is not an integer >= 0")
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
