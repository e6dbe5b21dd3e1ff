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
is only built for a block that has survivors.

* ``verify_random`` draws a block of trials with ``rng.xoshiro_labels``
  and sieves lengths 2 and 3, the ``short_cycle_scan`` verdict.  Only the
  trials that survive become ``Labelling`` objects, in trial order, for
  exact escalation.
* ``verify_all`` enumerates the base-|G| digits of the free arcs as a
  prefix over a suffix: the last free arcs' digits are one pattern of
  columns, built once per call, and a block is one prefix value over it.
  The 2-cycles are settled on the digits before any label array exists,
  whole blocks at once where the prefix closes one, so only the
  labellings without a balanced 2-cycle become a label array, sieved
  from length 3 up to n; the trivial group's one labelling, at any n,
  builds no cycle list.  The survivors are the counterexamples, in index
  order, kept as one (count, n, n) int64 array (``_enumerate_chunk``'s
  result, which also crosses the process boundary with ``workers`` > 1).
  They are re-checked as stacks of at most ``BLOCK_ELEMS // n**2``
  labellings and become ``Labelling`` objects afterwards.

Both campaigns keep, re-verify and report every counterexample, so past
COUNTEREXAMPLE_CAP of them, checked after every block, a campaign stops
with ``SearchSpaceTooLarge``.

What re-checks what is one rule, kept in ``reach``'s module docstring: a
cycle-free verdict is confirmed by a route that did not produce it.  An
escalated trial's None from ``find_balanced_cycle`` (the dense kernel),
as a stack of one, and the sieve's counterexamples (the cycle lists), a
stack at a time, are confirmed on the dict route by
``reach._recheck_cycle_free``, which grows every start's table with
``reach._grow_anchored``: the same route and the same recurrence for one
labelling or a stack.  ``compute_n``'s witness, whose CSP grew its path
tables on that route too, is confirmed by ``find_balanced_cycle``
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

The search also cuts by the automorphisms of G.  An automorphism phi,
applied to every label, maps the value of every cycle to its image, so
it keeps a labelling cycle-free, and it keeps the pin, since phi(1) = 1.
Let A be a subgroup of Aut(G) and M the multiset of the in-labels
``l(v, 0)``, v >= 1.  The orbit of a pinned cycle-free labelling under
A x Sym(1..n-1) holds a sorted labelling l whose sorted M is lex-least
among the sorted phi(M), phi in A: apply the phi that makes sorted phi(M)
least, then sort the vertices.  For every psi in A, psi phi is in A as
well, so sorted psi(M_l) is no less than sorted M_l.  This step needs A
to be closed under composition, a group and not just some automorphisms.
The first entries give min M_l <= min psi(M_l), and in a sorted
labelling min M is ``l(1, 0)``, the least of ``l(1, 0) <= l(2, 0) <=
...``.  So every in-label g = ``l(k, 0)`` has psi(g) >= ``l(1, 0)`` for
every psi in A, that is ``orbit_min[g] >= l(1, 0)``, with ``orbit_min``
the least element of each orbit of A (``groups.automorphism_orbit_min``).
The search therefore tries at k >= 2 no ``l(k, 0)`` in an orbit whose
least element is below ``l(1, 0)``, and at k = 1, where g is ``l(1, 0)``
itself, none with ``orbit_min[g] < g``.  Each test reads the labels into
vertex 0 alone, and each holds on every prefix of l, so the search still
reaches l.  A value either cut skips is not a trial.  (Both cuts are
lex-leader predicates in the sense of Crawford, Ginsberg, Luks and Roy,
"Symmetry-breaking predicates for search problems", KR 1996.)

In a cycle-free prefix on vertices 0..k-1, every new simple cycle through
k is k -> a ~> b -> k.  With the path table ``P[a][b]``, the values of
the simple paths a ~> b inside the prefix as a group bitmask
(``P[a][a]`` = {identity}, for the 2-cycles), the labels of k form a
bipartite CSP: out-labels ``x_a = l(k, a)`` against in-labels
``y_b = l(b, k)``, with ``y_0`` the pinned identity.  The pair is forbidden
exactly when ``(y_b x_a)^-1`` lies in ``P[a][b]``, the value of the cycle
then being the identity.  The x_a are placed first, each shrinking the y_b
domains (forward checking), and a branch dies when a domain empties.
Given every x_a, the y_b are independent: at the last vertex nonempty
domains settle it, at earlier ones the search enumerates the product of
the domains.  One node of the budget is one (variable, value) trial, x_a
or y_b.

Row a of P comes from start a's exact-vertex-set path table, a flat list
with entry ``mask * n + e`` (``reach._grow_anchored``).  Every prefix keeps
every start's table.  A prefix on 0..k-1 differs from its parent on
0..k-2 only by the paths through its newest vertex v = k-1, whose masks
are the upper half of the flat range, so start a's table is the parent's
grown by that half, and row a the parent's row ORed with the half's
columns; only start v's table is built from scratch.  Each is made when
x_a is first tried, so a prefix that dies early grows none of the later
starts' tables.  The CSP reads the group's byte-table rows directly
(``FiniteGroup._byte_actions``, one list lookup per byte of a set, and
every set one byte at order <= 8), and packs the k domains into the lanes
of one int, so that a branch is one ``&`` and an emptied domain one
subtract and mask (``_empty_lane``).  The tables of the deepest prefix of
an n-vertex search hold (n-1) * 2^(n-1) * n entries; above
PATH_TABLE_CAP, which n = 14 fits, the search stops with
``SearchSpaceTooLarge`` before its first trial.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import lshift, or_

import numpy as np

from .errors import BadSize, SearchSpaceTooLarge
from .groups import FiniteGroup, automorphism_orbit_min, build_group, is_json_int
from .labellings import MAX_VERTICES, Labelling, complete_mask
from .reach import (EXACT_CAP, _cycle_arcs, _cycle_list, _cycle_values, _grow_anchored,
                    _recheck_cycle_free, find_balanced_cycle, runs_exact)
from .rng import _check_seed, trial_seeds, xoshiro_labels

SEARCH_SPACE_CAP = 10 ** 8
COUNTEREXAMPLE_CAP = 100_000  # about 0.9 KB per kept n=3 counterexample with its report
DEFAULT_NODE_BUDGET = 2_000_000
BLOCK_ELEMS = 1 << 16
PATH_TABLE_CAP = 1 << 21  # about 80 bytes an entry at order 64: n <= 14


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
    last b free arcs are the suffix, with b the largest such that |G|^b
    labellings of n^2 labels fit in BLOCK_ELEMS; their digits are one
    pattern of |G|^b columns, built once.  A block is one value of the
    other digits, the prefix, over that pattern, clipped to [lo, hi), so
    blocks come in index order.  Each 2-cycle is settled on the digits
    before any label array exists (a pinned arc is the digit 0): a pair of
    prefix arcs is one test per block, and a balanced one settles the
    whole block; a pair of suffix arcs is one mask per call; a pair with
    one arc in each is a (|G|, columns) table per call, whose row the
    prefix digit picks.  Only the labellings left alive become a label
    array, sieved from length 3.  The counterexamples come back in index
    order as one (count, n, n) int64 array.
    """
    group = build_group(spec)
    order, table, inverse = group.order, group.table, np.array(group._inv)
    free = [u * n + v for u, v in _free_arcs(n, normalized)]
    b = 0
    while b < len(free) and order ** (b + 1) * n * n <= BLOCK_ELEMS:
        b += 1
    head, tail = free[:len(free) - b], free[len(free) - b:]
    width = order ** b
    # column s holds the digits of s, and the last row, zeros, a pinned arc
    pattern = np.zeros((b + 1, width), dtype=np.int64)
    rest = np.arange(width, dtype=np.int64)
    for row in reversed(range(b)):  # least significant digit first
        if rest[-1] == 0:  # |G| = 1: one column, every digit 0
            break
        above = rest // order
        pattern[row] = rest - above * order
        rest = above
    at_head = {arc: i for i, arc in enumerate(head)}
    at_tail = {arc: j for j, arc in enumerate(tail)}
    prefix_pairs, suffix_pairs, cross_pairs = [], [], []
    for u in range(n):
        for v in range(u + 1, n):
            pair = (u * n + v, v * n + u)
            heads = [at_head[arc] for arc in pair if arc in at_head]
            tails = [at_tail[arc] for arc in pair if arc in at_tail]
            if not tails:  # a pinned arc is the last prefix digit, 0
                prefix_pairs.append(heads + [len(head)] * (2 - len(heads)))
            elif not heads:  # and the last pattern row
                suffix_pairs.append(tails + [b] * (2 - len(tails)))
            else:
                cross_pairs.append((heads[0], tails[0]))
    # a 2-cycle is balanced when one label is the other's inverse
    rows = np.array(suffix_pairs, dtype=np.int64).reshape(-1, 2).T
    suffix_dead = (pattern[rows[0]] == inverse[pattern[rows[1]]]).any(axis=0)
    cross_at = [i for i, _ in cross_pairs]
    # cross[c, d]: the columns where pair c is balanced if its prefix digit is d
    cross = pattern[[j for _, j in cross_pairs], None] == inverse[:, None]
    cross_index = np.arange(len(cross_pairs))
    settled = 0  # labellings with a balanced 2-cycle
    lengths: Counter[int] = Counter()
    counterexamples = [np.zeros((0, n, n), dtype=np.int64)]
    kept = 0
    for prefix in range(lo // width, -(-hi // width)):
        left, right = max(lo - prefix * width, 0), min(hi - prefix * width, width)
        digits = [0] * (len(head) + 1)
        rest = prefix
        for i in reversed(range(len(head))):
            rest, digits[i] = divmod(rest, order)
        if any(group._inv[digits[i]] == digits[j] for i, j in prefix_pairs):
            settled += right - left
            continue
        dead = suffix_dead | cross[cross_index, [digits[i] for i in cross_at]].any(axis=0)
        alive = np.flatnonzero(~dead[left:right]) + left
        settled += right - left - alive.size
        if not alive.size:
            continue
        labels = np.zeros((n * n, alive.size), dtype=np.int64)
        labels[head] = np.array(digits[:-1], dtype=np.int64)[:, None]
        labels[tail] = pattern[:b, alive]
        first = _sieve(table, labels, ((k, _cycle_list(n, k)) for k in range(3, n + 1)))
        _count_lengths(lengths, first)
        counterexamples.append(labels[:, first == 0].T.reshape(-1, n, n))
        kept += len(counterexamples[-1])
        _check_counterexamples(kept)
    if settled:
        lengths[2] += settled
    return hi - lo, np.concatenate(counterexamples), dict(sorted(lengths.items()))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every core of the machine (1 when that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    # CPUs this process may run on, nor more than there are ranges to check
    workers = min(workers, _usable_cpus(), space)
    if workers == 1:
        chunks = [_enumerate_chunk(group.spec, n, normalized, 0, space)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here
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


def _empty_lane(x: int, low: int, high: int) -> bool:
    """Whether a lane of x is zero, for lanes whose top bit is clear: ``low``
    has each lane's bit 0 set and ``high`` each lane's top bit.  Subtracting
    ``low`` borrows through the lowest zero lane into its top bit, and sets
    no top bit while no lane is zero.  (The clear top bit makes the usual
    ``& ~x`` of the byte-wise test redundant.)"""
    return bool((x - low) & high)


def _grow_paths(parent: tuple | None, a: int, v: int, n: int, arcs,
                plans: dict) -> tuple[list[int], list[int]]:
    """Start a's path table on the prefix 0..v and row a of P over it.

    The table is ``reach._grow_anchored``'s, grown from ``parent``, the
    table and row of the prefix 0..v-1 (None for a = v, whose table is
    built from scratch).  Entry b of the row ORs the table's column b, so
    the parent's row needs only the grown masks ORed in.
    """
    table, row = (parent[0][:], parent[1]) if parent else (None, [])  # the parent keeps its own
    table = _grow_anchored(table, a, v, n, arcs, plans)
    new = (1 << v) * n  # the grown masks' entries start here
    row = row + [0] * (v + 1 - len(row))
    return table, [reduce(or_, table[new + b::n], bits) for b, bits in enumerate(row)]


def _cycle_free_labelling(group: FiniteGroup, n: int, budget: int,
                          orbit_min: list[int] | None = None) -> tuple[Labelling | None, int]:
    """Vertex-extension search for a balanced-cycle-free labelling on n vertices.

    Returns the labelling, or None, and what is left of ``budget`` trials;
    the trial that would take it below 0 raises SearchSpaceTooLarge.
    ``orbit_min`` is ``groups.automorphism_orbit_min(group)``, built here
    when not given (``compute_n`` builds it once for every n).  See the
    module docstring.  Each y_b is kept as the domain of its inverse
    z_b = y_b^-1, from which placing x_a removes the set ``x_a P[a][b]``;
    z_0 starts as {identity}, so the row-0 pin is the rule that no domain
    may empty.  The k domains are the lanes of one int, lane b at bit
    ``b * (|G| + 1)``: |G| bits and a top bit that stays clear, so a branch
    is one ``&`` with the cut's complement, and a lane is empty exactly when
    subtracting 1 from it borrows into that top bit (``_empty_lane``).
    """
    entries = ((n - 1) << (n - 1)) * n  # k starts of 2^k * n at the deepest prefix, k = n - 1
    if entries > PATH_TABLE_CAP:
        raise SearchSpaceTooLarge(
            f"the path tables on {n} vertices take {entries} entries, above "
            f"PATH_TABLE_CAP = {PATH_TABLE_CAP}")
    if orbit_min is None:
        orbit_min = automorphism_orbit_min(group)
    inv = group._inv
    order = group.order
    right = group._byte_actions("right")
    left = group._byte_actions("left")
    full = group.full_subset()
    shifts = [b * (order + 1) for b in range(n)]
    lows = [sum(1 << s for s in shifts[:k]) for k in range(n + 1)]
    labels = [[0] * n for _ in range(n)]
    plans: dict = {}

    def extend(k: int, parent: list) -> bool:
        if k == n:
            return True
        # paths[a] = (start a's table and row a of P, made when x_a is first
        # tried; per g, the complement of the packed z_b that x_a = g rules
        # out, made when g is first tried)
        paths: list[tuple[list[int], list[int], list[int | None]]] = []
        arcs = [[right[g] for g in labels[u][:k]] for u in range(k)]  # S -> S*l(u, w)
        v = k - 1
        low = lows[k]
        high = low << order
        outs = labels[k]
        # the two cuts on l(k, 0): sorted, and in no orbit whose least element
        # is below l(1, 0), which at k = 1 is l(1, 0) least in its own orbit
        firsts = [g for g in range(labels[v][0], order)
                  if orbit_min[g] >= (labels[1][0] if k > 1 else g)]

        def place_x(a: int, domains: int) -> bool:
            nonlocal budget
            if a == k:
                if k == n - 1:
                    for b in range(1, k):
                        lane = domains >> shifts[b] & full
                        labels[b][k] = inv[(lane & -lane).bit_length() - 1]
                    return True
                return place_y(1, domains)
            if a == len(paths):
                paths.append((*_grow_paths(parent[a] if a < v else None, a, v, n, arcs, plans),
                              [None] * order))
            _, row, by_g = paths[a]
            for g in firsts if a == 0 else range(order):
                keep = by_g[g]
                if keep is None:
                    keep = by_g[g] = ~sum(map(lshift, map(left[g], row), shifts))
                budget -= 1
                if budget < 0:
                    raise SearchSpaceTooLarge("backtracking budget exhausted")
                left_over = domains & keep
                if not _empty_lane(left_over, low, high):
                    outs[a] = g
                    if place_x(a + 1, left_over):
                        return True
            return False

        def place_y(b: int, domains: int) -> bool:
            nonlocal budget
            if b == k:
                return extend(k + 1, paths)
            bits = domains >> shifts[b] & full
            while bits:
                low_bit = bits & -bits
                bits ^= low_bit
                budget -= 1
                if budget < 0:
                    raise SearchSpaceTooLarge("backtracking budget exhausted")
                labels[b][k] = inv[low_bit.bit_length() - 1]
                if place_y(b + 1, domains):
                    return True
            return False

        return place_x(0, 1 | full * (low ^ 1))

    if extend(1, []):
        L = Labelling(group, np.array(labels, dtype=np.int64))
        # the CSP grew its path tables with reach._grow_anchored, which the search never runs
        _reverify_cycle_free(L)
        return L, budget
    return None, budget


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
    left = node_budget
    witness: Labelling | None = None
    orbit_min = automorphism_orbit_min(group)
    for n in range(1, limit + 1):
        try:
            found, left = _cycle_free_labelling(group, n, left, orbit_min)
        except SearchSpaceTooLarge as exc:
            exc.lower_bound = n
            exc.witness = witness
            raise
        if found is None:
            return ComputeNResult(group_name=group.name, group_spec=group.spec,
                                  value=n, witness=witness,
                                  nodes=node_budget - left)
        witness = found
    raise SearchSpaceTooLarge(
        f"no conclusion up to n = {limit}", lower_bound=limit + 1, witness=witness)
