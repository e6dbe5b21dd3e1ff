"""Simple-path value sets and exact balanced-cycle detection.

Everything here is bitset subset dynamic programming.  A DP state is a
(vertex mask, endpoint) pair whose value is the set of group elements
attained by simple directed paths with that vertex set and endpoint,
stored as an int bitmask over group elements.  Three table flavours exist:

* aggregated over sub-vertex-sets: entry (X, x) holds the values of every
  path inside X ending at x, either from any start (the full reach set,
  with the length-0 path) or from a fixed start u, built layer by layer
  so memory stays two popcount levels;
* exact vertex set, any start (``reach_table``), retained whole;
* start-anchored with exact vertex set: paths start at a fixed vertex,
  which is how cycles are detected and counted exactly once (every cycle
  is closed from its minimum vertex).

Three routes: the dense kernel, the dict route and the cycle lists.

The dense kernel, ``_dense_layers(L, verts, seed, inside)``.  Over the m
vertices of ``verts`` (local mask bit i = vertex verts[i], in ascending
order) layer k holds, for the r-th smallest k-subset and endpoint
verts[j], one uint64 value set (group order <= 64), zero where no path
exists.  The kernel stores it endpoint-major, as a C-contiguous
(m, C(m, k)) array, so that a block of source rows gathers straight into
the (source endpoint, target, mask) order that the OR over the source
endpoints reduces; callers see it through ``_LayerView.array``, the
transposed view, as the (C(m, k), m) array of row r, column j.  Layer 1
is diag(seed).  A layer is extended by the right action S*label(p, j)
and an OR over the source endpoints p, a block of target vertices j at a
time (``_plan_blocks``): one numpy pass per block of at most
_DENSE_BLOCK operand entries, not one per target.  Each layer leaves the
kernel as a ``_LayerView``, a read-only mapping {vertex mask: {endpoint:
value bits}} over the layer's array; the view is the only code that
turns local masks and columns into vertices, and every caller reads a
layer through it.  The action is one of two, chosen from the group's
Cayley table (``FiniteGroup.is_cyclic_numbering``, checked once per
group):

* when the table is exactly (a + b) mod q, a rotation on the words
  themselves (``_rotate_action``), an absent arc shifting its image out.
  For q <= 32 each word of the source layer is doubled in place to
  D = S | S << q while the next layer is built, and S*g = (D >> (q - g))
  & full, one shift per source and target; for q = 33..64 it is
  ((S << g) | (S >> (q - g))) & full, two shifts and an OR;
* for every other group, the byte lookup table
  (``FiniteGroup.right_mul_lut``): one add of per-arc offsets to the
  layer's bytes, copied row by mask as one (rows, m * chunks) array,
  forms the lookup index of a whole block, written in the order the OR
  reduces (``_byte_action``).

Both give the same layers; on the paper's cyclic family the rotation
runs about 3.5x faster than the byte table (cycle-free
extremal_cyclic(30, n), n = 16..20, one Xeon core).  With ``inside``
set, seed[j] is ORed into every entry of column j, so an entry holds the
paths inside its mask rather than exactly through it.

The arcs.  A labelling's per-arc arrays over all n vertices are built
once, on first use, and kept on it (``_DenseArcs``, in the slot
``Labelling._dense_arcs``): the singletons of the arcs, which seed a run
(``_arc_bits``) and close a sweep's cycles, and the action's per-arc
operands.  Only the action the group takes is built, so a cyclic
numbering never builds the byte offsets, nor ``right_mul_lut``.  Each
run copies its own vertices' block into a C-contiguous (m * c, m, 1)
array (``_operands``): a slice for a sweep's s+1..n-1, a take for a
walk's mask; the hot loop never reads a strided view.

The index plans.  Extending layer k reads, per target j, the rows of the
k-subsets without j and the rows of layer k + 1 that adding j takes them
to (``_extend_rows``, from ``_layer_masks(m)``: the masks by popcount and
each one's rank).  They depend on m and k alone, so up to
_PLAN_CACHE_MAX_M = 15 vertices they are built once per process, by the
first run of that size, and kept read-only as uint16 (every mask and row
index fits below 2^16 there): ``_MASK_CACHE`` keyed by m, and
``_PLAN_CACHE`` keyed by (m, k), each plan one (m, 2, rows) array with
plan[j] = (src, dst).  Filled for every m <= 15 they take 2,096,668
bytes, within _PLAN_CACHE_BYTES (2 MiB); a search on up to 16 vertices
then reuses them across starts and calls.  A cached plan is extended as
blocks of as many whole targets as fit a block, so a layer of a few
hundred rows takes a few numpy passes; a target whose rows alone exceed
the block goes alone, its rows split.  Above the bound nothing is cached,
and each target's rows are built as the loop reaches it and extended
alone, split the same way, so only one target's are alive: m = 16 alone
would take 2.4 MB and m = 23 about 0.8 GB as int32, and all of one
layer's targets at once would hold m times one target's rows.  The callers:

* ``find_balanced_cycle``'s sweep from every start s: verts = s+1..n-1,
  seed the arcs out of s, not inside; hits are scanned per layer in
  (mask, endpoint) ascending order, and the sweep stops at the first,
  which ``_close_cycle`` rebuilds into the witness;
* ``aggregated_reach_layers`` (and through it ``reach_set`` and the key
  lemma): verts = the scope, seed 1 (the identity), inside; the layers are
  handed out as they come, and the key lemma scans each one's array;
* ``reach_table``: the same seed, not inside, every layer kept, so
  ``ReachTable.layers`` holds views; the dict ``table`` is built from them
  only on first access;
* ``_paths_in(L, top, Y, u)``: verts = Y, seed the arcs out of u, inside;
  the last layer's single entry holds the values of the u-to-w paths
  inside Y + u for every w of Y at once.  The run keeps its last
  _WALK_KEPT = R layers in ``top``, and row Z of a kept layer holds the
  same for Z + u, so a later call on such a Z is a lookup.
  ``reach_set_between`` reads one value of one run.  The walk of
  ``find_path_with_value``, which rebuilds the search's and the proof
  engine's witnesses, goes back from v, and each step picks the smallest
  feasible predecessor from the paths inside the vertices still unused:
  the last step's set minus one vertex, a row of the kept layer below the
  last step's.  So one run serves R steps, and the kernel reruns only when
  the set falls below the kept layers: a walk through all of a scope of
  m + 2 vertices takes ceil(m / R) runs, over m, m - R, ... vertices,
  where one run per step took m + 1.  The kept layers are the lattice's
  smallest, at most the sum over j < R of C(m, j) rows of m words: 2,048
  rows, about 377 KB, at m = 23.  Keeping every layer would make the walk
  one run but hold 2^m * m * 8 bytes, the memory that ``reach_table``
  caps at 20 vertices, at any scope up to 24.

The dict route, ``_grow_anchored(table, start, v, n, arcs, plans)``: the
start-anchored exact-vertex-set DP in plain Python over one flat list,
entry ``mask * n + endpoint``, 0 where no path exists.  A call extends the
table on the vertices below v, in place, by the masks that hold v, the
upper half of the range, pushing one arc at a time by an index plan
(``_grow_plan``).
An arc acts through the group's byte-table rows
(``FiniteGroup._byte_actions``), an absent one as a function that returns
0.  It never calls the dense kernel, and the search never calls it.  The
callers:

* ``harness.compute_n``'s CSP, which grows every start's table a vertex at
  a time from a copy of its parent prefix's, which the parent keeps, and
  ORs the new half into its path rows, with plans kept per call;
* ``_start_table(act, labels, pres, verts)``: the table of the paths from
  verts[0] inside ``verts``, renumbered so that the start is local vertex
  0, grown in place from vertex 0 alone.  Up to DICT_SWEEP_CAP vertices
  its plans stay in ``_GROW_PLANS`` for the life of the process; above,
  each is built for one step and dropped, as the dense kernel does above
  _PLAN_CACHE_MAX_M.  It serves:

  - ``_anchored_cycles``, every balanced cycle with minimum vertex s in
    (length, mask, closing vertex) order, from the table over s..n-1: the
    closing entries of each endpoint are read off its column
    (``_column``), and each cycle is rebuilt by a walk back through the
    table, indexed by mask, with no rerun of anything.
    ``enumerate_balanced_cycles`` takes every start's;
  - ``_recheck_cycle_free``, which grows every start's table once for a
    stack of labellings that share one arc mask and only asks whether an
    entry (mask, e), e in the mask, closes a cycle.  For a stack of one a
    value set is a Python int; for a larger stack it is a uint64 array
    with one lane per labelling, and the action a gather from the group's
    right byte table per lane, so one pass re-checks a whole stack;
  - ``start_anchored_table``, which turns the table into {mask: {endpoint:
    value bits}}.

The cycle lists, one per length, built on demand: ``_cycle_list(n,
length)`` holds every simple cycle of the complete digraph on n vertices
of that length, minimum vertex first, lexicographically, as an array of
flat arc indices, grown from the list one shorter and cached.
``_cycle_arcs(n, max_len)`` is a generator of ``(length, list)`` for
lengths 2..max_len that builds a list only when it is read, so a caller
that stops early never builds the longer, more numerous ones.
``_cycle_values`` evaluates a list for one labelling or a block of them
by Cayley-table gathers, with no DP at all.  The callers:

* ``short_cycle_scan``, the first balanced 2- or 3-cycle with every arc
  present, at any n up to 64;
* the campaigns' sieve (``harness._sieve``), one block of labellings per
  call.

What re-checks what.  A cycle-free verdict is confirmed by a route that
did not produce it: the dict route confirms what the dense kernel or the
cycle lists (with the enumeration's 2-cycle test) produced, and the
search confirms what the dict route produced.

=====================================  ==========================================
producer of the verdict                confirming route
=====================================  ==========================================
``find_balanced_cycle`` returns None:  ``_recheck_cycle_free``: the grown table
the cycle lists, then the dense        of every start, a stack of one.  Up
kernel (``harness.verify_random``)     to DICT_SWEEP_CAP vertices; above,
                                       nothing re-checks.
the enumeration's counterexamples:     ``_recheck_cycle_free``, as above, in
2-cycles on the digits, then the       stacks of BLOCK_ELEMS // n^2: the same
cycle lists (``harness.verify_all``)   route and the same recurrence
the CSP's witness, whose path tables   ``find_balanced_cycle`` finds nothing
grow on the dict route                 (``harness._reverify_cycle_free``)
(``_grow_anchored``,
``harness.compute_n``)
=====================================  ==========================================

The search itself sweeps every start that can close a cycle, so its DP
sees the 2- and 3-cycles that the short-cycle scan, its fast path, read
off the lists; a fault in any one route is caught by another.  The dict
route reads the rows of the group's right byte table
(``FiniteGroup._byte_actions``).  For a cyclic numbering the dense kernel
rotates bits instead, so there the dense route and the dict route share
no action; for every other group both read the byte table, which
``tests/test_groups.py`` checks against the Cayley table.  A stacked
re-check reads the same table through ``FiniteGroup.right_mul_lut``, so
on a cyclic numbering it too shares no action with the dense kernel.

Memory, with two layers alive while one is extended: the largest
aggregated layer takes about C(m, m/2) * m * 8 bytes, 30 MB at m = 20 and
520 MB at the cap of 24; the sweep's, over at most 23 free vertices,
250 MB.  A retained table takes about 2^m * m * 8 bytes, 168 MB at its cap
of 20.  The plan cache adds at most 2 MiB for the life of the process;
above its bound a run holds its mask table (2^m * 8 bytes, 128 MiB at 24)
and one target's rows.  A block's temporaries hold at most _DENSE_BLOCK
operand entries each, about 1 MB in all.  The rotation for q <= 32
doubles the source layer in place, a block of _DENSE_BLOCK words at a
time, and masks it back with ``& full`` once the next layer is built (in
a ``finally``, so also when the extension fails): it adds no array the
size of a layer, and no caller ever sees a doubled word.  The byte table
adds a copy of the source layer's low bytes (half a layer at order 30).
A labelling's prepared arcs are a few n x n words, 32 KiB each at n =
64, and the byte offsets one such array per byte chunk.

The dict route's table on m vertices has 2^m * m slots, one pointer each
(a quarter of them hold the start's paths, the rest 0): 8 MiB at m = 16
and 160 MiB at TABLE_RETENTION_CAP.  Growing the last vertex holds the old
half, the new half, the joined table and that step's plan at once.
``_GROW_PLANS``, filled for every m <= DICT_SWEEP_CAP, takes 1,708,256
bytes (tracemalloc) for the life of the process.  ``start_anchored_table``
on 16 vertices peaked at 24.1 MiB under tracemalloc on a random Z7
labelling and 32.5 MiB on a Z64 one, with the flat table, the last plan
and the dict alive at once.  A stacked re-check holds one uint64 word per
lane in each written entry, and its arc offsets, one word per arc, lane
and byte chunk: for ``verify_all``'s stacks of BLOCK_ELEMS // n^2 lanes at
most 4 MiB of offsets.  At n = 6, the largest (its search-space cap admits
no larger n for a group of order 2 or more, and the trivial group has no
counterexample above one vertex), a stack peaked at 2.6 MiB at order 7
and 6.5 MiB at order 64 under tracemalloc.

Scope and size, one rule.  Every exact route hands its scope, the
vertices it names and its cap to ``_scope`` before it allocates anything.
A vertex must lie in 0..n-1, a named vertex in the scope, a scope a route
takes its start from must not be empty (NotInScope otherwise), and the
scope must not exceed the route's cap (TooLarge, naming the cap).  The
caps: EXACT_CAP (24) for the search, the aggregated layers, ``reach_set``,
``reach_set_between`` and ``find_path_with_value``; TABLE_RETENTION_CAP
(20) for the retained ``reach_table`` and ``start_anchored_table``;
DICT_SWEEP_CAP (12) for ``enumerate_balanced_cycles``, which also keeps at
most CYCLE_LIST_CAP cycles (``_recheck_cycle_free`` stops at the same cap,
since both grow a dict-route table from every start); and
``proof_engine.KEY_LEMMA_CAP`` (20) for the key lemma.  Whether a campaign
or the CLI runs the exact search or the short-cycle scan alone is
``runs_exact(n, max_dp_vertices)``: the limit is at least 0 and can only
lower EXACT_CAP.  Beyond the exact cap only the short-cycle scan is
available and a miss is inconclusive.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from itertools import compress, repeat
from operator import or_
from typing import Iterator

import numpy as np

from .errors import BadSize, NotInScope, TooLarge
from .groups import FiniteGroup, is_json_int, subset_elements
from .labellings import CycleWitness, Labelling, cycle_value

EXACT_CAP = 24
TABLE_RETENTION_CAP = 20
DICT_SWEEP_CAP = 12  # every start's grown table, plans kept: enumeration and the re-check
CYCLE_LIST_CAP = 500_000  # about 250 B per kept cycle: some 125 MB


# -- scope and size: the one place the exact routes check their input -----------

def _scope(L: Labelling, X, cap: int, *vertices: int | None) -> int:
    """The vertex mask of the scope ``X`` (a mask or an iterable of vertices)
    of an exact route that runs on at most ``cap`` vertices.

    Raises NotInScope for a vertex outside 0..n-1 and for a named vertex
    outside the scope; a named None is a start the route takes from the
    scope itself, so the scope must not be empty.  Masks and vertices are
    integers by the ``is_json_int`` rule (numpy integers pass; a bool or a
    float is NotInScope, never coerced).  Raises TooLarge when the scope
    has more than ``cap`` vertices.
    """
    n = L.n
    if is_json_int(X):
        mask = int(X)
    elif isinstance(X, Iterable):
        mask = 0
        for v in X:
            if not is_json_int(v, n):
                raise NotInScope(f"vertex {v!r} outside 0..{n - 1}")
            mask |= 1 << int(v)
    else:
        raise NotInScope(f"scope {X!r} is neither a vertex mask nor vertices")
    if not is_json_int(mask, 1 << n):
        raise NotInScope(f"scope {mask} has a vertex outside 0..{n - 1}")
    for w in vertices:
        if w is None:
            if not mask:
                raise NotInScope("empty scope: there is no start")
        elif not (is_json_int(w, n) and (mask >> int(w)) & 1):
            raise NotInScope(f"vertex {w!r} not in the scope")
    if mask.bit_count() > cap:
        raise TooLarge(f"scope of {mask.bit_count()} vertices exceeds the cap of {cap}")
    return mask


def runs_exact(n: int, max_dp_vertices: int) -> bool:
    """Whether an n-vertex instance gets the exact search rather than the
    short-cycle scan alone: ``max_dp_vertices`` (at least 0) can only lower
    EXACT_CAP, and 0 means the scan alone."""
    if not (is_json_int(max_dp_vertices) and max_dp_vertices >= 0):
        raise BadSize(f"max_dp_vertices {max_dp_vertices} is negative or not an integer")
    return n <= min(max_dp_vertices, EXACT_CAP)


# -- the dense layer kernel ----------------------------------------------------

def _layer_masks(m: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Every m-bit mask grouped by popcount (ascending within a group),
    and each mask's index inside its group; read-only."""
    count = np.bitwise_count(np.arange(1 << m, dtype=np.int32))
    order = np.argsort(count, kind="stable").astype(np.int32)
    order.setflags(write=False)
    bounds = np.searchsorted(count[order], np.arange(m + 2))
    layers = [order[bounds[k]:bounds[k + 1]] for k in range(m + 1)]
    rank = np.empty(1 << m, dtype=np.int32)
    for layer in layers:
        rank[layer] = np.arange(layer.size, dtype=np.int32)
    rank.setflags(write=False)
    return layers, rank


def _extend_rows(masks: np.ndarray, rank: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per target j of ``targets`` (one row each), the rows of layer
    ``masks`` without bit j, and the rows of the next layer (``rank``) that
    adding j takes them to.  Every target leaves the same number of rows."""
    bits = np.left_shift(1, np.asarray(targets, dtype=masks.dtype))[:, None]
    src = np.flatnonzero((masks & bits) == 0).reshape(bits.size, -1)
    src -= np.arange(bits.size)[:, None] * masks.size
    return src, rank[masks[src] | bits]


# the index plans of every size up to _PLAN_CACHE_MAX_M (module docstring)
_PLAN_CACHE_MAX_M = 15
_PLAN_CACHE_BYTES = 1 << 21  # every m <= 15, filled: 2,096,668 bytes
_MASK_CACHE: dict[int, tuple[list[np.ndarray], np.ndarray]] = {}
_PLAN_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _compact(a: np.ndarray) -> np.ndarray:
    return _frozen(a.astype(np.uint16))


def _dense_masks(m: int) -> tuple[list[np.ndarray], np.ndarray]:
    """``_layer_masks(m)``, cached as uint16 up to _PLAN_CACHE_MAX_M."""
    if m > _PLAN_CACHE_MAX_M:
        return _layer_masks(m)
    hit = _MASK_CACHE.get(m)
    if hit is None:
        layers, rank = _layer_masks(m)
        hit = _MASK_CACHE[m] = [_compact(masks) for masks in layers], _compact(rank)
    return hit


def _extend_plan(m: int, k: int, masks: np.ndarray, rank: np.ndarray):
    """Per target j, the (src, dst) rows of ``_extend_rows`` for layer k of
    ``_dense_masks(m)``.

    Up to _PLAN_CACHE_MAX_M the plan is one read-only (m, 2, rows) uint16
    array, plan[j] = (src, dst), built for every target at once on first
    use and cached; above it each target's rows are built as the loop
    reaches them, so only one target's are alive.
    """
    if m > _PLAN_CACHE_MAX_M:
        return ((src[0], dst[0]) for src, dst in (_extend_rows(masks, rank, [j])
                                                   for j in range(m)))
    plan = _PLAN_CACHE.get((m, k))
    if plan is None:
        plan = _PLAN_CACHE[m, k] = _compact(np.stack(_extend_rows(masks, rank, range(m)), axis=1))
    return plan


def _singletons(present: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per arc, the singleton {label} as uint64 bits, or 0 where the arc is absent."""
    return np.where(present, np.left_shift(np.uint64(1), labels.astype(np.uint64)), np.uint64(0))


class _DenseArcs:
    """One labelling's arcs over all n vertices, in the forms the dense
    kernel reads: each array built on its first use and kept, read-only,
    on the labelling (``_dense_arcs``), so a query builds it once, not once
    per kernel run.

    ``bits[u, w]`` is the singleton {label(u, w)} and ``close[s, w]`` the
    singleton {label(w, s)^-1}, 0 where the arc is absent.  The action's
    arrays are (n, c, n), entry [p, :, j] for the arc p -> j: the
    rotation's shifts ``right`` and ``left`` (c = 1), and the byte table's
    ``offsets`` (c = chunks).  Only the action a run takes is built, so a
    cyclic numbering never builds the byte table.  ``_operands`` copies a
    run's own vertices out of one.  Nothing here refers back to the
    labelling, so caching it there makes no reference cycle.
    """

    def __init__(self, L: Labelling):
        self.group, self.labels, self.present = L.group, L.labels, L.present

    @cached_property
    def bits(self) -> np.ndarray:
        return _frozen(_singletons(self.present, self.labels))

    @cached_property
    def close(self) -> np.ndarray:
        return _frozen(_singletons(self.present.T, self.group.inverse_table[self.labels.T]))

    @cached_property
    def right(self) -> np.ndarray:
        """q - label(p, j) (q - 0 = q), and 64 for an absent arc."""
        q = np.uint64(self.group.order)
        shift = np.where(self.present, q - self.labels.astype(np.uint64), np.uint64(64))
        return _frozen(shift[:, None, :])

    @cached_property
    def left(self) -> np.ndarray:
        """label(p, j), and 64 for an absent arc."""
        shift = np.where(self.present, self.labels.astype(np.uint64), np.uint64(64))
        return _frozen(shift[:, None, :])

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where chunk c of S*label(p, j) starts in the flat byte table, or
        the all-zero row g = order when the arc is absent."""
        G = self.group
        chunks = G.right_mul_lut().shape[1]
        mult = np.where(self.present, self.labels, G.order)
        offsets = (mult[:, None, :] * chunks + np.arange(chunks)[:, None]) * 256
        return _frozen(offsets.astype(np.intp))


def _dense_arcs(L: Labelling) -> _DenseArcs:
    arcs = L._dense_arcs
    if arcs is None:
        arcs = L._dense_arcs = _DenseArcs(L)
    return arcs


def _operands(a: np.ndarray, verts: list[int]) -> np.ndarray:
    """a[p, :, j] for p and j in ``verts`` (ascending) as a C-contiguous
    (m * c, m, 1) array, a copy: the hot loop never reads a strided view.
    A sweep's s+1..n-1 are consecutive and copied from a slice, 1-6 us a
    run faster than the take a walk's mask needs: about 2% of the small
    searches of ``verify`` and ``compute-n``."""
    m, lo = len(verts), verts[0]
    if verts[-1] - lo == m - 1:
        block = np.ascontiguousarray(a[lo:lo + m, :, lo:lo + m])
    else:
        block = a.take(verts, axis=0).take(verts, axis=2)
    return block.reshape(m * a.shape[1], m, 1)


def _arc_bits(L: Labelling, u: int, verts: list[int]) -> np.ndarray:
    """Per vertex w of ``verts``, the singleton {label(u, w)}, or 0 when the arc is absent."""
    return _dense_arcs(L).bits[u].take(verts)


class _LayerView(Mapping):
    """One dense layer as a read-only {mask: {endpoint: value bits}}: the one
    form in which a layer leaves the kernel, and the one place that turns
    its local masks and columns into vertices.

    Keys are vertex masks in ascending order, and each entry holds every
    endpoint of its mask.  ``array`` (rows in key order, column j for
    vertex verts[j], zero outside the row's mask; from the kernel, the
    transposed view of its endpoint-major layer) and ``mask_at`` serve
    callers that scan a whole layer at once.
    """

    __slots__ = ("verts", "masks", "array")

    def __init__(self, verts: list[int], masks: np.ndarray, array: np.ndarray):
        self.verts = verts
        self.masks = masks
        self.array = array

    def _vertex_masks(self, masks: np.ndarray) -> list[int]:
        """Local masks (bit i = vertex verts[i]) as vertex masks, in the same order."""
        out = np.zeros(masks.size, dtype=np.uint64)
        for i, v in enumerate(self.verts):
            out |= ((masks >> i) & 1).astype(np.uint64) << np.uint64(v)
        return out.tolist()

    def mask_at(self, row: int) -> int:
        local = int(self.masks[row])
        return sum(1 << v for i, v in enumerate(self.verts) if local >> i & 1)

    def _entry(self, local: int, row: list[int]) -> dict[int, int]:
        return {v: row[i] for i, v in enumerate(self.verts) if (local >> i) & 1}

    def __getitem__(self, mask: int) -> dict[int, int]:
        local = 0
        for i, v in enumerate(self.verts):
            if (mask >> v) & 1:
                local |= 1 << i
        row = int(np.searchsorted(self.masks, local))
        if row == self.masks.size or self.masks[row] != local or self.mask_at(row) != mask:
            raise KeyError(mask)
        return self._entry(local, self.array[row].tolist())

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertex_masks(self.masks))

    def __len__(self) -> int:
        return self.masks.size

    def values(self) -> Iterator[dict[int, int]]:
        """Entries in key order, one pass, without a lookup per key."""
        for local, row in zip(self.masks.tolist(), self.array.tolist()):
            yield self._entry(local, row)


def _dense_layers(L: Labelling, verts: list[int], seed: np.ndarray,
                  inside: bool) -> Iterator[tuple[int, _LayerView]]:
    """The subset-DP recurrence over ``verts``, one dense popcount layer at a time.

    Yields (k, layer) for k = 1, 2, ...: ``layer.masks`` holds every
    k-subset of ``verts`` as a local mask (bit i = vertex verts[i]) in
    ascending order, and ``values = layer.array`` has ``values[r, j]``, the
    element bitmask of the paths through exactly masks[r] ending at
    verts[j], zero when there is none (always for j outside the mask).
    Layer 1 is diag(seed); then

        values[M | j, j] = OR over p in M of values[M, p] * label(verts[p], verts[j]),

    ORed with seed[j] when ``inside`` is set, so that an entry counts the
    paths inside its mask instead of exactly through it (the layer-1 path
    to j, worth seed[j], fits inside every mask that holds j).  Without
    ``inside`` an all-zero layer ends the stream: nothing extends it.
    The kernel stores a layer endpoint-major, as the (m, rows) array whose
    transpose ``layer.array`` is.
    """
    m = len(verts)
    if m == 0:
        return
    action = _rotate_action if L.group.is_cyclic_numbering else _byte_action
    operand, act = action(L, verts)
    layers, rank = _dense_masks(m)
    values = np.diag(seed).astype("<u8")  # symmetric: endpoint-major as it stands
    yield 1, _LayerView(verts, layers[1], values.T)
    for k in range(2, m + 1):
        if not inside and not values.any():
            return
        values = _dense_extend(values, _extend_plan(m, k - 1, layers[k - 1], rank),
                               layers[k].size, operand, act, seed if inside else None)
        yield k, _LayerView(verts, layers[k], values.T)


# The two right actions S -> S*label(p, j) of the kernel.  Each returns
# (operand, act).  operand(values), for an endpoint-major layer ``values``
# (row p for endpoint p), is a context manager that gives the layer as the
# action reads it; act(data, src, targets), for the (t, rows) block ``src``
# of mask rows, row i of it for target j = targets.start + i (``targets`` a
# slice of t targets), returns the (t, rows) array of the ORs over p of
# values[p, r] * label(p, j), reduced over the leading axis of a block laid
# out as (p, t, rows).

def _byte_action(L: Labelling, verts: list[int]):
    """S*g through the group's byte table (``FiniteGroup.right_mul_lut``), for any group.

    The operand is a layer's values as bytes, the first ``chunks`` of each
    word, one row per mask: entry (r, p*chunks + c) is byte c of endpoint
    p, so gathering a block copies whole rows.  When ``chunks`` bytes make
    a word type, one transposing cast to it builds the operand; a strided
    copy of 3, 5, 6 or 7 bytes per word runs several times slower.  offsets[p*chunks + c, j]
    is the start of the table for chunk c of S*label(p, j), or of the
    all-zero row when the arc p -> j is absent; one add of
    offsets[:, targets] forms the lookup index of a whole block, written
    straight into the (p*chunks + c, t, rows) order of the OR-reduce.
    """
    lut = L.group.right_mul_lut()
    chunks = lut.shape[1]
    m = len(verts)
    offsets = _operands(_dense_arcs(L).offsets, verts)
    flat = lut.reshape(-1)

    def operand(values: np.ndarray):
        if chunks in (1, 2, 4, 8):  # the low bytes are a word type: one transposing cast
            digits = np.asarray(values.T, dtype=f"<u{chunks}", order="C")
        else:
            digits = values.view(np.uint8).reshape(m, -1, 8)[:, :, :chunks].transpose(1, 0, 2)
            digits = np.ascontiguousarray(digits)
        return nullcontext(digits.view(np.uint8).reshape(-1, m * chunks))

    def act(digits: np.ndarray, src: np.ndarray, targets: slice) -> np.ndarray:
        block = digits.take(src, axis=0).transpose(2, 0, 1)
        idx = np.add(block, offsets[:, targets], dtype=np.intp, order="C")
        return np.bitwise_or.reduce(flat.take(idx), axis=0)

    return operand, act


def _rotate_action(L: Labelling, verts: list[int]):
    """S*g as a bit rotation, for a group whose table is (a + b) mod q.

    There S*g = ((S << g) | (S >> (q - g))) & full: the members of S move
    up by g and wrap around.  When 2q <= 64 the operand is the layer
    itself, each word doubled in place to D = S | S << q, and S*g =
    (D >> (q - g)) & full, one shift per source and target; the layer is
    masked back to S with ``& full`` when the operand is released, also
    when the extension fails, so no caller sees a doubled word.  Above
    that the operand is the layer as it is and the action takes both
    shifts.  An absent arc shifts by 64, which numpy defines as 0; so
    does the left shift of a two-shift rotation.  Either way ``& full``
    runs once, on the reduced block.
    """
    q = L.group.order
    full = np.uint64(L.group.full_subset())
    arcs = _dense_arcs(L)
    right = _operands(arcs.right, verts)

    if 2 * q <= 64:
        @contextmanager
        def doubled(values: np.ndarray):
            try:
                words = values.reshape(-1)
                for lo in range(0, words.size, _DENSE_BLOCK):
                    block = words[lo:lo + _DENSE_BLOCK]
                    block |= block << np.uint64(q)
                yield values
            finally:
                values &= full

        def act(values: np.ndarray, src: np.ndarray, targets: slice) -> np.ndarray:
            block = values.take(src, axis=1)
            block >>= right[:, targets]
            acc = np.bitwise_or.reduce(block, axis=0)
            acc &= full
            return acc

        return doubled, act

    left = _operands(arcs.left, verts)

    def act_two_shifts(values: np.ndarray, src: np.ndarray, targets: slice) -> np.ndarray:
        block = values.take(src, axis=1)
        moved = np.left_shift(block, left[:, targets])
        block >>= right[:, targets]
        moved |= block
        acc = np.bitwise_or.reduce(moved, axis=0)
        acc &= full
        return acc

    return nullcontext, act_two_shifts


_DENSE_BLOCK = 1 << 16  # operand entries per block: keeps the temporaries in cache


def _plan_blocks(plan, step: int):
    """(j0, src, dst) blocks of ``plan`` (``_extend_plan``), at most ``step``
    source rows each: src and dst are (t, rows) for targets j0..j0+t-1.

    A cached plan whose targets fit goes as blocks of whole targets; a
    larger one, and every plan above the cache bound, goes one target at a
    time, its rows split into blocks of ``step``.
    """
    if isinstance(plan, np.ndarray) and plan.shape[2] <= step:
        per = step // plan.shape[2]
        for j in range(0, len(plan), per):
            yield j, plan[j:j + per, 0], plan[j:j + per, 1]
        return
    for j, (src, dst) in enumerate(plan):
        for lo in range(0, src.size, step):
            yield j, src[None, lo:lo + step], dst[None, lo:lo + step]


def _dense_extend(values: np.ndarray, plan, size: int, operand, act,
                  seed: np.ndarray | None) -> np.ndarray:
    """Next endpoint-major dense layer, of ``size`` masks: out[j, dst] = OR_p
    values[p, src] * label(p, j) for the j-th (src, dst) of ``plan``, with
    seed[j] ORed in unless ``seed`` is None.  ``operand`` and ``act`` are
    one action's; each call of ``act`` extends a block of targets together
    (``_plan_blocks``), at most _DENSE_BLOCK operand entries."""
    m = values.shape[0]
    out = np.zeros((m, size), dtype="<u8")
    columns = np.arange(m)[:, None]
    with operand(values) as data:
        per_mask = data.size // values.shape[1]
        for j, src, dst in _plan_blocks(plan, max(1, _DENSE_BLOCK // per_mask)):
            targets = slice(j, j + len(src))
            acc = act(data, src, targets)
            if seed is not None:
                acc |= seed[targets, None]
            out[columns[targets], dst] = acc
    return out


# -- reach sets and tables -------------------------------------------------------

def aggregated_reach_layers(L: Labelling, scope) -> Iterator[tuple[int, Mapping[int, dict[int, int]]]]:
    """Stream aggregated reach sets for every submask of ``scope``.

    Yields (size, layer) with layer = {mask: {endpoint: value_bits}} where
    value_bits is the set of values of simple paths inside ``mask`` ending
    at the endpoint (the length-0 path contributes the identity).  Masks
    within a layer appear in ascending numeric order.  Only one layer is
    alive at a time; the recurrence is

        R[mask][e] = {1} | union over p in mask-e of R[mask-e][p] * label(p, e).
    """
    verts = subset_elements(_scope(L, scope, EXACT_CAP))
    yield from _dense_layers(L, verts, np.ones(len(verts), dtype=np.uint64), inside=True)


def reach_set(L: Labelling, X, x: int) -> int:
    """Values of simple paths inside X ending at x, as an element bitmask."""
    mask = _scope(L, X, EXACT_CAP, x)
    layer = None
    for _, layer in aggregated_reach_layers(L, mask):
        pass
    return layer[mask][x]


_WALK_KEPT = 4  # the top layers a run of _paths_in keeps for the next calls


def _paths_in(L: Labelling, top: dict[int, _LayerView], others: int, u: int) -> dict[int, int]:
    """{w: values of the simple u-to-w paths inside ``others`` + u} for u
    (only the length-0 path: the identity) and every w of the vertex mask
    ``others``.  ``top`` is {} or the last _WALK_KEPT layers, by popcount,
    that an earlier call kept from its inside run from u over a superset of
    ``others``; row Y of layer k holds the same for Y + u, so a popcount
    found there is read off them.  Otherwise one kernel run over
    ``others`` refills ``top`` in place."""
    k = others.bit_count()
    if k and k not in top:
        verts = subset_elements(others)
        top.clear()
        top.update((j, layer) for j, layer in
                   _dense_layers(L, verts, _arc_bits(L, u, verts), inside=True)
                   if j > k - _WALK_KEPT)
    paths = top[k][others] if k else {}
    paths[u] = 1
    return paths


def reach_set_between(L: Labelling, X, u: int, v: int) -> int:
    """Values of simple u-to-v paths inside X.

    For u == v only the length-0 path qualifies (simple paths cannot
    return), so the result is the singleton identity.
    """
    mask = _scope(L, X, EXACT_CAP, u, v)
    u = int(u)
    return _paths_in(L, {}, mask ^ (1 << u), u)[v]


def _grow_plan(v: int, n: int, start: int) -> list[tuple[int, list[int], list[int], list]]:
    """The index plan of ``_grow_anchored`` for one (v, n, start).

    Per mask m of vertices 0..v-1 whose union with {v} holds the start, in
    increasing order: m's flat base m * n; the endpoints of the paths from
    the start with vertex set exactly m, which step to v ([] for start v,
    which has no old mask); those with vertex set m + {v}; and per vertex
    w below v outside m, the offset (1 << w) * n + w that takes an entry
    of m + {v} to its extension by w.  The growth tests no entry for a
    path: an entry without one holds 0, an absent arc maps every set to 0,
    and either way the step adds nothing.
    """
    steps = [(w, (n << w) + w) for w in range(v)]
    plan = []
    for m in range(1 << v):
        if start < v and not m >> start & 1:
            continue
        members = [e for e in range(v) if m >> e & 1]
        old = ([e for e in members if e != start] or [start]) if start < v else []
        new = [e for e in members + [v] if e != start] or [v]
        plan.append((m * n, old, new, [steps[w] for w in range(v) if not m >> w & 1]))
    return plan


def _grow_anchored(table: list[int] | None, start: int, v: int, n: int, arcs,
                   plans: dict) -> list[int]:
    """A start-anchored exact-vertex-set table grown by vertex v, in place.

    ``table[mask * n + e]`` holds the values of the paths from ``start``
    with vertex set exactly ``mask`` and endpoint e, for every mask of
    vertices 0..v-1, and 0 where no such path exists.  The call extends
    ``table`` by the masks that hold v, the upper half of the flat range,
    and returns it; a caller that keeps the table it grew from passes a
    copy.  The new half follows the push recurrence restricted to it:
    every path of an old mask steps to v, and every path of a new mask,
    taken in increasing mask order, to each vertex below v outside it.
    ``arcs[u][w]`` maps a value set S to S*label(u, w) for u, w <= v, and
    every set to 0 when the arc is absent.  Start v's own table, ``table``
    None, is built from scratch: no old mask holds a path, and the new mask
    {v} holds the empty path, the identity.  ``plans`` keeps
    ``_grow_plan``'s plans by (v, start) for one n.
    """
    plan = plans.get((v, start))
    if plan is None:
        plan = plans[v, start] = _grow_plan(v, n, start)
    half = (1 << v) * n
    if table is None:
        table = [0] * (2 * half)
        table[half + v] = 1
    else:
        table.extend(repeat(0, half))
    for base, old, ends, steps in plan:
        top = half + base
        if old:
            into = 0
            for e in old:
                into |= arcs[e][v](table[base + e])
            table[top + v] = into
        if steps:
            for e in ends:
                bits = table[top + e]
                out = arcs[e]
                for w, step in steps:
                    table[top + step] |= out[w](bits)
    return table


_GROW_PLANS: dict[int, dict] = {}  # m <= DICT_SWEEP_CAP: _grow_anchored's plans from vertex 0


def _no_arc(bits):
    return 0


def _start_table(act, labels, pres, verts) -> list:
    """``_grow_anchored``'s table of the paths from verts[0] inside ``verts``.

    The m vertices are renumbered 0..m-1 in the order given, so the start
    is local vertex 0 and entry ``mask * m + e`` is over local masks and
    endpoints.  ``act(labels[u][w])`` is the action of the arc u -> w, used
    where ``pres[u][w]``.  Up to DICT_SWEEP_CAP vertices the plans are kept
    in ``_GROW_PLANS`` for the life of the process; above, each is built
    for one growth step and dropped.
    """
    m = len(verts)
    arcs = [[act(labels[u][w]) if pres[u][w] else _no_arc for w in verts] for u in verts]
    kept = _GROW_PLANS.setdefault(m, {}) if m <= DICT_SWEEP_CAP else None
    table = [0] * m + [1] + [0] * (m - 1)  # vertex 0 alone: the empty path, the identity
    for v in range(1, m):
        _grow_anchored(table, 0, v, m, arcs, {} if kept is None else kept)
    return table


def _column(table: list, m: int, e: int):
    """The masks of ``_start_table``'s table over m vertices that hold the
    start and e >= 1, ascending, and their entries at e, as two iterators."""
    half = 1 << (e - 1)  # of the odd masks, the upper half of every 2 * half holds e
    holds = (bytes(half) + b"\1" * half) * (1 << (m - e - 1))
    return compress(range(1, 1 << m, 2), holds), compress(table[m + e::2 * m], holds)


@dataclass(eq=False)
class ReachTable:
    """Retained exact-vertex-set DP table: table[mask][e] is the set of
    values of simple paths with vertex set exactly ``mask`` ending at ``e``.
    Missing entries mean no such path exists.

    The table is kept as the kernel's layer views, one per popcount over
    the vertices of ``scope``; the ``table`` dict is built from them on
    first access."""

    base: Labelling
    scope: int
    layers: list[_LayerView] = field(repr=False)

    @cached_property
    def table(self) -> dict[int, dict[int, int]]:
        table: dict[int, dict[int, int]] = {}
        for layer in self.layers:
            for mask, entry in zip(layer, layer.values()):
                entry = {v: bits for v, bits in entry.items() if bits}
                if entry:
                    table[mask] = entry
        return table

    def aggregate(self, x: int) -> int:
        """Union over submasks containing x; equals reach_set(base, scope, x).

        Raises NotInScope for x outside 0..n-1; a vertex outside the scope gives 0."""
        if not is_json_int(x, self.base.n):
            raise NotInScope(f"vertex {x} outside 0..{self.base.n - 1}")
        if not (self.scope >> x) & 1:
            return 0
        acc = 0
        for layer in self.layers:
            acc |= int(np.bitwise_or.reduce(layer.array[:, layer.verts.index(x)]))
        return acc


@dataclass
class StartAnchoredTable:
    """Like ReachTable but paths are pinned to start at ``start``.

    Anchoring at the minimum vertex of each scope is what lets cycle
    detection count every cycle exactly once."""

    base: Labelling
    scope: int
    start: int
    table: dict[int, dict[int, int]]


def start_anchored_table(L: Labelling, X, start: int | None = None) -> StartAnchoredTable:
    """Exact-vertex-set value sets of simple paths starting at ``start``.

    ``start`` defaults to the smallest vertex of the scope.  Retention is
    capped like reach_table.
    """
    mask = _scope(L, X, TABLE_RETENTION_CAP, start)
    verts = subset_elements(mask)
    start = verts[0] if start is None else int(start)  # a numpy start passes _scope
    verts = [start] + [v for v in verts if v != start]
    flat = _start_table(L.group._byte_actions("right").__getitem__, L.rows(), L.present_rows(),
                        verts)
    m = len(verts)
    table = {}
    for local in range(1, 1 << m, 2):  # the masks that hold the start
        entry = {v: bits for v, bits in zip(verts, flat[local * m:(local + 1) * m]) if bits}
        if entry:
            table[sum(1 << v for i, v in enumerate(verts) if local >> i & 1)] = entry
    return StartAnchoredTable(L, mask, start, table)


def reach_table(L: Labelling, X) -> ReachTable:
    """Build the full exact-vertex-set table for the scope.

    Retention is capped at TABLE_RETENTION_CAP vertices; ``reach_set`` and
    ``reach_set_between`` stream their layers instead and go up to EXACT_CAP.
    """
    mask = _scope(L, X, TABLE_RETENTION_CAP)
    verts = subset_elements(mask)
    ones = np.ones(len(verts), dtype=np.uint64)
    return ReachTable(L, mask, [layer for _, layer in _dense_layers(L, verts, ones, inside=False)])


# -- path reconstruction -------------------------------------------------------

def find_path_with_value(L: Labelling, X, u: int, v: int, value: int) -> list[int]:
    """Some simple u-to-v path inside X whose label product equals ``value``.

    Walks back from v: the predecessor of the current endpoint e is the
    smallest p of the remaining vertices with an arc p -> e such that some
    u-to-p path inside them has value val * label(p, e)^-1.  Each step's
    vertex set is the last one's minus a vertex, so it is a row of the
    layer below the last step's: one kernel run (``_paths_in``) serves
    _WALK_KEPT steps, and a walk through m vertices takes about
    m / _WALK_KEPT runs, shrinking by _WALK_KEPT vertices each.  The last
    step, to u itself, takes none.  Raises ValueError when ``value`` is not
    a group element (an integer in 0..order-1, numpy integers included) or
    no such path exists.
    """
    mask = _scope(L, X, EXACT_CAP, u, v)
    if not is_json_int(value, L.group.order):
        raise ValueError(f"value {value!r} is not a group element 0..{L.group.order - 1}")
    if u == v and value != 0:
        raise ValueError(f"the only path from {u} to itself has the identity value")
    rows = L.rows()
    pres = L.present_rows()
    inv = L.group._inv
    mul_rows = L.group._rows
    u, e, val = int(u), int(v), int(value)  # numpy integers pass the checks above
    path = [e]
    top: dict[int, _LayerView] = {}
    while e != u:
        mask ^= 1 << e
        paths = _paths_in(L, top, mask ^ (1 << u), u)
        for p in subset_elements(mask):
            prev_val = mul_rows[val][inv[rows[p][e]]]
            if pres[p][e] and (paths[p] >> prev_val) & 1:
                break
        else:
            # every step after the first extends a value the step before found
            if e != v:  # pragma: no cover
                raise AssertionError("reconstruction lost a feasible prefix")
            raise ValueError(f"no path from {u} to {v} with value {value} inside the scope")
        path.append(p)
        e, val = p, prev_val
    path.reverse()
    return path


# -- cycle lists -----------------------------------------------------------------

@lru_cache(maxsize=32)  # a campaign round reads a few lists; at most ~2 MB each (n = 64, 3)
def _cycle_list(n: int, length: int) -> np.ndarray:
    """Every simple cycle of the given length of the complete digraph on n
    vertices, as a read-only (length, cycles) array of flat arc indices
    u*n + v, arc i of each cycle in row i.

    Cycles start at their minimum vertex, so each is listed once, and come
    in lexicographic order; they are grown from the cycles one shorter, read
    as paths, by a larger vertex not on the path.
    """
    vertices = np.arange(n)
    paths = vertices[:, None] if length == 2 else _cycle_list(n, length - 1).T // n
    grow = (vertices > paths[:, :1]) & (vertices != paths[:, :, None]).all(axis=1)
    row, vertex = np.nonzero(grow)
    paths = np.column_stack([paths[row], vertex])
    arcs = (paths * n + np.roll(paths, -1, axis=1)).T.copy()
    arcs.setflags(write=False)
    return arcs


def _cycle_arcs(n: int, max_len: int) -> Iterator[tuple[int, np.ndarray]]:
    """(length, ``_cycle_list(n, length)``) for length 2..max_len, each list
    built when the generator reaches it."""
    for length in range(2, min(max_len, n) + 1):
        yield length, _cycle_list(n, length)


def _cycle_values(table: np.ndarray, labels: np.ndarray, arcs: np.ndarray) -> np.ndarray:
    """Label product around each cycle of ``arcs`` (one ``_cycle_list``).

    ``labels`` is arc-major: entry u*n + v is the label of arc (u, v), for
    one labelling (1-D; one value per cycle) or one labelling per column
    (2-D; one row per cycle).  ``table`` is the group's Cayley table.
    """
    order = len(table)
    flat = table.ravel()
    value = labels[arcs[0]]
    for arc in arcs[1:]:
        value = flat.take(value * order + labels[arc])
    return value


# -- balanced-cycle search -------------------------------------------------------

def short_cycle_scan(L: Labelling) -> CycleWitness | None:
    """The first balanced 2- or 3-cycle of ``_cycle_arcs``; a miss is inconclusive.

    This is the heuristic mode: it works at any vertex count and is the
    fast path of the exact search.  The list order is (u, v) then
    (u, v, w), lexicographic with u the minimum.  Over a group of order q a
    random instance has about n(n-1)/(2q) balanced 2-cycles, so at harness
    scale a miss is vanishingly rare.
    """
    n = L.n
    labels = L.labels.ravel()
    for _, arcs in _cycle_arcs(n, 3):
        balanced = np.flatnonzero(_cycle_values(L.group.table, labels, arcs) == 0)
        if balanced.size:
            # absent arcs carry label 0, so a balanced value alone proves nothing
            present = L.present.ravel()[arcs[:, balanced]].all(axis=0)
            if present.any():
                return CycleWitness(tuple((arcs[:, balanced[present.argmax()]] // n).tolist()))
    return None


def _checked(L: Labelling, verts: tuple[int, ...]) -> CycleWitness:
    witness = CycleWitness(verts)
    if cycle_value(L, witness) != 0:
        raise AssertionError(f"internal: produced an unbalanced witness {verts}")
    return witness


def _close_cycle(L: Labelling, X, u: int, v: int) -> CycleWitness:
    """The balanced cycle that a u-to-v path inside X of value label(v, u)^-1
    (``find_path_with_value``) forms with the arc (v, u), checked on L."""
    target = L.group.inv(L.label(v, u))
    return _checked(L, tuple(find_path_with_value(L, X, u, v, target)))


def find_balanced_cycle(L: Labelling) -> CycleWitness | None:
    """Exact search: a validated balanced cycle iff one exists, else None.

    Strategy: short-cycle scan first, then a start-anchored sweep of the
    dense kernel per minimum vertex (``_dense_sweep``), streamed one
    popcount layer at a time, whose first hit ``_close_cycle`` rebuilds
    into the witness.  The sweep covers every start with a larger
    vertex, 2- and 3-cycles too.  After a scan miss the last two starts
    hold no cycle, so the witness is the same as with the scan's own;
    sweeping them keeps the DP independent of the lists.  Witnesses are
    re-evaluated before being returned; callers confirm a None with
    ``_recheck_cycle_free``.
    """
    n = L.n
    _scope(L, (1 << n) - 1, EXACT_CAP)
    hit = short_cycle_scan(L)
    if hit is not None:
        return _checked(L, hit.vertices)
    for s in range(n - 1):
        closing = _dense_sweep(L, s)
        if closing is not None:
            mask, e = closing
            return _close_cycle(L, mask, s, e)
    return None


def _anchored_cycles(L: Labelling, s: int, rows, pres) -> Iterator[tuple[int, ...]]:
    """Every balanced cycle with minimum vertex ``s``, as its vertices from ``s``.

    Cycles come by length, then vertex mask, then closing vertex, in
    ascending order.  They are read off ``_start_table`` over s..n-1
    (local vertex i for vertex s + i), and each is rebuilt from it, walking
    back from the closing vertex with the value the path still needs: the
    predecessors p of endpoint e in local mask M are the vertices of M - e
    with an arc p -> e whose entry ``table[(M - e) * m + p]`` holds
    val * label(p, e)^-1, tried smallest first (earliest branch first).  A
    start's first cycle has the smallest mask that closes, so every path
    inside that mask with the needed value runs through all of it, and the
    walk picks what ``find_path_with_value`` would.
    """
    inv, mul_rows = L.group._inv, L.group._rows
    m = L.n - s
    table = _start_table(L.group._byte_actions("right").__getitem__, rows, pres, range(s, L.n))
    hits = []
    for e in range(1, m):
        close = inv[rows[s + e][s]]
        if pres[s + e][s] and reduce(or_, table[e::m]) >> close & 1:  # one pass when none closes
            hits += [(mask.bit_count(), mask, e) for mask, bits in zip(*_column(table, m, e))
                     if bits >> close & 1]
    for _, hit, last in sorted(hits):
        stack = [(hit, last, inv[rows[s + last][s]], (s + last,))]
        while stack:
            mask, e, val, tail = stack.pop()
            if mask == 1:
                yield tail
                continue
            sub = mask ^ (1 << e)
            for p in reversed(range(m)):
                if sub >> p & 1 and pres[s + p][s + e]:
                    prev = mul_rows[val][inv[rows[s + p][s + e]]]
                    if table[sub * m + p] >> prev & 1:
                        stack.append((sub, p, prev, (s + p,) + tail))


def _dense_sweep(L: Labelling, s: int) -> tuple[int, int] | None:
    """First closable path from ``s`` over the larger vertices, or None.

    The result is (vertex mask, endpoint) of the first hit of
    ``_anchored_cycles``' order: a path from ``s`` whose value the arc back
    to ``s`` closes into a balanced cycle.  Row i of layer k holds the
    value sets of the paths from ``s`` through exactly the i-th smallest
    k-subset of s+1..n-1, one uint64 per endpoint column, zero where no
    path exists, so scanning hits in row-major order visits (mask,
    endpoint) ascending.
    """
    free = list(range(s + 1, L.n))
    close = _dense_arcs(L).close[s, s + 1:]
    for _, layer in _dense_layers(L, free, _arc_bits(L, s, free), inside=False):
        hits = (layer.array & close) != 0
        if hits.any():
            row, j = divmod(int(np.argmax(hits)), len(free))
            return layer.mask_at(row) | (1 << s), layer.verts[j]
    return None


def _recheck_cycle_free(group: FiniteGroup, labels: np.ndarray, present: np.ndarray) -> None:
    """Confirm cycle-free verdicts of the dense kernel or the cycle lists on
    the grown tables, which neither uses.

    ``labels`` is a stack of labellings over ``group`` that share the arc
    mask ``present``, as a (count, n, n) integer array; labels of absent
    arcs must still be group elements, though no path uses them.  Every
    start s builds ``_start_table`` over s..n-1 once for the whole stack,
    and a cycle closes when some entry (mask, e), with e in the mask,
    holds the inverse of label(e, s).  Raises AssertionError if any
    labelling of the stack has a balanced cycle.  Above DICT_SWEEP_CAP
    vertices nothing is re-checked.

    A stack of one runs on Python-int value sets and the group's byte-table
    rows (``FiniteGroup._byte_actions``).  A larger one keeps each value
    set as a uint64 array with one lane per labelling, and acts by gathers
    from ``FiniteGroup.right_mul_lut``, ORed over the bytes of the set: the
    same route and the same recurrence, one pass instead of one per
    labelling.
    """
    count, n = labels.shape[:2]
    if n > DICT_SWEEP_CAP:
        return
    pres = present.tolist()
    inv = group.inverse_table[labels]
    if count == 1:
        act, labels = group._byte_actions("right").__getitem__, labels[0].tolist()
        inv = inv[0].tolist()
    else:
        lut = group.right_mul_lut()
        chunks = lut.shape[1]
        shifts = np.arange(0, 8 * chunks, 8, dtype=np.uint64)
        # labels[u, w][i, c]: where chunk c of S*label(u, w) starts in the flat ``lut``, lane i
        labels = (labels.transpose(1, 2, 0)[..., None] * chunks + np.arange(chunks)) * 256
        inv = inv.transpose(1, 2, 0).astype(np.uint64)

        def lanes(offsets: np.ndarray, bits) -> np.ndarray:
            digits = (np.asarray(bits, dtype=np.uint64)[..., None] >> shifts) & np.uint64(0xFF)
            return np.bitwise_or.reduce(lut.take(offsets + digits.astype(np.intp)), axis=-1)

        act = partial(partial, lanes)  # act(labels[u][w]) acts by arc u -> w on every lane

    hit = 0
    for s in range(n - 1):
        table = _start_table(act, labels, pres, range(s, n))
        for e in range(1, n - s):
            if pres[s + e][s]:
                hit |= reduce(or_, _column(table, n - s, e)[1], 0) >> inv[s + e][s] & 1
    if np.any(hit):
        raise AssertionError("cycle-free verdict failed re-verification (grown tables)")


def enumerate_balanced_cycles(L: Labelling) -> list[CycleWitness]:
    """Every balanced cycle exactly once, canonical rotation, sorted.

    Each cycle is reported with its minimum vertex first (direction
    preserved: reversal is a different cycle), sorted by length then
    lexicographically.  Output size can be exponential, hence the caps on
    vertices and on cycles kept.
    """
    n = L.n
    _scope(L, (1 << n) - 1, DICT_SWEEP_CAP)
    rows = L.rows()
    pres = L.present_rows()
    out: list[CycleWitness] = []
    for s in range(n - 1):
        for cycle in _anchored_cycles(L, s, rows, pres):
            out.append(_checked(L, cycle))
            if len(out) > CYCLE_LIST_CAP:
                raise TooLarge(f"more than {CYCLE_LIST_CAP} balanced cycles (CYCLE_LIST_CAP)")
    out.sort(key=lambda w: (len(w.vertices), w.vertices))
    return out
