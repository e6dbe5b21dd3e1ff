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

One dense kernel.  Every flavour above runs on one generator,
``_dense_layers(L, verts, seed, inside)``.  Over the m vertices of
``verts`` (local mask bit i = vertex verts[i], in ascending order) layer k
is a (C(m, k), m) uint64 array: row r for the r-th smallest k-subset,
column j for endpoint verts[j], zero where no path exists (group order
<= 64, so one word is one value set).  Layer 1 is diag(seed).  A layer is
extended per target vertex by one gather of the source rows, the right
action S*label(p, j) through the group's byte lookup table
(``FiniteGroup.right_mul_lut``) and an OR over the source endpoints.  With
``inside`` set, seed[j] is ORed into every entry of column j, so an entry
holds the paths inside its mask rather than exactly through it.  The
callers:

* ``find_balanced_cycle``'s sweep from start s: verts = s+1..n-1, seed the
  arcs out of s, not inside; hits are scanned per layer in (mask,
  endpoint) ascending order, and the sweep stops at the first;
* ``aggregated_reach_layers`` (and through it ``reach_set`` and the key
  lemma): verts = the scope, seed 1 (the identity), inside; each layer is
  handed out as a read-only mapping view, and the key lemma scans its
  array;
* ``reach_table``: the same seed, not inside, every layer kept; the dict
  ``table`` is built only on first access;
* ``_paths_from(L, X, u)``: verts = X minus u, seed the arcs out of u,
  inside; the last layer's single row holds the values of the u-to-w paths
  inside X for every w at once.  ``reach_set_between`` reads one entry of
  it, and ``find_path_with_value`` walks back from v, rerunning it over
  the vertices still unused at each step to pick the smallest feasible
  predecessor.  Each rerun has one vertex fewer, so a walk costs about one
  run over X and keeps two layers alive.  Keeping every layer of one run
  instead would make the walk a lookup but hold 2^m * m * 8 bytes, the
  memory that ``reach_table`` caps at 20 vertices, at any scope up to 24.

Memory, with two layers alive while one is extended: the largest
aggregated layer takes about C(m, m/2) * m * 8 bytes, 30 MB at m = 20 and
520 MB at the cap of 24; the sweep's, over at most 23 free vertices,
250 MB.  A retained table takes about 2^m * m * 8 bytes, 168 MB at its cap
of 20.

The sweep still runs starts with fewer than DENSE_MIN_FREE free vertices
through the dict push step ``_extend_anchored``: numpy's fixed cost per
layer loses to it there, and small exact searches are what the campaigns
run by the hundred.  DENSE_MIN_FREE is where a full sweep first ran
clearly faster dense (cycle-free sweeps on one Xeon core: 0.7x at 6 free
vertices, 1.1-1.3x at 7, 1.5-2.2x at 8); both routes return the same
witness.  Reconstruction has no such split: it runs once per found cycle,
not once per start.  ``_extend_anchored`` also builds
``start_anchored_table`` and the path rows of ``harness.compute_n``, so
``enumerate_balanced_cycles``, which reads that table, and any check of
``reach_set_between`` against it stay a route independent of the kernel.

Exact computations are capped at 24 vertices (EXACT_CAP; a caller's limit
can only lower it); full-table retention at 20; cycle enumeration at 12
vertices and, since its output can be exponential, at CYCLE_LIST_CAP
cycles.  Beyond the exact cap only the short-cycle scan is available and
a miss is inconclusive.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import NotInScope, TooLarge
from .groups import subset_elements
from .labellings import CycleWitness, Labelling, cycle_value

EXACT_CAP = 24
TABLE_RETENTION_CAP = 20
ENUMERATION_CAP = 12
CYCLE_LIST_CAP = 500_000  # about 250 B per kept cycle: some 125 MB
DENSE_MIN_FREE = 8


def _as_mask(X) -> int:
    if isinstance(X, int):
        return X
    bits = 0
    for v in X:
        bits |= 1 << v
    return bits


# -- the dense layer kernel ----------------------------------------------------

def _layer_masks(m: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Every m-bit mask grouped by popcount (ascending within a group),
    and each mask's index inside its group."""
    masks = np.arange(1 << m, dtype=np.int32)
    count = np.zeros(1 << m, dtype=np.int8)
    for b in range(m):
        count += ((masks >> b) & 1).astype(np.int8)
    order = np.argsort(count, kind="stable").astype(np.int32)
    bounds = np.searchsorted(count[order], np.arange(m + 2))
    layers = [order[bounds[k]:bounds[k + 1]] for k in range(m + 1)]
    rank = np.empty(1 << m, dtype=np.int32)
    for layer in layers:
        rank[layer] = np.arange(layer.size, dtype=np.int32)
    return layers, rank


def _global_masks(verts: list[int], masks: np.ndarray) -> list[int]:
    """Local masks (bit i = vertex verts[i]) as vertex masks, in the same order."""
    out = np.zeros(masks.size, dtype=np.uint64)
    for i, v in enumerate(verts):
        out |= ((masks >> i) & 1).astype(np.uint64) << np.uint64(v)
    return out.tolist()


def _arc_bits(L: Labelling, u: int, verts: list[int]) -> np.ndarray:
    """Per vertex w of ``verts``, the singleton {label(u, w)}, or 0 when the arc is absent."""
    return np.where(L.present[u, verts],
                    np.left_shift(np.uint64(1), L.labels[u, verts].astype(np.uint64)),
                    np.uint64(0))


def _dense_layers(L: Labelling, verts: list[int], seed: np.ndarray,
                  inside: bool) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The subset-DP recurrence over ``verts``, one dense popcount layer at a time.

    Yields (k, masks, values) for k = 1, 2, ...: ``masks`` holds every
    k-subset of ``verts`` as a local mask (bit i = vertex verts[i]) in
    ascending order, and ``values[r, j]`` is the element bitmask of the
    paths through exactly masks[r] ending at verts[j], zero when there is
    none (always for j outside the mask).  Layer 1 is diag(seed); then

        values[M | j, j] = OR over p in M of values[M, p] * label(verts[p], verts[j]),

    ORed with seed[j] when ``inside`` is set, so that an entry counts the
    paths inside its mask instead of exactly through it (the layer-1 path
    to j, worth seed[j], fits inside every mask that holds j).  Without
    ``inside`` an all-zero layer ends the stream: nothing extends it.
    """
    m = len(verts)
    if m == 0:
        return
    G = L.group
    lut = G.right_mul_lut()
    chunks = lut.shape[1]
    sub = np.ix_(verts, verts)
    # offsets[j, p, c]: start of the byte table for chunk c of S*label(p, j),
    # or of the all-zero row when the arc p -> j is absent
    mult = np.where(L.present[sub], L.labels[sub], G.order)
    offsets = (mult.T[:, :, None] * chunks + np.arange(chunks)) * 256
    flat = lut.reshape(-1)
    layers, rank = _layer_masks(m)
    values = np.diag(seed).astype("<u8")
    yield 1, layers[1], values
    for k in range(2, m + 1):
        if not inside and not values.any():
            return
        values = _dense_extend(values, layers[k - 1], layers[k].size, rank, offsets, flat,
                               seed if inside else None)
        yield k, layers[k], values


_DENSE_BLOCK = 1 << 15  # table lookups per block: keeps the temporaries in cache


def _dense_extend(values: np.ndarray, masks: np.ndarray, size: int, rank: np.ndarray,
                  offsets: np.ndarray, flat: np.ndarray, seed: np.ndarray | None) -> np.ndarray:
    """Next dense layer: out[rank[M | j], j] = OR_p values[M, p] * label(p, j),
    with seed[j] ORed in unless ``seed`` is None."""
    rows, m = values.shape
    chunks = offsets.shape[2]
    digits = np.ascontiguousarray(values.view(np.uint8).reshape(rows, m, 8)[:, :, :chunks])
    out = np.zeros((size, m), dtype="<u8")
    step = max(1, _DENSE_BLOCK // (m * chunks))
    for j in range(m):
        bit = 1 << j
        src = np.flatnonzero((masks & bit) == 0)
        dst = rank[masks[src] | bit]
        for lo in range(0, src.size, step):
            idx = digits[src[lo:lo + step]].astype(np.intp)
            idx += offsets[j]
            acc = np.bitwise_or.reduce(flat.take(idx).reshape(idx.shape[0], -1), axis=1)
            if seed is not None:
                acc |= seed[j]
            out[dst[lo:lo + step], j] = acc
    return out


# -- reach sets and tables -------------------------------------------------------

class _LayerView(Mapping):
    """One aggregated layer as a read-only {mask: {endpoint: value bits}}.

    Keys are vertex masks in ascending order, and each entry holds every
    endpoint of its mask.  ``array`` (rows in key order, one column per
    vertex of ``verts``, zero outside the row's mask) and ``mask_at`` serve
    callers that scan a whole layer at once.
    """

    __slots__ = ("verts", "masks", "array")

    def __init__(self, verts: list[int], masks: np.ndarray, array: np.ndarray):
        self.verts = verts
        self.masks = masks
        self.array = array

    def mask_at(self, row: int) -> int:
        return _global_masks(self.verts, self.masks[row:row + 1])[0]

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
        return iter(_global_masks(self.verts, self.masks))

    def __len__(self) -> int:
        return self.masks.size

    def values(self) -> Iterator[dict[int, int]]:
        """Entries in key order, one pass, without a lookup per key."""
        for local, row in zip(self.masks.tolist(), self.array.tolist()):
            yield self._entry(local, row)


def aggregated_reach_layers(L: Labelling, scope) -> Iterator[tuple[int, Mapping[int, dict[int, int]]]]:
    """Stream aggregated reach sets for every submask of ``scope``.

    Yields (size, layer) with layer = {mask: {endpoint: value_bits}} where
    value_bits is the set of values of simple paths inside ``mask`` ending
    at the endpoint (the length-0 path contributes the identity).  Masks
    within a layer appear in ascending numeric order.  Only one layer is
    alive at a time; the recurrence is

        R[mask][e] = {1} | union over p in mask-e of R[mask-e][p] * label(p, e).
    """
    verts = subset_elements(_as_mask(scope))
    ones = np.ones(len(verts), dtype=np.uint64)
    for size, masks, values in _dense_layers(L, verts, ones, inside=True):
        yield size, _LayerView(verts, masks, values)


def _check_scope(mask: int, *vertices: int) -> None:
    for w in vertices:
        if not (mask >> w) & 1:
            raise NotInScope(f"vertex {w} not in the scope")
    if mask.bit_count() > EXACT_CAP:
        raise TooLarge(f"scope larger than the exact cap of {EXACT_CAP}")


def reach_set(L: Labelling, X, x: int) -> int:
    """Values of simple paths inside X ending at x, as an element bitmask."""
    mask = _as_mask(X)
    _check_scope(mask, x)
    layer = None
    for _, layer in aggregated_reach_layers(L, mask):
        pass
    return layer[mask][x]


def _paths_from(L: Labelling, mask: int, u: int) -> dict[int, int]:
    """{w: values of the simple u-to-w paths inside ``mask``} for every w of
    the mask, u included (only the length-0 path: the identity)."""
    others = subset_elements(mask ^ (1 << u))
    last = np.zeros((1, len(others)), dtype=np.uint64)
    for _, _, last in _dense_layers(L, others, _arc_bits(L, u, others), inside=True):
        pass
    paths = dict(zip(others, last[0].tolist()))
    paths[u] = 1
    return paths


def reach_set_between(L: Labelling, X, u: int, v: int) -> int:
    """Values of simple u-to-v paths inside X.

    For u == v only the length-0 path qualifies (simple paths cannot
    return), so the result is the singleton identity.
    """
    mask = _as_mask(X)
    _check_scope(mask, u, v)
    return _paths_from(L, mask, u)[v]


def _extend_anchored(layer: dict[int, dict[int, int]], verts: list[int], rows, pres,
                     smul) -> dict[int, dict[int, int]]:
    """One push step of a start-anchored exact-vertex-set DP.

    ``layer`` maps each vertex mask of one popcount to {endpoint: value
    bits} for paths from the fixed start; the result is the next popcount
    level, every path extended by one arc to a vertex of ``verts`` outside
    its mask.  Masks with no path are absent.
    """
    nxt: dict[int, dict[int, int]] = {}
    for m, entry in layer.items():
        for e, bits in entry.items():
            row_e = rows[e]
            pres_e = pres[e]
            for w in verts:
                if not (m >> w) & 1 and pres_e[w]:
                    value = smul(bits, row_e[w])
                    nentry = nxt.setdefault(m | (1 << w), {})
                    nentry[w] = nentry.get(w, 0) | value
    return nxt


@dataclass(eq=False)
class ReachTable:
    """Retained exact-vertex-set DP table: table[mask][e] is the set of
    values of simple paths with vertex set exactly ``mask`` ending at ``e``.
    Missing entries mean no such path exists.

    The table is kept as its dense layers, (local masks, values) per
    popcount over the vertices of ``scope``; the ``table`` dict is built
    from them on first access."""

    base: Labelling
    scope: int
    layers: list[tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @cached_property
    def table(self) -> dict[int, dict[int, int]]:
        verts = subset_elements(self.scope)
        table: dict[int, dict[int, int]] = {}
        for masks, values in self.layers:
            for mask, row in zip(_global_masks(verts, masks), values.tolist()):
                entry = {v: bits for v, bits in zip(verts, row) if bits}
                if entry:
                    table[mask] = entry
        return table

    def aggregate(self, x: int) -> int:
        """Union over submasks containing x; equals reach_set(base, scope, x)."""
        if not (self.scope >> x) & 1:
            return 0
        j = subset_elements(self.scope).index(x)
        acc = 0
        for _, values in self.layers:
            acc |= int(np.bitwise_or.reduce(values[:, j]))
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
    mask = _as_mask(X)
    k = mask.bit_count()
    if k > TABLE_RETENTION_CAP:
        raise TooLarge(f"full-table retention capped at {TABLE_RETENTION_CAP} vertices")
    verts = subset_elements(mask)
    if start is None:
        start = verts[0]
    if not (mask >> start) & 1:
        raise NotInScope(f"vertex {start} not in the scope")
    rows = L.rows()
    pres = L.present_rows()
    smul = L.group.subset_mul_elem
    layer = {1 << start: {start: 1}}
    table = dict(layer)
    for _ in range(k - 1):
        layer = _extend_anchored(layer, verts, rows, pres, smul)
        table.update(layer)
    return StartAnchoredTable(L, mask, start, table)


def reach_table(L: Labelling, X) -> ReachTable:
    """Build the full exact-vertex-set table for the scope.

    Retention is capped at 20 vertices (the aggregated per-layer routines
    above stream instead and go up to 24).
    """
    mask = _as_mask(X)
    k = mask.bit_count()
    if k > TABLE_RETENTION_CAP:
        raise TooLarge(
            f"full-table retention capped at {TABLE_RETENTION_CAP} vertices; "
            "use reach_set / reach_set_between for streamed aggregation")
    verts = subset_elements(mask)
    ones = np.ones(k, dtype=np.uint64)
    layers = [(masks, values)
              for _, masks, values in _dense_layers(L, verts, ones, inside=False)]
    return ReachTable(L, mask, layers)


# -- path reconstruction -------------------------------------------------------

def find_path_with_value(L: Labelling, X, u: int, v: int, value: int) -> list[int]:
    """Some simple u-to-v path inside X whose label product equals ``value``.

    Walks back from v: the predecessor of the current endpoint e is the
    smallest p of the remaining vertices with an arc p -> e such that some
    u-to-p path inside them has value val * label(p, e)^-1, read from one
    ``_paths_from`` run per step.  The runs shrink by a vertex each, so the
    walk costs about one kernel run over X.  Raises ValueError when no such
    path exists.
    """
    mask = _as_mask(X)
    _check_scope(mask, u, v)
    if u == v and value != 0:
        raise ValueError(f"the only path from {u} to itself has the identity value")
    rows = L.rows()
    pres = L.present_rows()
    inv = L.group._inv
    mul_rows = L.group._rows
    path = [v]
    e, val = v, value
    while e != u:
        mask ^= 1 << e
        paths = _paths_from(L, mask, u)
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


# -- balanced-cycle search -------------------------------------------------------

def short_cycle_scan(L: Labelling) -> CycleWitness | None:
    """O(n^3) scan of 2- and 3-cycles; a miss is inconclusive.

    This is the heuristic mode: it works at any vertex count and is the
    fast path of the exact search.  Over a group of order q a random
    instance has about n(n-1)/(2q) balanced 2-cycles, so at harness scale
    a miss is vanishingly rare.
    """
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows
    n = L.n
    for u in range(n):
        row_u, pres_u = rows[u], pres[u]
        for v in range(u + 1, n):
            if pres_u[v] and pres[v][u] and mul[row_u[v]][rows[v][u]] == 0:
                return CycleWitness((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if not pres[u][v]:
                continue
            uv = rows[u][v]
            pres_v, rows_v = pres[v], rows[v]
            for w in range(u + 1, n):
                if w != v and pres_v[w] and pres[w][u] \
                        and mul[mul[uv][rows_v[w]]][rows[w][u]] == 0:
                    return CycleWitness((u, v, w))
    return None


def _checked(L: Labelling, verts: tuple[int, ...]) -> CycleWitness:
    witness = CycleWitness(verts)
    if cycle_value(L, witness) != 0:
        raise AssertionError(f"internal: produced an unbalanced witness {verts}")
    return witness


def find_balanced_cycle(L: Labelling, max_vertices: int = EXACT_CAP) -> CycleWitness | None:
    """Exact search: a validated balanced cycle iff one exists, else None.

    Strategy: short-cycle scan first, then a start-anchored subset-DP sweep
    per minimum vertex, streamed one popcount layer at a time (dense numpy
    layers for starts with at least DENSE_MIN_FREE larger vertices, int
    bitmask dicts below).  Witnesses are re-evaluated before being
    returned.  ``max_vertices`` can only lower EXACT_CAP.
    """
    n = L.n
    cap = min(max_vertices, EXACT_CAP)
    if n > cap:
        raise TooLarge(f"exact search capped at {cap} vertices; "
                       "use short_cycle_scan for a heuristic verdict")
    hit = short_cycle_scan(L)
    if hit is not None:
        return _checked(L, hit.vertices)
    rows = L.rows()
    pres = L.present_rows()
    for s in range(n):
        if n - 1 - s >= DENSE_MIN_FREE:
            closing = _dense_sweep(L, s)
        else:
            closing = _python_sweep(L, s, rows, pres)
        if closing is not None:
            m, e, target = closing
            return _checked(L, tuple(find_path_with_value(L, m, s, e, target)))
    return None


def _python_sweep(L: Labelling, s: int, rows, pres) -> tuple[int, int, int] | None:
    """First closable path from ``s`` over the larger vertices, or None.

    Layers grow by one vertex; within a layer masks, then endpoints, are
    tried in ascending order.  The result is (vertex mask, endpoint, value
    the path needs to close into a balanced cycle).
    """
    inv = L.group._inv
    smul = L.group.subset_mul_elem
    others = list(range(s + 1, L.n))
    layer = {1 << s: {s: 1}}
    for _ in others:
        layer = _extend_anchored(layer, others, rows, pres, smul)
        for m in sorted(layer):
            entry = layer[m]
            for e in sorted(entry):
                if pres[e][s]:
                    target = inv[rows[e][s]]
                    if (entry[e] >> target) & 1:
                        return m, e, target
    return None


def _dense_sweep(L: Labelling, s: int) -> tuple[int, int, int] | None:
    """``_python_sweep`` with each layer a dense (masks, endpoints) array.

    Masks are over the free vertices s+1..n-1 (local bit j is vertex
    s+1+j); row i of layer k holds the value sets of the paths from ``s``
    through exactly the i-th smallest k-subset, one uint64 per endpoint
    column, zero where no path exists.  Scanning hits in row-major order
    visits (mask, endpoint) in the same order as ``_python_sweep``.
    """
    free = list(range(s + 1, L.n))
    lab = L.labels
    inv = L.group.inverse_table
    close = np.where(L.present[free, s],
                     np.left_shift(np.uint64(1), inv[lab[free, s]].astype(np.uint64)),
                     np.uint64(0))
    for _, masks, values in _dense_layers(L, free, _arc_bits(L, s, free), inside=False):
        hits = (values & close) != 0
        if hits.any():
            row, j = divmod(int(np.argmax(hits)), len(free))
            e = s + 1 + j
            return (int(masks[row]) << (s + 1)) | (1 << s), e, int(inv[lab[e, s]])
    return None


def enumerate_balanced_cycles(L: Labelling) -> list[CycleWitness]:
    """Every balanced cycle exactly once, canonical rotation, sorted.

    Each cycle is reported with its minimum vertex first (direction
    preserved: reversal is a different cycle), sorted by length then
    lexicographically.  Output size can be exponential, hence the caps on
    vertices and on cycles kept.
    """
    n = L.n
    if n > ENUMERATION_CAP:
        raise TooLarge(f"enumeration capped at {ENUMERATION_CAP} vertices")
    rows = L.rows()
    pres = L.present_rows()
    G = L.group
    inv = G._inv
    mul_rows = G._rows
    out: list[CycleWitness] = []

    def expand(table, s, m, e, value):
        """All exact-vertex-set paths s->e realizing value, earliest branch first."""
        if m == 1 << s:
            yield [s]
            return
        sub = m ^ (1 << e)
        sub_entry = table.get(sub, {})
        for p in subset_elements(sub):
            if pres[p][e]:
                prev_val = mul_rows[value][inv[rows[p][e]]]
                if (sub_entry.get(p, 0) >> prev_val) & 1:
                    for prefix in expand(table, s, sub, p, prev_val):
                        prefix.append(e)
                        yield prefix

    for s in range(n):
        table = start_anchored_table(L, range(s, n), start=s).table
        for m in sorted(table):
            for e in sorted(table[m]):
                if e != s and pres[e][s]:
                    target = inv[rows[e][s]]
                    if (table[m][e] >> target) & 1:
                        for path in expand(table, s, m, e, target):
                            out.append(_checked(L, tuple(path)))
                            if len(out) > CYCLE_LIST_CAP:
                                raise TooLarge(f"more than {CYCLE_LIST_CAP} balanced cycles "
                                               "(CYCLE_LIST_CAP)")
    out.sort(key=lambda w: (len(w.vertices), w.vertices))
    return out
