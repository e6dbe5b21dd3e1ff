"""Simple-path value sets and exact balanced-cycle detection.

Everything here is bitset subset dynamic programming.  A DP state is a
(vertex mask, endpoint) pair whose value is the set of group elements
attained by simple directed paths with that vertex set and endpoint,
stored as an int bitmask over group elements.  Two table flavours exist:

* ending-anchored, aggregated over sub-vertex-sets: entry (X, x) is the
  full reach set of values of paths inside X ending at x (including the
  length-0 path), built layer by layer so memory stays one popcount level;
* start-anchored with exact vertex set: paths start at a fixed vertex,
  which is how cycles are detected and counted exactly once (every cycle
  is closed from its minimum vertex).

The start-anchored tables grow by one push step, ``_extend_anchored``,
shared by ``reach_set_between``, ``start_anchored_table`` and the small
starts of the exact search.

Dense backend.  ``find_balanced_cycle`` sweeps one start at a time over
the m larger "free" vertices.  When m >= DENSE_MIN_FREE the layers are
numpy arrays instead of dicts: layer k is a (C(m, k), m) uint64 array, row
i for the i-th smallest k-subset of free vertices, column j for endpoint j,
zero where no path exists (group order <= 64, so one word is one value
set).  A layer is extended per target vertex by one gather of the source
rows, the right action S*label(p, j) through the group's byte lookup table
(``FiniteGroup.right_mul_lut``), and an OR over the source endpoints.  The
largest layer takes about C(m, m/2) * m * 8 bytes: 0.8 MB at m = 15, 14 MB
at m = 19, 250 MB at m = 23, the most EXACT_CAP allows; two layers are
alive at once.  Below the crossover numpy's fixed cost per layer loses to
the dict loop, and small exact searches are what the campaigns run by
the hundred; DENSE_MIN_FREE is where a full sweep first ran clearly
faster dense (cycle-free sweeps on one Xeon core: 0.7x at 6 free
vertices, 1.1-1.3x at 7, 1.5-2.2x at 8).  Both backends scan hits in
(mask, endpoint) ascending order, so they return the same witness.

Exact computations are capped at 24 vertices (EXACT_CAP; a caller's limit
can only lower it); full-table retention at 20; cycle enumeration at 12
(output can be exponential).  Beyond the exact cap only the short-cycle
scan is available and a miss is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator

import numpy as np

from .errors import NotInScope, TooLarge
from .groups import subset_elements
from .labellings import CycleWitness, Labelling, cycle_value

EXACT_CAP = 24
TABLE_RETENTION_CAP = 20
ENUMERATION_CAP = 12
DENSE_MIN_FREE = 8


def _as_mask(X) -> int:
    if isinstance(X, int):
        return X
    bits = 0
    for v in X:
        bits |= 1 << v
    return bits


def aggregated_reach_layers(L: Labelling, scope) -> Iterator[tuple[int, dict[int, dict[int, int]]]]:
    """Stream aggregated reach sets for every submask of ``scope``.

    Yields (size, layer) with layer = {mask: {endpoint: value_bits}} where
    value_bits is the set of values of simple paths inside ``mask`` ending
    at the endpoint (the length-0 path contributes the identity).  Masks
    within a layer appear in ascending numeric order.  Only one layer is
    alive at a time; the recurrence is

        R[mask][e] = {1} | union over p in mask-e of R[mask-e][p] * label(p, e).
    """
    scope = _as_mask(scope)
    verts = subset_elements(scope)
    rows = L.rows()
    pres = L.present_rows()
    smul = L.group.subset_mul_elem
    layer = {1 << v: {v: 1} for v in verts}
    yield 1, layer
    for size in range(2, len(verts) + 1):
        masks = sorted(sum(1 << v for v in combo) for combo in combinations(verts, size))
        nxt: dict[int, dict[int, int]] = {}
        for mask in masks:
            entry: dict[int, int] = {}
            for e in subset_elements(mask):
                sub_entry = layer[mask ^ (1 << e)]
                acc = 1
                for p, pbits in sub_entry.items():
                    if pres[p][e]:
                        acc |= smul(pbits, rows[p][e])
                entry[e] = acc
            nxt[mask] = entry
        layer = nxt
        yield size, layer


def reach_set(L: Labelling, X, x: int) -> int:
    """Values of simple paths inside X ending at x, as an element bitmask."""
    mask = _as_mask(X)
    if not (mask >> x) & 1:
        raise NotInScope(f"vertex {x} not in the scope")
    if mask.bit_count() > EXACT_CAP:
        raise TooLarge(f"scope larger than the exact cap of {EXACT_CAP}")
    layer = None
    for _, layer in aggregated_reach_layers(L, mask):
        pass
    return layer[mask][x]


def reach_set_between(L: Labelling, X, u: int, v: int) -> int:
    """Values of simple u-to-v paths inside X.

    For u == v only the length-0 path qualifies (simple paths cannot
    return), so the result is the singleton identity.
    """
    mask = _as_mask(X)
    for w in (u, v):
        if not (mask >> w) & 1:
            raise NotInScope(f"vertex {w} not in the scope")
    n_scope = mask.bit_count()
    if n_scope > EXACT_CAP:
        raise TooLarge(f"scope larger than the exact cap of {EXACT_CAP}")
    if u == v:
        return 1
    verts = subset_elements(mask)
    rows = L.rows()
    pres = L.present_rows()
    smul = L.group.subset_mul_elem
    result = 0
    layer = {1 << u: {u: 1}}
    for _ in range(1, n_scope):
        layer = _extend_anchored(layer, verts, rows, pres, smul)
        for entry in layer.values():
            if v in entry:
                result |= entry[v]
    return result


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


@dataclass
class ReachTable:
    """Retained exact-vertex-set DP table: table[mask][e] is the set of
    values of simple paths with vertex set exactly ``mask`` ending at ``e``.
    Missing entries mean no such path exists."""

    base: Labelling
    scope: int
    table: dict[int, dict[int, int]]

    def aggregate(self, x: int) -> int:
        """Union over submasks containing x; equals reach_set(base, scope, x)."""
        acc = 0
        bit = 1 << x
        for mask, entry in self.table.items():
            if mask & bit and x in entry:
                acc |= entry[x]
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
    rows = L.rows()
    pres = L.present_rows()
    smul = L.group.subset_mul_elem
    table: dict[int, dict[int, int]] = {1 << v: {v: 1} for v in verts}
    for size in range(2, k + 1):
        for combo in combinations(verts, size):
            m = sum(1 << v for v in combo)
            entry: dict[int, int] = {}
            for e in combo:
                sub = table.get(m ^ (1 << e))
                if not sub:
                    continue
                acc = 0
                for p, pbits in sub.items():
                    if pres[p][e]:
                        acc |= smul(pbits, rows[p][e])
                if acc:
                    entry[e] = acc
            if entry:
                table[m] = entry
    return ReachTable(L, mask, table)


# -- path reconstruction -------------------------------------------------------

def find_path_with_value(L: Labelling, X, u: int, v: int, value: int) -> list[int]:
    """Some simple u-to-v path inside X whose label product equals ``value``.

    Memoized top-down feasibility over (vertices-allowed mask, endpoint),
    so only the part of the DP reachable from the query is materialized.
    Raises ValueError when no such path exists.
    """
    mask = _as_mask(X)
    for w in (u, v):
        if not (mask >> w) & 1:
            raise NotInScope(f"vertex {w} not in the scope")
    rows = L.rows()
    pres = L.present_rows()
    G = L.group
    smul = G.subset_mul_elem
    inv = G._inv
    mul_rows = G._rows
    memo: dict[tuple[int, int], int] = {}

    def attainable(m: int, e: int) -> int:
        """Values of u-to-e paths with vertices inside m."""
        if e == u:
            return 1
        key = (m, e)
        got = memo.get(key)
        if got is None:
            got = 0
            sub = m ^ (1 << e)
            for p in subset_elements(sub):
                if pres[p][e]:
                    feas = attainable(sub, p)
                    if feas:
                        got |= smul(feas, rows[p][e])
            memo[key] = got
        return got

    try:
        if not (attainable(mask, v) >> value) & 1:
            raise ValueError(f"no path from {u} to {v} with value {value} inside the scope")
        path = [v]
        m, e, val = mask, v, value
        while e != u:
            sub = m ^ (1 << e)
            for p in subset_elements(sub):
                if pres[p][e]:
                    prev_val = mul_rows[val][inv[rows[p][e]]]
                    if (attainable(sub, p) >> prev_val) & 1:
                        path.append(p)
                        m, e, val = sub, p, prev_val
                        break
            else:  # pragma: no cover - contradicts attainable()
                raise AssertionError("reconstruction lost a feasible prefix")
    finally:
        # attainable refers to itself through its closure; without this the
        # cycle, and memo with it, would live until the cyclic GC runs
        del attainable
    path.reverse()
    return path


# -- balanced-cycle search -------------------------------------------------------

def short_cycle_scan(L: Labelling, max_len: int = 3) -> CycleWitness | None:
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
    if max_len >= 3:
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


def _dense_sweep(L: Labelling, s: int) -> tuple[int, int, int] | None:
    """``_python_sweep`` with each layer a dense (masks, endpoints) array.

    Masks are over the free vertices s+1..n-1 (local bit j is vertex
    s+1+j); row i of layer k holds the value sets of the paths from ``s``
    through exactly the i-th smallest k-subset, one uint64 per endpoint
    column, zero where no path exists.  Scanning hits in row-major order
    visits (mask, endpoint) in the same order as ``_python_sweep``.
    """
    G = L.group
    n = L.n
    m = n - 1 - s
    lut = G.right_mul_lut()
    chunks = lut.shape[1]
    free = slice(s + 1, n)
    lab = L.labels
    pres = L.present
    one = np.uint64(1)
    # offsets[j, p, c]: start of the byte table for chunk c of S*label(p, j),
    # or of the all-zero row when the arc p -> j is absent
    mult = np.where(pres[free, free], lab[free, free], G.order)
    offsets = (mult.T[:, :, None] * chunks + np.arange(chunks)) * 256
    inv = G.inverse_table
    close = np.where(pres[free, s],
                     np.left_shift(one, inv[lab[free, s]].astype(np.uint64)), np.uint64(0))
    first = np.where(pres[s, free],
                     np.left_shift(one, lab[s, free].astype(np.uint64)), np.uint64(0))
    layers, rank = _layer_masks(m)
    values = np.diag(first).astype("<u8")
    flat = lut.reshape(-1)
    for k in range(1, m + 1):
        if k > 1:
            values = _dense_extend(values, layers[k - 1], layers[k].size, rank,
                                   offsets, flat)
        hits = (values & close) != 0
        if hits.any():
            row, j = divmod(int(np.argmax(hits)), m)
            e = s + 1 + j
            return (int(layers[k][row]) << (s + 1)) | (1 << s), e, int(inv[lab[e, s]])
        if not values.any():
            return None
    return None


_DENSE_BLOCK = 1 << 15  # table lookups per block: keeps the temporaries in cache


def _dense_extend(values: np.ndarray, masks: np.ndarray, size: int, rank: np.ndarray,
                  offsets: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Next dense layer: out[rank[M | j], j] = OR_p values[M, p] * label(p, j)."""
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
            out[dst[lo:lo + step], j] = np.bitwise_or.reduce(
                flat.take(idx).reshape(idx.shape[0], -1), axis=1)
    return out


def enumerate_balanced_cycles(L: Labelling) -> list[CycleWitness]:
    """Every balanced cycle exactly once, canonical rotation, sorted.

    Each cycle is reported with its minimum vertex first (direction
    preserved: reversal is a different cycle), sorted by length then
    lexicographically.  Output size can be exponential, hence the cap.
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
    out.sort(key=lambda w: (len(w.vertices), w.vertices))
    return out


@lru_cache(maxsize=None)
def all_simple_cycles(n: int) -> tuple[tuple[int, ...], ...]:
    """Every directed simple cycle of the complete digraph on 0..n-1.

    Canonical rotation (minimum vertex first), ordered by length then
    lexicographically.  Counts grow factorially, so this is only for the
    tiny instances the exhaustive harness enumerates.
    """
    if n > 9:
        raise TooLarge("cycle lists are only kept for n <= 9")
    out = []
    for s in range(n):
        pool = list(range(s + 1, n))
        for extra in range(1, len(pool) + 1):
            for perm in permutations(pool, extra):
                out.append((s,) + perm)
    out.sort(key=lambda c: (len(c), c))
    return tuple(out)
