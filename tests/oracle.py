"""Independent brute-force oracles for reach sets and balanced cycles.

Factorial-time enumeration of simple paths and cycles, kept deliberately
separate from the subset-DP implementations in the package: the only
shared machinery is the Labelling accessors and the group product.  The
campaign references near the end are the exception: they pin the campaign
loops, so they call the package's scalar generator, short-cycle scan,
exact search and counterexample re-check, as those loops did.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations

from balanced_cycles import (CycleWitness, Labelling, VerdictReport, build_group,
                             find_balanced_cycle, random_labelling,
                             short_cycle_scan)
from balanced_cycles.harness import _free_arcs
from balanced_cycles.reach import EXACT_CAP, _recheck_cycle_free
from balanced_cycles.rng import trial_seeds


def iter_simple_paths(L: Labelling, scope: list[int]):
    """Yield (vertex_tuple, value) for every simple directed path inside scope."""
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows
    scope_set = set(scope)

    def extend(path, value):
        yield tuple(path), value
        last = path[-1]
        for w in scope_set:
            if w not in path and pres[last][w]:
                path.append(w)
                yield from extend(path, mul[value][rows[last][w]])
                path.pop()

    for start in scope:
        yield from extend([start], 0)


def brute_reach_set(L: Labelling, scope: list[int], x: int) -> set[int]:
    return {value for path, value in iter_simple_paths(L, scope) if path[-1] == x}


def brute_reach_between(L: Labelling, scope: list[int], u: int, v: int) -> set[int]:
    return {value for path, value in iter_simple_paths(L, scope)
            if path[0] == u and path[-1] == v}


def brute_balanced_cycles(L: Labelling) -> list[tuple[int, ...]]:
    """All balanced cycles, canonical rotation (minimum vertex first), sorted."""
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows
    out = []

    def extend(path, value):
        last = path[-1]
        if len(path) >= 2 and pres[last][path[0]] and mul[value][rows[last][path[0]]] == 0:
            out.append(tuple(path))
        for w in range(path[0] + 1, L.n):
            if w not in path and pres[last][w]:
                path.append(w)
                extend(path, mul[value][rows[last][w]])
                path.pop()

    for start in range(L.n):
        extend([start], 0)
    out.sort(key=lambda c: (len(c), c))
    return out


def brute_has_balanced_cycle(L: Labelling) -> bool:
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows

    def extend(path, value):
        last = path[-1]
        if len(path) >= 2 and pres[last][path[0]] and mul[value][rows[last][path[0]]] == 0:
            return True
        for w in range(path[0] + 1, L.n):
            if w not in path and pres[last][w]:
                path.append(w)
                if extend(path, mul[value][rows[last][w]]):
                    return True
                path.pop()
        return False

    return any(extend([start], 0) for start in range(L.n))


# -- reference exact search ------------------------------------------------------
#
# The dict-of-bitmask sweep and top-down path reconstruction that
# find_balanced_cycle used before it gained dense layers, kept verbatim in
# shape so its witnesses pin the package's: same layers, same (mask,
# endpoint) scan order, same earliest-predecessor reconstruction.  Subsets
# are acted on element by element through the Cayley table.

def _right_act(mul, bits: int, g: int) -> int:
    out = 0
    x = 0
    while bits:
        if bits & 1:
            out |= 1 << mul[x][g]
        bits >>= 1
        x += 1
    return out


def _members(bits: int) -> list[int]:
    return [x for x in range(bits.bit_length()) if (bits >> x) & 1]


def reference_path_with_value(L: Labelling, mask: int, u: int, v: int, value: int) -> list[int]:
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows
    inv = L.group._inv
    memo: dict[tuple[int, int], int] = {}

    def attainable(m: int, e: int) -> int:
        if e == u:
            return 1
        if (m, e) not in memo:
            got = 0
            sub = m ^ (1 << e)
            for p in _members(sub):
                if pres[p][e]:
                    feas = attainable(sub, p)
                    if feas:
                        got |= _right_act(mul, feas, rows[p][e])
            memo[m, e] = got
        return memo[m, e]

    assert (attainable(mask, v) >> value) & 1
    path = [v]
    m, e, val = mask, v, value
    while e != u:
        sub = m ^ (1 << e)
        for p in _members(sub):
            if pres[p][e]:
                prev_val = mul[val][inv[rows[p][e]]]
                if (attainable(sub, p) >> prev_val) & 1:
                    path.append(p)
                    m, e, val = sub, p, prev_val
                    break
    path.reverse()
    return path


def reference_short_cycle_scan(L: Labelling) -> CycleWitness | None:
    """The hand loops short_cycle_scan ran before it read the cycle lists."""
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


def reference_find_balanced_cycle(L: Labelling) -> tuple[int, ...] | None:
    """The witness find_balanced_cycle must return, or None when cycle-free."""
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows
    inv = L.group._inv
    n = L.n
    hit = reference_short_cycle_scan(L)
    if hit is not None:
        return hit.vertices
    for s in range(n):
        others = list(range(s + 1, n))
        layer = {1 << s: {s: 1}}
        for _ in others:
            nxt: dict[int, dict[int, int]] = {}
            for m, entry in layer.items():
                for e, bits in entry.items():
                    for w in others:
                        if not (m >> w) & 1 and pres[e][w]:
                            nentry = nxt.setdefault(m | (1 << w), {})
                            nentry[w] = nentry.get(w, 0) | _right_act(mul, bits, rows[e][w])
            for m in sorted(nxt):
                for e in sorted(nxt[m]):
                    if pres[e][s]:
                        target = inv[rows[e][s]]
                        if (nxt[m][e] >> target) & 1:
                            return tuple(reference_path_with_value(L, m, s, e, target))
            layer = nxt
    return None


# -- reference reach tables ------------------------------------------------------
#
# The dict-of-bitmask pull loops that aggregated_reach_layers and
# reach_table ran before the dense kernel, with the group acted on through
# the Cayley table.  Layers and tables are plain dicts with masks in
# ascending order.

def _combination_masks(verts: list[int], size: int) -> list[int]:
    return sorted(sum(1 << v for v in combo) for combo in combinations(verts, size))


def reference_aggregated_reach_layers(L: Labelling, scope: int):
    """Yield (size, {mask: {endpoint: reach set}}) over the submasks of scope."""
    verts = _members(scope)
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows
    layer = {1 << v: {v: 1} for v in verts}
    yield 1, layer
    for size in range(2, len(verts) + 1):
        nxt = {}
        for mask in _combination_masks(verts, size):
            entry = {}
            for e in _members(mask):
                acc = 1
                for p, pbits in layer[mask ^ (1 << e)].items():
                    if pres[p][e]:
                        acc |= _right_act(mul, pbits, rows[p][e])
                entry[e] = acc
            nxt[mask] = entry
        layer = nxt
        yield size, layer


def reference_reach_table(L: Labelling, scope: int) -> dict[int, dict[int, int]]:
    """Exact-vertex-set table {mask: {endpoint: values}}; empty entries are absent."""
    verts = _members(scope)
    rows = L.rows()
    pres = L.present_rows()
    mul = L.group._rows
    table = {1 << v: {v: 1} for v in verts}
    for size in range(2, len(verts) + 1):
        for mask in _combination_masks(verts, size):
            entry = {}
            for e in _members(mask):
                acc = 0
                for p, pbits in table.get(mask ^ (1 << e), {}).items():
                    if pres[p][e]:
                        acc |= _right_act(mul, pbits, rows[p][e])
                if acc:
                    entry[e] = acc
            if entry:
                table[mask] = entry
    return table


# -- reference exhaustive campaign ----------------------------------------------
#
# The per-labelling odometer that harness._enumerate_chunk ran before the
# cycle-length sieve: one labelling at a time, cycles tried in list order
# (by length, then lexicographically) until the first balanced one.

def all_simple_cycles(n: int) -> list[tuple[int, ...]]:
    """Every directed simple cycle of K_n, minimum vertex first, by length then
    lexicographically."""
    out = []
    for s in range(n):
        pool = list(range(s + 1, n))
        for extra in range(1, len(pool) + 1):
            for perm in permutations(pool, extra):
                out.append((s,) + perm)
    out.sort(key=lambda c: (len(c), c))
    return out


def reference_enumerate_chunk(spec: dict, n: int, normalized: bool, lo: int,
                              hi: int) -> tuple[int, list[list[list[int]]], dict[int, int]]:
    group = build_group(spec)
    order = group.order
    mul = group._rows
    free = _free_arcs(n, normalized)
    cycles = [list(zip(cyc, cyc[1:] + (cyc[0],))) for cyc in all_simple_cycles(n)]
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


# -- reference randomized campaign ------------------------------------------------
#
# verify_random before it ran in blocks: one scalar random_labelling and one
# short_cycle_scan per trial.

def reference_verify_random(group, n: int, trials: int, seed: int,
                            max_dp_vertices: int = EXACT_CAP) -> VerdictReport:
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
        if n <= min(max_dp_vertices, EXACT_CAP):
            witness = find_balanced_cycle(L)
            if witness is not None:
                methods["dp"] += 1
                lengths[len(witness.vertices)] += 1
            else:
                _recheck_cycle_free(group, L.labels[None], L.present)
                report.counterexamples.append(L)
        else:
            report.unresolved += 1
    report.witness_lengths = dict(sorted(lengths.items()))
    report.witness_methods = dict(sorted(methods.items()))
    return report


# -- reference n(G) search --------------------------------------------------------
#
# The arc-by-arc backtracker compute_n ran before the vertex-extension
# search, without its node budget: arcs out of vertex 0 pinned to the
# identity, the others assigned vertex by vertex, and a partial assignment
# pruned when a depth-first walk over the assigned arcs closes a balanced
# cycle through the arc just placed.

def reference_cycle_free_labelling(group, n: int) -> Labelling | None:
    """A balanced-cycle-free labelling on n vertices, normalized at vertex 0, or None."""
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
            labels[u][v] = g
            assigned[u][v] = True
            if not closes_balanced(u, v, g) and place(i + 1):
                return True
            assigned[u][v] = False
        labels[u][v] = 0
        return False

    return Labelling(group, labels) if place(0) else None
