"""compute_n's vertex-extension search against the arc-by-arc backtracker.

``reference_cycle_free_labelling`` in oracle.py is the search compute_n ran
before.  Both decide whether a balanced-cycle-free labelling on n vertices
exists, so their verdicts must agree: for every catalog group of order at
most 4 (plus the trivial group and Z2xZ2) up to n = |G| + 1, where the
answer turns to "no", and for Z5, S3 and Z6 up to n = 5.  Z9 and F21 have
more than 8 elements, so their subsets span several byte chunks.  Every
witness must keep the arcs out of vertex 0 at the identity and be
cycle-free, by brute force and by enumerate_balanced_cycles.

The search's own parts are checked on their own: its path tables, grown a
vertex at a time, against rows and entries read off every simple path
(oracle.py's ``iter_simple_paths``, which shares no code with the growth),
and its packed zero-lane test against ``all`` over the lanes.
"""

import random

import pytest

from balanced_cycles import (Labelling, catalog, compute_n, cyclic_group,
                             enumerate_balanced_cycles, product_group, subset_of)
from balanced_cycles.harness import (DEFAULT_NODE_BUDGET, _cycle_free_labelling, _empty_lane,
                                     _grow_paths)
from oracle import brute_has_balanced_cycle, iter_simple_paths, reference_cycle_free_labelling

GROUPS = dict(catalog(), Z1=cyclic_group(1), Z6=cyclic_group(6),
              Z2xZ2=product_group(cyclic_group(2), cyclic_group(2)))
GROUPS["S3"] = GROUPS.pop("M(3,2,2)")
CASES = ([(name, n) for name, group in sorted(GROUPS.items()) if group.order <= 4
          for n in range(1, group.order + 2)]
         + [(name, n) for name in ("Z5", "S3", "Z6") for n in range(1, 6)]
         + [("Z9", n) for n in range(1, 5)] + [("F21", n) for n in range(1, 4)])


def assert_normalized_cycle_free(L, n):
    assert L.n == n
    assert L.rows()[0] == [0] * n
    assert not brute_has_balanced_cycle(L)
    assert enumerate_balanced_cycles(L) == []


@pytest.mark.parametrize("name, n", CASES)
def test_existence_matches_reference(name, n):
    group = GROUPS[name]
    found, left = _cycle_free_labelling(group, n, DEFAULT_NODE_BUDGET)
    assert 0 <= left <= DEFAULT_NODE_BUDGET
    want = reference_cycle_free_labelling(group, n)
    assert (found is None) == (want is None)
    if found is not None:
        assert_normalized_cycle_free(found, n)


def test_compute_n_decides_z5():
    result = compute_n(cyclic_group(5))
    assert result.value == 6
    # pinned: the sorting rule cut it from 1,455,541 to 278,650, the orbit cut to this
    assert result.nodes == 139_430 <= DEFAULT_NODE_BUDGET
    assert_normalized_cycle_free(result.witness, 5)


def _path_row(L, a):
    """Row a of the path table over L's vertices, by brute force: entry b
    holds the values of every simple path from a to b, and entry a the
    identity alone (the length-0 path)."""
    row = [0] * L.n
    for path, value in iter_simple_paths(L, list(range(L.n))):
        if path[0] == a:
            row[path[-1]] |= 1 << value
    return row


@pytest.mark.parametrize("name", ["Z3", "Z4", "Z2xZ2", "S3", "Z9", "F21"])
def test_grown_path_tables_match_the_dict_layers(name):
    # the grown tables against every simple path, entry mask * n + b for the
    # values of the paths from a with vertex set mask and endpoint b
    group = GROUPS[name]
    right = group._byte_actions("right")
    rng = random.Random(f"grown tables over {name}")
    n = 7  # the flat tables' stride, larger than every prefix as in the search
    for _ in range(6):
        labels = [[rng.randrange(group.order) if u != w else 0 for w in range(n)]
                  for u in range(n)]
        plans = {}
        paths = []
        for v in range(rng.randint(1, 6)):
            arcs = [[right[g] for g in labels[u][:v + 1]] for u in range(v + 1)]
            paths = [_grow_paths(paths[a] if a < v else None, a, v, n, arcs, plans)
                     for a in range(v + 1)]
            L = Labelling(group, [row[:v + 1] for row in labels[:v + 1]])
            for a, (table, row) in enumerate(paths):
                assert row == _path_row(L, a)
                exact: dict[int, int] = {}
                for path, value in iter_simple_paths(L, list(range(v + 1))):
                    if path[0] == a:
                        key = subset_of(path) * n + path[-1]
                        exact[key] = exact.get(key, 0) | 1 << value
                assert len(table) == (2 << v) * n
                assert {i: bits for i, bits in enumerate(table) if bits} == exact


@pytest.mark.parametrize("order", [1, 2, 3, 6, 8, 9, 21, 63, 64])
def test_packed_zero_lane_test_matches_all(order):
    # lanes of order + 1 bits whose top bit is clear, 65-bit lanes at order 64
    rng = random.Random(order)
    full = (1 << order) - 1
    width = order + 1
    for k in range(1, 9):
        low = sum(1 << (b * width) for b in range(k))
        high = low << order
        for _ in range(300):
            lanes = [rng.choice([0, 0, 1, full, 1 << (order - 1), rng.randint(1, full)])
                     for _ in range(k)]
            x = sum(lane << (b * width) for b, lane in enumerate(lanes))
            assert _empty_lane(x, low, high) == (not all(lanes)), lanes
