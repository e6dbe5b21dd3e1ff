"""Reach sets and balanced-cycle detection against the brute-force oracle."""

import json
import random
import re

import pytest

import numpy as np

from balanced_cycles import (BadSize, Labelling, NotInScope, TooLarge, build_group,
                             catalog, cycle_value, cyclic_group,
                             enumerate_balanced_cycles, extremal_cyclic,
                             find_balanced_cycle, find_path_with_value,
                             random_labelling, reach_set, reach_set_between,
                             reach_table, short_cycle_scan,
                             start_anchored_table, subset_elements, subset_of)
from balanced_cycles import reach
from oracle import (brute_balanced_cycles, brute_has_balanced_cycle,
                    brute_reach_between, brute_reach_set)


def test_reach_set_examples():
    L = extremal_cyclic(3, 3)
    assert subset_elements(reach_set(L, [0, 1, 2], 2)) == [0, 1, 2]
    assert subset_elements(reach_set(L, [0, 1, 2], 0)) == [0, 1]
    assert reach_set(L, [1], 1) == 1  # just the identity
    g = cyclic_group(5)
    Lid = Labelling(g, [[0] * 4] * 4)
    for x in range(4):
        assert reach_set(Lid, range(4), x) == 1


def test_reach_set_between_examples():
    L = extremal_cyclic(3, 4)
    between = reach_set_between(L, range(4), 0, 3)
    assert (between >> 0) & 1  # path 0->1->2->3 has value 0
    assert (between >> 1) & 1  # arc 0->3 has value 1
    assert reach_set_between(L, range(4), 2, 2) == 1  # length-0 path only
    with pytest.raises(NotInScope):
        reach_set_between(L, [0, 1], 0, 3)
    with pytest.raises(NotInScope):
        reach_set(L, [0, 1], 3)


def test_reach_table_recurrence():
    rng = random.Random(1)
    for _ in range(20):
        L = random_labelling(cyclic_group(5), rng.randint(2, 6), rng.getrandbits(32))
        scope = subset_of(range(L.n))
        table = reach_table(L, scope).table
        smul = L.group.subset_mul_elem
        for mask, entry in table.items():
            for e, bits in entry.items():
                if mask == 1 << e:
                    assert bits == 1
                    continue
                acc = 0
                sub = table.get(mask ^ (1 << e), {})
                for p, pbits in sub.items():
                    if L.has_arc(p, e):
                        acc |= smul(pbits, L.label(p, e))
                assert bits == acc


def test_reach_table_aggregates_to_reach_set():
    rng = random.Random(2)
    for _ in range(10):
        L = random_labelling(cyclic_group(7), 5, rng.getrandbits(32))
        table = reach_table(L, range(5))
        for x in range(5):
            assert table.aggregate(x) == reach_set(L, range(5), x)


@pytest.mark.parametrize("x", [-1, 5, 7, True, 1.5,
                               pytest.param(np.float64(1.0), id="numpy_float")])
def test_reach_table_aggregate_rejects_a_vertex_outside_the_labelling(x):
    # True used to answer for vertex 1, and 1.5 to crash on a shift
    table = reach_table(random_labelling(cyclic_group(7), 5, 1), range(4))
    assert table.aggregate(4) == 0  # a vertex outside the scope
    with pytest.raises(NotInScope, match=f"vertex {x} outside 0..4"):
        table.aggregate(x)


def test_start_anchored_table_against_oracle():
    from oracle import iter_simple_paths
    rng = random.Random(13)
    for density in (1.0, 0.6):  # a complete labelling, then one with absent arcs
        for _ in range(15):
            base = random_labelling(cyclic_group(7), 5, rng.getrandbits(32))
            L = Labelling(base.group, base.labels,
                          [[u != v and rng.random() < density for v in range(5)] for u in range(5)])
            start = rng.randrange(5)
            tab = start_anchored_table(L, range(5), start=start)
            assert tab.table[1 << start] == {start: 1}
            expected: dict[tuple[int, int], set[int]] = {}
            for path, value in iter_simple_paths(L, list(range(5))):
                if path[0] == start:
                    key = (subset_of(path), path[-1])
                    expected.setdefault(key, set()).add(value)
            actual = {(m, e): set(subset_elements(bits))
                      for m, entry in tab.table.items() for e, bits in entry.items()}
            assert actual == expected
    # a numpy start passes the integer rule, and the table keeps int keys that json encodes
    L = random_labelling(cyclic_group(7), 5, 4)
    tab = start_anchored_table(L, range(5), start=np.int64(2))
    assert type(tab.start) is int and tab.table == start_anchored_table(L, range(5), start=2).table
    json.dumps(tab.table)


def test_reach_against_oracle():
    rng = random.Random(3)
    pool = list(catalog().values())
    for _ in range(60):
        g = rng.choice(pool)
        n = rng.randint(2, 6)
        L = random_labelling(g, n, rng.getrandbits(32))
        scope = rng.sample(range(n), rng.randint(1, n))
        for x in scope:
            assert set(subset_elements(reach_set(L, scope, x))) == brute_reach_set(L, scope, x)
        u, v = rng.choice(scope), rng.choice(scope)
        assert set(subset_elements(reach_set_between(L, scope, u, v))) == \
            brute_reach_between(L, scope, u, v)


def test_reach_monotone_in_scope():
    rng = random.Random(4)
    for _ in range(40):
        L = random_labelling(cyclic_group(9), 6, rng.getrandbits(32))
        small = rng.sample(range(6), rng.randint(1, 5))
        big = small + [w for w in range(6) if w not in small and rng.random() < 0.7]
        for x in small:
            assert reach_set(L, small, x) & ~reach_set(L, big, x) == 0


def test_find_balanced_cycle_examples():
    assert find_balanced_cycle(extremal_cyclic(3, 3)) is None
    w = find_balanced_cycle(extremal_cyclic(3, 4))
    assert w.vertices == (0, 1, 2, 3)
    g = cyclic_group(5)
    L = Labelling(g, [[0, 2, 1], [3, 0, 1], [1, 1, 0]])
    w = find_balanced_cycle(L)  # gamma(0,1)=2, gamma(1,0)=3: balanced 2-cycle
    assert w.vertices == (0, 1)


def test_find_agreement_with_oracle():
    rng = random.Random(5)
    pool = list(catalog().values())
    for _ in range(80):
        g = rng.choice(pool)
        n = rng.randint(2, 6)
        L = random_labelling(g, n, rng.getrandbits(32))
        witness = find_balanced_cycle(L)
        expected = brute_has_balanced_cycle(L)
        assert (witness is not None) == expected
        if witness is not None:
            assert cycle_value(L, witness) == 0


def test_enumerate_examples():
    assert [c.vertices for c in enumerate_balanced_cycles(extremal_cyclic(3, 4))] == [(0, 1, 2, 3)]
    g3 = cyclic_group(3)
    Lid = Labelling(g3, [[0] * 3] * 3)
    assert [c.vertices for c in enumerate_balanced_cycles(Lid)] == \
        [(0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 2, 1)]


def test_enumerate_against_oracle():
    rng = random.Random(6)
    pool = list(catalog().values())
    for _ in range(40):
        g = rng.choice(pool)
        n = rng.randint(2, 5)
        L = random_labelling(g, n, rng.getrandbits(32))
        assert [c.vertices for c in enumerate_balanced_cycles(L)] == brute_balanced_cycles(L)


def test_enumerate_respects_mask():
    from balanced_cycles import arc_critical_instance
    for k in range(4):
        assert enumerate_balanced_cycles(arc_critical_instance(3, k)) == []


def test_masked_instances_against_oracle():
    import numpy as np
    rng = random.Random(7)
    g7 = cyclic_group(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        base = random_labelling(g7, n, rng.getrandbits(32))
        present = np.array([[u != v and rng.random() < 0.7 for v in range(n)]
                            for u in range(n)])
        L = Labelling(g7, base.labels, present)
        assert (find_balanced_cycle(L) is not None) == brute_has_balanced_cycle(L)
        assert [c.vertices for c in enumerate_balanced_cycles(L)] == brute_balanced_cycles(L)
        x = rng.randrange(n)
        assert set(subset_elements(reach_set(L, range(n), x))) == \
            brute_reach_set(L, list(range(n)), x)


def test_dp_sweep_on_shifted_extremal():
    # shifting scrambles every label but preserves the balanced-cycle set
    # exactly, so these instances force the full sweep (no short balanced
    # cycles exist) and the answer is known in advance
    from balanced_cycles import apply_shift_family
    rng = random.Random(14)
    cases = [(7, 7, None), (9, 9, None),
             (5, 6, tuple(range(6))), (7, 8, tuple(range(8)))]
    for q, n, expected in cases:
        L = extremal_cyclic(q, n)
        for _ in range(3):
            family = tuple(rng.randrange(q) for _ in range(n))
            scrambled = apply_shift_family(L, family)
            assert short_cycle_scan(scrambled) is None
            witness = find_balanced_cycle(scrambled)
            if expected is None:
                assert witness is None
            else:
                assert witness.vertices == expected


def test_short_cycle_scan():
    L = extremal_cyclic(5, 12)
    assert short_cycle_scan(L) is None  # 2- and 3-cycles have values 1 or 2
    g = cyclic_group(5)
    L2 = Labelling(g, [[0, 2, 0], [3, 0, 0], [0, 0, 0]])
    assert short_cycle_scan(L2).vertices == (0, 1)


def test_find_path_with_value():
    L = extremal_cyclic(3, 4)
    path = find_path_with_value(L, range(4), 0, 3, 0)
    from balanced_cycles import path_value
    assert path[0] == 0 and path[-1] == 3 and path_value(L, path) == 0
    with pytest.raises(ValueError):
        find_path_with_value(extremal_cyclic(3, 3), range(3), 0, 2, 0)  # values are 1 or 2


def test_caps():
    g1 = cyclic_group(2)
    big = Labelling(g1, [[0] * 30 for _ in range(30)])
    with pytest.raises(TooLarge):
        find_balanced_cycle(big)
    with pytest.raises(TooLarge):
        enumerate_balanced_cycles(Labelling(g1, [[0] * 13 for _ in range(13)]))
    with pytest.raises(TooLarge):
        reach_table(Labelling(g1, [[0] * 21 for _ in range(21)]), range(21))
    with pytest.raises(TooLarge):
        reach_set(big, range(30), 0)
    with pytest.raises(TooLarge):
        start_anchored_table(Labelling(g1, [[0] * 21 for _ in range(21)]), range(21))
    arcless = Labelling(g1, [[0] * 25 for _ in range(25)], [[False] * 25 for _ in range(25)])
    with pytest.raises(TooLarge):
        find_path_with_value(arcless, range(25), 0, 24, 0)
    with pytest.raises(TooLarge):
        reach_set_between(arcless, range(25), 0, 24)
    # the heuristic scan has no cap
    assert short_cycle_scan(big) is not None


def test_find_path_with_value_leaves_no_garbage():
    # the memoized search must not leave a reference cycle holding its memo
    import gc
    L = extremal_cyclic(5, 8)
    gc.collect()
    gc.disable()
    try:
        find_path_with_value(L, range(8), 0, 7, 0)
        assert gc.collect() == 0
        with pytest.raises(ValueError):
            find_path_with_value(extremal_cyclic(3, 3), range(3), 0, 2, 0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_late_cycle_takes_one_sweep_and_a_run_per_kept_layers(monkeypatch):
    # the sweep from vertex 0 closes the 14-vertex cycle at its last layer;
    # the walk back keeps reach._WALK_KEPT layers of each run, so it runs over
    # 12, 8 and 4 free vertices, and its last step, to vertex 0, runs nothing
    runs = []
    dense = reach._dense_layers

    def spy(L, verts, seed, inside):
        runs.append(len(verts))
        return dense(L, verts, seed, inside)

    monkeypatch.setattr(reach, "_dense_layers", spy)
    assert find_balanced_cycle(extremal_cyclic(13, 14)).vertices == tuple(range(14))
    assert runs == [13] + list(range(12, 0, -reach._WALK_KEPT))
    assert len(runs) == 4  # one per step of the walk would be 14


def test_a_search_prepares_the_arcs_once(monkeypatch):
    # a cycle-free search on 12 vertices sweeps 11 starts: the arc arrays are
    # built once for the labelling, and each run copies its block out of them
    built = []

    class Counted(reach._DenseArcs):
        def __init__(self, L):
            built.append(L)
            super().__init__(L)

    monkeypatch.setattr(reach, "_DenseArcs", Counted)
    L = extremal_cyclic(30, 12)
    assert find_balanced_cycle(L) is None
    assert built == [L] and isinstance(L._dense_arcs, Counted)
    assert find_balanced_cycle(L) is None
    assert len(built) == 1


@pytest.mark.parametrize("verts", [[3, 4, 5, 6], [1, 2, 4, 6], [6]])
def test_operands_copy_the_block_of_any_vertices(verts):
    # a sweep's consecutive vertices are sliced, a walk's mask is taken:
    # both give the (m * c, m, 1) block, C-contiguous, not a view
    a = np.arange(7 * 3 * 7).reshape(7, 3, 7)
    block = reach._operands(a, verts)
    m = len(verts)
    assert block.flags.c_contiguous and not np.shares_memory(block, a)
    assert block.tolist() == a[np.ix_(verts, range(3), verts)].reshape(m * 3, m, 1).tolist()


def test_max_vertices_never_lifts_the_exact_cap():
    big = Labelling(cyclic_group(2), [[0] * 30 for _ in range(30)])
    with pytest.raises(TooLarge):
        find_balanced_cycle(big)


def test_empty_scope_has_no_start():
    from balanced_cycles.proof_engine import _key_lemma_scoped
    L = extremal_cyclic(5, 5)
    with pytest.raises(NotInScope, match="empty scope"):
        start_anchored_table(L, 0)
    with pytest.raises(NotInScope, match="empty scope"):
        _key_lemma_scoped(L, 0)


@pytest.mark.parametrize("call", [
    lambda L: reach_set(L, [0, 9], 0),
    lambda L: reach_set(L, [-1, 0], 0),
    lambda L: reach_set(L, (1 << 9) | 1, 0),
    lambda L: reach_table(L, [0, 9]),
    lambda L: start_anchored_table(L, [0, 9], 0),
    lambda L: reach_set_between(L, range(5), 0, 9),
    lambda L: find_path_with_value(L, range(5), -1, 2, 0),
    # a bool or float is not coerced to a vertex or a mask
    lambda L: reach_set_between(L, 15, True, 3),
    lambda L: reach_set_between(L, 15, 1.5, 3),
    lambda L: reach_set(L, True, 0),
    lambda L: reach_set(L, 15.0, 0),
    lambda L: reach_set(L, [0, 1.0, 2], 0),
    lambda L: reach_set(L, [0, True, 2], 0),
    lambda L: reach_table(L, np.float64(15)),
    lambda L: start_anchored_table(L, 15, True),
    lambda L: find_path_with_value(L, 15, 0, 3.0, 0),
], ids=["list", "negative", "mask", "table", "anchored", "between", "path",
        "bool_vertex", "float_vertex", "bool_scope", "float_scope", "float_in_list",
        "bool_in_list", "numpy_float_scope", "bool_start", "float_target"])
def test_scope_vertex_outside_the_labelling(call):
    with pytest.raises(NotInScope):
        call(extremal_cyclic(5, 5))


@pytest.mark.parametrize("value", [7, 5, -1, True, 1.5, 1.0,
                                   pytest.param(np.float64(1.0), id="numpy_float")])
def test_find_path_with_value_rejects_a_non_element(value):
    with pytest.raises(ValueError, match=re.escape(f"value {value!r} is not a group element")):
        find_path_with_value(extremal_cyclic(5, 5), [0, 1, 2], 0, 2, value)


def test_scope_accepts_numpy_integers():
    L = random_labelling(cyclic_group(5), 5, 3)
    mask, u, v = np.int64(0b11011), np.int32(1), np.uint8(4)
    assert reach_set(L, mask, v) == reach_set(L, 0b11011, 4)
    assert reach_set(L, np.array([0, 1, 3, 4]), u) == reach_set(L, [0, 1, 3, 4], 1)
    assert reach_set_between(L, mask, u, v) == reach_set_between(L, 0b11011, 1, 4)
    assert reach_table(L, np.uint64(0b11011)).table == reach_table(L, 0b11011).table
    assert reach_table(L, mask).aggregate(v) == reach_table(L, 0b11011).aggregate(4)
    value = subset_elements(reach_set_between(L, 0b11011, 1, 4))[-1]
    path = find_path_with_value(L, mask, u, v, np.int64(value))
    assert path == find_path_with_value(L, 0b11011, 1, 4, value)
    assert all(type(w) is int for w in path)


def test_aggregated_layers_check_the_cap_before_any_layer(monkeypatch):
    def no_layers(*args):
        raise AssertionError("a layer was allocated")
        yield

    monkeypatch.setattr(reach, "_dense_layers", no_layers)
    L = Labelling(cyclic_group(2), [[0] * 25 for _ in range(25)])
    with pytest.raises(TooLarge, match="cap of 24"):
        next(reach.aggregated_reach_layers(L, range(25)))


def test_runs_exact():
    assert reach.runs_exact(24, reach.EXACT_CAP) and not reach.runs_exact(25, reach.EXACT_CAP)
    assert reach.runs_exact(12, 12) and not reach.runs_exact(13, 12)
    assert not reach.runs_exact(25, 40)  # the limit only lowers the cap
    assert not reach.runs_exact(2, 0)  # 0 is the scan alone
    with pytest.raises(BadSize, match="max_dp_vertices -1"):
        reach.runs_exact(2, -1)
    assert reach.runs_exact(12, np.int64(12)) and not reach.runs_exact(13, np.int64(12))


@pytest.mark.parametrize("limit", [True, 1.5, np.float64(1.0)],
                         ids=["bool", "float", "numpy_float"])
def test_runs_exact_limit_is_an_integer(limit):
    # True used to be read as a limit of one vertex
    with pytest.raises(BadSize, match=f"max_dp_vertices {limit} is negative or not an integer"):
        reach.runs_exact(1, limit)


# -- the dense kernel's two right actions --------------------------------------------

@pytest.mark.parametrize("q", range(1, 65))
def test_rotation_matches_the_byte_table_layer_by_layer(q, monkeypatch):
    # masked labellings over Z_q: every layer of the rotation equals the byte
    # table's, with and without ``inside``; arc 1 -> 2 always carries label 0,
    # which at q = 64 shifts right by the full word width
    group = cyclic_group(q)
    assert group.is_cyclic_numbering
    rng = random.Random(q)
    n = 7
    labels = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    labels[1][2] = 0
    present = [[u != v and ((u, v) == (1, 2) or rng.random() < 0.7) for v in range(n)]
               for u in range(n)]
    L = Labelling(group, labels, present)
    verts = list(range(1, n))
    full = group.full_subset()
    seeds = [reach._arc_bits(L, 0, verts),
             np.array([rng.getrandbits(q) | 1 << (q - 1) for _ in verts], dtype=np.uint64),
             np.full(len(verts), full, dtype=np.uint64)]
    cases = [(seed, inside) for seed in seeds for inside in (False, True)]
    rotated = [list(reach._dense_layers(L, verts, seed, inside)) for seed, inside in cases]
    monkeypatch.setattr(reach, "_rotate_action", reach._byte_action)
    for (seed, inside), want in zip(cases, rotated):
        got = list(reach._dense_layers(L, verts, seed, inside))
        assert len(got) == len(want)
        for (k, layer), (_, expected) in zip(got, want):
            assert np.array_equal(layer.array, expected.array), (q, inside, k)
    assert any(layer.array.any() for _, layer in rotated[1][3:])


@pytest.mark.parametrize("block", [1, 37])
@pytest.mark.parametrize("action", ["rotation", "byte"])
def test_every_block_size_gives_the_same_layers(action, block, monkeypatch):
    # over 7 free vertices the default block holds every target of a layer
    # at once; a block of 37 operand entries holds whole targets of the
    # smallest layers and splits the rows of the others (rotation: 5 rows of
    # 7 words; byte table over Z11: 2 rows of 7 * 2 bytes); a block of 1
    # splits every target's rows into single rows
    group = cyclic_group(11)
    rng = random.Random(block)
    n = 8
    labels = [[rng.randrange(11) for _ in range(n)] for _ in range(n)]
    present = [[u != v and rng.random() < 0.7 for v in range(n)] for u in range(n)]
    L = Labelling(group, labels, present)
    verts = list(range(1, n))
    seeds = [reach._arc_bits(L, 0, verts), np.ones(len(verts), dtype=np.uint64),
             np.array([rng.getrandbits(11) for _ in verts], dtype=np.uint64)]
    cases = [(seed, inside) for seed in seeds for inside in (False, True)]
    if action == "byte":
        monkeypatch.setattr(reach, "_rotate_action", reach._byte_action)
    want = [list(reach._dense_layers(L, verts, seed, inside)) for seed, inside in cases]
    shapes = []
    blocks = reach._plan_blocks

    def spy(plan, step):
        for j, src, dst in blocks(plan, step):
            shapes.append((*src.shape, plan.shape[2]))  # every plan of 7 vertices is cached
            yield j, src, dst

    monkeypatch.setattr(reach, "_plan_blocks", spy)
    monkeypatch.setattr(reach, "_DENSE_BLOCK", block)
    for (seed, inside), expected in zip(cases, want):
        got = list(reach._dense_layers(L, verts, seed, inside))
        assert [k for k, _ in got] == [k for k, _ in expected]
        for (k, layer), (_, layer_want) in zip(got, expected):
            assert np.array_equal(layer.array, layer_want.array), (inside, k)
    for x in range(n):
        assert set(subset_elements(reach_set(L, range(n), x))) == \
            brute_reach_set(L, list(range(n)), x)
    assert any(layer.array.any() for _, layer in want[0][4:])
    if block == 1:
        assert {(t, rows) for t, rows, _ in shapes} == {(1, 1)}
    else:  # blocks of several whole targets, and single targets cut short
        assert any(t > 1 and rows == full for t, rows, full in shapes)
        assert any(t == 1 and rows < full for t, rows, full in shapes)


@pytest.mark.parametrize("spec", [
    {"kind": "cyclic", "q": 30},
    {"kind": "cyclic", "q": 40},
    {"kind": "product", "left": {"kind": "cyclic", "q": 2}, "right": {"kind": "cyclic", "q": 15}},
], ids=["Z30-doubled-word", "Z40-two-shifts", "Z2xZ15-byte-table"])
def test_a_failed_extension_leaves_the_held_layer_unchanged(spec, monkeypatch):
    # the extension of layer 3 fails at its second block, after Z30's
    # rotation has doubled every word of layer 3 in place: the layer the
    # caller holds comes back as it was, with no bit at or above q
    group = build_group(spec)
    L = random_labelling(group, 9, 4)
    verts = list(range(1, 9))
    calls = []

    def failing(action):
        def build(L, verts):
            operand, act = action(L, verts)

            def act_failing_once_armed(*args):
                if calls:
                    calls.append(args)
                    if len(calls) > 2:
                        raise RuntimeError("block failed")
                return act(*args)
            return operand, act_failing_once_armed
        return build

    monkeypatch.setattr(reach, "_rotate_action", failing(reach._rotate_action))
    monkeypatch.setattr(reach, "_byte_action", failing(reach._byte_action))
    monkeypatch.setattr(reach, "_DENSE_BLOCK", 16)  # several blocks per extension
    layers = reach._dense_layers(L, verts, reach._arc_bits(L, 0, verts), inside=False)
    for k, layer in layers:
        if k == 3:
            break
    held = layer.array.copy()
    assert held.any()
    calls.append(None)  # armed: the next extension fails at its second block
    with pytest.raises(RuntimeError, match="block failed"):
        next(layers)
    assert len(calls) == 3
    assert np.array_equal(layer.array, held)
    assert not (layer.array >> np.uint64(group.order)).any()


def _permuted_cyclic(q: int) -> list[list[int]]:
    """Z_q's table with elements 1 and 2 swapped: a cyclic group, not numbered a + b."""
    swap = list(range(q))
    swap[1], swap[2] = 2, 1
    return [[swap[(swap[a] + swap[b]) % q] for b in range(q)] for a in range(q)]


@pytest.mark.parametrize("spec, rotates", [
    ({"kind": "product", "left": {"kind": "cyclic", "q": 2}, "right": {"kind": "cyclic", "q": 3}},
     False),
    ({"kind": "table", "mul": _permuted_cyclic(5)}, False),
    ({"kind": "metacyclic", "m": 7, "n": 3, "r": 2}, False),
    ({"kind": "product", "left": {"kind": "cyclic", "q": 1}, "right": {"kind": "cyclic", "q": 5}},
     True),
    ({"kind": "table", "mul": [[(a + b) % 5 for b in range(5)] for a in range(5)]}, True),
    ({"kind": "cyclic", "q": 64}, True),
], ids=["Z2xZ3", "permuted-Z5", "F21", "Z1xZ5", "table-Z5", "Z64"])
def test_the_cayley_table_picks_the_action(spec, rotates, monkeypatch):
    group = build_group(spec)
    assert group.is_cyclic_numbering is rotates
    unused = "_byte_action" if rotates else "_rotate_action"

    def refuse(*args):
        raise AssertionError(f"{unused} ran")

    monkeypatch.setattr(reach, unused, refuse)
    L = random_labelling(group, 6, 3)
    assert set(subset_elements(reach_set(L, range(6), 5))) == brute_reach_set(L, list(range(6)), 5)


# -- the kernel's cached index plans ---------------------------------------------------

def _cached_arrays():
    for layers, rank in reach._MASK_CACHE.values():
        yield from layers
        yield rank
    for plan in reach._PLAN_CACHE.values():
        for rows in plan:
            yield from rows


def test_cached_plans_equal_a_fresh_build():
    # every mask table and plan under the bound, against plain enumeration:
    # layer k lists the k-subsets in ascending order, and target j of plan k
    # pairs the rows of layer k without j with the rows of layer k + 1 they reach
    for m in range(1, reach._PLAN_CACHE_MAX_M + 1):
        layers, rank = reach._dense_masks(m)
        by_count = [[] for _ in range(m + 1)]
        for mask in range(1 << m):
            by_count[mask.bit_count()].append(mask)
        ranks = [0] * (1 << m)
        for masks in by_count:
            for row, mask in enumerate(masks):
                ranks[mask] = row
        assert [masks.tolist() for masks in layers] == by_count, m
        assert rank.tolist() == ranks, m
        for k in range(1, m):
            plan = reach._extend_plan(m, k, layers[k], rank)
            assert plan is reach._extend_plan(m, k, layers[k], rank)
            assert len(plan) == m
            for j, (src, dst) in enumerate(plan):
                free = [(row, mask) for row, mask in enumerate(by_count[k]) if not mask >> j & 1]
                assert src.tolist() == [row for row, _ in free], (m, k, j)
                assert dst.tolist() == [ranks[mask | 1 << j] for _, mask in free], (m, k, j)
    assert all(a.dtype == np.uint16 for a in _cached_arrays())


def test_the_kernel_hands_out_read_only_masks():
    # a write into a cached array, or into masks a run hands out, would
    # corrupt every later run of the same size
    L = extremal_cyclic(30, 17)
    for m in (5, reach._PLAN_CACHE_MAX_M + 1):  # cached, and built per run
        verts = list(range(1, m + 1))
        for k, layer in reach._dense_layers(L, verts, np.ones(m, dtype=np.uint64), True):
            with pytest.raises(ValueError, match="read-only"):
                layer.masks[0] = 0
            if k == 3:
                break
    for layer in reach_table(L, range(6)).layers:
        with pytest.raises(ValueError, match="read-only"):
            layer.masks[0] = 0
    arrays = list(_cached_arrays())
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_the_plan_cache_stays_under_its_bound():
    # a cycle-free search sweeps starts of 17 free vertices down to 1, and the
    # aggregated layers run over 17: only sizes up to the bound are kept
    assert find_balanced_cycle(extremal_cyclic(30, 18)) is None
    reach_set(random_labelling(cyclic_group(9), 17, 5), range(17), 3)
    assert set(reach._MASK_CACHE) == set(range(1, reach._PLAN_CACHE_MAX_M + 1))
    assert {m for m, _ in reach._PLAN_CACHE} == set(range(2, reach._PLAN_CACHE_MAX_M + 1))
    assert sum(a.nbytes for a in _cached_arrays()) <= reach._PLAN_CACHE_BYTES
