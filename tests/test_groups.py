"""Group construction, validation, and subset algebra."""

import random
import re
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_cycles import (BadSpec, NotAGroup, NotASubgroup, build_group,
                             catalog, cosets, cyclic_group, grow_set, is_subgroup,
                             metacyclic_group, product_group, stabilizer,
                             subgroup_closure, subset_elements, subset_of,
                             table_group)
from balanced_cycles.groups import automorphism_orbit_min

# order-5 loop: Latin square with two-sided identity, not associative
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.table.tolist() == [[0]]


def test_cyclic_products():
    g = cyclic_group(5)
    assert g.mul(2, 4) == 1
    assert g.mul(3, 3) == 1
    assert g.inv(2) == 3
    assert g.inv(0) == 0
    assert cyclic_group(9).inv(3) == 6


def test_identity_law_everywhere(groups):
    for g in groups.values():
        for a in g.elements():
            assert g.mul(0, a) == a == g.mul(a, 0)
            assert g.mul(a, g.inv(a)) == 0 == g.mul(g.inv(a), a)


def test_associativity_by_loop():
    # exhaustive triple loop on a couple of small groups, independent of the
    # vectorized check run at construction time
    for g in (cyclic_group(6), metacyclic_group(3, 2, 2)):
        for a in g.elements():
            for b in g.elements():
                for c in g.elements():
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_metacyclic_f21():
    f21 = metacyclic_group(7, 3, 2)
    assert f21.order == 21
    # elements (a, b) encoded as 3a + b
    assert f21.mul(1, 3) == 7      # (0,1)*(1,0) = (2,1)
    assert f21.mul(3, 1) == 4      # (1,0)*(0,1) = (1,1)
    assert not f21.is_abelian()


def test_metacyclic_s3_isomorph():
    s3 = metacyclic_group(3, 2, 2)
    assert s3.order == 6
    assert not s3.is_abelian()


def test_bad_specs():
    with pytest.raises(BadSpec):
        metacyclic_group(7, 3, 3)  # 3^3 = 27 != 1 mod 7
    with pytest.raises(BadSpec):
        cyclic_group(0)
    with pytest.raises(BadSpec):
        cyclic_group(65)
    with pytest.raises(BadSpec):
        build_group({"kind": "nope"})
    with pytest.raises(BadSpec):
        product_group(cyclic_group(9), cyclic_group(9))  # order 81 > 64


SPECS = {"cyclic": {"kind": "cyclic", "q": 3},
         "product": {"kind": "product", "left": {"kind": "cyclic", "q": 2},
                     "right": {"kind": "cyclic", "q": 3}},
         "metacyclic": {"kind": "metacyclic", "m": 7, "n": 3, "r": 2},
         "table": {"kind": "table", "mul": [[0, 1], [1, 0]]}}


@pytest.mark.parametrize("kind, key", [("cyclic", "q"), ("product", "left"), ("product", "right"),
                                       ("metacyclic", "m"), ("metacyclic", "n"),
                                       ("metacyclic", "r"), ("table", "mul")])
def test_missing_spec_field_is_named(kind, key):
    spec = dict(SPECS[kind])
    build_group(spec)
    del spec[key]
    with pytest.raises(BadSpec, match=f"group spec is missing the field '{key}'"):
        build_group(spec)


def test_not_a_group():
    with pytest.raises(NotAGroup):
        table_group([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(NotAGroup):
        table_group([[1, 0], [0, 1]])  # identity not at index 0
    with pytest.raises(NotAGroup):
        table_group(NON_ASSOCIATIVE_LOOP)
    # Z2 once 256 wraps to 0: the entry check runs before the byte copy
    with pytest.raises(NotAGroup, match="element indices"):
        table_group([[0, 1], [1, 256]])
    # the loop times Z12, pair (a, b) encoded 12a + b: entries up to 59 in the byte copy
    with pytest.raises(NotAGroup, match="not associative"):
        table_group([[NON_ASSOCIATIVE_LOOP[a1][a2] * 12 + (b1 + b2) % 12
                      for a2 in range(5) for b2 in range(12)]
                     for a1 in range(5) for b1 in range(12)])


@pytest.mark.parametrize("table", [
    [[0, 1.0], [1.0, 0]],
    [[0, np.float64(1.0)], [np.float64(1.0), 0]],
    [[False, True], [True, False]],
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[False, True], [True, False]]),
    [[0, "1"], ["1", 0]],
    [[0, None], [None, 0]],
    [[0, 1], [1]],
], ids=["float", "numpy-float", "bool", "float-array", "bool-array", "string", "none", "ragged"])
def test_a_table_of_non_integers_is_rejected(table):
    # the first six were cut down to Z2, and the last two raised numpy's TypeError and ValueError
    message = "table spec 'mul' must be rows of integers"
    with pytest.raises(BadSpec, match=message):
        table_group(table)
    if isinstance(table, list):
        with pytest.raises(BadSpec, match=message):
            build_group({"kind": "table", "mul": table})


@pytest.mark.parametrize("entry", [2 ** 70, -2 ** 70], ids=["above", "below"])
def test_a_table_entry_beyond_int64_is_rejected(entry):
    # the cast to int64 used to raise OverflowError, an internal error
    table = [[0, entry], [entry, 0]]
    message = "table spec 'mul' must be rows of integers in the int64 range"
    with pytest.raises(BadSpec, match=message):
        table_group(table)
    with pytest.raises(BadSpec, match=message):
        build_group({"kind": "table", "mul": table})


def test_a_table_of_integers_passes_in_any_form():
    z2 = cyclic_group(2)
    for table in ([[0, 1], [1, 0]], ((0, 1), (1, 0)), [[np.int64(0), np.uint8(1)], [1, 0]],
                  np.array([[0, 1], [1, 0]], dtype=np.uint8)):
        assert table_group(table) == z2
    given = np.array([[0, 1], [1, 0]])
    assert not table_group(given).table.flags.writeable
    given[0, 0] = 0  # the caller's array is copied, not frozen


def pairwise_table(spec: dict) -> list[list[int]]:
    """The Cayley table of a constructor spec, one pair at a time."""
    if spec["kind"] == "cyclic":
        q = spec["q"]
        return [[(a + b) % q for b in range(q)] for a in range(q)]
    if spec["kind"] == "product":
        left, right = pairwise_table(spec["left"]), pairwise_table(spec["right"])
        k, m = len(left), len(right)
        table = [[0] * (k * m) for _ in range(k * m)]
        for a1 in range(k):
            for b1 in range(m):
                for a2 in range(k):
                    for b2 in range(m):
                        table[a1 * m + b1][a2 * m + b2] = left[a1][a2] * m + right[b1][b2]
        return table
    m, n, r = spec["m"], spec["n"], spec["r"]
    table = [[0] * (m * n) for _ in range(m * n)]
    for a in range(m):
        for b in range(n):
            for c in range(m):
                for d in range(n):
                    table[a * n + b][c * n + d] = (a + r ** b * c) % m * n + (b + d) % n
    return table


Z2 = cyclic_group(2)
# catalog() holds M(3,2,2) and F21 = M(7,3,2) besides its cyclic groups and products
CONSTRUCTED = {**catalog(), "Z8xZ8": product_group(cyclic_group(8), cyclic_group(8)),
               "Z2xZ2xZ2": product_group(product_group(Z2, Z2), Z2),
               "M(5,2,4)": metacyclic_group(5, 2, 4)}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_constructor_table_is_its_pairwise_definition(name):
    g = CONSTRUCTED[name]
    want = pairwise_table(g.spec)
    assert g.table.tolist() == want
    assert [[g.mul(a, b) for b in g.elements()] for a in g.elements()] == want
    assert [want[a].index(0) for a in g.elements()] == [g.inv(a) for a in g.elements()]


def test_group_json_round_trip(groups):
    for g in groups.values():
        rebuilt = build_group(g.spec)
        assert rebuilt == g


def test_table_group_spec():
    g = build_group({"kind": "table", "mul": [[0, 1], [1, 0]]})
    assert g == cyclic_group(2)
    assert g.spec["kind"] == "table"
    assert build_group(g.spec) == g


def test_stabilizer_examples():
    g9 = cyclic_group(9)
    full = g9.full_subset()
    assert stabilizer(g9, full, "left") == full
    assert stabilizer(g9, full, "right") == full
    assert stabilizer(g9, subset_of([4]), "left") == 1  # just the identity
    sub = subset_of([0, 3, 6])
    assert stabilizer(g9, sub, "left") == sub
    assert stabilizer(g9, sub, "right") == sub
    # degenerate input decision: everything stabilizes the empty set
    assert stabilizer(g9, 0, "left") == full
    assert stabilizer(g9, 0, "right") == full


def test_stabilizer_is_subgroup_and_fixes_setwise(groups):
    rng = random.Random(7)
    pool = list(groups.values())
    for _ in range(200):
        g = rng.choice(pool)
        bits = rng.getrandbits(g.order)
        for side in ("left", "right"):
            stab = stabilizer(g, bits, side)
            assert is_subgroup(g, stab)
            for h in subset_elements(stab):
                if side == "left":
                    assert g.elem_mul_subset(h, bits) == bits
                else:
                    assert g.subset_mul_elem(bits, h) == bits


def test_grow_set_examples():
    g9 = cyclic_group(9)
    grown = grow_set(g9, subset_of([0, 3, 6]), 1)
    assert subset_elements(grown) == [0, 1, 3, 4, 6, 7]
    g5 = cyclic_group(5)
    assert subset_elements(grow_set(g5, subset_of([0, 1]), 2)) == [0, 1, 2, 3]
    # identity is always a left stabilizer: no growth promised, and none happens
    s = subset_of([0, 2])
    assert grow_set(g5, s, 0) == s


def test_grow_set_lemma_quick(groups):
    # the full 10^4-trial run lives in the acceptance suite
    rng = random.Random(11)
    pool = list(groups.values())
    for _ in range(500):
        g = rng.choice(pool)
        bits = rng.getrandbits(g.order)
        if not bits:
            continue
        stab_l = stabilizer(g, bits, "left")
        outside = [x for x in g.elements() if not (stab_l >> x) & 1]
        if not outside:
            continue
        x = rng.choice(outside)
        stab_r = stabilizer(g, bits, "right")
        grown = grow_set(g, bits, x)
        assert grown.bit_count() >= bits.bit_count() + stab_r.bit_count()
        assert stab_r & ~stabilizer(g, grown, "right") == 0


def test_subgroup_closure():
    g9 = cyclic_group(9)
    assert subgroup_closure(g9, []) == 1
    assert subset_elements(subgroup_closure(g9, [3])) == [0, 3, 6]
    assert subgroup_closure(g9, [3, 1]) == g9.full_subset()
    f21 = metacyclic_group(7, 3, 2)
    # element 3 encodes (1,0), which generates the Z7 part {(k,0)}
    assert subset_elements(subgroup_closure(f21, [3])) == [0, 3, 6, 9, 12, 15, 18]


# the quaternion group: 0, 1 = 1, -1; 2, 3 = i, -i; 4, 5 = j, -j; 6, 7 = k, -k
Q8_SPEC = {"kind": "table", "mul": [
    [0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4], [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3], [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0], [7, 6, 5, 4, 2, 3, 0, 1]]}
Z2, Z4 = cyclic_group(2), cyclic_group(4)
ORBIT_GROUPS = dict({f"Z{q}": cyclic_group(q) for q in range(1, 9)},
                    Z2xZ2=product_group(Z2, Z2), Z2xZ4=product_group(Z2, Z4),
                    Z2xZ2xZ2=product_group(product_group(Z2, Z2), Z2),
                    S3=metacyclic_group(3, 2, 2), D4=metacyclic_group(4, 2, 3),
                    Q8=build_group(Q8_SPEC))


def brute_orbit_min(group) -> list[int]:
    """The least phi(g) over every automorphism phi: every permutation fixing 0
    that preserves the table.  Aut(G) is a group, so that is g's orbit."""
    order, table = group.order, group.table
    perms = np.array([(0, *rest) for rest in permutations(range(1, order))])
    autos = perms[(table[perms[:, :, None], perms[:, None, :]] == perms[:, table]).all(axis=(1, 2))]
    return autos.min(axis=0).tolist()


@pytest.mark.parametrize("name", sorted(ORBIT_GROUPS))
def test_automorphism_orbits_match_brute_force(name):
    # in the group's own numbering and three others, since the greedy
    # generators and the order of the image tuples follow the numbering
    group = ORBIT_GROUPS[name]
    rng = random.Random(name)
    for _ in range(4):
        assert automorphism_orbit_min(group) == brute_orbit_min(group)
        p = np.array([0] + rng.sample(range(1, group.order), group.order - 1))
        table = np.empty_like(group.table)
        table[p[:, None], p] = p[group.table]  # g*h renumbered: p(g)*p(h) = p(gh)
        group = table_group(table)


def test_automorphism_orbits_of_z2_to_the_sixth_are_quick_and_keep_element_orders():
    group = cyclic_group(2)
    for _ in range(5):
        group = product_group(group, Z2)
    start = time.perf_counter()
    orbit_min = automorphism_orbit_min(group)
    assert time.perf_counter() - start < 1.0  # about 2 ms on one Xeon core
    rows = group.table.tolist()

    def element_order(g):
        k, power = 1, g
        while power:
            k, power = k + 1, rows[power][g]
        return k

    classes = {}
    for g, least in enumerate(orbit_min):
        classes.setdefault(least, set()).add(element_order(g))
    assert all(len(orders) == 1 for orders in classes.values())


def naive_closure(group, gens) -> int:
    elems = {0, *gens}
    while True:
        grown = elems | {group.mul(a, b) for a in elems for b in elems}
        if grown == elems:
            return subset_of(elems)
        elems = grown


def test_subgroup_closure_matches_naive_closure():
    rng = random.Random(5)
    for g in TABLE_GROUPS.values():
        for count in (1, 1, 2, 3):
            gens = [rng.randrange(g.order) for _ in range(count)]
            assert subgroup_closure(g, gens) == naive_closure(g, gens)
    assert subgroup_closure(cyclic_group(9), iter([np.int64(3)])) == subset_of([0, 3, 6])


@pytest.mark.parametrize("gen", [9, -1, 1.5, True, np.float64(2.0), "1"],
                         ids=["order", "negative", "float", "bool", "numpy_float", "string"])
def test_grow_set_and_closure_reject_a_non_element(gen):
    # 9 read the all-zero row of the byte table, True closed to the whole group
    g9 = cyclic_group(9)
    message = re.escape(f"{gen!r} is not a group element 0..8")
    with pytest.raises(ValueError, match=message):
        grow_set(g9, subset_of([0, 3]), gen)
    with pytest.raises(ValueError, match=message):
        subgroup_closure(g9, [3, gen])


@pytest.mark.parametrize("g", [9, -1, 1.5, True, np.float64(1.0)],
                         ids=["order", "negative", "float", "bool", "numpy_float"])
def test_subset_actions_reject_a_non_element(g):
    # 9 and -1 read the byte table's all-zero "no arc" row, and True cached a
    # malformed row under the key 1
    g9 = cyclic_group(9)
    message = re.escape(f"{g!r} is not a group element 0..8")
    for first_use in (True, False):  # the row of 1 not yet cached, then cached
        with pytest.raises(ValueError, match=message):
            g9.subset_mul_elem(subset_of([0, 3]), g)
        with pytest.raises(ValueError, match=message):
            g9.elem_mul_subset(g, subset_of([0, 3]))
        assert g9.subset_mul_elem(subset_of([0, 3]), 1) == subset_of([1, 4])
        assert g9.elem_mul_subset(1, subset_of([0, 3])) == subset_of([1, 4])


@pytest.mark.parametrize("g", [3, -1, 1.5, True, np.float64(1.0), "1"],
                         ids=["order", "negative", "float", "bool", "numpy_float", "string"])
def test_scalar_products_reject_a_non_element(g):
    # over Z3, mul(True, 1) and mul(-1, 0) both returned 2: True read row 1,
    # and -1 wrapped to the last row
    g3 = cyclic_group(3)
    message = re.escape(f"{g!r} is not a group element 0..2")
    for call in (lambda: g3.mul(g, 1), lambda: g3.mul(1, g), lambda: g3.inv(g),
                 lambda: g3.conjugate(g, 1), lambda: g3.conjugate(1, g)):
        with pytest.raises(ValueError, match=message):
            call()


def test_scalar_products_accept_numpy_integers():
    g5 = cyclic_group(5)
    for a, b in ((np.int64(2), np.uint8(4)), (2, np.int32(4)), (2, 4)):
        assert g5.mul(a, b) == 1 and g5.inv(a) == 3 and g5.conjugate(a, b) == 2
    f21 = metacyclic_group(7, 3, 2)
    assert f21.conjugate(np.int64(1), np.uint8(3)) == f21.conjugate(1, 3) == \
        f21.mul(f21.mul(3, 1), f21.inv(3))


@pytest.mark.parametrize("elem", [True, 1.0, np.float64(2.0), -1, "1"],
                         ids=["bool", "float", "numpy_float", "negative", "string"])
def test_subset_of_rejects_a_non_element(elem):
    # True was the set {1}, and -1 raised "negative shift count"
    with pytest.raises(ValueError, match=re.escape(f"element {elem!r} is not a non-negative")):
        subset_of([0, elem])


def test_subset_of_takes_numpy_integers():
    assert subset_of([np.int64(3), np.uint8(0), 6]) == subset_of([0, 3, 6]) == 0b1001001
    assert subset_of(np.array([0, 3, 6])) == 0b1001001
    assert subset_of([]) == 0


def test_subset_actions_accept_numpy_integers():
    g9 = cyclic_group(9)
    for g in (np.int64(2), np.uint8(2), 2):
        assert g9.subset_mul_elem(subset_of([0, 3]), g) == subset_of([2, 5])
        assert g9.elem_mul_subset(g, subset_of([0, 3])) == subset_of([2, 5])


@pytest.mark.parametrize("bits", [-1, 8, True, 1.5, np.float64(1.0)],
                         ids=["negative", "above", "bool", "float", "numpy_float"])
def test_element_set_outside_the_group_is_rejected(bits):
    # over Z3, 8 = {3} used to give the empty stabilizer and -1 an OverflowError
    g3 = cyclic_group(3)
    for side in ("left", "right"):
        with pytest.raises(ValueError, match=re.escape(f"element set {bits!r} outside 0..2^3-1")):
            stabilizer(g3, bits, side)
        with pytest.raises(ValueError, match="element set"):
            cosets(g3, bits, side)
    with pytest.raises(ValueError, match="element set"):
        is_subgroup(g3, bits)
    # the subset actions read a byte-table row by S: -1 would index from its end
    with pytest.raises(ValueError, match="element set"):
        g3.subset_mul_elem(bits, 1)
    with pytest.raises(ValueError, match="element set"):
        g3.elem_mul_subset(1, bits)


@pytest.mark.parametrize("bits", [-1, True, 1.5, np.float64(1.0)],
                         ids=["negative", "bool", "float", "numpy_float"])
def test_subset_elements_rejects_a_non_set(bits):
    # -1 used to loop forever, True to list [0]
    with pytest.raises(ValueError, match=re.escape(f"set {bits!r} is not a non-negative integer")):
        subset_elements(bits)


def test_element_sets_accept_numpy_integers():
    g9 = cyclic_group(9)
    sub = subset_of([0, 3, 6])
    assert stabilizer(g9, np.int64(sub), "left") == stabilizer(g9, sub, "left")
    assert cosets(g9, np.int64(sub), "right") == cosets(g9, sub, "right")
    assert is_subgroup(g9, np.int64(sub))
    assert subset_elements(np.int64(sub)) == [0, 3, 6]
    full = cyclic_group(64).full_subset()
    assert stabilizer(cyclic_group(64), np.uint64(full), "right") == full


@pytest.mark.parametrize("q", [True, 4.0, np.float64(4.0)], ids=["bool", "float", "numpy_float"])
def test_group_parameters_are_integers(q):
    # cyclic_group(4.0) used to build Z4 with the spec {"q": 4.0}, and True Z1 named ZTrue
    with pytest.raises(BadSpec, match="integer"):
        cyclic_group(q)
    with pytest.raises(BadSpec, match="integers"):
        metacyclic_group(q, 2, 1)
    with pytest.raises(BadSpec, match="integers"):
        metacyclic_group(3, 2, q)


def test_group_parameters_accept_numpy_integers():
    assert cyclic_group(np.int64(4)) == cyclic_group(4)
    assert cyclic_group(np.int64(4)).spec == {"kind": "cyclic", "q": 4}
    s3 = metacyclic_group(np.int64(3), np.int64(2), np.int64(2))
    assert s3 == metacyclic_group(3, 2, 2) and s3.name == "M(3,2,2)"
    assert build_group(s3.spec) == s3  # the spec holds plain ints


def test_cosets():
    g9 = cyclic_group(9)
    assert cosets(g9, g9.full_subset(), "left") == [g9.full_subset()]
    singles = cosets(g9, 1, "right")
    assert [subset_elements(c) for c in singles] == [[k] for k in range(9)]
    blocks = cosets(g9, subset_of([0, 3, 6]), "left")
    assert [subset_elements(c) for c in blocks] == [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
    with pytest.raises(NotASubgroup):
        cosets(g9, subset_of([0, 1]), "left")


def test_cosets_partition(groups):
    rng = random.Random(3)
    for g in groups.values():
        for _ in range(5):
            h = subgroup_closure(g, [rng.randrange(g.order)])
            for side in ("left", "right"):
                blocks = cosets(g, h, side)
                assert len(blocks) == g.order // h.bit_count()
                union = 0
                for b in blocks:
                    assert b.bit_count() == h.bit_count()
                    assert union & b == 0
                    union |= b
                assert union == g.full_subset()
                assert h in blocks


TABLE_GROUPS = {**catalog(), "Z1": cyclic_group(1), "Z64": cyclic_group(64),
                "Z2xZ2xZ2": product_group(product_group(Z2, Z2), Z2)}


@st.composite
def group_and_subset(draw):
    group = TABLE_GROUPS[draw(st.sampled_from(sorted(TABLE_GROUPS)))]
    elements = st.integers(0, group.order - 1)
    bits = draw(st.one_of(
        st.sampled_from([0, group.full_subset()]),
        st.integers(0, group.full_subset()),
        st.lists(elements, max_size=3).map(lambda gens: subgroup_closure(group, gens))))
    return group, bits


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=group_and_subset(), side=st.sampled_from(["left", "right"]))
def test_byte_tables_match_cayley_table(case, side):
    """Both sides' subset actions and what is built on them, against brute force."""
    group, bits = case
    members = subset_elements(bits)
    if side == "right":
        images = [subset_of(group.mul(s, g) for s in members) for g in group.elements()]
        assert [group.subset_mul_elem(bits, g) for g in group.elements()] == images
    else:
        images = [subset_of(group.mul(g, s) for s in members) for g in group.elements()]
        assert [group.elem_mul_subset(g, bits) for g in group.elements()] == images
    assert stabilizer(group, bits, side) == subset_of(
        g for g, image in enumerate(images) if image == bits)
    closed = bits & 1 == 1 and all((bits >> group.mul(a, b)) & 1 for a in members for b in members)
    assert is_subgroup(group, bits) == closed
    if closed:
        assert cosets(group, bits, side) == sorted(set(images), key=lambda c: c & -c)
    else:
        with pytest.raises(NotASubgroup):
            cosets(group, bits, side)
