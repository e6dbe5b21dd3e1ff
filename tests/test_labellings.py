"""Labelled digraphs: evaluation, shifting, inversion, normal forms."""

import random
import re

import numpy as np
import pytest

from balanced_cycles import (AsymmetricMask, BadSpec, CycleWitness, IncompleteDigraph,
                             Labelling, Mismatch, MissingArc,
                             apply_shift_family, cycle_value, cyclic_group,
                             enumerate_balanced_cycles, extremal_cyclic, invert,
                             labelling_from_json, normalize, path_value,
                             random_labelling, shift, shifting_equivalent,
                             to_dot)


def random_shift_family(rng, order, n):
    return tuple(rng.randrange(order) for _ in range(n))


def test_path_value_examples():
    L = extremal_cyclic(3, 3)
    assert path_value(L, [1]) == 0
    assert path_value(L, [0, 1, 2]) == 2
    g5 = cyclic_group(5)
    L5 = Labelling(g5, [[0, 2, 0], [0, 0, 4], [0, 0, 0]])
    assert path_value(L5, [0, 1, 2]) == 1


def test_path_value_missing_arc():
    g3 = cyclic_group(3)
    present = [[False, True], [False, False]]
    L = Labelling(g3, [[0, 1], [2, 0]], present)
    assert path_value(L, [0, 1]) == 1
    with pytest.raises(MissingArc):
        path_value(L, [1, 0])


def test_path_rejects_bad_vertices():
    L = extremal_cyclic(3, 3)
    with pytest.raises(ValueError):
        path_value(L, [0, 0, 1])
    with pytest.raises(ValueError):
        path_value(L, [-1, 0])
    with pytest.raises(ValueError):
        cycle_value(L, [0, 3])


@pytest.mark.parametrize("v", [True, 1.5, np.float64(1.0)], ids=["bool", "float", "numpy_float"])
def test_vertex_arguments_are_integers(v):
    # True acted as vertex 1; 1.5 and 1.0 crashed inside numpy
    L = extremal_cyclic(3, 3)
    with pytest.raises(ValueError, match="vertex out of range"):
        path_value(L, [0, v])
    with pytest.raises(ValueError, match="vertex out of range"):
        cycle_value(L, [2, v])
    with pytest.raises(ValueError, match=f"vertex {v} out of range"):
        shift(L, v, 2)
    with pytest.raises(ValueError, match=f"vertex {v} out of range"):
        normalize(L, v)


def test_vertex_arguments_accept_numpy_integers():
    L = random_labelling(cyclic_group(5), 4, 3)
    one = np.int64(1)
    assert path_value(L, [0, one, np.uint8(2)]) == path_value(L, [0, 1, 2])
    assert cycle_value(L, [0, one]) == cycle_value(L, [0, 1])
    assert shift(L, one, 2) == shift(L, 1, 2)
    assert normalize(L, one) == normalize(L, 1)


@pytest.mark.parametrize("labels", [
    [[0, True], [1, 0]],
    [[0, 1.5], [1, 0]],
    [[0, np.float64(1.0)], [1, 0]],
    np.array([[0, 2.9], [1.2, 0]]),
    np.array([[False, True], [True, False]]),
    [[0, 1], [1]],
], ids=["bool", "float", "numpy_float", "float_array", "bool_array", "ragged"])
def test_labelling_rejects_labels_that_are_not_integers(labels):
    # each used to be cut down to an integer label
    with pytest.raises(ValueError, match="labels must be rows of integers"):
        Labelling(cyclic_group(3), labels)


@pytest.mark.parametrize("label", [2 ** 70, -2 ** 70], ids=["above", "below"])
def test_labelling_rejects_a_label_beyond_int64(label):
    # the cast to int64 used to raise OverflowError, an internal error
    with pytest.raises(ValueError, match="labels must be rows of integers in the int64 range"):
        Labelling(cyclic_group(3), [[0, label], [1, 0]])


@pytest.mark.parametrize("entry", [1, 0.5, np.float64(1.0), np.int64(1)],
                         ids=["int", "float", "numpy_float", "numpy_int"])
def test_labelling_rejects_a_mask_that_is_not_boolean(entry):
    with pytest.raises(ValueError, match="mask must be rows of booleans"):
        Labelling(cyclic_group(3), [[0, 1], [2, 0]], [[False, entry], [True, False]])
    with pytest.raises(ValueError, match="mask must be rows of booleans"):
        Labelling(cyclic_group(3), [[0, 1], [2, 0]], np.array([[0, entry], [1, 0]]))


def test_labelling_accepts_numpy_integers_and_booleans():
    g3 = cyclic_group(3)
    want = Labelling(g3, [[0, 1], [2, 0]], [[False, True], [False, False]])
    for labels in ([[0, np.int64(1)], [np.uint8(2), 0]],
                   np.array([[0, 1], [2, 0]], dtype=np.uint8)):
        for mask in ([[np.False_, np.True_], [False, False]],
                     np.array([[False, True], [False, False]])):
            assert Labelling(g3, labels, mask) == want


@pytest.mark.parametrize("w", [3, -1, 1.0, True, np.float64(1.0), "1"],
                         ids=["n", "negative", "float", "bool", "numpy_float", "string"])
def test_arc_accessors_reject_a_non_vertex(w):
    # label(0, -1) returned 1, the label of the arc to the last vertex, and
    # label(0, True) raised numpy's TypeError
    L = extremal_cyclic(3, 3)
    message = re.escape(f"{w!r} is not a vertex 0..2")
    for call in (lambda: L.label(0, w), lambda: L.label(w, 0),
                 lambda: L.has_arc(0, w), lambda: L.has_arc(w, 0)):
        with pytest.raises(ValueError, match=message):
            call()


def test_arc_accessors_accept_numpy_integers():
    L = extremal_cyclic(3, 3)
    assert L.label(np.int64(0), np.uint8(2)) == L.label(0, 2) == 1
    assert L.has_arc(np.int32(2), 0) and not L.has_arc(np.int64(1), np.int64(1))


@pytest.mark.parametrize("label", [-1, 3, 2 ** 63 - 1], ids=["negative", "order", "int64_max"])
def test_labelling_checks_the_range_of_present_arcs_alone(label):
    # out of range on a present arc is an error, on an absent arc (and on
    # the diagonal) it is zeroed, from a list or an int64 array alike
    g3 = cyclic_group(3)
    for labels in ([[label, 1], [label, 0]], np.array([[label, 1], [label, 0]], dtype=np.int64)):
        with pytest.raises(ValueError, match="present arc with label outside the group"):
            Labelling(g3, labels)
        L = Labelling(g3, labels, [[False, True], [False, False]])
        assert L.labels.tolist() == [[0, 1], [0, 0]]
        assert L.labels.dtype == np.int64 and not L.labels.flags.writeable


def test_labellings_share_one_read_only_complete_mask():
    g3 = cyclic_group(3)
    first, second = Labelling(g3, [[0, 1], [2, 0]]), Labelling(g3, [[0, 2], [1, 0]])
    assert first.present is second.present
    assert first.present.tolist() == [[False, True], [True, False]]
    assert not first.present.flags.writeable
    assert first.is_complete()
    assert not Labelling(g3, [[0, 1], [2, 0]], [[False, True], [False, False]]).is_complete()


def test_cycle_value_examples():
    g3 = cyclic_group(3)
    Lid = Labelling(g3, [[0] * 3] * 3)
    assert cycle_value(Lid, [0, 1, 2]) == 0
    L = extremal_cyclic(3, 4)
    assert cycle_value(L, [0, 1, 2, 3]) == 0
    assert cycle_value(L, [0, 1, 2]) == 2


def test_cycle_value_start_conjugacy():
    rng = random.Random(5)
    f21_like = random_labelling(cyclic_group(7), 5, 99)
    for _ in range(50):
        verts = tuple(rng.sample(range(5), rng.randint(2, 5)))
        base = cycle_value(f21_like, verts)
        for k in range(len(verts)):
            v = cycle_value(f21_like, verts[k:] + verts[:k])
            assert (v == 0) == (base == 0)
            # values at different starts are conjugate: prefix c satisfies v = c^-1 base c
            g = f21_like.group
            c = path_value(f21_like, verts[: k + 1])
            assert v == g.mul(g.mul(g.inv(c), base), c)


def test_two_cycle_conjugacy():
    g5 = cyclic_group(5)
    L = Labelling(g5, [[0, 2, 0], [4, 0, 0], [0, 0, 0]])
    assert cycle_value(L, [0, 1]) == g5.mul(2, 4)
    assert cycle_value(L, [1, 0]) == g5.mul(4, 2)


def test_shift_rule():
    g5 = cyclic_group(5)
    L = random_labelling(g5, 4, 3)
    assert shift(L, 2, 0) == L
    shifted = shift(L, 2, 2)
    for u in range(4):
        for v in range(4):
            if u == v:
                continue
            if v == 2:
                assert shifted.label(u, v) == (L.label(u, v) - 2) % 5
            elif u == 2:
                assert shifted.label(u, v) == (2 + L.label(u, v)) % 5
            else:
                assert shifted.label(u, v) == L.label(u, v)


def test_shift_commutation():
    rng = random.Random(1)
    g = cyclic_group(7)
    for _ in range(25):
        L = random_labelling(g, 5, rng.getrandbits(32))
        v, w = rng.sample(range(5), 2)
        gv, gw = rng.randrange(7), rng.randrange(7)
        assert shift(shift(L, v, gv), w, gw) == shift(shift(L, w, gw), v, gv)


def test_shift_family_matches_sequential_shifts():
    rng = random.Random(2)
    g = cyclic_group(5)
    for _ in range(25):
        L = random_labelling(g, 4, rng.getrandbits(32))
        fam = random_shift_family(rng, 5, 4)
        via_family = apply_shift_family(L, fam)
        via_shifts = L
        for v, gv in enumerate(fam):
            via_shifts = shift(via_shifts, v, gv)
        assert via_family == via_shifts


@pytest.mark.parametrize("g", [-9, 9])
def test_shift_family_rejects_a_non_element(g):
    # over Z9, -9 would index the Cayley table as 0 and 9 past its end
    L = random_labelling(cyclic_group(9), 4, 1)
    with pytest.raises(ValueError, match=f"shift family holds {g}, not a group element 0..8"):
        apply_shift_family(L, [0, g, 0, 0])
    with pytest.raises(ValueError, match=f"shift family holds {g}"):
        shift(L, 1, g)


@pytest.mark.parametrize("g", [1.5, True, 1.0, pytest.param(np.float64(1.0), id="numpy_float")])
def test_shift_family_rejects_a_non_integer(g):
    # over Z9 each used to act as 1, coerced by numpy
    L = random_labelling(cyclic_group(9), 4, 1)
    with pytest.raises(ValueError, match=re.escape(f"shift family holds {g!r}, not an integer")):
        apply_shift_family(L, [0, g, 0, 0])
    with pytest.raises(ValueError, match=re.escape(f"shift family holds {g!r}, not an integer")):
        shift(L, 1, g)


def test_shift_family_accepts_numpy_integers():
    L = random_labelling(cyclic_group(9), 4, 1)
    want = apply_shift_family(L, [0, 1, 0, 0])
    assert apply_shift_family(L, np.array([0, 1, 0, 0])) == want
    assert apply_shift_family(L, [0, np.int64(1), 0, np.uint8(0)]) == want
    assert shift(L, 1, np.int32(1)) == want


def test_shifts_preserve_balanced_cycle_set():
    rng = random.Random(3)
    g5 = cyclic_group(5)
    for _ in range(100):
        n = rng.randint(2, 5)
        L = random_labelling(g5, n, rng.getrandbits(32))
        before = [c.vertices for c in enumerate_balanced_cycles(L)]
        shifted = L
        for _ in range(rng.randint(1, 4)):
            shifted = shift(shifted, rng.randrange(n), rng.randrange(5))
        after = [c.vertices for c in enumerate_balanced_cycles(shifted)]
        assert before == after


def test_invert_involution_and_example():
    g5 = cyclic_group(5)
    rng = random.Random(4)
    L = random_labelling(g5, 5, 17)
    assert invert(invert(L)) == L
    inv_L = invert(L)
    for u in range(5):
        for v in range(5):
            if u != v:
                assert inv_L.label(u, v) == (-L.label(v, u)) % 5
    # balanced-cycle existence is preserved (witnesses reverse)
    for _ in range(50):
        n = rng.randint(2, 5)
        M = random_labelling(g5, n, rng.getrandbits(32))
        assert bool(enumerate_balanced_cycles(M)) == bool(enumerate_balanced_cycles(invert(M)))


def test_invert_needs_symmetric_mask():
    g3 = cyclic_group(3)
    present = [[False, True], [False, False]]
    L = Labelling(g3, [[0, 1], [0, 0]], present)
    with pytest.raises(AsymmetricMask):
        invert(L)


def test_normalize():
    L = extremal_cyclic(3, 4)
    norm = normalize(L, 0)
    assert all(norm.label(0, w) == 0 for w in range(1, 4))
    # abelian cancellation: labels strictly inside {1,2,3} survive
    for u in range(1, 4):
        for v in range(1, 4):
            if u != v:
                assert norm.label(u, v) == L.label(u, v)
    assert normalize(norm, 0) == norm  # idempotent at the same base
    rng = random.Random(6)
    for _ in range(20):
        M = random_labelling(cyclic_group(5), 5, rng.getrandbits(32))
        v0 = rng.randrange(5)
        normed = normalize(M, v0)
        assert all(normed.label(v0, w) == 0 for w in range(5) if w != v0)
        assert shifting_equivalent(M, normed) is not None


def test_normalize_rejects_masked():
    g3 = cyclic_group(3)
    present = np.ones((3, 3), dtype=bool)
    present[0, 1] = False
    present[1, 0] = False
    L = Labelling(g3, [[0] * 3] * 3, present)
    with pytest.raises(IncompleteDigraph):
        normalize(L, 0)


def test_shifting_equivalent():
    rng = random.Random(8)
    g5 = cyclic_group(5)
    L = random_labelling(g5, 4, 23)
    fam = shifting_equivalent(L, shift(L, 2, 3))
    assert fam is not None
    assert apply_shift_family(L, fam) == shift(L, 2, 3)
    # all-identity labellings are equivalent via the identity family
    g3 = cyclic_group(3)
    Lid = Labelling(g3, [[0] * 3] * 3)
    assert shifting_equivalent(Lid, Lid) is not None
    # different balanced-cycle sets: never equivalent
    assert shifting_equivalent(extremal_cyclic(3, 3), Lid) is None
    with pytest.raises(Mismatch):
        shifting_equivalent(Lid, random_labelling(g5, 3, 1))
    with pytest.raises(Mismatch):
        shifting_equivalent(Lid, random_labelling(g3, 4, 1))


def test_shifting_equivalent_self_check_fires(monkeypatch):
    from balanced_cycles import labellings
    real = labellings.apply_shift_family

    def corrupted(L, family):
        # the normalizations pass arrays; only the witness check passes a tuple
        out = real(L, family)
        return real(out, [1] + [0] * (L.n - 1)) if isinstance(family, tuple) else out

    L = random_labelling(cyclic_group(5), 4, 1)
    assert shifting_equivalent(L, shift(L, 2, 3)) is not None
    monkeypatch.setattr(labellings, "apply_shift_family", corrupted)
    with pytest.raises(AssertionError, match="shift witness"):
        shifting_equivalent(L, shift(L, 2, 3))


def test_shifting_equivalence_invariant_under_inversion():
    rng = random.Random(9)
    g5 = cyclic_group(5)
    for _ in range(40):
        L1 = random_labelling(g5, 4, rng.getrandbits(32))
        if rng.random() < 0.5:
            L2 = apply_shift_family(L1, random_shift_family(rng, 5, 4))
        else:
            L2 = random_labelling(g5, 4, rng.getrandbits(32))
        direct = shifting_equivalent(L1, L2) is not None
        inverted = shifting_equivalent(invert(L1), invert(L2)) is not None
        assert direct == inverted


def test_labelling_json_round_trip():
    L = random_labelling(cyclic_group(7), 5, 55)
    assert labelling_from_json(L.to_json()) == L
    masked = Labelling(L.group, L.labels, ~np.eye(5, dtype=bool) & (np.arange(25).reshape(5, 5) % 3 != 0))
    obj = masked.to_json()
    assert "mask" in obj
    assert labelling_from_json(obj) == masked


@pytest.mark.parametrize("key", ["group", "labels"])
def test_missing_labelling_field_is_named(key):
    obj = extremal_cyclic(3, 3).to_json()
    del obj[key]
    with pytest.raises(BadSpec, match=f"labelling is missing the field '{key}'"):
        labelling_from_json(obj)


def test_dot_golden():
    g3 = cyclic_group(3)
    L = Labelling(g3, [[0, 1, 2], [0, 0, 1], [2, 0, 0]])
    witness = CycleWitness((0, 1))
    expected = (
        "digraph labelling {\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        '  0 -> 1 [label="1", color=red];\n'
        '  0 -> 2 [label="2"];\n'
        '  1 -> 0 [label="0", color=red];\n'
        '  1 -> 2 [label="1"];\n'
        '  2 -> 0 [label="2"];\n'
        '  2 -> 1 [label="0"];\n'
        "}\n"
    )
    assert to_dot(L, witness) == expected
