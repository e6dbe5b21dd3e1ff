"""Dichotomy procedures, tuple validation and augmentation, prime finder."""

import dataclasses
import random

import numpy as np
import pytest

from balanced_cycles import (BadSize, EfficientTuple, Labelling, NotInScope, NotPrime,
                             PreconditionViolated, StabilizerCertificate, TooLarge,
                             TrivialGroup,
                             augment_tuple, catalog, cycle_value, cyclic_group,
                             extremal_cyclic, find_balanced_cycle, key_lemma,
                             make_efficient_tuple, normalize, prime_finder,
                             random_labelling, stabilizer, subgroup_closure,
                             subset_elements, subset_of, validate_tuple)
from balanced_cycles import FiniteGroup, proof_engine, reach
from oracle import brute_has_balanced_cycle, brute_reach_set

Z9 = cyclic_group(9)


def scaled_extremal(group, n, generator):
    """Increasing arcs labelled ``generator``, decreasing the identity."""
    labels = np.zeros((n, n), dtype=np.int64)
    labels[np.triu_indices(n, k=1)] = generator
    return Labelling(group, labels)


def validate_dichotomy(L, out):
    """Re-validate whichever branch came back, through the reach oracle."""
    if out.cycle is not None:
        assert cycle_value(L, out.cycle) == 0
        return "cycle"
    cert = out.certificate
    recomputed = brute_reach_set(L, subset_elements(cert.X), cert.x)
    assert set(subset_elements(cert.R)) == recomputed
    assert cert.R.bit_count() >= cert.X.bit_count()
    stab = stabilizer(L.group, cert.R, "right")
    assert stab == cert.right_stab and stab.bit_count() >= 2
    return "certificate"


def test_key_lemma_extremal_3_3():
    L = extremal_cyclic(3, 3)
    out = key_lemma(L)
    assert out.within_hypothesis
    cert = out.certificate
    assert cert is not None
    assert cert.X == subset_of([0, 1, 2])
    assert cert.x == 2
    assert subset_elements(cert.R) == [0, 1, 2]
    assert subset_elements(cert.right_stab) == [0, 1, 2]
    assert cert.validate(L) == []


def test_key_lemma_all_identity_cycle_branch():
    for q in (2, 3, 5):
        g = cyclic_group(q)
        L = Labelling(g, [[0] * q for _ in range(q)])
        out = key_lemma(L)
        assert out.cycle is not None and cycle_value(L, out.cycle) == 0


def test_key_lemma_extremal_certificates():
    for q in (5, 7):
        L = extremal_cyclic(q, q)
        out = key_lemma(L)
        assert validate_dichotomy(L, out) == "certificate"
        assert out.certificate.R == L.group.full_subset()


def test_key_lemma_small_reach_branch():
    # every label inside the subgroup {0,3,6} of Z9 keeps all reach sets
    # small, so the subset collection is non-empty and the F-cycle argument
    # runs; its cycle value 3 right-stabilizes R_0 instead of closing a
    # balanced cycle
    L = scaled_extremal(Z9, 4, 3)
    out = key_lemma(L)
    assert not out.within_hypothesis  # 4 vertices over a group of order 9
    cert = out.certificate
    assert cert is not None
    assert cert.X == subset_of([0, 1, 3])
    assert cert.x == 3
    assert subset_elements(cert.R) == [0, 3, 6]
    assert subset_elements(cert.right_stab) == [0, 3, 6]
    assert cert.validate(L) == []


def test_key_lemma_totality_random():
    rng = random.Random(12)
    pool = [g for name, g in catalog().items() if g.order > 1]
    for _ in range(60):
        g = rng.choice(pool)
        n = rng.randint(2, min(6, g.order))
        L = random_labelling(g, n, rng.getrandbits(32))
        out = key_lemma(L)
        if out.within_hypothesis or out.cycle is not None:
            validate_dichotomy(L, out)
        # consistency: cycle-free inputs always produce certificates
        if brute_has_balanced_cycle(L):
            continue
        assert out.certificate is not None


def test_key_lemma_errors():
    with pytest.raises(TrivialGroup):
        key_lemma(Labelling(cyclic_group(1), [[0, 0], [0, 0]]))
    with pytest.raises(TooLarge):
        key_lemma(Labelling(cyclic_group(2), [[0] * 21 for _ in range(21)]))


def test_key_lemma_deterministic():
    L = scaled_extremal(Z9, 4, 3)
    assert key_lemma(L).to_json() == key_lemma(L).to_json()


def test_make_efficient_tuple_converts_full_reach():
    out = make_efficient_tuple(extremal_cyclic(3, 4), 0)
    assert out.cycle is not None
    assert out.cycle.vertices == (0, 1, 2, 3)


def test_make_efficient_tuple_short_circuit():
    for q in (2, 3):
        g = cyclic_group(q)
        L = Labelling(g, [[0] * (q + 1) for _ in range(q + 1)])
        out = make_efficient_tuple(L, 0)
        assert out.cycle is not None and len(out.cycle.vertices) == 2


@pytest.mark.parametrize("v0", [9, 5, -1])
def test_make_efficient_tuple_rejects_a_vertex_outside_the_labelling(v0):
    with pytest.raises(NotInScope, match=f"vertex {v0} not in the scope"):
        make_efficient_tuple(extremal_cyclic(5, 5), v0)


def test_certificate_lists_a_vertex_outside_the_labelling():
    L = extremal_cyclic(5, 5)
    # True and the floats are listed, not coerced: True used to reach
    # reach_set and raise there
    for X, x in [((1 << 9) | 1, 0), (-1, 0), (True, 0), (1.5, 0), (np.float64(1.0), 0)]:
        cert = StabilizerCertificate(X=X, x=x, R=1, right_stab=1)
        assert cert.validate(L) == ["X holds a vertex outside 0..4"]
    for x in (9, -1, True, 1.5, np.float64(1.0)):
        cert = StabilizerCertificate(X=0b11, x=x, R=1, right_stab=1)
        assert cert.validate(L) == ["x is not a member of X"]


def test_make_efficient_tuple_genuine_tuple():
    # Z9 on 5 vertices, labels from the generator-1 extremal pattern: the
    # inner digraph is balanced-cycle-free and its reach certificate has
    # R = {0,1,2,3} != Z9, so a tuple survives conversion; with only 5
    # vertices this sits outside the |G|+1 setting and the right stabilizer
    # comes out trivial, which validation must flag
    L = scaled_extremal(Z9, 5, 1)
    out = make_efficient_tuple(L, 0)
    assert not out.within_hypothesis
    tup = out.efficient_tuple
    assert tup is not None
    assert tup.u == 0 and tup.v == 4
    assert tup.X == subset_of([0, 1, 2, 3, 4])
    assert subset_elements(tup.R) == [0, 1, 2, 3]
    assert not tup.is_super
    report = validate_tuple(L, tup)
    assert "right stabilizer of R is trivial" in report.failures


def build_synthetic_tuple(n=10):
    """The augment example: R = {0,3,6} realized as 0-to-3 path values in Z9.

    X = {0,1,2,3} with u=0, v=3; arcs (0,3)=0, (0,1)=3 with (1,3)=0,
    (0,2)=6 with (2,3)=0; everything else inside X stays in {0,3,6} so the
    attained value set contains R.  Vertices 4..n-1 idle outside X with
    identity arcs into u; label(4,5)=1 moves R.
    """
    labels = np.zeros((n, n), dtype=np.int64)
    labels[0, 1] = 3
    labels[0, 2] = 6
    labels[4, 5] = 1
    L = Labelling(Z9, labels)
    tup = EfficientTuple(X=subset_of([0, 1, 2, 3]), u=0, v=3, gamma_prime=L,
                         R=subset_of([0, 3, 6]), shift_family=(0,) * n,
                         is_super=False)
    return L, tup


def test_validate_tuple_synthetic():
    L, tup = build_synthetic_tuple()
    report = validate_tuple(L, tup)
    assert report.ok, report.failures
    assert report.counting_applicable  # 10 vertices over a group of order 9
    assert report.claims_ok
    assert report.extracted_cycle is None


def test_validate_tuple_negative_control():
    L, tup = build_synthetic_tuple()
    broken = EfficientTuple(X=tup.X | subset_of([6, 7]), u=tup.u, v=tup.v,
                            gamma_prime=tup.gamma_prime, R=tup.R,
                            shift_family=tup.shift_family, is_super=False)
    report = validate_tuple(L, broken)
    assert "|R| < |X| - 1" in report.failures


@pytest.mark.parametrize("change, failures", [
    ({"R": 0b11110}, ["R is not the reach set of (X, x)", "|R| < |X|",
                      "right_stab is not the right stabilizer of R", "right stabilizer is trivial"]),
    ({"x": 0}, ["R is not the reach set of (X, x)"]),
    ({"right_stab": 1}, ["right_stab is not the right stabilizer of R"]),
    ({"X": 0b111}, ["x is not a member of X"]),
], ids=["R", "x", "right_stab", "X"])
def test_certificate_validation_lists_each_broken_field(change, failures):
    L = extremal_cyclic(5, 5)
    cert = key_lemma(L).certificate
    assert cert.validate(L) == []
    assert dataclasses.replace(cert, **change).validate(L) == failures


_ALL_ZERO_Z9 = Labelling(Z9, np.zeros((10, 10), dtype=np.int64))


@pytest.mark.parametrize("change, failures", [
    ({"gamma_prime": build_synthetic_tuple(9)[0]},
     ["tuple labelling does not match the base labelling"]),
    ({"u": 3}, ["u and v must be distinct"]),
    ({"shift_family": (1,) + (0,) * 9}, ["stored shift family does not reproduce gamma_prime"]),
    ({"gamma_prime": _ALL_ZERO_Z9},
     ["stored shift family does not reproduce gamma_prime",
      "gamma_prime is not shifting-equivalent to the base labelling",
      "R is not a subset of the attainable u-to-v path values"]),
    ({"R": subset_of([1, 4, 7])}, ["R is not a subset of the attainable u-to-v path values"]),
    ({"is_super": True}, ["tuple tagged super-efficient but |R| < |X|"]),
], ids=["base_mismatch", "u_is_v", "shift_family", "not_equivalent", "R", "is_super"])
def test_validate_tuple_lists_each_broken_field(change, failures):
    L, tup = build_synthetic_tuple()
    assert validate_tuple(L, tup).failures == []
    assert validate_tuple(L, dataclasses.replace(tup, **change)).failures == failures


def test_validate_tuple_lists_a_vertex_outside_the_labelling():
    L, tup = build_synthetic_tuple()
    fields = dict(u=tup.u, v=tup.v, gamma_prime=tup.gamma_prime, R=tup.R,
                  shift_family=tup.shift_family, is_super=False)
    report = validate_tuple(L, EfficientTuple(X=tup.X | 1 << L.n, **fields))
    assert report.failures == [f"X holds a vertex outside 0..{L.n - 1}"]
    fields.update(u=-1)
    report = validate_tuple(L, EfficientTuple(X=tup.X, **fields))
    assert report.failures == ["vertex -1 is outside X"]
    for bad in (True, 1.5, np.float64(1.0)):  # True used to pass as vertex 1 and crash later
        fields.update(u=bad)
        report = validate_tuple(L, EfficientTuple(X=tup.X, **fields))
        assert report.failures == [f"vertex {bad} is outside X"]
        fields.update(u=tup.u)
        report = validate_tuple(L, EfficientTuple(X=bad, **fields))
        assert report.failures == [f"X holds a vertex outside 0..{L.n - 1}"]


@pytest.mark.parametrize("g", [-9, 9, 1.5, True, pytest.param(np.float64(1.0), id="numpy_float")])
def test_validate_tuple_lists_a_non_element_in_the_shift_family(g):
    L, tup = build_synthetic_tuple()
    family = (0, g) + (0,) * (L.n - 2)
    report = validate_tuple(L, EfficientTuple(X=tup.X, u=tup.u, v=tup.v, gamma_prime=L,
                                              R=tup.R, shift_family=family, is_super=False))
    assert report.failures == ["shift family holds a non-element"]


def test_validate_tuple_lists_a_shift_family_of_the_wrong_length():
    L, tup = build_synthetic_tuple()
    report = validate_tuple(L, EfficientTuple(X=tup.X, u=tup.u, v=tup.v, gamma_prime=L,
                                              R=tup.R, shift_family=(0, 0, 0), is_super=False))
    assert report.failures == ["shift family has 3 members for 10 vertices"]


def test_validate_tuple_full_reach_extracts_witness():
    base = extremal_cyclic(3, 4)
    gamma_prime = normalize(base, 0)
    family = (0, 1, 1, 1)  # row 0 of the extremal labels
    tup = EfficientTuple(X=subset_of([0, 1, 2, 3]), u=0, v=3,
                         gamma_prime=gamma_prime, R=base.group.full_subset(),
                         shift_family=family, is_super=False)
    report = validate_tuple(base, tup)
    assert report.ok, report.failures
    assert not report.claims_ok
    assert any("whole group" in msg for msg in report.claim_failures)
    assert report.extracted_cycle is not None
    assert report.extracted_cycle.vertices == (0, 1, 2, 3)
    assert cycle_value(base, report.extracted_cycle) == 0


def test_augment_tuple_example():
    L, tup = build_synthetic_tuple()
    grown = augment_tuple(L, tup, 4, 5)
    assert subset_elements(grown.R) == [0, 1, 3, 4, 6, 7]
    assert grown.X == subset_of([0, 1, 2, 3, 4, 5])
    assert grown.u == 4 and grown.v == 3
    assert grown.is_super  # |R'| = 6 >= |X'| = 6
    report = validate_tuple(L, grown)
    assert report.ok, report.failures
    assert report.claims_ok


def test_augment_tuple_renormalizes():
    L, tup = build_synthetic_tuple()
    labels = L.labels.copy()
    labels[4, 0] = 5
    labels[5, 0] = 2
    labels[4, 5] = 4  # becomes -5 + 4 + 2 = 1 after renormalization
    dirty = Labelling(Z9, labels)
    tup = EfficientTuple(X=tup.X, u=0, v=3, gamma_prime=dirty, R=tup.R,
                         shift_family=(0,) * 10, is_super=False)
    grown = augment_tuple(dirty, tup, 4, 5)
    assert grown.gamma_prime.label(4, 0) == 0
    assert grown.gamma_prime.label(5, 0) == 0
    assert grown.gamma_prime.label(4, 5) == 1
    for u in range(4):
        for v in range(4):
            if u != v:
                assert grown.gamma_prime.label(u, v) == dirty.label(u, v)
    assert subset_elements(grown.R) == [0, 1, 3, 4, 6, 7]
    report = validate_tuple(dirty, grown)
    assert report.ok, report.failures


def test_augment_tuple_guards():
    L, tup = build_synthetic_tuple()
    with pytest.raises(PreconditionViolated):
        augment_tuple(L, tup, 3, 5)  # w1 inside X
    with pytest.raises(PreconditionViolated):
        augment_tuple(L, tup, 4, 4)
    with pytest.raises(PreconditionViolated):
        augment_tuple(L, tup, 5, 4)  # label(5,4) = 0 stabilizes R on the left


@pytest.mark.parametrize("w", [True, 1.5, np.float64(1.0)], ids=["bool", "float", "numpy_float"])
def test_augment_tuple_vertices_are_integers(w):
    # True used to pass the range test as vertex 1 and 1.5 to crash on a shift
    L, tup = build_synthetic_tuple()
    for w1, w2 in ((w, 5), (4, w)):
        with pytest.raises(PreconditionViolated, match="distinct in-range vertices"):
            augment_tuple(L, tup, w1, w2)


def test_augment_tuple_accepts_numpy_integers():
    L, tup = build_synthetic_tuple()
    assert augment_tuple(L, tup, np.int64(4), np.uint8(5)) == augment_tuple(L, tup, 4, 5)


# -- self-checks: each raises AssertionError itself, so ``python -O`` keeps it --

KEY_LEMMA_FAULTS = {
    # every layer entry read back empty: no vertex of U has an F-successor
    "out_degree": (reach._LayerView, "__getitem__", lambda view, mask: dict.fromkeys(range(4), 0),
                   "out-degree"),
    # an image with a bit beyond the group, which no reach set holds
    "containment": (FiniteGroup, "subset_mul_elem", lambda group, bits, g: 1 << group.order,
                    "containment"),
    "equality": (FiniteGroup, "subset_mul_elem", lambda group, bits, g: 0, "equality"),
    "stabilizer": (proof_engine, "stabilizer", lambda group, bits, side: 1, "R_0"),
}


@pytest.mark.parametrize("fault", sorted(KEY_LEMMA_FAULTS))
def test_key_lemma_self_check_fires(monkeypatch, fault):
    owner, attr, broken, message = KEY_LEMMA_FAULTS[fault]
    # over Z3 on 4 vertices this labelling has a small-reach set U whose
    # F-cycle has the value 2, so every check of the F-walk runs
    L = random_labelling(cyclic_group(3), 4, 2)
    assert key_lemma(L).certificate is not None
    monkeypatch.setattr(owner, attr, broken)
    with pytest.raises(AssertionError, match=message):
        key_lemma(L)


@pytest.mark.parametrize("grown, message", [
    (lambda group, bits, x: bits, "growth lower bound"),
    (lambda group, bits, x: bits | 0b10, "right stabilizer must be preserved"),
], ids=["no_growth", "stabilizer_lost"])
def test_augment_tuple_self_check_fires(monkeypatch, grown, message):
    L, tup = build_synthetic_tuple()
    monkeypatch.setattr(proof_engine, "grow_set", grown)
    with pytest.raises(AssertionError, match=message):
        augment_tuple(L, tup, 4, 5)


def random_synthetic_tuple(rng, group):
    """A valid efficient tuple over ``group`` with random coset-union R."""
    order = group.order
    h = 1
    while h.bit_count() < 2:
        h = subgroup_closure(group, [rng.randrange(1, order)])
    reps = rng.sample(range(order), rng.randint(1, max(1, order // h.bit_count() // 2)))
    R = 0
    for a in reps:
        R |= group.elem_mul_subset(a, h)
    values = subset_elements(R)
    k = len(values)
    n = k + 3 + 2  # u, k-1 relays, v, and two outside vertices
    if n > 12:
        return None
    labels = [[0] * n for _ in range(n)]
    v = k  # u=0, relays 1..k-1, v=k
    for i, val in enumerate(values):
        if i == 0:
            labels[0][v] = val  # direct arc realizes the first value
        else:
            labels[0][i] = val  # relay path 0 -> i -> v
    w1, w2 = k + 1, k + 2
    labels[w1][w2] = rng.randrange(order)
    L = Labelling(group, labels)
    X = subset_of(range(k + 1))
    stab_l = stabilizer(group, R, "left")
    if (stab_l >> L.label(w1, w2)) & 1:
        return None
    tup = EfficientTuple(X=X, u=0, v=v, gamma_prime=L, R=R,
                         shift_family=(0,) * n,
                         is_super=R.bit_count() >= X.bit_count())
    return L, tup, w1, w2


def test_augment_tuple_property_run(groups):
    rng = random.Random(99)
    pool = [groups[name] for name in ("Z9", "Z15", "Z3xZ3", "Z3xZ9", "F21", "M(3,2,2)")]
    successes = 0
    while successes < 1000:
        built = random_synthetic_tuple(rng, rng.choice(pool))
        if built is None:
            continue
        L, tup, w1, w2 = built
        before = validate_tuple(L, tup)
        assert before.ok, before.failures
        stab_before = stabilizer(L.group, tup.R, "right")
        grown = augment_tuple(L, tup, w1, w2)
        assert grown.R.bit_count() - tup.R.bit_count() >= stab_before.bit_count()
        assert stab_before & ~stabilizer(L.group, grown.R, "right") == 0
        after = validate_tuple(L, grown)
        assert after.ok, after.failures
        successes += 1


def test_prime_finder_examples():
    w = prime_finder(extremal_cyclic(3, 4))
    assert w.vertices == (0, 1, 2, 3)
    L = random_labelling(cyclic_group(5), 6, 7)
    w = prime_finder(L)
    assert cycle_value(L, w) == 0
    assert find_balanced_cycle(L) is not None
    g3 = cyclic_group(3)
    all_id = Labelling(g3, [[0] * 4] * 4)
    assert len(prime_finder(all_id).vertices) == 2


def test_prime_finder_validation_loop():
    # 100 per prime here; the acceptance suite runs the full thousand
    for p, n in ((3, 4), (5, 6), (7, 8)):
        g = cyclic_group(p)
        for seed in range(100):
            L = random_labelling(g, n, seed)
            w = prime_finder(L)
            assert cycle_value(L, w) == 0


def test_prime_finder_smallest_prime():
    g2 = cyclic_group(2)
    for seed in range(50):
        L = random_labelling(g2, 3, seed)
        witness = prime_finder(L)
        assert cycle_value(L, witness) == 0


def test_prime_finder_errors():
    with pytest.raises(NotPrime):
        prime_finder(random_labelling(cyclic_group(9), 10, 0))
    with pytest.raises(BadSize):
        prime_finder(random_labelling(cyclic_group(5), 5, 0))
