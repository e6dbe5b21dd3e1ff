"""The exact search against the reference dict sweep, witness for witness.

find_balanced_cycle runs dense numpy layers for starts with at least
DENSE_MIN_FREE larger vertices and the int-bitmask dict sweep below; both
must return exactly the witness the reference in oracle.py returns.
Instances come from two families: random labellings over the catalog
(abelian and non-abelian) with random arc masks, sparse enough that the
short-cycle scan often misses, and shifted extremal labellings with a few
arcs deleted, which have no short balanced cycles at all.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_cycles import (Labelling, apply_shift_family, catalog,
                             extremal_cyclic, find_balanced_cycle,
                             random_labelling)
from balanced_cycles import reach
from oracle import brute_has_balanced_cycle, reference_find_balanced_cycle

GROUPS = catalog()
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _mask(rng: random.Random, n: int, density: float) -> list[list[bool]]:
    return [[u != v and rng.random() < density for v in range(n)] for u in range(n)]


@st.composite
def masked_random(draw, n_min: int, n_max: int) -> Labelling:
    group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    n = draw(st.sampled_from(range(n_min, n_max + 1)))
    base = random_labelling(group, n, draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.15, 0.25, 0.35, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return Labelling(group, base.labels, _mask(rng, n, density))


@st.composite
def thinned_extremal(draw, n_min: int, n_max: int) -> Labelling:
    n = draw(st.sampled_from(range(n_min, n_max + 1)))
    q = draw(st.integers(max(2, n - 3), n + 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    shifted = apply_shift_family(extremal_cyclic(q, n),
                                 tuple(rng.randrange(q) for _ in range(n)))
    return Labelling(shifted.group, shifted.labels, _mask(rng, n, 0.95))


def _witness(L: Labelling):
    found = find_balanced_cycle(L)
    return None if found is None else found.vertices


@SETTINGS
@given(masked_random(4, 13))
def test_random_masked_witness_matches_reference(L):
    assert _witness(L) == reference_find_balanced_cycle(L)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(thinned_extremal(4, 12))
def test_thinned_extremal_witness_matches_reference(L):
    assert _witness(L) == reference_find_balanced_cycle(L)


@SETTINGS
@given(st.one_of(masked_random(2, 7), thinned_extremal(2, 7)))
def test_small_verdict_matches_brute_force(L):
    assert (find_balanced_cycle(L) is not None) == brute_has_balanced_cycle(L)


@SETTINGS
@given(st.one_of(masked_random(3, 11), thinned_extremal(3, 11)))
def test_dense_and_dict_sweeps_agree_per_start(L):
    rows, pres = L.rows(), L.present_rows()
    for s in range(L.n - 1):
        assert reach._dense_sweep(L, s) == reach._python_sweep(L, s, rows, pres), s


def test_late_cycle_rows():
    for q in (10, 11):
        assert _witness(extremal_cyclic(q, q + 1)) == tuple(range(q + 1))
