"""Extremal instances and the pinned random generator."""

import numpy as np
import pytest

from balanced_cycles import (BadIndex, BadSize, arc_critical_instance,
                             cyclic_group, enumerate_balanced_cycles,
                             extremal_cyclic, random_labelling)
from oracle import brute_balanced_cycles


def test_extremal_labels():
    L = extremal_cyclic(3, 4)
    for u in range(4):
        for v in range(4):
            if u != v:
                assert L.label(u, v) == (1 if u < v else 0)
    assert L.is_complete()


def test_extremal_two_vertices():
    L = extremal_cyclic(2, 2)
    assert L.label(0, 1) == 1 and L.label(1, 0) == 0
    assert brute_balanced_cycles(L) == []


def test_extremal_has_no_balanced_cycle_at_q():
    for q in (3, 4, 5):
        for n in range(2, q + 1):
            assert enumerate_balanced_cycles(extremal_cyclic(q, n)) == []


def test_extremal_unique_balanced_cycle_at_q_plus_one():
    for q in (3, 5):
        cycles = enumerate_balanced_cycles(extremal_cyclic(q, q + 1))
        assert [c.vertices for c in cycles] == [tuple(range(q + 1))]


def test_arc_critical():
    for q in (3, 5):
        for k in range(q + 1):
            assert enumerate_balanced_cycles(arc_critical_instance(q, k)) == []
    # the deleted arc really is gone
    inst = arc_critical_instance(3, 0)
    assert not inst.has_arc(0, 1)
    inst = arc_critical_instance(3, 3)
    assert not inst.has_arc(3, 0)


def test_size_errors():
    with pytest.raises(BadSize):
        extremal_cyclic(1, 3)
    with pytest.raises(BadSize):
        extremal_cyclic(3, 1)
    with pytest.raises(BadSize):
        extremal_cyclic(3, 65)
    with pytest.raises(BadIndex):
        arc_critical_instance(3, 4)
    with pytest.raises(BadIndex):
        arc_critical_instance(3, -1)
    with pytest.raises(BadSize):
        random_labelling(cyclic_group(3), 1, 0)


@pytest.mark.parametrize("k", [True, 1.5, np.float64(1.0)], ids=["bool", "float", "numpy_float"])
def test_arc_index_is_an_integer(k):
    # True used to index the mask as a boolean and delete every arc out of vertex 2
    with pytest.raises(BadIndex, match=f"arc index {k} outside 0..3"):
        arc_critical_instance(3, k)


def test_construction_sizes_are_integers():
    # each used to reach numpy with a float shape or build the group "Z3.0"
    for n in (3.0, np.float64(3.0)):
        with pytest.raises(BadSize, match="vertex count"):
            extremal_cyclic(3, n)
        with pytest.raises(BadSize, match="vertex count"):
            random_labelling(cyclic_group(3), n, 0)
    for q in (3.0, np.float64(3.0)):
        with pytest.raises(BadSize, match="needs an integer q"):
            extremal_cyclic(q, 3)
        with pytest.raises(BadSize, match="needs an integer q"):
            arc_critical_instance(q, 1)
    assert extremal_cyclic(np.int64(3), np.int64(4)) == extremal_cyclic(3, 4)
    assert arc_critical_instance(np.int64(3), np.int64(1)) == arc_critical_instance(3, 1)


def test_random_labelling_deterministic():
    g = cyclic_group(5)
    assert random_labelling(g, 6, 42) == random_labelling(g, 6, 42)
    assert random_labelling(g, 6, 42) != random_labelling(g, 6, 43)


def test_random_labelling_golden():
    # frozen output of the pinned xoshiro256** stream; a change here means
    # the generator is no longer the documented one
    L = random_labelling(cyclic_group(5), 3, 42)
    assert L.labels.tolist() == [[0, 0, 3], [4, 0, 2], [2, 4, 0]]


def test_random_labelling_trivial_group():
    g1 = cyclic_group(1)
    L = random_labelling(g1, 4, 7)
    assert L.labels.max() == 0
    # every 2-cycle is balanced
    assert all(c in [w for w in brute_balanced_cycles(L)]
               for c in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_random_labelling_uniformity():
    # chi-square over 10^4 seeds, 30 labels each, 5 bins; dof = 4, so the
    # statistic should sit near 4 -- the bound below is a 1e-6-ish alarm
    # for gross non-uniformity, not a sharp test
    g = cyclic_group(5)
    counts = [0] * 5
    for seed in range(10_000):
        for row in random_labelling(g, 6, seed).labels.tolist():
            for v in row:
                counts[v] += 1
    counts[0] -= 6 * 10_000  # diagonal zeros are not draws
    total = sum(counts)
    expected = total / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 35, f"chi-square {chi2:.1f} with counts {counts}"
