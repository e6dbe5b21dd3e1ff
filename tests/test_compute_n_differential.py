"""compute_n's vertex-extension search against the arc-by-arc backtracker.

``reference_cycle_free_labelling`` in oracle.py is the search compute_n ran
before.  Both decide whether a balanced-cycle-free labelling on n vertices
exists, so their verdicts must agree: for every catalog group of order at
most 4 (plus the trivial group and Z2xZ2) up to n = |G| + 1, where the
answer turns to "no", and for Z5, S3 and Z6 up to n = 5.  Z9 and F21 have
more than 8 elements, so their subsets span several byte chunks.  Every
witness must keep the arcs out of vertex 0 at the identity and be
cycle-free, by brute force and by enumerate_balanced_cycles.
"""

import pytest

from balanced_cycles import (catalog, compute_n, cyclic_group, enumerate_balanced_cycles,
                             product_group)
from balanced_cycles.harness import DEFAULT_NODE_BUDGET, _Budget, _cycle_free_labelling
from oracle import brute_has_balanced_cycle, reference_cycle_free_labelling

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
    found = _cycle_free_labelling(group, n, _Budget(DEFAULT_NODE_BUDGET))
    want = reference_cycle_free_labelling(group, n)
    assert (found is None) == (want is None)
    if found is not None:
        assert_normalized_cycle_free(found, n)


def test_compute_n_decides_z5():
    result = compute_n(cyclic_group(5))
    assert result.value == 6
    # pinned: the sorting rule cut it from 1,455,541
    assert result.nodes == 278_650 <= DEFAULT_NODE_BUDGET
    assert_normalized_cycle_free(result.witness, 5)
