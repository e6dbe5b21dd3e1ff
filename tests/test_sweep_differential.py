"""The exact search against the reference dict sweep, witness for witness.

find_balanced_cycle runs the dense numpy kernel from every start, and the
int-bitmask dict layers confirm its cycle-free verdicts; the search must
return exactly the witness the reference in oracle.py returns, without
the dict layers, and the dict layers must close the same first cycle as
the dense kernel, start by start.
Instances come from two families: random labellings over the catalog
(abelian and non-abelian) with random arc masks, sparse enough that the
short-cycle scan often misses, and shifted extremal labellings with a few
arcs deleted, which have no short balanced cycles at all.  The short-cycle
scan alone, which reads reach's cycle lists, is held to the hand loops it
ran before (``reference_short_cycle_scan``) up to the heuristic sizes.
The re-check of a cycle-free verdict, ``reach._recheck_cycle_free``, must
raise exactly when a balanced cycle exists, with neither the dense kernel
nor the cycle lists, and with any one of the three routes broken, the
search and the re-check together must still find the cycle.
"""

import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_cycles import (Labelling, apply_shift_family, catalog, cyclic_group,
                             enumerate_balanced_cycles, extremal_cyclic, find_balanced_cycle,
                             random_labelling, short_cycle_scan)
from balanced_cycles import reach
from balanced_cycles.rng import trial_seeds
from oracle import (brute_has_balanced_cycle, reference_find_balanced_cycle,
                    reference_short_cycle_scan)

GROUPS = catalog()
SCAN_GROUPS = dict(GROUPS, Z64=cyclic_group(64))
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


@st.composite
def scan_labellings(draw) -> Labelling:
    """Masked labellings on 1-14 vertices or the heuristic sizes 24, 40 and 64:
    uniform labels over the catalog or Z64, or, so that misses and late hits
    occur at every size, Z64 extremal labels (no balanced 2- or 3-cycle)
    with a few arcs relabelled at random."""
    n = draw(st.sampled_from(list(range(1, 15)) + [24, 40, 64]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if rng.random() < 0.5:
        group = SCAN_GROUPS[draw(st.sampled_from(sorted(SCAN_GROUPS)))]
        labels = [[rng.randrange(group.order) for _ in range(n)] for _ in range(n)]
    else:
        group = SCAN_GROUPS["Z64"]
        labels = [[int(u < v) for v in range(n)] for u in range(n)]
        for _ in range(rng.randint(0, n)):
            labels[rng.randrange(n)][rng.randrange(n)] = rng.randrange(64)
    density = rng.choice([0.3, 0.6, 0.9, 1.0])
    return Labelling(group, labels, _mask(rng, n, density))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scan_labellings())
def test_short_cycle_scan_matches_reference(L):
    assert short_cycle_scan(L) == reference_short_cycle_scan(L)


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
    # the dense sweep's first hit, rebuilt by find_path_with_value, is the
    # first cycle the dict layers rebuild for themselves, start by start
    rows, pres = L.rows(), L.present_rows()
    for s in range(L.n - 1):
        closing = reach._dense_sweep(L, s)
        dense = None
        if closing is not None:
            mask, end = closing
            dense = reach._close_cycle(L, mask, s, end).vertices
        assert dense == next(reach._anchored_cycles(L, s, rows, pres), None), s


def _escalated_z64_trials() -> list[Labelling]:
    """The trials of verify_random(Z64, 8, 300, seed=5) that the short-cycle scan misses."""
    z64 = cyclic_group(64)
    trials = (random_labelling(z64, 8, seed) for seed in trial_seeds(5, 300))
    return [L for L in trials if short_cycle_scan(L) is None]


def _tied_paths() -> Labelling:
    """Over Z4, 1-3-2-4 and 1-2-3-4 have the same value and both close at 4;
    the smaller predecessor of 4 wins, so the witness is (1, 3, 2, 4)."""
    arcs = {(0, 1): 3, (0, 2): 2, (0, 4): 2, (1, 2): 0, (1, 3): 0, (1, 4): 0,
            (2, 3): 1, (2, 4): 0, (3, 2): 2, (3, 4): 1, (4, 1): 2, (4, 2): 1}
    labels = [[arcs.get((u, v), 0) for v in range(5)] for u in range(5)]
    mask = [[(u, v) in arcs for v in range(5)] for u in range(5)]
    return Labelling(cyclic_group(4), labels, mask)


def _broken(*args, **kwargs):
    raise AssertionError("route called")


def test_search_never_runs_the_dict_layers(monkeypatch):
    # the dict layers confirm the search's verdicts, so the search runs the
    # dense kernel from every start, the last ones on a few vertices too
    cases = ([extremal_cyclic(q, q + 1) for q in range(3, 8)] + _escalated_z64_trials()
             + [_tied_paths()])
    want = [reference_find_balanced_cycle(L) for L in cases]
    assert want[-1] == (1, 3, 2, 4)
    assert sum(w is not None and len(w) > 3 for w in want) >= 10
    monkeypatch.setattr(reach, "_grow_anchored", _broken)
    assert [_witness(L) for L in cases] == want


def test_late_cycle_rows():
    for q in (10, 11):
        assert _witness(extremal_cyclic(q, q + 1)) == tuple(range(q + 1))


# -- the re-check of cycle-free verdicts ---------------------------------------------

def _recheck(L: Labelling) -> None:
    """The re-check of L alone, a stack of one."""
    reach._recheck_cycle_free(L.group, L.labels[None], L.present)


def _confirmed_witness(L: Labelling):
    """The search's witness, a None confirmed by the re-check, as campaigns do."""
    found = _witness(L)
    if found is None:
        _recheck(L)
    return found


def _masked(L: Labelling, present) -> Labelling:
    return Labelling(L.group, L.labels, [[u != v and present(u, v) for v in range(L.n)]
                                         for u in range(L.n)])


def test_recheck_catches_a_broken_dense_kernel_on_a_late_start(monkeypatch):
    # the only cycle, 2 -> ... -> 9, closes from a start with 7 larger
    # vertices; the re-check reruns that start on the dict layers too
    L = _masked(extremal_cyclic(7, 10), lambda u, v: v > 1)
    assert [c.vertices for c in enumerate_balanced_cycles(L)] == [tuple(range(2, 10))]
    monkeypatch.setattr(reach, "_dense_layers", lambda *args, **kwargs: iter(()))
    with pytest.raises(AssertionError, match="re-verification"):
        _confirmed_witness(L)


def test_search_catches_broken_cycle_lists(monkeypatch):
    # with no balanced value on any listed cycle, the scan misses the only
    # cycle, (3, 4); the sweep reaches start 3 and closes it on the dense kernel
    base = extremal_cyclic(7, 5)
    labels = base.labels.copy()
    labels[4, 3] = 6
    L = _masked(Labelling(base.group, labels), lambda u, v: not (v == 4 and u < 3))
    assert [c.vertices for c in enumerate_balanced_cycles(L)] == [(3, 4)]
    listed = reach._cycle_values
    monkeypatch.setattr(reach, "_cycle_values", lambda *args: listed(*args) | 1)
    assert short_cycle_scan(L) is None
    assert _confirmed_witness(L) == (3, 4)


def test_recheck_catches_a_broken_dense_kernel(monkeypatch):
    # the only cycle of extremal(q, q + 1) has minimum vertex 0, a dense start
    cases = [extremal_cyclic(q, q + 1) for q in range(8, 12)]
    for L in cases:
        assert [c.vertices for c in enumerate_balanced_cycles(L)] == [tuple(range(L.n))]
    monkeypatch.setattr(reach, "_dense_layers", lambda *args, **kwargs: iter(()))
    for L in cases:
        with pytest.raises(AssertionError, match="re-verification"):
            _confirmed_witness(L)


@SETTINGS
@given(st.one_of(masked_random(2, 12), thinned_extremal(2, 12)))
def test_recheck_raises_exactly_on_a_balanced_cycle(L):
    # enumeration would list millions of cycles on a dense random labelling
    # with 12 vertices; above 7 the reference sweep of oracle.py decides
    if L.n <= 7:
        has_cycle = brute_has_balanced_cycle(L)
    else:
        has_cycle = reference_find_balanced_cycle(L) is not None
    if has_cycle:
        with pytest.raises(AssertionError, match="re-verification"):
            _recheck(L)
    else:
        _recheck(L)


def test_recheck_needs_neither_the_dense_kernel_nor_the_cycle_lists(monkeypatch):
    # the re-check confirms what those two produced, so it must decide alone
    cases = ([extremal_cyclic(q, q) for q in range(2, 13)]
             + [extremal_cyclic(q, q + 1) for q in range(2, 12)]
             + [_masked(extremal_cyclic(7, 10), lambda u, v: v > 1), _tied_paths()]
             + _escalated_z64_trials())
    has_cycle = [reference_find_balanced_cycle(L) is not None for L in cases]
    assert 0 < sum(has_cycle) < len(cases)
    monkeypatch.setattr(reach, "_dense_layers", _broken)
    monkeypatch.setattr(reach, "_cycle_values", _broken)
    for L, cycle in zip(cases, has_cycle):
        if cycle:
            with pytest.raises(AssertionError, match="re-verification"):
                _recheck(L)
        else:
            _recheck(L)


# -- the re-check of a stack of labellings ---------------------------------------------

def _stack_raises(group, labels, present) -> bool:
    try:
        reach._recheck_cycle_free(group, np.asarray(labels, dtype=np.int64), present)
    except AssertionError as exc:
        assert "re-verification" in str(exc)
        return True
    return False


def _element_order(group, g: int) -> int:
    k, power = 1, g
    while power:
        k, power = k + 1, group.mul(power, g)
    return k


def _planted_stacks(name: str, count: int = 9):
    """A stack of ``count`` cycle-free labellings over one group, each a random
    shift of g on the ascending arcs and the identity on the descending ones
    (g of the largest order k, n = min(k, 7): a cycle's value is g^a with
    0 < a < k), and a copy of one of them with a random cycle made balanced
    by relabelling its closing arc."""
    group = SCAN_GROUPS[name]
    rng = random.Random(name)
    g = max(group.elements(), key=lambda x: _element_order(group, x))
    n = min(_element_order(group, g), 7)
    base = Labelling(group, [[g if u < v else 0 for v in range(n)] for u in range(n)])
    stack = np.array([apply_shift_family(base, [rng.randrange(group.order) for _ in range(n)]).labels
                      for _ in range(count)])
    cycle = rng.sample(range(n), rng.randint(2, n))
    planted = stack[rng.randrange(count)].copy()
    value = 0
    for u, v in zip(cycle, cycle[1:]):
        value = group.mul(value, int(planted[u, v]))
    planted[cycle[-1], cycle[0]] = group.inv(value)
    return group, n, stack, planted


@pytest.mark.parametrize("name", sorted(SCAN_GROUPS))
def test_stacked_recheck_finds_a_planted_cycle_anywhere(monkeypatch, name):
    # the stack decides alone: neither the dense kernel nor the cycle lists run
    monkeypatch.setattr(reach, "_dense_layers", _broken)
    monkeypatch.setattr(reach, "_cycle_values", _broken)
    group, n, stack, planted = _planted_stacks(name)
    present = ~np.eye(n, dtype=bool)
    assert brute_has_balanced_cycle(Labelling(group, planted))
    assert _stack_raises(group, planted[None], present)
    for labels in stack:
        assert not brute_has_balanced_cycle(Labelling(group, labels))
        assert not _stack_raises(group, labels[None], present)
    assert not _stack_raises(group, stack, present)
    for at in (0, len(stack) // 2, len(stack) - 1):
        planted_stack = stack.copy()
        planted_stack[at] = planted
        assert _stack_raises(group, planted_stack, present), at


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(SCAN_GROUPS)), n=st.integers(2, 7),
       density=st.sampled_from([0.3, 0.5, 0.8, 1.0]), count=st.integers(2, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_recheck_raises_exactly_when_a_labelling_has_a_cycle(name, n, density, count, seed):
    # random labels on one shared arc mask: the stack raises exactly when
    # one of its labellings has a balanced cycle, each checked alone as a
    # stack of one and by brute force
    group = SCAN_GROUPS[name]
    rng = random.Random(seed)
    present = np.array(_mask(rng, n, density))
    stack = np.array([[[rng.randrange(group.order) if present[u, v] else 0 for v in range(n)]
                       for u in range(n)] for _ in range(count)])
    alone = [_stack_raises(group, labels[None], present) for labels in stack]
    assert alone == [brute_has_balanced_cycle(Labelling(group, labels, present))
                     for labels in stack]
    assert _stack_raises(group, stack, present) == any(alone)
