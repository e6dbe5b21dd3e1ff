"""The dense layer kernel against the reference dict loops in oracle.py.

aggregated_reach_layers, reach_set, reach_table and reach_set_between run
on one dense numpy kernel over the vertices of the scope, with local mask
bit i standing for the i-th smallest scope vertex.  These tests compare
every flavour, layer by layer and entry by entry, with the pull loops the
package ran before (``reference_aggregated_reach_layers`` and
``reference_reach_table``) and with the start-anchored dict route for
reach_set_between, and the paths find_path_with_value rebuilds with the
top-down reconstruction ``reference_path_with_value``.  Scopes are random
and mostly non-contiguous, digraphs are masked, and the groups are the
catalog (abelian and non-abelian) plus Z32, Z33 and Z64, so value sets of
1, 2, 3, 4, 5 and 8 bytes all occur, and both forms of the rotation run
next to their boundary: Z32 rotates a doubled word (2q <= 64), Z33 takes
two shifts.  The proof engine is checked by running key_lemma and
make_efficient_tuple once on the kernel and once on the reference layers.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_cycles import (Labelling, apply_shift_family, catalog, cyclic_group,
                             extremal_cyclic, find_path_with_value, key_lemma,
                             make_efficient_tuple, reach_set, reach_set_between, reach_table,
                             start_anchored_table, subset_elements, subset_of)
from balanced_cycles import proof_engine, reach
from oracle import (brute_reach_between, reference_aggregated_reach_layers,
                    reference_path_with_value, reference_reach_table)

GROUPS = dict(catalog(), Z32=cyclic_group(32), Z33=cyclic_group(33), Z64=cyclic_group(64))
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def scoped_labellings(draw, n_max: int = 11, scope_max: int = 11) -> tuple[Labelling, int]:
    """A random masked labelling and a random non-empty scope of its vertices."""
    group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = rng.randint(1, n_max)
    density = rng.choice([0.3, 0.6, 0.9, 1.0])
    labels = [[rng.randrange(group.order) for _ in range(n)] for _ in range(n)]
    present = [[u != v and rng.random() < density for v in range(n)] for u in range(n)]
    scope = subset_of(rng.sample(range(n), rng.randint(1, min(n, scope_max))))
    return Labelling(group, labels, present), scope


@st.composite
def complete_labellings(draw, n_max: int = 10) -> Labelling:
    """Random complete labellings, or shifted extremal ones, which are cycle-free
    up to q vertices and reach the key lemma's certificate branch."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = rng.randint(2, n_max)
    if rng.random() < 0.5:
        group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
        labels = [[rng.randrange(group.order) for _ in range(n)] for _ in range(n)]
        return Labelling(group, labels)
    q = rng.randint(max(2, n - 1), n + 1)
    return apply_shift_family(extremal_cyclic(q, n), [rng.randrange(q) for _ in range(n)])


def _reference_views(L: Labelling, scope: int):
    """The reference layers wrapped as the kernel's layer views."""
    verts = subset_elements(scope)
    local = {v: 1 << i for i, v in enumerate(verts)}
    for size, layer in reference_aggregated_reach_layers(L, scope):
        masks = sorted(layer)
        array = np.zeros((len(masks), len(verts)), dtype=np.uint64)
        for row, mask in enumerate(masks):
            for e, bits in layer[mask].items():
                array[row, verts.index(e)] = bits
        locals_ = np.array([sum(local[v] for v in subset_elements(m)) for m in masks])
        yield size, reach._LayerView(verts, locals_, array)


@SETTINGS
@given(scoped_labellings())
def test_aggregated_layers_match_reference(case):
    L, scope = case
    dense = reach.aggregated_reach_layers(L, scope)
    for (size, layer), (ref_size, ref) in zip(dense, reference_aggregated_reach_layers(L, scope),
                                              strict=True):
        assert size == ref_size
        assert list(layer) == list(ref)  # ascending masks
        assert {mask: layer[mask] for mask in layer} == ref
        assert list(layer.items()) == list(ref.items())
        assert [len(entry) for entry in layer.values()] == [len(e) for e in ref.values()]
    for x in subset_elements(scope):
        assert reach_set(L, scope, x) == ref[scope][x]


@SETTINGS
@given(scoped_labellings())
def test_reach_table_matches_reference(case):
    L, scope = case
    table = reach_table(L, scope)
    ref = reference_reach_table(L, scope)
    assert table.table == ref
    for x in range(L.n):
        expected = 0
        for mask, entry in ref.items():
            expected |= entry.get(x, 0)
        assert table.aggregate(x) == expected
        if (scope >> x) & 1:
            assert expected == reach_set(L, scope, x)


def test_kept_layers_match_the_reference_with_no_bit_at_or_above_q():
    # Z30 rotates a doubled word: each layer reach_table keeps was doubled in
    # place while the next one was built, then masked back, so every kept
    # array equals the reference table entry by entry and no word holds a bit
    # at or above q
    group = cyclic_group(30)
    rng = random.Random(30)
    n = 12
    labels = [[rng.randrange(30) for _ in range(n)] for _ in range(n)]
    present = [[u != v and rng.random() < 0.8 for v in range(n)] for u in range(n)]
    L = Labelling(group, labels, present)
    scope = (1 << n) - 1
    ref = reference_reach_table(L, scope)
    table = reach_table(L, scope)
    assert len(table.layers) == n
    for layer in table.layers:
        assert not (layer.array >> np.uint64(30)).any()
        assert layer.array.tolist() == [[ref.get(mask, {}).get(v, 0) for v in layer.verts]
                                        for mask in layer]


@SETTINGS
@given(scoped_labellings())
def test_reach_set_between_matches_anchored_table(case):
    L, scope = case
    verts = subset_elements(scope)
    for u in verts:
        anchored = start_anchored_table(L, scope, start=u).table
        for v in verts:
            expected = 1 if u == v else 0
            for entry in anchored.values():
                if u != v:
                    expected |= entry.get(v, 0)
            assert reach_set_between(L, scope, u, v) == expected, (u, v)
            if len(verts) <= 6:
                assert set(subset_elements(expected)) == brute_reach_between(L, verts, u, v)


@SETTINGS
@given(scoped_labellings(n_max=10, scope_max=7), st.integers(0, 2 ** 32 - 1))
def test_find_path_with_value_matches_reference(case, seed):
    L, scope = case
    verts = subset_elements(scope)
    rng = random.Random(seed)
    u = rng.choice(verts)
    v = u if rng.random() < 0.2 else rng.choice(verts)
    attainable = brute_reach_between(L, verts, u, v)
    for value in range(L.group.order):
        if value in attainable:
            assert find_path_with_value(L, scope, u, v, value) == \
                reference_path_with_value(L, scope, u, v, value), (u, v, value)
        else:
            with pytest.raises(ValueError):
                find_path_with_value(L, scope, u, v, value)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(complete_labellings())
def test_proof_engine_matches_reference_layers(L):
    def outcomes():
        return [key_lemma(L).to_json()] + [make_efficient_tuple(L, v).to_json()
                                           for v in (0, L.n - 1)]

    dense = outcomes()
    with mock.patch.object(proof_engine, "aggregated_reach_layers", _reference_views):
        assert outcomes() == dense


def test_view_rejects_masks_outside_the_layer():
    L = extremal_cyclic(5, 6)
    scope = 0b101101
    layers = dict(reach.aggregated_reach_layers(L, scope))
    assert list(layers[2]) == sorted(m for m in range(64) if m & ~scope == 0
                                     and m.bit_count() == 2)
    # partly outside the scope (its in-scope part is a key), outside, the wrong size
    for mask in (0b000111, 0b000011, 0b001101, 0b100000, 0):
        assert mask not in layers[2]
