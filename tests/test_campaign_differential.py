"""The batched campaigns against their per-labelling references.

``rng.xoshiro_labels`` must draw, lane by lane, what the scalar
``random_labelling`` draws; the harness's 2- and 3-cycle sieve must give
``short_cycle_scan``'s verdict per trial; ``_enumerate_chunk`` must return
what the odometer in ``oracle.reference_enumerate_chunk`` returns on any
index range; and ``verify_random`` must not depend on where its blocks cut
the campaign.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balanced_cycles import (Labelling, build_group, catalog, cyclic_group,
                             random_labelling, short_cycle_scan, verify_random)
from balanced_cycles import harness
from balanced_cycles.reach import EXACT_CAP
from balanced_cycles.rng import trial_seeds, xoshiro_labels
from oracle import reference_enumerate_chunk, reference_verify_random

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
GROUPS = catalog()

SEEDS = st.one_of(st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1))


def strip_elapsed(report) -> dict:
    data = report.to_json()
    data.pop("elapsed_seconds")
    return data


@SETTINGS
@given(order=st.sampled_from([1, 2, 3, 21, 63, 64]),
       n=st.one_of(st.integers(2, 12), st.sampled_from([22, 40, 63, 64])),
       seeds=st.lists(SEEDS, min_size=1, max_size=5))
def test_xoshiro_labels_match_random_labelling(order, n, seeds):
    group = cyclic_group(order)
    labels = xoshiro_labels(order, n, seeds)
    assert labels.shape == (len(seeds), n, n)
    for lane, seed in zip(labels, seeds):
        assert np.array_equal(lane, random_labelling(group, n, seed).labels)


def test_xoshiro_labels_many_lanes():
    # enough lanes that some need several rounds of words, on every draw width
    for order, n in ((5, 6), (21, 9), (33, 7), (64, 5)):
        seeds = trial_seeds(order, 300)
        expected = [random_labelling(cyclic_group(order), n, seed).labels for seed in seeds]
        assert np.array_equal(xoshiro_labels(order, n, seeds), np.array(expected))


@SETTINGS
@given(name=st.sampled_from(sorted(GROUPS) + ["Z64"]), n=st.integers(2, 14),
       seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(1, 40))
def test_short_cycle_sieve_matches_scan(name, n, seed, trials):
    group = GROUPS[name] if name != "Z64" else cyclic_group(64)
    labels = xoshiro_labels(group.order, n, trial_seeds(seed, trials))
    first = harness._sieve(group.table, np.ascontiguousarray(labels.reshape(trials, n * n).T),
                           harness._cycle_arcs(n, 3))
    for lab, length in zip(labels, first.tolist()):
        witness = short_cycle_scan(Labelling(group, lab))
        assert length == (len(witness.vertices) if witness else 0)


@SETTINGS
@given(name=st.sampled_from(["Z3", "Z5", "Z9", "F21", "M(3,2,2)", "Z64"]),
       n=st.integers(2, 9), trials=st.integers(0, 40), seed=SEEDS,
       block=st.integers(1, 7), max_dp_vertices=st.sampled_from([0, EXACT_CAP]))
def test_verify_random_blocks_cut_anywhere(name, n, trials, seed, block, max_dp_vertices):
    group = GROUPS[name] if name != "Z64" else cyclic_group(64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "BLOCK_ELEMS", block * n * n)
        got = verify_random(group, n, trials, seed, max_dp_vertices=max_dp_vertices)
    want = reference_verify_random(group, n, trials, seed, max_dp_vertices=max_dp_vertices)
    assert strip_elapsed(got) == strip_elapsed(want)


EXHAUSTIVE = [{"kind": "cyclic", "q": 2}, {"kind": "cyclic", "q": 3}, {"kind": "cyclic", "q": 4},
              {"kind": "product", "left": {"kind": "cyclic", "q": 2},
               "right": {"kind": "cyclic", "q": 2}},
              {"kind": "metacyclic", "m": 3, "n": 2, "r": 2}]


@SETTINGS
@given(case=st.one_of(st.tuples(st.sampled_from(EXHAUSTIVE), st.integers(2, 4)),
                      st.tuples(st.sampled_from(EXHAUSTIVE[:2]), st.just(5))),
       normalized=st.booleans(), data=st.data(), block=st.integers(1, 300))
def test_enumerate_chunk_matches_reference(case, normalized, data, block):
    # at n = 5, over Z2 and Z3, ranges cut the blocks of one prefix each and
    # reach blocks that a 2-cycle among the prefix arcs settles whole
    spec, n = case
    space = build_group(spec).order ** len(harness._free_arcs(n, normalized))
    lo = data.draw(st.integers(0, space - 1))
    hi = data.draw(st.integers(lo + 1, min(space, lo + 3000)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "BLOCK_ELEMS", block * n * n)
        trials, counterexamples, lengths = harness._enumerate_chunk(spec, n, normalized, lo, hi)
    assert counterexamples.dtype == np.int64 and counterexamples.shape[1:] == (n, n)
    got = trials, counterexamples.tolist(), lengths
    assert got == reference_enumerate_chunk(spec, n, normalized, lo, hi)
