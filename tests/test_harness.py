"""Campaign machinery: exhaustive sweeps, randomized trials, n(G) search."""

from concurrent.futures import Future
from itertools import islice

import numpy as np
import pytest

from balanced_cycles import harness, reach
from balanced_cycles import (BadSeed, BadSize, Labelling, SearchSpaceTooLarge, compute_n,
                             cyclic_group, enumerate_balanced_cycles, extremal_cyclic,
                             find_balanced_cycle, metacyclic_group,
                             product_group, random_labelling,
                             shifting_equivalent, verify_all, verify_random)


def strip_elapsed(report):
    data = report.to_json()
    data.pop("elapsed_seconds")
    return data


def test_verify_all_z2():
    report = verify_all(cyclic_group(2), 3)
    assert report.trials == 64
    assert report.counterexample_count == 0
    assert sum(report.witness_lengths.values()) == 64


def test_verify_all_z3_n3_finds_extremal_class():
    report = verify_all(cyclic_group(3), 3)
    assert report.trials == 729
    assert report.counterexample_count > 0
    ext = extremal_cyclic(3, 3)
    assert any(shifting_equivalent(c, ext) is not None for c in report.counterexamples)
    for c in report.counterexamples:
        assert find_balanced_cycle(c) is None


def test_verify_all_normalized_agrees_on_verdict():
    for q, n in ((2, 3), (3, 3)):
        g = cyclic_group(q)
        full = verify_all(g, n, normalized=False)
        norm = verify_all(g, n, normalized=True)
        assert (full.counterexample_count > 0) == (norm.counterexample_count > 0)
        assert norm.trials == q ** (n * (n - 1) - (n - 1))


def test_verify_all_z3_n4_normalized_clean():
    report = verify_all(cyclic_group(3), 4, normalized=True)
    assert report.trials == 3 ** 9 == 19683
    assert report.counterexample_count == 0


def test_verify_all_trivial_group():
    g1 = cyclic_group(1)
    assert verify_all(g1, 1).counterexample_count == 1  # no cycles on one vertex
    report = verify_all(g1, 2)
    assert report.counterexample_count == 0
    assert report.witness_lengths == {2: 1}


def test_verify_all_trivial_group_goes_through_the_sieve(monkeypatch):
    # the one labelling dies at length 2 on the cycle lists at any n, so no
    # longer list is built, even at n = 64
    built = []
    listed = reach._cycle_list

    def spy(n, length):
        built.append((n, length))
        return listed(n, length)

    monkeypatch.setattr(reach, "_cycle_list", spy)
    g1 = cyclic_group(1)
    for n in (2, 5, 64):
        built.clear()
        report = verify_all(g1, n)
        assert report.trials == 1
        assert report.counterexample_count == 0
        assert report.witness_lengths == {2: 1}
        assert report.witness_methods == {"cycle_list": 1}
        assert built == [(n, 2)]
    with pytest.raises(BadSize, match="vertex count 65 outside 1..64"):
        verify_all(g1, 65)


def test_verify_all_trivial_group_rechecks_its_counterexample(monkeypatch):
    # one vertex has no cycle; the counterexample is re-checked like any other
    rechecked = []

    def recheck(group, labels, present):
        rechecked.extend(Labelling(group, lab, present) for lab in labels)

    monkeypatch.setattr(harness, "_recheck_cycle_free", recheck)
    report = verify_all(cyclic_group(1), 1)
    assert report.counterexamples == rechecked
    assert [L.n for L in rechecked] == [1]
    assert report.witness_methods == {}


def test_verify_all_rechecks_every_counterexample_in_stacks_of_a_block(monkeypatch):
    # Z3 on 3 vertices, normalized, keeps 10 counterexamples; with a block of
    # 4 labellings they are re-checked as stacks of 4, 4 and 2, in index order
    stacks = []

    def recheck(group, labels, present):
        assert np.array_equal(present, ~np.eye(3, dtype=bool))
        stacks.append(labels.copy())

    monkeypatch.setattr(harness, "BLOCK_ELEMS", 4 * 3 * 3)
    monkeypatch.setattr(harness, "_recheck_cycle_free", recheck)
    report = verify_all(cyclic_group(3), 3, normalized=True)
    assert [len(stack) for stack in stacks] == [4, 4, 2]
    assert np.concatenate(stacks).tolist() == [L.labels.tolist() for L in report.counterexamples]


def test_sieve_stops_reading_lengths_once_nothing_is_alive():
    read = []

    def lists(n, max_len):
        for length, arcs in reach._cycle_arcs(n, max_len):
            read.append(length)
            yield length, arcs

    g = cyclic_group(3)
    # every 2-cycle of the all-identity labelling is balanced
    labels = np.zeros((16, 3), dtype=np.int64)
    assert harness._sieve(g.table, labels, lists(4, 4)).tolist() == [2, 2, 2]
    assert read == [2]
    # with every label 1, a 2-cycle has value 2 and a 3-cycle value 0
    read.clear()
    labels = np.column_stack([np.zeros(16, dtype=np.int64), 1 - np.eye(4, dtype=np.int64).ravel()])
    assert harness._sieve(g.table, labels, lists(4, 4)).tolist() == [2, 3]
    assert read == [2, 3]


def test_verify_random_checks_the_vertex_count_without_trials():
    g = cyclic_group(3)
    for n in (0, 1, 65):
        with pytest.raises(BadSize, match=f"vertex count {n} outside 2..64"):
            verify_random(g, n, 0, 0)


def test_verify_all_parallel_matches_serial():
    g = cyclic_group(3)
    serial = verify_all(g, 3, workers=1)
    parallel = verify_all(g, 3, workers=3)
    assert strip_elapsed(serial) == strip_elapsed(parallel)


class _InlineExecutor:
    """Stands in for the process pool: records each pool size asked for and
    runs the submitted chunks in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers: int):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


def test_verify_all_clamps_workers(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "sizes", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    g = cyclic_group(3)
    serial = strip_elapsed(verify_all(g, 3, workers=1))
    assert _InlineExecutor.sizes == []
    assert strip_elapsed(verify_all(g, 3, workers=100_000)) == serial  # 729 labellings
    assert strip_elapsed(verify_all(g, 2, workers=100_000))["trials"] == 9
    assert strip_elapsed(verify_all(g, 2, normalized=True, workers=100_000))["trials"] == 3
    assert _InlineExecutor.sizes == [4, 4, 3]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert strip_elapsed(verify_all(g, 3, workers=100_000)) == serial
    assert _InlineExecutor.sizes == [4, 4, 3]  # unknown core count: serial, no pool


def test_verify_all_too_large():
    with pytest.raises(SearchSpaceTooLarge):
        verify_all(cyclic_group(5), 8)
    # over any group of order >= 2, n >= 8 leaves at least (n-1)^2 = 49 free
    # arcs, so the search-space cap is what stops it
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^49 = "):
        verify_all(cyclic_group(2), 8, normalized=True)


def test_verify_random_campaign():
    g = product_group(cyclic_group(3), cyclic_group(3))
    report = verify_random(g, 10, 50, seed=5)
    assert report.trials == 50
    assert report.counterexample_count == 0
    assert report.unresolved == 0
    assert sum(report.witness_methods.values()) == 50


def test_verify_random_deterministic():
    g = cyclic_group(9)
    a = verify_random(g, 10, 30, seed=77)
    b = verify_random(g, 10, 30, seed=77)
    assert strip_elapsed(a) == strip_elapsed(b)
    c = verify_random(g, 10, 30, seed=78)
    assert strip_elapsed(a) != strip_elapsed(c)


def test_verify_random_heuristic_only_counts_unresolved():
    # extremal(5,12) has no 2- or 3-cycle of value zero, so without
    # escalation a scan-only campaign cannot settle it; fabricate that by
    # refusing escalation outright
    g = cyclic_group(5)
    report = verify_random(g, 12, 5, seed=3, max_dp_vertices=0)
    assert report.unresolved + sum(report.witness_methods.values()) == 5


def test_campaign_arguments_are_checked():
    g = cyclic_group(3)
    with pytest.raises(BadSize, match="trial count"):
        verify_random(g, 4, -3, 0)
    # a bool or a float is no seed: 1.5 used to draw seed 1's stream and report 1.5
    for seed in (-1, 2 ** 64, True, 1.5, np.float64(1.0)):
        with pytest.raises(BadSeed):
            verify_random(g, 4, 5, seed)
        with pytest.raises(BadSeed):
            random_labelling(g, 4, seed)
    assert verify_random(g, 4, 2, 2 ** 64 - 1).trials == 2
    for n in (0, -2):
        with pytest.raises(BadSize, match="vertex count"):
            verify_all(g, n)
    # limits are never silently raised to a valid value
    for workers in (0, -1):
        with pytest.raises(BadSize, match=f"worker count {workers} "):
            verify_all(g, 2, workers=workers)
    with pytest.raises(BadSize, match="max_dp_vertices -1"):
        verify_random(g, 4, 3, 0, max_dp_vertices=-1)


@pytest.mark.parametrize("value", [True, 1.5, np.float64(1.0)],
                         ids=["bool", "float", "numpy_float"])
def test_counts_are_integers(value):
    # verify_random(g, 4, True, 0) used to run one trial and report "trials": true
    g = cyclic_group(3)
    with pytest.raises(BadSize, match=f"trial count {value} is negative or not an integer"):
        verify_random(g, 4, value, 0)
    with pytest.raises(BadSize, match=f"vertex count {value} outside 1..64"):
        verify_all(g, value)
    with pytest.raises(BadSize, match=f"worker count {value} is below 1 or not an integer"):
        verify_all(g, 2, workers=value)
    with pytest.raises(BadSize, match=f"max_n {value} is below 1 or not an integer"):
        compute_n(g, max_n=value)
    with pytest.raises(BadSize, match=f"node_budget {value} is not an integer"):
        compute_n(g, node_budget=value)
    with pytest.raises(BadSize, match=f"max_dp_vertices {value} is negative or not an integer"):
        verify_random(g, 4, 3, 0, max_dp_vertices=value)


def test_campaign_arguments_accept_numpy_integers():
    g = cyclic_group(3)
    four, five = np.int64(4), np.int64(5)
    assert (strip_elapsed(verify_random(g, four, five, np.uint64(7), max_dp_vertices=four))
            == strip_elapsed(verify_random(g, 4, 5, 7, max_dp_vertices=4)))
    assert (strip_elapsed(verify_all(g, np.int64(3), workers=np.int64(1)))
            == strip_elapsed(verify_all(g, 3)))
    assert compute_n(g, max_n=five).value == compute_n(g, max_n=5).value == 4
    assert random_labelling(g, four, np.int64(7)) == random_labelling(g, 4, 7)


def test_verify_random_derives_seeds_block_by_block(monkeypatch):
    # a bad n derives no seed, and each block derives its own sub-seeds
    # when it is drawn, so seed memory does not grow with the trial count
    derived = []
    real = harness.trial_seeds

    def spy(*args):
        seeds = real(*args)
        derived.append(seeds)
        return seeds

    monkeypatch.setattr(harness, "trial_seeds", spy)
    g = cyclic_group(3)
    with pytest.raises(BadSize, match="vertex count"):
        verify_random(g, 1, 10, 0)
    assert derived == []
    block = harness.BLOCK_ELEMS // 30 ** 2
    verify_random(g, 30, 2 * block + 5, seed=9)
    assert [len(seeds) for seeds in derived] == [block, block, 5]
    assert sum(derived, []) == real(9, 2 * block + 5)


def test_compute_n_values():
    # the trial counts are pinned, so any change to the search's order or
    # to its sorting rule shows
    result = compute_n(cyclic_group(1))
    assert (result.value, result.nodes) == (2, 1)
    result = compute_n(cyclic_group(2))
    assert (result.value, result.nodes) == (3, 7)
    result = compute_n(cyclic_group(3))
    assert (result.value, result.nodes) == (4, 88)
    witness = result.witness
    assert witness.n == 3
    assert enumerate_balanced_cycles(witness) == []


def test_compute_n_bounds_when_capped():
    # the order-6 S3 isomorph cannot be settled by n = 3 (its Z3 subgroup
    # carries the extremal pattern), so a capped run reports bounds instead
    with pytest.raises(SearchSpaceTooLarge) as info:
        compute_n(metacyclic_group(3, 2, 2), max_n=3)
    assert info.value.lower_bound == 4
    assert info.value.witness.n == 3
    assert enumerate_balanced_cycles(info.value.witness) == []


def test_compute_n_order_four_groups():
    # both even-order groups of order 4 resolve inside the default budget;
    # without the sorting rule they took 16,136 and 15,435 trials
    result = compute_n(cyclic_group(4))
    assert (result.value, result.nodes) == (5, 4064)
    result = compute_n(product_group(cyclic_group(2), cyclic_group(2)))
    assert (result.value, result.nodes) == (5, 3075)


def test_compute_n_budget_reports_bounds():
    # n <= 3 spend 6 nodes on Z3 and refuting n = 4 needs 82, so 20 run out at n = 4
    with pytest.raises(SearchSpaceTooLarge) as info:
        compute_n(cyclic_group(3), node_budget=20)
    assert info.value.lower_bound == 4
    witness = info.value.witness
    assert witness.n == 3
    assert enumerate_balanced_cycles(witness) == []
    assert find_balanced_cycle(witness) is None


def test_compute_n_budget_is_exact():
    # the pinned count suffices, one trial less does not
    assert compute_n(cyclic_group(3), node_budget=88).value == 4
    with pytest.raises(SearchSpaceTooLarge) as info:
        compute_n(cyclic_group(3), node_budget=87)
    assert info.value.lower_bound == 4


def test_compute_n_rejects_a_negative_budget():
    # -1 used to run out at once and report the lower bound 1
    with pytest.raises(BadSize, match="node_budget -1 is not an integer >= 0"):
        compute_n(cyclic_group(3), node_budget=-1)


def test_compute_n_catches_a_broken_dict_route(monkeypatch):
    # dict layers cut after paths of one arc hide every cycle of four or
    # more vertices from the CSP's path rows, so its 4-vertex labelling
    # over Z3 has a balanced 4-cycle, which the exact search finds
    layers = reach._anchored_layers

    def first_layer(*args):
        return islice(layers(*args), 1)

    monkeypatch.setattr(reach, "_anchored_layers", first_layer)
    monkeypatch.setattr(harness, "_anchored_layers", first_layer)
    with pytest.raises(AssertionError, match=r"re-verification \(exact search\)"):
        compute_n(cyclic_group(3))


def test_compute_n_rejects_max_n_below_one():
    for max_n in (0, -2):
        with pytest.raises(BadSize, match=f"max_n {max_n} is below 1"):
            compute_n(cyclic_group(3), max_n=max_n)


def test_report_json_shape():
    report = verify_random(cyclic_group(5), 6, 10, seed=1)
    data = report.to_json()
    assert data["mode"] == "randomized"
    assert data["trials"] == 10
    assert isinstance(data["witness_lengths"], dict)
    assert data["counterexample_count"] == len(data["counterexamples"])


def test_recheck_does_not_share_the_dense_kernel(monkeypatch):
    # the exact search runs the dense kernel from every start; with it
    # broken, the escalated trials' misses must not pass the re-check too
    monkeypatch.setattr(reach, "_dense_layers", lambda *args, **kwargs: iter(()))
    with pytest.raises(AssertionError, match="re-verification"):
        verify_random(cyclic_group(64), 8, 300, seed=5)


def test_verify_all_confirms_the_sieve(monkeypatch):
    # with no listed cycle balanced, the sieve calls every labelling a
    # counterexample; the re-check on the dict layers must refuse them
    listed = harness._cycle_values
    monkeypatch.setattr(harness, "_cycle_values", lambda *args: listed(*args) | 1)
    with pytest.raises(AssertionError, match="re-verification"):
        verify_all(cyclic_group(3), 3, normalized=True)
