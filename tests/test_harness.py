"""Campaign machinery: exhaustive sweeps, randomized trials, n(G) search."""

from concurrent.futures import Future

import pytest

from balanced_cycles import harness
from balanced_cycles import (BadSeed, BadSize, SearchSpaceTooLarge, compute_n,
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
    report = verify_random(g, 12, 5, seed=3, escalate=False)
    assert report.unresolved + sum(report.witness_methods.values()) == 5


def test_campaign_arguments_are_checked():
    g = cyclic_group(3)
    with pytest.raises(BadSize, match="trial count"):
        verify_random(g, 4, -3, 0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(BadSeed):
            verify_random(g, 4, 5, seed)
        with pytest.raises(BadSeed):
            random_labelling(g, 4, seed)
    assert verify_random(g, 4, 2, 2 ** 64 - 1).trials == 2
    for n in (0, -2):
        with pytest.raises(BadSize, match="vertex count"):
            verify_all(g, n)


def test_compute_n_values():
    assert compute_n(cyclic_group(1)).value == 2
    assert compute_n(cyclic_group(2)).value == 3
    result = compute_n(cyclic_group(3))
    assert result.value == 4
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
    # both even-order groups of order 4 resolve inside the default budget
    assert compute_n(cyclic_group(4)).value == 5
    assert compute_n(product_group(cyclic_group(2), cyclic_group(2))).value == 5


def test_compute_n_budget_reports_bounds():
    # n <= 3 spend 7 nodes on Z3 and refuting n = 4 needs 139, so 20 run out at n = 4
    with pytest.raises(SearchSpaceTooLarge) as info:
        compute_n(cyclic_group(3), node_budget=20)
    assert info.value.lower_bound == 4
    witness = info.value.witness
    assert witness.n == 3
    assert enumerate_balanced_cycles(witness) == []
    assert find_balanced_cycle(witness) is None


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
