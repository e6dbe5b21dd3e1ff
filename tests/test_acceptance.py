"""Acceptance suite: one test per shipped criterion, at its stated volume.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  Budgets: criteria 1 and 2 under 60 seconds each, the whole
module under 5 minutes; both are asserted, not just wished for.
"""

import random
import time
from itertools import product

from balanced_cycles import (Labelling, apply_shift_family, catalog,
                             compute_n, cycle_value, cyclic_group,
                             enumerate_balanced_cycles, extremal_cyclic,
                             arc_critical_instance, find_balanced_cycle,
                             grow_set, invert, key_lemma, prime_finder,
                             product_group, random_labelling, reach_set,
                             reach_table, shift, shifting_equivalent,
                             short_cycle_scan, stabilizer, subset_elements,
                             verify_random)
from balanced_cycles.rng import trial_seeds
from oracle import (brute_balanced_cycles, brute_has_balanced_cycle,
                    brute_reach_set)

MODULE_STARTED = time.perf_counter()


def announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_exact_n_values():
    started = time.perf_counter()
    results = {}
    for name, group in (("trivial", cyclic_group(1)),
                        ("Z2", cyclic_group(2)),
                        ("Z3", cyclic_group(3))):
        outcome = compute_n(group)
        results[name] = outcome.value
        assert enumerate_balanced_cycles(outcome.witness) == []
        assert outcome.witness.n == outcome.value - 1
    assert results == {"trivial": 2, "Z2": 3, "Z3": 4}
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    announce("criterion 1",
             f"n(trivial)=2 n(Z2)=3 n(Z3)=4 with cycle-free witnesses, {elapsed:.1f}s")


def test_criterion_2_extremal_family():
    started = time.perf_counter()
    for q in (3, 5, 7, 9):
        assert enumerate_balanced_cycles(extremal_cyclic(q, q)) == [], q
        unique = enumerate_balanced_cycles(extremal_cyclic(q, q + 1))
        assert [c.vertices for c in unique] == [tuple(range(q + 1))], q
    for q in (3, 5, 7):
        for k in range(q + 1):
            assert enumerate_balanced_cycles(arc_critical_instance(q, k)) == [], (q, k)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    announce("criterion 2",
             f"extremal(q,q) empty, extremal(q,q+1) unique Hamiltonian, "
             f"all arc-deleted variants empty, {elapsed:.1f}s")


def test_criterion_3_key_lemma_totality():
    g3 = cyclic_group(3)
    checked = 0
    for labels in product(range(3), repeat=6):
        matrix = [[0, labels[0], labels[1]],
                  [labels[2], 0, labels[3]],
                  [labels[4], labels[5], 0]]
        L = Labelling(g3, matrix)
        out = key_lemma(L)
        if out.cycle is not None:
            assert cycle_value(L, out.cycle) == 0
        else:
            cert = out.certificate
            recomputed = reach_set(L, subset_elements(cert.X), cert.x)
            assert recomputed == cert.R
            assert cert.R.bit_count() >= cert.X.bit_count()
            assert stabilizer(g3, cert.R, "right").bit_count() >= 2
        checked += 1
    assert checked == 729
    for q in (5, 7):
        L = extremal_cyclic(q, q)
        cert = key_lemma(L).certificate
        assert cert is not None
        assert reach_set(L, subset_elements(cert.X), cert.x) == cert.R
        assert cert.R.bit_count() >= cert.X.bit_count()
        assert stabilizer(L.group, cert.R, "right").bit_count() >= 2
    announce("criterion 3",
             "all 729 Z3 labellings and extremal(5,5)/(7,7): every dichotomy "
             "branch re-validated, 100% pass")


def test_criterion_4_grow_set_lemma():
    groups = catalog()
    pool = [groups[name] for name in ("Z5", "Z9", "Z15", "Z3xZ9", "F21", "M(3,2,2)")]
    rng = random.Random(20260809)
    trials = 0
    while trials < 10_000:
        g = pool[trials % len(pool)]
        bits = rng.getrandbits(g.order)
        if not bits:
            continue
        stab_l = stabilizer(g, bits, "left")
        candidates = [x for x in g.elements() if not (stab_l >> x) & 1]
        if not candidates:
            continue
        x = rng.choice(candidates)
        stab_r = stabilizer(g, bits, "right")
        grown = grow_set(g, bits, x)
        assert grown.bit_count() >= bits.bit_count() + stab_r.bit_count(), \
            (g.name, subset_elements(bits), x)
        assert stab_r & ~stabilizer(g, grown, "right") == 0, \
            (g.name, subset_elements(bits), x)
        trials += 1
    announce("criterion 4",
             "10^4 random (G, S, x) across the six-group catalog: "
             "|{1,x}S| >= |S|+|stab_r(S)| and stab_r monotone, zero failures")


def test_criterion_5_calculus_invariants():
    g5 = cyclic_group(5)
    rng = random.Random(5)
    for trial in range(1000):
        n = rng.randint(2, 5)
        L = random_labelling(g5, n, rng.getrandbits(32))
        shifted = L
        for _ in range(rng.randint(1, 5)):
            shifted = shift(shifted, rng.randrange(n), rng.randrange(5))
        assert [c.vertices for c in enumerate_balanced_cycles(L)] == \
            [c.vertices for c in enumerate_balanced_cycles(shifted)], trial
        assert invert(invert(L)) == L
        assert bool(enumerate_balanced_cycles(L)) == bool(enumerate_balanced_cycles(invert(L)))
        other = (apply_shift_family(L, tuple(rng.randrange(5) for _ in range(n)))
                 if rng.random() < 0.5 else random_labelling(g5, n, rng.getrandbits(32)))
        assert (shifting_equivalent(L, other) is None) == \
            (shifting_equivalent(invert(L), invert(other)) is None), trial
    announce("criterion 5",
             "10^3 random labellings/shift sequences over Z5, n<=5: balanced sets "
             "identical under shifts, inv is an involution, existence preserved, "
             "equivalence invariant under inversion; zero failures")


def test_criterion_6_constructive_prime_finder():
    violations = 0
    for p, n in ((3, 4), (5, 6), (7, 8)):
        g = cyclic_group(p)
        for seed in range(1000):
            L = random_labelling(g, n, seed)
            witness = prime_finder(L)  # TheoremViolation would propagate
            assert cycle_value(L, witness) == 0, (p, seed)
            assert find_balanced_cycle(L) is not None, (p, seed)
    announce("criterion 6",
             f"3x10^3 prime-finder runs on (3,4),(5,6),(7,8): every witness "
             f"re-evaluates to the identity, existence cross-checked, "
             f"{violations} TheoremViolation events")


def test_criterion_7_randomized_campaigns():
    z9 = cyclic_group(9)
    z3z3 = product_group(cyclic_group(3), cyclic_group(3))
    for group in (z9, z3z3):
        report = verify_random(group, 10, 1000, seed=1)
        assert report.counterexample_count == 0, group.name
        assert report.unresolved == 0
        assert sum(report.witness_methods.values()) == 1000

    # F21 on 22 vertices: a random 2-cycle closes with probability 1/21, so
    # with C(22,2) = 231 pairs a trial has ~11 balanced 2-cycles in
    # expectation and the probability that the short scan misses is ~e^-11;
    # heuristic-first must therefore resolve every trial
    f21 = catalog()["F21"]
    report = verify_random(f21, 22, 100, seed=2, max_dp_vertices=0)
    assert report.unresolved == 0
    assert report.counterexample_count == 0
    assert sum(report.witness_methods.values()) == 100
    # independent re-validation of each heuristic witness
    for sub_seed in trial_seeds(2, 100):
        L = random_labelling(f21, 22, sub_seed)
        witness = short_cycle_scan(L)
        assert witness is not None
        assert cycle_value(L, witness) == 0
    announce("criterion 7",
             "Z9 and Z3xZ3 at n=10, 10^3 exact trials each: zero counterexamples; "
             "F21 at n=22, 100 heuristic trials: zero unresolved, all witnesses re-validated")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(88)
    pool = list(catalog().values())
    for trial in range(500):
        g = pool[trial % len(pool)]
        n = rng.randint(3, 7)
        L = random_labelling(g, n, rng.getrandbits(32))
        x = rng.randrange(n)
        assert set(subset_elements(reach_set(L, range(n), x))) == \
            brute_reach_set(L, list(range(n)), x), trial
        witness = find_balanced_cycle(L)
        assert (witness is not None) == brute_has_balanced_cycle(L), trial
        if witness is not None:
            assert cycle_value(L, witness) == 0
        if n <= 5:
            assert [c.vertices for c in enumerate_balanced_cycles(L)] == \
                brute_balanced_cycles(L), trial
    announce("criterion 8",
             "500 random instances, n<=7, full catalog: subset-DP reach sets and "
             "cycle detection agree exactly with the factorial-time enumerator")


def test_criterion_9_performance_floor():
    g9 = cyclic_group(9)
    worst = 0.0
    for seed in (1, 2, 3):
        L = random_labelling(g9, 10, seed)
        started = time.perf_counter()
        reach_table(L, range(10))
        worst = max(worst, time.perf_counter() - started)
    assert worst < 1.0, f"reach_table took {worst:.3f}s"
    total = time.perf_counter() - MODULE_STARTED
    assert total < 300, f"acceptance module at {total:.0f}s"
    announce("criterion 9",
             f"reach_table(n=10, |G|=9) worst case {worst*1000:.0f}ms < 1s; "
             f"acceptance module at {total:.0f}s < 5min")
