#!/usr/bin/env python3
"""Verification campaigns: exhaustive sweeps, random trials, exact n(G).

Exhaustive mode enumerates every labelling (optionally only normalized
ones, which is sound and cuts the space by |G|^(n-1)); randomized mode
scans short cycles first and escalates to the exact DP only on a miss.
compute_n adds one vertex at a time: the new vertex's out- and in-labels
must avoid every value that closes a cycle through a simple path of the
cycle-free prefix.  Its search nodes count label trials.
"""

from balanced_cycles import (catalog, compute_n, cyclic_group, product_group,
                             verify_all, verify_random)

z3 = cyclic_group(3)
report = verify_all(z3, 3)
print(f"Z3, n=3, full enumeration: {report.trials} labellings, "
      f"{report.counterexample_count} balanced-cycle-free")
report = verify_all(z3, 4, normalized=True)
print(f"Z3, n=4, normalized: {report.trials} labellings, "
      f"{report.counterexample_count} counterexamples -> n(Z3) <= 4")

print("\nexact n(G) by vertex extension:")
for name, group in (("trivial", cyclic_group(1)), ("Z2", cyclic_group(2)),
                    ("Z3", z3), ("Z4", cyclic_group(4)),
                    ("Z2xZ2", product_group(cyclic_group(2), cyclic_group(2)))):
    result = compute_n(group)
    print(f"  n({name}) = {result.value}   (label trials: {result.nodes})")

print("\nrandomized campaigns (seeded, reproducible):")
for group, n, trials in ((cyclic_group(9), 10, 200), (catalog()["F21"], 22, 50)):
    report = verify_random(group, n, trials, seed=1)
    print(f"  {group.name} n={n}: {report.trials} trials, "
          f"{report.counterexample_count} counterexamples, methods {report.witness_methods}, "
          f"witness lengths {report.witness_lengths}")
