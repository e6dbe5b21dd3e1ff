"""Generators for extremal and randomized test instances."""

from __future__ import annotations

import numpy as np

from .errors import BadIndex, BadSize
from .groups import FiniteGroup, checked_int, cyclic_group
from .labellings import Labelling, _check_vertex_count, complete_mask
from .rng import Xoshiro256StarStar


def extremal_cyclic(q: int, n: int) -> Labelling:
    """The lower-bound construction over Z_q on n ordered vertices.

    Increasing arcs (u < v) carry the generator 1, decreasing arcs the
    identity 0, so a cycle's value equals its number of increasing arcs
    mod q.  On at most q vertices that count lies in 1..n-1 and never hits
    zero; on q+1 vertices exactly one cycle is balanced, the increasing
    Hamiltonian cycle closed by its single decreasing arc.
    """
    q = checked_int(q, "extremal construction needs an integer q >= 2, got {}", BadSize, 2)
    n = _check_vertex_count(n, 2)
    labels = np.zeros((n, n), dtype=np.int64)
    labels[np.triu_indices(n, k=1)] = 1
    return Labelling(cyclic_group(q), labels)


def arc_critical_instance(q: int, deleted_arc_index: int) -> Labelling:
    """extremal_cyclic(q, q+1) with one arc of its unique balanced cycle removed.

    The q+1 cycle arcs are indexed in increasing-cycle order: arc k is
    (k, k+1) for k < q and arc q is the closing arc (q, 0).  Deleting any
    one of them leaves no balanced cycle at all.
    """
    q = checked_int(q, "arc-critical instance needs an integer q >= 2, got {}", BadSize, 2)
    deleted_arc_index = checked_int(deleted_arc_index, "arc index {} outside 0..{last}", BadIndex,
                                    size=q + 1)
    base = extremal_cyclic(q, q + 1)
    if deleted_arc_index < q:
        u, v = deleted_arc_index, deleted_arc_index + 1
    else:
        u, v = q, 0
    present = base.present.copy()
    present[u, v] = False
    return Labelling(base.group, base.labels, present)


def random_labelling(group: FiniteGroup, n: int, seed: int) -> Labelling:
    """Uniform independent labels from a pinned generator.

    Stream: xoshiro256** seeded with SplitMix64(seed), ``seed`` in
    0..2^64-1; one draw per off-diagonal arc in row-major order, each a
    masked rejection on the top bits that takes one word per attempt.
    Identical (group, n, seed) give identical labellings on every platform.
    ``rng.xoshiro_labels`` draws the same labels for many seeds at once.
    """
    n = _check_vertex_count(n, 2)
    rng = Xoshiro256StarStar(seed)
    order = group.order
    labels = np.zeros((n, n), dtype=np.int64)
    labels[complete_mask(n)] = [rng.below(order) for _ in range(n * (n - 1))]
    return Labelling(group, labels)
