"""Group-labelled complete digraphs and the label-preserving calculus.

A labelling assigns a group element to every present arc of a digraph on
vertices ``0..n-1``.  The digraph is complete by default; an optional arc
mask supports arc-deleted instances.  Shifting at a vertex and inversion
of the whole labelling preserve the balanced-cycle structure, which is what
makes normal forms and the equivalence decision below possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (AsymmetricMask, BadSize, BadSpec, IncompleteDigraph,
                     MissingArc, Mismatch)
from .groups import (FiniteGroup, build_group, checked_int, checked_matrix, is_json_int,
                     is_json_matrix, json_field)

MAX_VERTICES = 64


def _check_vertex_count(n, least: int) -> int:
    """n as an int, or BadSize unless it is an integer in least..MAX_VERTICES."""
    return checked_int(n, "vertex count {} outside {least}..{last}", BadSize, least,
                       MAX_VERTICES + 1)


@dataclass(frozen=True)
class CycleWitness:
    """A simple directed cycle, as its ordered vertex list, implicitly closed."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 2 or len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"not a simple cycle: {self.vertices}")

    def __len__(self):
        return len(self.vertices)


def _vertex_seq(path) -> tuple[int, ...]:
    if isinstance(path, CycleWitness):
        return path.vertices
    return tuple(path)


@lru_cache(maxsize=MAX_VERTICES)
def complete_mask(n: int) -> np.ndarray:
    """The read-only arc mask of the complete digraph on n vertices."""
    pres = ~np.eye(n, dtype=bool)
    pres.setflags(write=False)
    return pres


class Labelling:
    """Arc labels over a finite group, with an optional presence mask.

    ``labels`` is an n-by-n integer matrix (diagonal unused and stored as
    zeros), ``present`` the boolean arc mask (diagonal always False).
    Labels of absent arcs are canonicalized to 0 so that value equality is
    meaningful.  Instances are immutable; every operation returns a new one.

    Nothing is coerced: labels must be integers by ``is_json_int`` and mask
    entries booleans, else ValueError.  An integer (for the mask, boolean)
    numpy array passes on its dtype alone, which is what every internal
    caller hands over; any other input is checked entry by entry.

    ``_dense_arcs`` is the one cache: the dense kernel's arc arrays over
    all n vertices (``reach._DenseArcs``), built on the first exact query
    and read by every later one.
    """

    __slots__ = ("group", "n", "labels", "present", "_dense_arcs")

    def __init__(self, group: FiniteGroup, labels, present=None):
        lab = checked_matrix(labels, "iu", is_json_int,
                             "labels must be rows of integers in the int64 range")
        if lab.ndim != 2 or lab.shape[0] != lab.shape[1]:
            raise BadSize("labels must be a square matrix")
        n = _check_vertex_count(lab.shape[0], 1)
        if present is None:
            pres = complete_mask(n)
        else:
            pres = checked_matrix(present, "b", _is_bool, "mask must be rows of booleans")
            pres = pres.astype(bool)
            if pres.shape != (n, n):
                raise BadSize("mask shape must match labels")
            np.fill_diagonal(pres, False)
            pres.setflags(write=False)
        # absent arcs are zeroed first, so the range check reads present arcs alone
        lab = np.where(pres, lab, 0).astype(np.int64, copy=False)
        if lab.min() < 0 or lab.max() >= group.order:
            raise ValueError("present arc with label outside the group")
        lab.setflags(write=False)
        self.group = group
        self.n = n
        self.labels = lab
        self.present = pres
        self._dense_arcs = None

    def _arc(self, u, v) -> tuple[int, int]:
        """(u, v) as ints if both are vertices by ``checked_int``, else
        ValueError; never a bool, a float or a negative index that would wrap."""
        message = "{!r} is not a vertex 0..{last}"
        return (checked_int(u, message, ValueError, size=self.n),
                checked_int(v, message, ValueError, size=self.n))

    def label(self, u: int, v: int) -> int:
        return int(self.labels[self._arc(u, v)])

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.present[self._arc(u, v)])

    def is_complete(self) -> bool:
        return np.array_equal(self.present, complete_mask(self.n))

    def rows(self) -> list[list[int]]:
        """Labels as nested lists, for hot scalar loops."""
        return self.labels.tolist()

    def present_rows(self) -> list[list[bool]]:
        return self.present.tolist()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Labelling) and self.group == other.group
                and self.n == other.n
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.present, other.present))

    def __hash__(self):
        return hash((self.group, self.n, self.labels.tobytes(), self.present.tobytes()))

    def __repr__(self):
        return f"Labelling({self.group.name}, n={self.n})"

    def to_json(self) -> dict:
        out = {"group": self.group.spec, "n": self.n, "labels": self.labels.tolist()}
        if not self.is_complete():
            out["mask"] = self.present.tolist()
        return out


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


def labelling_from_json(obj: dict) -> Labelling:
    """Build a labelling from its JSON object (README, "File formats").

    Labels and ``n`` must be JSON integers, labels group elements, and mask
    entries booleans (BadSpec otherwise).  Nothing is coerced.  The checked
    labels go to Labelling as an integer array, which it takes on its dtype.
    """
    if not isinstance(obj, dict):
        raise BadSpec(f"a labelling must be a JSON object, got {type(obj).__name__}")
    group = build_group(json_field(obj, "group", "labelling"))
    labels = json_field(obj, "labels", "labelling")
    if not is_json_matrix(labels, lambda x: is_json_int(x, group.order)):
        raise BadSpec(f"labels must be rows of integers in 0..{group.order - 1}")
    n = checked_int(obj.get("n", len(labels)), "n must be an integer, got {!r}", BadSpec)
    if len(labels) != n:
        raise BadSize("n does not match the label matrix")
    if any(len(row) != n for row in labels):
        raise BadSize("labels must be a square matrix")
    mask = obj.get("mask")
    if mask is not None and not is_json_matrix(mask, _is_bool):
        raise BadSpec("mask must be rows of booleans")
    if mask is not None and any(len(row) != n for row in mask):
        raise BadSize("mask shape must match labels")
    return Labelling(group, np.array(labels, dtype=np.int64), mask)


# -- path and cycle evaluation ----------------------------------------------

def path_value(L: Labelling, path) -> int:
    """Cumulative product of arc labels along the path; identity for length 0."""
    verts = _vertex_seq(path)
    if len(set(verts)) != len(verts):
        raise ValueError(f"not a simple path: {verts}")
    if not all(is_json_int(v, L.n) for v in verts):
        raise ValueError(f"vertex out of range in {verts}")
    rows = L.group._rows
    value = 0
    for u, v in zip(verts, verts[1:]):
        if not L.present[u, v]:
            raise MissingArc(f"arc ({u},{v}) is masked out")
        value = rows[value][L.labels[u, v]]
    return value


def cycle_value(L: Labelling, cycle) -> int:
    """Product of arc labels around the cycle, starting from its first vertex.

    Values at different starts are conjugate in the group, so whether the
    result is the identity does not depend on the start.
    """
    verts = _vertex_seq(cycle)
    if len(verts) < 2 or len(set(verts)) != len(verts):
        raise ValueError(f"not a simple cycle: {verts}")
    value = path_value(L, verts)
    closing = (verts[-1], verts[0])
    if not L.present[closing]:
        raise MissingArc(f"arc {closing} is masked out")
    return L.group.mul(value, int(L.labels[closing]))


def is_balanced(L: Labelling, cycle) -> bool:
    return cycle_value(L, cycle) == 0


# -- shifting and inversion ---------------------------------------------------

def shift(L: Labelling, v: int, g: int) -> Labelling:
    """Shift by g at v: in-arc labels pick up g^-1 on the right, out-arc labels g on the left."""
    v = checked_int(v, "vertex {} out of range", ValueError, size=L.n)
    family = [0] * L.n
    family[v] = g
    return apply_shift_family(L, family)


def apply_shift_family(L: Labelling, family: Sequence[int]) -> Labelling:
    """Shift simultaneously at every vertex: arc (u,v) becomes g_u * label * g_v^-1.

    Equivalent to applying the single shifts (v, g_v) in any order, since
    shifts at distinct vertices touch disjoint sides of each arc.  Raises
    ValueError unless the family holds one group element per vertex; a
    member that is not an integer (a float or a bool) is not coerced.
    """
    for g in family:
        if not is_json_int(g, L.group.order):
            raise ValueError(f"shift family holds {g}, not a group element 0..{L.group.order - 1}"
                             if is_json_int(g) else f"shift family holds {g!r}, not an integer")
    fam = np.asarray(family, dtype=np.int64)
    if fam.shape != (L.n,):
        raise ValueError("family must assign one element per vertex")
    table = L.group.table
    inv_fam = L.group.inverse_table[fam]
    step = table[fam[:, None], L.labels]
    step = table[step, inv_fam[None, :]]
    return Labelling(L.group, step, L.present)


def invert(L: Labelling) -> Labelling:
    """inv(labelling): arc (u,v) gets the inverse of the old label of (v,u)."""
    if not np.array_equal(L.present, L.present.T):
        raise AsymmetricMask("inversion needs arc (u,v) present iff (v,u) is")
    labels = L.group.inverse_table[L.labels.T]
    return Labelling(L.group, labels, L.present)


def normalize(L: Labelling, v0: int) -> Labelling:
    """Shift so every arc out of v0 carries the identity.

    The normalizing family is g_w = label(v0, w) (identity at v0 itself);
    the result is shifting-equivalent to the input and idempotent at the
    same base vertex.
    """
    if not L.is_complete():
        raise IncompleteDigraph("normalization needs a complete digraph")
    v0 = checked_int(v0, "vertex {} out of range", ValueError, size=L.n)
    family = L.labels[v0].copy()
    family[v0] = 0
    return apply_shift_family(L, family)


def shifting_equivalent(L1: Labelling, L2: Labelling) -> tuple[int, ...] | None:
    """Decide shifting equivalence; return a per-vertex witness family or None.

    A witness ``fam`` satisfies ``apply_shift_family(L1, fam) == L2``.  The
    decision normalizes both labellings at vertex 0 and sweeps the group for
    a global conjugation between the normal forms, which is exactly the
    residual freedom left after normalization.  Note an all-identity family
    is a valid witness, so test the result against None, not for truthiness.
    """
    if L1.group != L2.group or L1.n != L2.n:
        raise Mismatch("labellings must share the group and the vertex count")
    if not (L1.is_complete() and L2.is_complete()):
        raise IncompleteDigraph("equivalence decision needs complete digraphs")
    G = L1.group
    n = L1.n
    norm1 = normalize(L1, 0)
    norm2 = normalize(L2, 0)
    table = G.table
    a = L1.labels[0].copy()
    a[0] = 0
    b = L2.labels[0].copy()
    b[0] = 0
    inv_b = G.inverse_table[b]
    for h in range(G.order):
        conj = table[table[h, norm1.labels], G.inv(h)]
        conj = np.where(norm1.present, conj, 0)
        if np.array_equal(conj, norm2.labels):
            # undo L2's normalization after conjugating L1's: g_w = b_w^-1 * h * a_w
            fam = tuple(int(table[table[inv_b[w], h], a[w]]) for w in range(n))
            if apply_shift_family(L1, fam) != L2:
                raise AssertionError("shift witness does not reproduce the second labelling")
            return fam
    return None


# -- serialization helpers ----------------------------------------------------

def to_dot(L: Labelling, witness: CycleWitness | None = None) -> str:
    """DOT rendering; witness arcs carry ``color=red``.

    Format (frozen for golden-file comparisons): one ``digraph labelling``
    block, one indented line per vertex, then one line per present arc in
    row-major order: ``u -> v [label="k"];`` with ``, color=red`` appended
    on witness arcs.
    """
    lines = ["digraph labelling {"]
    for v in range(L.n):
        lines.append(f"  {v};")
    wit_arcs = set()
    if witness is not None:
        verts = witness.vertices
        wit_arcs = set(zip(verts, verts[1:]))
        wit_arcs.add((verts[-1], verts[0]))
    for u in range(L.n):
        for v in range(L.n):
            if not L.present[u, v]:
                continue
            attrs = f'label="{int(L.labels[u, v])}"'
            if (u, v) in wit_arcs:
                attrs += ", color=red"
            lines.append(f"  {u} -> {v} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
