"""Finite groups as validated Cayley tables, plus subset algebra on bitmasks.

Group elements are plain ints ``0..order-1`` with the identity fixed at
index 0.  Subsets of a group are ints interpreted as bitmasks (bit ``g`` set
iff element ``g`` belongs to the subset), so the largest supported order
is 64 and a subset always fits a machine word.

Every subset action reads one byte table per side, built once per group by
``_byte_table``: entry [g, c, b] of the right table is S*g for the subset S
whose members are the bits of byte b in chunk c (elements 8c..8c+7), and the
left table holds g*S the same way, so an action is the OR over the bytes of
S.  ``right_mul_lut`` hands the right table to the dense DP kernel, which
reads it for every group whose table is not exactly (a + b) mod order
(``is_cyclic_numbering``); for those it rotates the bits of S instead.  The
scalar ``subset_mul_elem`` / ``elem_mul_subset`` call ``_byte_actions``: per
side, one callable per element that walks the bytes of S in Python over
that element's row of the table, kept as lists from the first use on.
``stabilizer`` and ``cosets`` gather the images of S under every element
at once, and ``is_subgroup`` is "contains 1 and H*h = H for every h in H".
``subgroup_closure`` grows {1} by every generator with ``grow_set`` until
nothing changes.

One integer rule covers every integer argument of the package, here and in
the other modules: ``is_json_int(value, size)`` accepts an int or a numpy
integer, never a bool or a float, and with ``size`` only one in
0..size-1.  Nothing is coerced: an element g of the subset actions, ``grow_set`` and
``subgroup_closure`` passes ``is_json_int(g, order)``, an element set of
the subset actions, ``stabilizer``, ``cosets`` and ``is_subgroup``
``is_json_int(S, 2^order)``, and a set ``subset_elements`` lists, like
every element ``subset_of`` takes, must be a non-negative integer;
anything else is a ValueError.  The
constructors' ``q``, ``m``, ``n`` and ``r``, and every entry of a table
``FiniteGroup`` takes, are integers by the same rule (BadSpec otherwise;
an integer numpy table passes on its dtype, ``checked_matrix``, and any
other entry must fit in an int64 before the table is cast to one).

The constructors build each Cayley table as one numpy array, by
broadcasting over the pair encoding (a*m + b for products, a*n + b for
metacyclic groups).  ``_validate_table`` checks the range of the entries
first, then associativity over all triples at once on a uint8 copy, which
is exact because every entry is below the order, at most 64.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, islice, product
from typing import Iterable

import numpy as np

from .errors import BadSpec, NotAGroup, NotASubgroup

MAX_ORDER = 64
_INT64 = np.iinfo(np.int64)


def _validate_table(mul: np.ndarray) -> None:
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise NotAGroup("multiplication table must be square")
    order = mul.shape[0]
    if order == 0:
        raise NotAGroup("a group has at least one element")
    if order > MAX_ORDER:
        raise BadSpec(f"group order {order} exceeds the cap of {MAX_ORDER}")
    if mul.min() < 0 or mul.max() >= order:
        raise NotAGroup("table entries must be element indices")
    ref = np.arange(order)
    if not (np.all(np.sort(mul, axis=1) == ref) and np.all(np.sort(mul, axis=0) == ref[:, None])):
        raise NotAGroup("table is not a Latin square")
    if not (np.array_equal(mul[0], ref) and np.array_equal(mul[:, 0], ref)):
        raise NotAGroup("element 0 is not a two-sided identity")
    # mul[mul[a,b],c] == mul[a,mul[b,c]], all triples at once; the entries
    # were checked to lie in 0..order-1 <= 63, so a byte copy is exact
    small = mul.astype(np.uint8)
    if not np.array_equal(small[small, :], small[:, small]):
        raise NotAGroup("table is not associative")


class FiniteGroup:
    """Immutable finite group backed by an eagerly validated Cayley table.

    ``table`` and ``inverse_table`` are numpy arrays; scalar arithmetic goes
    through plain nested tuples, which are faster for single lookups.
    Instances are safe to share freely: every operation here is pure.
    ``is_cyclic_numbering`` is checked once from the table: whether it is
    exactly (a + b) mod order, so that S*g is S rotated up by g bits.
    """

    __slots__ = ("order", "name", "spec", "table", "inverse_table", "is_cyclic_numbering",
                 "_rows", "_inv", "_luts", "_acts")

    def __init__(self, table, name: str = "", spec: dict | None = None):
        mul = checked_matrix(table, "iu", is_json_int,
                             "table spec 'mul' must be rows of integers in the int64 range",
                             BadSpec).astype(np.int64)
        _validate_table(mul)
        mul.setflags(write=False)
        self.order = int(mul.shape[0])
        self.table = mul
        inv = np.argmax(mul == 0, axis=1)
        inv.setflags(write=False)
        self.inverse_table = inv
        ref = np.arange(self.order)
        self.is_cyclic_numbering = bool(np.array_equal(mul, (ref[:, None] + ref) % self.order))
        self.name = name or f"table{self.order}"
        self.spec = spec if spec is not None else {"kind": "table", "mul": mul.tolist()}
        self._rows = tuple(map(tuple, mul.tolist()))
        self._inv = tuple(inv.tolist())
        self._luts: dict[str, np.ndarray] = {}
        self._acts: dict[str, tuple] = {}

    identity = 0

    def _element(self, g) -> int:
        """``g`` itself if it is an element by ``is_json_int``, else ValueError;
        never a bool, a float or a negative index that would wrap."""
        if not is_json_int(g, self.order):
            raise ValueError(f"{g!r} is not a group element 0..{self.order - 1}")
        return g

    def _element_set(self, bits) -> int:
        """``bits`` itself if it is an element set, an integer in
        0..2^order-1 by ``is_json_int``, else ValueError."""
        if not is_json_int(bits, 1 << self.order):
            raise ValueError(f"element set {bits!r} outside 0..2^{self.order}-1")
        return bits

    def mul(self, g: int, h: int) -> int:
        return self._rows[self._element(g)][self._element(h)]

    def inv(self, g: int) -> int:
        return self._inv[self._element(g)]

    def elements(self) -> range:
        return range(self.order)

    def full_subset(self) -> int:
        return (1 << self.order) - 1

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def conjugate(self, g: int, h: int) -> int:
        """h * g * h^-1."""
        rows = self._rows
        h = self._element(h)
        return rows[rows[h][self._element(g)]][self._inv[h]]

    # -- permutation actions on subsets, via 8-bit chunk lookup tables --

    def _action_lut(self, side: str) -> np.ndarray:
        """The byte table of one side: images s*g ("right") or g*s ("left")."""
        lut = self._luts.get(side)
        if lut is None:
            lut = self._luts[side] = _byte_table(self.table.T if side == "right" else self.table)
        return lut

    def subset_mul_elem(self, bits: int, g: int) -> int:
        """S*g as a bitmask; ValueError unless S is an element set and g an element."""
        return self._byte_actions("right")[self._element(g)](self._element_set(bits))

    def elem_mul_subset(self, g: int, bits: int) -> int:
        """g*S as a bitmask; ValueError unless g is an element and S an element set."""
        return self._byte_actions("left")[self._element(g)](self._element_set(bits))

    def _byte_actions(self, side: str) -> tuple:
        """Per element g, the action S -> S*g ("right") or g*S ("left") as a
        callable on bitmasks that reads g's byte-table row, kept as lists:
        one list lookup per byte of S, and at order <= 8, where S is one
        byte, the row's own ``__getitem__``.  Built once per side, on first
        use; hot loops call them with no argument to check."""
        acts = self._acts.get(side)
        if acts is None:
            acts = self._acts[side] = tuple(
                row[0].__getitem__ if self.order <= 8 else partial(_apply_chunks, row)
                for row in self._action_lut(side)[:self.order].tolist())
        return acts

    def right_mul_lut(self) -> np.ndarray:
        """All of ``subset_mul_elem`` as one read-only uint64 array.

        ``lut[g, c, b]`` is ``S*g`` for the subset S whose only members are
        the bits of byte ``b`` shifted to chunk ``c`` (elements 8c..8c+7),
        so ``S*g`` for any S is the OR over its bytes.  One extra row
        ``g = order`` is all zero, for callers that need a "no arc" entry.
        """
        return self._action_lut("right")

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _byte_table(images: np.ndarray) -> np.ndarray:
    """Byte lookup table of the subset action S -> {images[g, s] : s in S}, per g.

    Laid out as ``right_mul_lut`` describes: (order + 1, chunks, 256),
    read-only, with an all-zero last row.
    """
    order = images.shape[0]
    chunks = (order + 7) // 8
    singles = np.zeros((order + 1, 8 * chunks), dtype=np.uint64)
    singles[:order, :order] = np.left_shift(np.uint64(1), images.astype(np.uint64))
    singles = singles.reshape(order + 1, chunks, 8)
    lut = np.zeros((order + 1, chunks, 256), dtype=np.uint64)
    for i in range(8):  # bytes with top bit i = bytes below 2^i, plus bit i
        lut[:, :, 1 << i:2 << i] = lut[:, :, :1 << i] | singles[:, :, i:i + 1]
    lut.setflags(write=False)
    return lut


def _apply_chunks(chunks, bits: int) -> int:
    out = 0
    i = 0
    while bits:
        piece = bits & 0xFF
        if piece:
            out |= chunks[i][piece]
        bits >>= 8
        i += 1
    return out


# -- subsets ----------------------------------------------------------------

def subset_of(elems: Iterable[int]) -> int:
    """The set of ``elems`` as a bitmask; ValueError naming an element that
    is not a non-negative integer."""
    bits = 0
    for e in elems:
        if not (is_json_int(e) and e >= 0):
            raise ValueError(f"element {e!r} is not a non-negative integer")
        bits |= 1 << int(e)
    return bits


def subset_elements(bits: int) -> list[int]:
    """The members of a set, ascending; ValueError unless it is a
    non-negative integer (a negative one would have infinitely many)."""
    if not (is_json_int(bits) and bits >= 0):
        raise ValueError(f"set {bits!r} is not a non-negative integer")
    bits = int(bits)
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _images(group: FiniteGroup, bits: int, side: str) -> np.ndarray:
    """S*g (side "right") or g*S (side "left") for every element g, by one gather.

    ValueError unless S is an element set, an integer in 0..2^order-1."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    group._element_set(bits)
    lut = group._action_lut(side)
    chunks = lut.shape[1]
    digits = np.array([bits], dtype="<u8").view(np.uint8)[:chunks]
    return np.bitwise_or.reduce(lut[:group.order, np.arange(chunks), digits], axis=1)


def stabilizer(group: FiniteGroup, bits: int, side: str) -> int:
    """stab_l(S) = {g : g*S = S} or stab_r(S) = {g : S*g = S}.

    Always a subgroup.  The empty set is stabilized by everything, so
    ``stabilizer(G, 0, side) == G`` by convention.
    """
    return subset_of(np.flatnonzero(_images(group, bits, side) == bits).tolist())


def grow_set(group: FiniteGroup, bits: int, x: int) -> int:
    """{1, x} * S = S | x*S.

    When x is outside stab_l(S) and S is non-empty, the result gains at
    least |stab_r(S)| new elements and keeps every right stabilizer of S.
    Raises ValueError when x is not an element (``elem_mul_subset``).
    """
    return bits | group.elem_mul_subset(x, bits)


def is_subgroup(group: FiniteGroup, bits: int) -> bool:
    """Contains the identity and is closed under products: H*h = H for every h in H."""
    # the stabilizer first: it rejects a set that is not an integer in range
    return bits & ~stabilizer(group, bits, "right") == 0 and bool(bits & 1)


def subgroup_closure(group: FiniteGroup, gens: Iterable[int]) -> int:
    """Smallest subgroup containing the generators (identity if none).

    Grows {1} by every generator until nothing changes: the fixed point is
    the set of products of generators, which in a finite group is the
    subgroup they generate.  ``grow_set`` rejects a non-element.
    """
    gens = list(gens)
    closure, grown = 0, 1
    while grown != closure:
        closure = grown
        for g in gens:
            grown = grow_set(group, grown, g)
    return closure


def automorphism_orbit_min(group: FiniteGroup) -> list[int]:
    """``orbit_min[g]``, the least element of g's orbit under a subgroup A of Aut(G).

    The generators are picked greedily, largest order first, each element
    outside the subgroup of those before it (``subgroup_closure``): one
    for a cyclic group, and two for every other group of order <= 8 but
    Z2^3, which needs three.  A breadth-first walk
    from 1 writes every element as a word in them: h*g_i is reached from
    h.  An image tuple (t_1, ...), each t_i of the order of g_i, extends
    along the words to the map phi(h*g_i) = phi(h)*t_i.  The map is kept
    when that rule holds for every h and i, which makes it a homomorphism
    (phi(xy) = phi(x)phi(y) by induction on the word of y), and when only
    1 maps to 1, which makes it bijective.  Tuples are tried by how many
    generators they move, none, then one, two, ..., at most 8|G| of them,
    checked as one numpy array.  At order <= 8 that is every tuple, at
    most 7^2, or for Z2^3 every tuple that moves at most one generator,
    so those groups get the orbits of their whole Aut(G), whatever their
    numbering.  Z2^6, whose Aut(G) has about 2*10^10 elements, gets those
    of a subgroup in milliseconds.

    A is the group the kept maps generate, and the orbits are A's: a
    finite group's orbit of g is all that repeated images reach from g,
    so the least element reached is propagated until nothing changes.
    Any subgroup of Aut(G) makes the cut in ``harness`` sound, but it
    must be a group: the cut keeps the labelling whose sorted in-labels
    are lex-least over A, and a labelling's images under A are the same
    set as its representative's only because A is closed under
    composition.  Orbits of the kept maps taken one at a time, not
    composed, would not be.
    """
    order, rows, table = group.order, group._rows, group.table

    def element_order(g: int) -> int:
        k, power = 1, g
        while power:
            k, power = k + 1, rows[power][g]
        return k

    orders = [element_order(g) for g in range(order)]
    gens, closure = [], 1
    for g in sorted(range(1, order), key=lambda g: -orders[g]):
        if not closure >> g & 1:
            gens.append(g)
            closure = subgroup_closure(group, gens)
    steps, reached = [], [0]  # (w, h, i): w = h * g_i, each w once
    for h in reached:
        for i, g in enumerate(gens):
            w = rows[h][g]
            if w not in reached:
                reached.append(w)
                steps.append((w, h, i))
    others = [[t for t in range(order) if orders[t] == orders[g] and t != g] for g in gens]

    def moving(count: int):
        for where in combinations(range(len(gens)), count):
            for images in product(*(others[i] for i in where)):
                moved = list(gens)
                for i, t in zip(where, images):
                    moved[i] = t
                yield moved

    # the identity's tuple, which moves none, comes first
    tuples = np.array(list(islice(chain.from_iterable(map(moving, range(len(gens) + 1))),
                                  8 * order)), dtype=np.int64)
    images = np.zeros((len(tuples), order), dtype=np.int64)
    for w, h, i in steps:
        images[:, w] = table[images[:, h], tuples[:, i]]
    kept = (images[:, 1:] != 0).all(axis=1)
    for i, g in enumerate(gens):
        kept &= (images[:, table[:, g]] == table[images, tuples[:, i, None]]).all(axis=1)
    autos = images[kept]
    least = np.arange(order)
    while True:
        lower = np.minimum(least, least[autos].min(axis=0))
        if np.array_equal(lower, least):
            return least.tolist()
        least = lower


def cosets(group: FiniteGroup, subgroup_bits: int, side: str) -> list[int]:
    """Left cosets g*H or right cosets H*g, in order of smallest member."""
    if not is_subgroup(group, subgroup_bits):
        raise NotASubgroup(f"{sorted(subset_elements(subgroup_bits))} is not a subgroup")
    images = _images(group, subgroup_bits, side)
    # g lies in its own coset (1 is in H), so keep each coset at its smallest member
    below = np.left_shift(np.uint64(1), np.arange(group.order, dtype=np.uint64)) - np.uint64(1)
    return images[(images & below) == 0].tolist()


# -- constructions ----------------------------------------------------------

def cyclic_group(q: int) -> FiniteGroup:
    if not (is_json_int(q) and q >= 1):
        raise BadSpec(f"cyclic group needs an integer q >= 1, got {q}")
    if q > MAX_ORDER:
        raise BadSpec(f"cyclic group order {q} exceeds the cap of {MAX_ORDER}")
    q = int(q)
    ref = np.arange(q)
    return FiniteGroup((ref[:, None] + ref) % q, name=f"Z{q}", spec={"kind": "cyclic", "q": q})


def product_group(left: FiniteGroup, right: FiniteGroup) -> FiniteGroup:
    order = left.order * right.order
    if order > MAX_ORDER:
        raise BadSpec(f"product order {order} exceeds the cap of {MAX_ORDER}")
    # axes (a1, b1, a2, b2) of (a1, b1) * (a2, b2) = (a1 a2, b1 b2); pair (a, b) is a * m + b
    m = right.order
    table = left.table[:, None, :, None] * m + right.table[None, :, None, :]
    return FiniteGroup(table.reshape(order, order), name=f"{left.name}x{right.name}",
                       spec={"kind": "product", "left": left.spec, "right": right.spec})


def metacyclic_group(m: int, n: int, r: int) -> FiniteGroup:
    """Z_m semidirect Z_n with action c -> r^b * c; needs r^n = 1 (mod m).

    Pairs (a, b) are encoded as index a*n + b, so the identity (0, 0) sits
    at index 0.  Products follow (a,b)*(c,d) = (a + r^b * c mod m, b + d mod n).
    """
    if not (all(map(is_json_int, (m, n, r))) and m >= 1 and n >= 1):
        raise BadSpec(f"metacyclic parameters must be integers, m and n positive; "
                      f"got {m!r}, {n!r}, {r!r}")
    m, n, r = int(m), int(n), int(r)
    if pow(r, n, m) != 1 % m:
        raise BadSpec(f"metacyclic needs r^n = 1 (mod m); got {r}^{n} != 1 (mod {m})")
    order = m * n
    if order > MAX_ORDER:
        raise BadSpec(f"metacyclic order {order} exceeds the cap of {MAX_ORDER}")
    rpow = np.array([pow(r, b, m) for b in range(n)])
    a, b, c, d = np.ix_(range(m), range(n), range(m), range(n))
    table = (a + rpow[b] * c) % m * n + (b + d) % n
    return FiniteGroup(table.reshape(order, order), name=f"M({m},{n},{r})",
                       spec={"kind": "metacyclic", "m": m, "n": n, "r": r})


def table_group(mul, name: str = "") -> FiniteGroup:
    return FiniteGroup(mul, name=name)


def is_json_int(value, size: int | None = None) -> bool:
    """The package's one integer rule: true for an int or a numpy integer,
    never for a bool (a Python int, but not a JSON number) or a float, and,
    when ``size`` is given, only for one in 0..size-1."""
    kind = type(value)  # a plain int first: the scalar accessors call this per lookup
    return ((kind is int or kind is not bool and isinstance(value, (int, np.integer)))
            and (size is None or 0 <= value < size))


def is_json_matrix(rows, is_entry) -> bool:
    """True for a list of lists whose every entry passes ``is_entry``."""
    return isinstance(rows, list) and all(
        isinstance(row, list) and all(map(is_entry, row)) for row in rows)


def checked_matrix(values, kinds: str, is_entry, message: str,
                   error: type[Exception] = ValueError) -> np.ndarray:
    """``values`` as an array: a numpy array of a dtype kind in ``kinds`` as
    it is, anything else as an object array whose every entry passes
    ``is_entry`` and fits in an int64, the callers' cast (``error`` with
    ``message`` if one does not)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds:
        return values
    entries = np.array(values, dtype=object)
    if not all(is_entry(x) and _INT64.min <= x <= _INT64.max for x in entries.flat):
        raise error(message)
    return entries


def json_field(obj: dict, key: str, what: str):
    """obj[key], or BadSpec naming the missing field of ``what``."""
    try:
        return obj[key]
    except KeyError:
        raise BadSpec(f"{what} is missing the field {key!r}") from None


def _spec_ints(spec: dict, *keys: str) -> list[int]:
    values = [json_field(spec, key, "group spec") for key in keys]
    for key, value in zip(keys, values):
        if not is_json_int(value):
            raise BadSpec(f"group spec field {key!r} must be an integer, got {value!r}")
    return [int(value) for value in values]


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from its JSON-style recipe.

    Recognized shapes: {"kind": "cyclic", "q": 5},
    {"kind": "product", "left": ..., "right": ...},
    {"kind": "metacyclic", "m": 7, "n": 3, "r": 2},
    {"kind": "table", "mul": [[...]]}.  Numbers must be integers; nothing
    is coerced.
    """
    if not isinstance(spec, dict):
        raise BadSpec(f"group spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "cyclic":
        return cyclic_group(*_spec_ints(spec, "q"))
    if kind == "product":
        return product_group(build_group(json_field(spec, "left", "group spec")),
                             build_group(json_field(spec, "right", "group spec")))
    if kind == "metacyclic":
        return metacyclic_group(*_spec_ints(spec, "m", "n", "r"))
    if kind == "table":
        return table_group(json_field(spec, "mul", "group spec"))
    raise BadSpec(f"unknown group spec kind {kind!r}")


def catalog() -> dict[str, FiniteGroup]:
    """The stock of groups used throughout the test campaigns.

    Covers abelian and non-abelian, odd and even order; F21 is the
    non-abelian group of order 21 and M(3,2,2) is isomorphic to S3.
    """
    groups: dict[str, FiniteGroup] = {}
    for q in (2, 3, 4, 5, 7, 9, 15, 21):
        groups[f"Z{q}"] = cyclic_group(q)
    groups["Z3xZ3"] = product_group(cyclic_group(3), cyclic_group(3))
    groups["Z3xZ9"] = product_group(cyclic_group(3), cyclic_group(9))
    f21 = metacyclic_group(7, 3, 2)
    f21.name = "F21"
    groups["F21"] = f21
    groups["M(3,2,2)"] = metacyclic_group(3, 2, 2)
    return groups
