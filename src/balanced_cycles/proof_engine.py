"""Constructive dichotomies: stabilizer certificates, efficient tuples,
and the prime-order balanced-cycle finder.

Each procedure here is a totalized proof step: where the underlying
argument assumes a balanced-cycle-free labelling, the procedure accepts any
labelling and returns either the balanced cycle the argument would have
found by contradiction or the certificate object the argument constructs.
Every returned witness is re-evaluated before it leaves a function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadSize, IncompleteDigraph, NotPrime, PreconditionViolated,
                     TheoremViolation, TrivialGroup)
from .groups import grow_set, is_json_int, stabilizer, subset_elements
from .labellings import (CycleWitness, Labelling, apply_shift_family, cycle_value,
                         shifting_equivalent)
from .reach import (_checked, _close_cycle, _scope, aggregated_reach_layers, reach_set,
                    reach_set_between, short_cycle_scan)

KEY_LEMMA_CAP = 20


@dataclass(frozen=True)
class StabilizerCertificate:
    """A vertex subset X and x in X whose reach set is large and has a
    non-trivial right stabilizer.  All fields are bitmasks except x."""

    X: int
    x: int
    R: int
    right_stab: int

    def validate(self, L: Labelling) -> list[str]:
        """Recompute everything the certificate claims; empty list means valid."""
        failures = []
        if not is_json_int(self.X, 1 << L.n):
            failures.append(f"X holds a vertex outside 0..{L.n - 1}")
            return failures
        if not (is_json_int(self.x, L.n) and (self.X >> self.x) & 1):
            failures.append("x is not a member of X")
            return failures
        recomputed = reach_set(L, self.X, self.x)
        if recomputed != self.R:
            failures.append("R is not the reach set of (X, x)")
        if self.R.bit_count() < self.X.bit_count():
            failures.append("|R| < |X|")
        stab = stabilizer(L.group, self.R, "right")
        if stab != self.right_stab:
            failures.append("right_stab is not the right stabilizer of R")
        if stab.bit_count() < 2:
            failures.append("right stabilizer is trivial")
        return failures

    def to_json(self) -> dict:
        return {"X": subset_elements(self.X), "x": self.x,
                "R": subset_elements(self.R),
                "stab_r": subset_elements(self.right_stab)}


@dataclass(frozen=True)
class EfficientTuple:
    """(X, u, v, gamma', R): R is a subset of the u-to-v path values inside X
    under gamma', has a non-trivial right stabilizer, and |R| >= |X| - 1
    (super-efficient when |R| >= |X|).  ``shift_family`` witnesses that
    gamma_prime is shifting-equivalent to the labelling the tuple was built
    from (per-vertex elements, see apply_shift_family)."""

    X: int
    u: int
    v: int
    gamma_prime: Labelling
    R: int
    shift_family: tuple[int, ...]
    is_super: bool

    def to_json(self) -> dict:
        return {"X": subset_elements(self.X), "u": self.u, "v": self.v,
                "R": subset_elements(self.R), "is_super": self.is_super,
                "shift_family": list(self.shift_family),
                "gamma_prime": self.gamma_prime.to_json()}


@dataclass(frozen=True)
class Dichotomy:
    """Outcome of a totalized proof procedure: exactly one branch is set.

    ``within_hypothesis`` records whether the input matched the setting of
    the underlying argument (vertex count equal to the group order for the
    key lemma, one more for tuple construction); outside it the procedure
    still runs but certificate guarantees may fail.
    """

    cycle: CycleWitness | None = None
    certificate: StabilizerCertificate | None = None
    efficient_tuple: EfficientTuple | None = None
    within_hypothesis: bool = True

    def __post_init__(self):
        populated = sum(x is not None for x in
                        (self.cycle, self.certificate, self.efficient_tuple))
        if populated != 1:
            raise ValueError("exactly one branch of a dichotomy must be populated")

    def to_json(self) -> dict:
        out: dict = {"within_hypothesis": self.within_hypothesis}
        if self.cycle is not None:
            out["branch"] = "cycle"
            out["cycle"] = list(self.cycle.vertices)
        elif self.certificate is not None:
            out["branch"] = "certificate"
            out["certificate"] = self.certificate.to_json()
        else:
            out["branch"] = "tuple"
            out["tuple"] = self.efficient_tuple.to_json()
        return out


def key_lemma(L: Labelling) -> Dichotomy:
    """Balanced cycle or a reach set with a non-trivial right stabilizer.

    Procedure: scan vertex subsets U in ascending cardinality (ascending
    mask value within a cardinality) for one where every reach set
    R(U, u) has fewer than |U| values.  If none exists, some vertex of the
    full graph reaches at least n values and certifies directly.  Otherwise
    U is cardinality-minimal, so the auxiliary digraph F on U with arcs
    (u, v) for |R(U-u, v)| >= |U|-1 has minimum out-degree 1; walking the
    smallest out-neighbour from the smallest vertex finds an F-cycle
    v_0 .. v_{l-1}.  The value p of the reversed cycle v_0 v_{l-1} .. v_1
    in the labelled digraph either is the identity (balanced cycle) or
    right-stabilizes R_0 = R(U - v_{l-1}, v_0), which has at least
    |U| - 1 = |X| values: certificate.
    """
    if not L.is_complete():
        raise IncompleteDigraph("the key lemma operates on complete digraphs")
    return _key_lemma_scoped(L, (1 << L.n) - 1)


def _key_lemma_scoped(L: Labelling, scope: int) -> Dichotomy:
    G = L.group
    if G.order == 1:
        raise TrivialGroup("the key lemma needs a non-trivial group")
    nverts = _scope(L, scope, KEY_LEMMA_CAP, None).bit_count()
    within = nverts == G.order

    U = None
    below = top = None  # the scan's last two layers: sizes |U| - 1 and |U| once U is found
    for size, layer in aggregated_reach_layers(L, scope):
        below, top = top, layer
        if size < 2:
            continue  # singletons reach exactly the identity, never small
        # entries outside a row's mask are empty, so they never disqualify it
        small = (np.bitwise_count(layer.array) < size).all(axis=1)
        if small.any():
            U = layer.mask_at(int(small.argmax()))
            break

    if U is None:
        entry = top[scope]
        x = min(e for e, bits in entry.items() if bits.bit_count() >= nverts)
        R = entry[x]
        cert = StabilizerCertificate(X=scope, x=x, R=R,
                                     right_stab=stabilizer(G, R, "right"))
        return Dichotomy(certificate=cert, within_hypothesis=within)

    # a reach set R(X, x) depends only on X, so the scan's layers over the
    # scope already hold R(U, .) and every R(U - u, .) the F-walk reads
    k = U.bit_count()
    uverts = subset_elements(U)

    succ = {}
    for u in uverts:
        sub = U ^ (1 << u)
        entry = below[sub]
        outs = [v for v in subset_elements(sub) if entry[v].bit_count() >= k - 1]
        if not outs:
            raise AssertionError("minimality of U guarantees out-degree >= 1 in F")
        succ[u] = outs[0]

    walk = [uverts[0]]
    seen = {uverts[0]: 0}
    while True:
        nxt = succ[walk[-1]]
        if nxt in seen:
            cyc = walk[seen[nxt]:]
            break
        seen[nxt] = len(walk)
        walk.append(nxt)

    ell = len(cyc)
    rows = L.rows()
    r_sets = [below[U ^ (1 << cyc[(i - 1) % ell])][cyc[i]] for i in range(ell)]
    for i in range(ell):
        shifted = G.subset_mul_elem(r_sets[(i + 1) % ell], rows[cyc[(i + 1) % ell]][cyc[i]])
        full = top[U][cyc[i]]
        if (r_sets[i] | shifted) & ~full:
            raise AssertionError("reach propagation containment failed")
        if r_sets[i] != shifted:
            raise AssertionError("reach propagation equality failed")

    dcycle = [cyc[0]] + cyc[:0:-1]  # the D-cycle v0, v_{l-1}, ..., v1
    p = cycle_value(L, dcycle)
    if p == 0:
        return Dichotomy(cycle=_checked(L, tuple(dcycle)),
                         within_hypothesis=within)

    X = U ^ (1 << cyc[-1])
    R = r_sets[0]
    stab = stabilizer(G, R, "right")
    if not (stab >> p) & 1:
        raise AssertionError("the unbalanced cycle value must right-stabilize R_0")
    cert = StabilizerCertificate(X=X, x=cyc[0], R=R, right_stab=stab)
    return Dichotomy(certificate=cert, within_hypothesis=within)


def make_efficient_tuple(L: Labelling, v0: int) -> Dichotomy:
    """Balanced cycle or an efficient tuple anchored at v0.

    Normalizes at v0 (arcs out of v0 become the identity), runs the key
    lemma on the rest, and lifts its certificate to the tuple
    ({v0} + X', v0, x, normalized labelling, R): every path counted by R
    extends to a v0 path through the free identity arc.  A short-cycle scan
    runs first, and a tuple whose R is the whole group is converted into
    the balanced cycle it implies (close a u-to-v path of value
    label(v,u)^-1 with the arc (v,u)).
    """
    if not L.is_complete():
        raise IncompleteDigraph("tuple construction needs a complete digraph")
    n = L.n
    _scope(L, (1 << n) - 1, n, v0)  # v0 must be a vertex
    v0 = int(v0)  # a numpy integer passes _scope
    if n < 2:
        raise BadSize("tuple construction needs at least two vertices")
    scope = _scope(L, ((1 << n) - 1) ^ (1 << v0), KEY_LEMMA_CAP)
    G = L.group
    within = n - 1 == G.order

    hit = short_cycle_scan(L)
    if hit is not None:
        return Dichotomy(cycle=_checked(L, hit.vertices),
                         within_hypothesis=within)

    family = [int(x) for x in L.labels[v0]]
    family[v0] = 0
    normalized = apply_shift_family(L, family)  # normalize(L, v0), whose checks ran above
    inner = _key_lemma_scoped(normalized, scope)
    if inner.cycle is not None:
        return Dichotomy(cycle=_checked(L, inner.cycle.vertices),
                         within_hypothesis=inner.within_hypothesis)

    cert = inner.certificate
    X = cert.X | (1 << v0)
    u, v = v0, cert.x
    R = cert.R
    if R == G.full_subset():
        return Dichotomy(cycle=_checked(L, _close_cycle(normalized, X, u, v).vertices),
                         within_hypothesis=inner.within_hypothesis)
    tup = EfficientTuple(X=X, u=u, v=v, gamma_prime=normalized, R=R,
                         shift_family=tuple(family),
                         is_super=R.bit_count() >= X.bit_count())
    return Dichotomy(efficient_tuple=tup,
                     within_hypothesis=inner.within_hypothesis)


@dataclass
class TupleReport:
    """Outcome of re-checking an efficient tuple from scratch.

    ``failures`` lists broken definition invariants.  The counting
    consequences (R != full group; enough vertices outside X to cover the
    larger stabilizer, one more for super-efficient tuples) are evaluated
    separately: a violation there is evidence of a balanced cycle, and when
    R is the whole group a concrete witness is extracted.  The vertex-count
    part only binds when the digraph has group-order-plus-one vertices.
    """

    failures: list[str] = field(default_factory=list)
    claim_failures: list[str] = field(default_factory=list)
    counting_applicable: bool = True
    extracted_cycle: CycleWitness | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def claims_ok(self) -> bool:
        return not self.claim_failures


def validate_tuple(L_base: Labelling, T: EfficientTuple) -> TupleReport:
    """Recompute every invariant of the tuple and its counting consequences."""
    report = TupleReport()
    G = T.gamma_prime.group
    n = T.gamma_prime.n
    if L_base.group != G or L_base.n != n:
        report.failures.append("tuple labelling does not match the base labelling")
        return report
    if not is_json_int(T.X, 1 << n):
        report.failures.append(f"X holds a vertex outside 0..{n - 1}")
        return report
    if T.u == T.v:
        report.failures.append("u and v must be distinct")
    for w in (T.u, T.v):
        if not (is_json_int(w, n) and (T.X >> w) & 1):
            report.failures.append(f"vertex {w} is outside X")
    if report.failures:
        return report

    equivalent = True
    if len(T.shift_family) != n:
        report.failures.append(f"shift family has {len(T.shift_family)} members for {n} vertices")
        equivalent = False
    elif not all(is_json_int(g, G.order) for g in T.shift_family):
        report.failures.append("shift family holds a non-element")
        equivalent = False
    elif apply_shift_family(L_base, T.shift_family) != T.gamma_prime:
        report.failures.append("stored shift family does not reproduce gamma_prime")
        equivalent = False
    if shifting_equivalent(L_base, T.gamma_prime) is None:
        report.failures.append("gamma_prime is not shifting-equivalent to the base labelling")
        equivalent = False

    attained = reach_set_between(T.gamma_prime, T.X, T.u, T.v)
    membership_ok = T.R & ~attained == 0
    if not membership_ok:
        report.failures.append("R is not a subset of the attainable u-to-v path values")
    stab_r = stabilizer(G, T.R, "right")
    if stab_r.bit_count() < 2:
        report.failures.append("right stabilizer of R is trivial")
    size_r, size_x = T.R.bit_count(), T.X.bit_count()
    if size_r < size_x - 1:
        report.failures.append("|R| < |X| - 1")
    if T.is_super and size_r < size_x:
        report.failures.append("tuple tagged super-efficient but |R| < |X|")

    report.counting_applicable = n == G.order + 1
    full = G.full_subset()
    if T.R == full:
        report.claim_failures.append("R equals the whole group")
        if membership_ok and equivalent:
            witness = _close_cycle(T.gamma_prime, T.X, T.u, T.v)
            report.extracted_cycle = _checked(L_base, witness.vertices)
    if report.counting_applicable:
        stab_l = stabilizer(G, T.R, "left")
        outside = n - size_x
        bound = max(stab_l.bit_count(), stab_r.bit_count())
        if T.is_super:
            bound += 1
        if outside < bound:
            report.claim_failures.append(
                f"only {outside} vertices outside X but the stabilizers need {bound}; "
                "a balanced cycle must exist")
    return report


def augment_tuple(L_base: Labelling, T: EfficientTuple, w1: int, w2: int) -> EfficientTuple:
    """Absorb two outside vertices, growing R by at least |stab_r(R)|.

    The tuple labelling is first re-normalized so every vertex outside X
    carries the identity on its arc into u (shifts outside X only, labels
    inside X survive).  The arc label x = label(w1, w2) must then move R
    when multiplied from the left; the result replaces R by {1, x} * R,
    realized by prepending either (w1, u) or (w1, w2), (w2, u) to the
    recorded u-to-v paths.
    """
    gp = T.gamma_prime
    G = gp.group
    n = gp.n
    if not gp.is_complete():
        raise PreconditionViolated("augmentation needs a complete tuple labelling")
    if w1 == w2 or not (is_json_int(w1, n) and is_json_int(w2, n)):
        raise PreconditionViolated("w1 and w2 must be distinct in-range vertices")
    w1, w2 = int(w1), int(w2)
    if (T.X >> w1) & 1 or (T.X >> w2) & 1:
        raise PreconditionViolated("w1 and w2 must lie outside X")

    outside = [not (T.X >> w) & 1 for w in range(n)]
    fam = np.where(outside, G.inverse_table[gp.labels[:, T.u]], 0).tolist()
    delta = apply_shift_family(gp, fam)

    x = delta.label(w1, w2)
    if (stabilizer(G, T.R, "left") >> x) & 1:
        raise PreconditionViolated(
            f"label({w1},{w2}) = {x} left-stabilizes R; pick a non-stabilizing pair")

    grown = grow_set(G, T.R, x)
    stab_before = stabilizer(G, T.R, "right")
    stab_after = stabilizer(G, grown, "right")
    if stab_before & ~stab_after:
        raise AssertionError("right stabilizer must be preserved")
    if grown.bit_count() < T.R.bit_count() + stab_before.bit_count():
        raise AssertionError("growth lower bound violated")

    combined = tuple(G.mul(fam[z], T.shift_family[z]) for z in range(n))
    new_x = T.X | (1 << w1) | (1 << w2)
    return EfficientTuple(X=new_x, u=w1, v=T.v, gamma_prime=delta, R=grown,
                          shift_family=combined,
                          is_super=grown.bit_count() >= new_x.bit_count())


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_finder(L: Labelling) -> CycleWitness:
    """A balanced cycle in any labelling over a prime-order group on p+1 vertices.

    Over a prime-order group a non-trivial right stabilizer forces the
    tuple's R to be the whole group, so make_efficient_tuple always
    converts its tuple branch into a cycle; this function just insists on
    that outcome.  A tuple escaping anyway would contradict n(Z_p) = p+1
    and raises TheoremViolation.
    """
    G = L.group
    if not _is_prime(G.order):
        raise NotPrime(f"group order {G.order} is not prime")
    if L.n != G.order + 1:
        raise BadSize(f"prime finder needs exactly {G.order + 1} vertices, got {L.n}")
    outcome = make_efficient_tuple(L, 0)
    if outcome.cycle is None:
        raise TheoremViolation(
            "no balanced cycle constructed over a prime-order group; "
            "this contradicts n(Z_p) = p+1 and deserves a report")
    return outcome.cycle
