"""Exception taxonomy shared by all modules."""


class BalancedCyclesError(Exception):
    """Base class for every error raised by this package."""


class NotAGroup(BalancedCyclesError):
    """An explicit multiplication table fails the group axioms."""


class BadSpec(BalancedCyclesError):
    """A group construction recipe is malformed or unsupported."""


class NotASubgroup(BalancedCyclesError):
    """A coset decomposition was requested for a non-subgroup."""


class BadSize(BalancedCyclesError):
    """Vertex or trial count outside the supported range."""


class BadSeed(BalancedCyclesError):
    """Random seed outside 0..2^64-1."""


class BadIndex(BalancedCyclesError):
    """Arc index outside the valid range."""


class MissingArc(BalancedCyclesError):
    """A path or cycle uses an arc that is masked out."""


class AsymmetricMask(BalancedCyclesError):
    """Inversion needs arc (u,v) present iff (v,u) is."""


class IncompleteDigraph(BalancedCyclesError):
    """Normalization and equivalence testing need every off-diagonal arc."""


class Mismatch(BalancedCyclesError):
    """Two labellings live over different groups or vertex counts."""


class TooLarge(BalancedCyclesError):
    """Instance exceeds an exact-computation cap."""


class NotInScope(BalancedCyclesError):
    """A queried vertex is outside the vertex subset of the computation."""


class TrivialGroup(BalancedCyclesError):
    """The dichotomy procedure needs a group with at least two elements."""


class PreconditionViolated(BalancedCyclesError):
    """Tuple augmentation called with vertices or labels that break its contract."""


class NotPrime(BalancedCyclesError):
    """The constructive finder only covers groups of prime order."""


class TheoremViolation(BalancedCyclesError):
    """The prime finder failed to construct a balanced cycle.

    This must never fire; an instance that triggers it would contradict the
    n(Z_p) = p+1 theorem and is worth reporting on its own.
    """


class SearchSpaceTooLarge(BalancedCyclesError):
    """An exhaustive campaign would exceed the enumeration budget.

    ``lower_bound`` and ``witness`` carry the best partial result when the
    error aborts an n-value computation midway.
    """

    def __init__(self, message, lower_bound=None, witness=None):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.witness = witness
