"""Exception types shared across the package.

Each class names the violated precondition or invariant; callers that
want to distinguish failure modes catch the specific subclass.
"""


class GaleregError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(GaleregError):
    """Basis columns do not span a rank-2 sublattice."""


class NotHomogeneous(GaleregError):
    """The all-ones vector is not orthogonal to the lattice."""


class AmbientTooSmall(GaleregError):
    """Fewer than three coordinates remain."""


class WrongRank(GaleregError):
    """Input matrix or Gale vector has the wrong shape or rational rank."""


class Degenerate(GaleregError):
    """Some difference of coordinate vectors lies in the lattice."""


class NotSaturated(GaleregError):
    """Operation requires a saturated lattice."""


class InternalInconsistency(GaleregError):
    """Computed values contradict an invariant that always holds; a bug."""


class PreconditionCI(GaleregError):
    """Operation requires a non complete intersection ideal."""


class PreconditionCM(GaleregError):
    """Operation requires a non Cohen-Macaulay ideal."""


class PreconditionNotCM(GaleregError):
    """Operation requires a Cohen-Macaulay ideal."""


class PreconditionNotCMnonCI(GaleregError):
    """Operation requires a Cohen-Macaulay non complete intersection ideal."""


class PreconditionNotBalanced(GaleregError):
    """Operation requires a perfectly balanced reduction datum."""


class PreconditionUnbalancedPair(GaleregError):
    """The selected quadrant pair does not sum to zero."""


class PreconditionShape(GaleregError):
    """Reduction datum lacks the shape hypotheses for this operation."""


class NotAllQuadrants(GaleregError):
    """Gale diagram misses one of the four open quadrants."""


class DegreeOne(GaleregError):
    """Complete intersection formulas require all degrees at least 2."""


class NotIncreasing(GaleregError):
    """Curve exponents must be strictly increasing from 0."""


class GcdNotOne(GaleregError):
    """Curve exponents past the first must have gcd 1."""


class UnknownSearch(GaleregError):
    """No search with the requested name exists."""


class BadInput(GaleregError):
    """Malformed input document or command line."""
