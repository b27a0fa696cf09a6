"""Exception hierarchy for semikit."""


class SemigroupError(Exception):
    """Base class for all semikit errors."""


class OutOfRange(SemigroupError):
    """A table or map entry lies outside [0, n)."""


class NotAssociative(SemigroupError):
    """The table fails associativity; carries a witness triple."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        a, b, c = self.witness
        super().__init__(f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})")


class Overflow(SemigroupError):
    """The requested order exceeds the configured maximum."""


class EmptyGenerators(SemigroupError):
    """closure() was called with no generators."""


class NotAnHClass(SemigroupError):
    """The given subset is not an H-class of the semigroup."""


class NotIdempotent(SemigroupError):
    """The given element is not idempotent."""


class NotAnIdeal(SemigroupError):
    """The given subset is not a two-sided ideal."""


class NotASubsemigroup(SemigroupError):
    """The subset is not closed under the product."""


class NotAGroup(SemigroupError):
    """The given semigroup is not a group."""


class NotCompletelySimple(SemigroupError):
    """The given semigroup is not completely simple."""


class BadSandwichEntry(SemigroupError):
    """A sandwich-matrix entry is not a valid group element index."""


class SearchCapExceeded(SemigroupError):
    """An exhaustive enumeration (subsemigroups, ideals) was requested beyond its cap."""


class CensusLimitExceeded(SemigroupError):
    """census() was requested beyond the configured order limit."""


class UnknownGenerator(SemigroupError):
    """Unrecognized fixture generator name."""
