"""Exception hierarchy shared by all qmat modules."""


class QmatError(Exception):
    """Base class for all qmat errors."""


class InvalidDimensionError(QmatError):
    """Matrix size n is out of the supported range (n >= 2)."""


class IndexOutOfRangeError(QmatError):
    """A generator, minor or derivation index is outside its valid range."""


class NotAMonomialError(QmatError):
    """Inversion was requested for an element with more than one term."""


class NotInLatticeError(QmatError):
    """A central exponent vector is not an integer combination of the
    distinguished central monomials.  Signals an internal inconsistency."""


class NotInSpanError(QmatError):
    """The element is not representable over the admissible monomials: the
    natural ones, or those in a given exponent box (a larger may succeed)."""


class ResourceLimitError(QmatError):
    """A computation exceeded the configured term-count limit."""


class NotADerivationError(QmatError):
    """A generator-image assignment does not respect the defining relations."""

    @classmethod
    def at_pairs(cls, bad: list) -> "NotADerivationError":
        return cls(f"images violate relations at pairs {bad}")


class InconsistentDecompositionError(QmatError):
    """Different generators disagree on the inner part of a decomposition;
    the input was not a derivation."""


class ConditionViolatedError(QmatError):
    """The scaling coefficients of a decomposed derivation violate a
    structural constraint that every true derivation satisfies."""


class NotPolynomialError(QmatError):
    """A coefficient expected to be polynomial in the quantum determinant
    carries negative powers."""


class DimensionMismatchError(QmatError):
    """Two operands live over different matrix sizes n or different algebras."""


class ParseError(QmatError):
    """Malformed JSON input for an element or derivation."""
