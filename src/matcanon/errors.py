"""Exception hierarchy shared by all matcanon modules.

Every failure mode has its own class so callers (and the CLI) can report
the error by name.  All of them derive from :class:`MatcanonError`.
"""


class MatcanonError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(MatcanonError, ZeroDivisionError):
    """Division or inversion of a zero field element or polynomial."""


class FieldMismatch(MatcanonError):
    """Operands live over different fields."""


class DimensionMismatch(MatcanonError):
    """Matrix or vector shapes are incompatible."""


class SingularMatrix(MatcanonError):
    """Inverse requested for a non-invertible matrix."""


class NonSquare(MatcanonError):
    """A square matrix was required."""


class NotMonic(MatcanonError):
    """A monic polynomial was required."""


class DegreeZero(MatcanonError):
    """A polynomial of degree >= 1 was required."""


class DegreeMismatch(MatcanonError):
    """Polynomial degrees do not match the required degree sequence."""


class EmptyInput(MatcanonError):
    """A nonempty sequence was required."""


class BadPartition(MatcanonError, ValueError):
    """Partition parts that are missing, below 1, or not weakly decreasing."""


class ChainViolation(MatcanonError):
    """Successive invariant factors must divide exactly."""


class TraceNonzero(MatcanonError):
    """A trace-zero matrix was required."""


class NotInY(MatcanonError):
    """Invariant triple lies outside the locus where x1*x3*(x2^2-4*x1*x3) != 0."""


class RootsMissingInField(MatcanonError):
    """A required square root does not exist in the working field."""


class NotInW(MatcanonError):
    """Hom-dimension gates for splitting off the fixed simple pair failed."""


class DegenerateComposite(MatcanonError):
    """The composite of the two Hom generators is zero."""


class BasisFailure(MatcanonError):
    """Internal basis construction failed; indicates a bug, not bad input."""


class DegenerateDiagonal(MatcanonError):
    """Diagonal entries of the fixed simple pair collide in the field."""


class NotPrime(MatcanonError, ValueError):
    """A GF(p) modulus that is not a prime, or too large to prove one."""


class ParseError(MatcanonError):
    """Malformed matrix, pair, or scalar text input."""
