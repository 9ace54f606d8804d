"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: parse/usage problems exit
with 1, numerical breakdowns (ill-conditioning) with 2, failed verification
verdicts with 3.
"""


class OpcheckError(Exception):
    """Base class for all package-specific errors."""


class ParseError(OpcheckError):
    """A matrix or policy file does not conform to the JSON schema."""


class DimensionMismatch(OpcheckError):
    """Operand shapes are incompatible for the requested operation."""


class NotSquare(DimensionMismatch):
    """A square matrix was required."""


class Singular(OpcheckError):
    """Inversion was requested for a matrix that is rank deficient under
    the active numeric policy."""


class IllConditioned(OpcheckError):
    """A similarity or decomposition is too badly conditioned to trust, or
    a defect scale, transform or matrix power of finite operands overflows;
    results derived from it would be numerically meaningless."""


class InvalidOrder(OpcheckError, ValueError):
    """An order, index, bound or count is out of range: a nilpotency order
    or index for the requested size, a transform order or scan bound below
    1, or a harness trial count, size or order out of its range."""


class GenerationFailed(OpcheckError):
    """A seeded generator exhausted its retry budget without producing an
    instance that passes its own certification."""


class ToleranceInconsistency(OpcheckError):
    """A defect vanished at some order but reappeared at a higher one.

    Order monotonicity is guaranteed mathematically, so this can only be a
    numerical breakdown; it is reported instead of silently picking the
    first crossing.
    """


class UnknownSuite(OpcheckError):
    """The requested verification suite name does not exist."""
