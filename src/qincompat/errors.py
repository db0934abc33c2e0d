"""Exception hierarchy shared across the package."""


class QincompatError(Exception):
    """Base class for every error raised by qincompat."""


class ValidationError(QincompatError):
    """A constructed object violates one of its defining invariants."""


class NotHermitianError(ValidationError):
    """Matrix fails the self-adjointness check."""


class NotPositiveError(ValidationError):
    """Operator has an eigenvalue below the allowed negative tolerance."""


class DimensionMismatchError(QincompatError):
    """Operands live on Hilbert spaces of different dimensions."""


class LengthMismatchError(QincompatError):
    """Probability vectors of different lengths were compared."""


class NumericalFailureError(QincompatError):
    """A dense linear-algebra routine failed to converge."""


class ParamOutOfRangeError(QincompatError):
    """A construction, closed-form or command-line parameter is outside its valid range."""


class ObjectiveNaNError(QincompatError):
    """An optimization objective returned a non-finite value."""


class DegenerateObservableError(QincompatError):
    """An operation that requires non-degenerate spectra got a degenerate observable."""


class ParseError(QincompatError):
    """An input file could not be interpreted against the expected schema."""
