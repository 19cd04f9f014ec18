"""Exception taxonomy shared by all modules.

Every error raised on purpose by this package is one of the classes
below. All of them derive from EwsrgapError, so callers can catch the
whole package at once, by family (ValueError / IndexError /
RuntimeError) or by exact type. check_integer and check_nonnegative
are the one validators of integer and real arguments outside the
scenario loader and the CLI.
"""

import math
import numbers


class EwsrgapError(Exception):
    """Base class of every error this package raises on purpose."""


class DomainError(EwsrgapError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DimensionMismatch(DomainError):
    """Matrix or vector shapes are inconsistent with each other."""


class NotHermitian(EwsrgapError, ValueError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositiveDefinite(EwsrgapError, ValueError):
    """A Hermitian matrix has a nonpositive pivot where HPD is required."""


class IndefiniteMatrix(EwsrgapError, ValueError):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


class NoConvergence(EwsrgapError, RuntimeError):
    """An iterative kernel exhausted its iteration budget."""


class UnsupportedCase(EwsrgapError, ValueError):
    """The requested method is not valid for the given configuration."""


class ParseError(EwsrgapError, ValueError):
    """A document could not be parsed; carries location context."""

    def __init__(self, message, *, line=None, field=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.field = field


class ValidationError(EwsrgapError, ValueError):
    """A parsed document violates a structural invariant, named in the message."""


class IndexOutOfRange(EwsrgapError, IndexError):
    """A user or cell index is outside the scenario's range."""


def check_integer(value, name: str, low: int = 1) -> int:
    """value as an int when it is an integer >= low, else DomainError.

    numpy integers count as integers; bools, an int subclass, do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_nonnegative(value, name: str) -> float:
    """value as a float when it is a finite real number >= 0, else DomainError.

    numpy reals count as reals; bools and NaN do not.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not 0.0 <= x < math.inf:  # also false for NaN
        raise DomainError(f"{name} must be a finite real number >= 0, got {value!r}")
    return x
