"""Exception taxonomy shared by all modules.

Every error raised on purpose by this package is one of the classes
below. All of them derive from EwsrgapError, so callers can catch the
whole package at once, by family (ValueError / IndexError /
RuntimeError) or by exact type.

The check_* functions below are the one definition of what an integer,
a finite real, a finite array and a list argument is. The scenario
types, the scenario loader, the CLI and every numerical entry point
call them; the loader and the CLI only add the JSON field or the flag
name.
"""

import math
import numbers
import reprlib

import numpy as np


class EwsrgapError(Exception):
    """Base class of every error this package raises on purpose."""


class DomainError(EwsrgapError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DimensionMismatch(DomainError):
    """Matrix or vector shapes are inconsistent with each other."""


class NotHermitian(EwsrgapError, ValueError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


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


def check_integer(value, name: str, low: int | None = 1) -> int:
    """value as an int when it is an integer >= low (any integer when low
    is None), else DomainError.

    numpy integers count as integers; bools, an int subclass, do not.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or (low is not None and value < low)
    ):
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {reprlib.repr(value)}")
    return int(value)


def check_list(value, name: str, kind=object) -> list:
    """value as a list when it is a list or tuple whose entries are all
    instances of kind, else DomainError naming the argument or the entry."""
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"{name} must be a list, got {reprlib.repr(value)}")
    for i, item in enumerate(value):
        if not isinstance(item, kind):
            raise DomainError(f"{name}[{i}] must be a {kind.__name__}, got {reprlib.repr(item)}")
    return list(value)


def _as_real(value) -> float:
    """value as a float when it is a real number (not a bool), else NaN;
    an int beyond the float range becomes inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf


def check_nonnegative(value, name: str) -> float:
    """value as a float when it is a finite real number >= 0, else DomainError.

    numpy reals count as reals; bools and NaN do not.
    """
    x = _as_real(value)
    if not 0.0 <= x < math.inf:  # also false for NaN
        raise DomainError(f"{name} must be a finite real number >= 0, got {reprlib.repr(value)}")
    return x


def check_positive(value, name: str) -> float:
    """value as a float when it is a finite real number > 0, else DomainError."""
    x = _as_real(value)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be a finite real number > 0, got {reprlib.repr(value)}")
    return x


def check_finite(value, name: str, dtype=complex) -> np.ndarray:
    """value as an array of dtype when it holds numbers, all finite, else DomainError.

    As for the scalar rules, bools are not numbers; nor is anything numpy
    can only hold as objects or strings, such as None, ragged lists or
    integers too large for any numpy integer or float type.
    """
    try:
        a = np.asarray(value)
    except (TypeError, ValueError, OverflowError):  # e.g. ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iufc" or not np.isfinite(a).all():
        raise DomainError(f"{name} has non-finite or non-numeric entries")
    return a.astype(dtype, copy=False)
