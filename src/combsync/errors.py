"""Exception types shared across the toolkit, and the range rules its inputs are checked against.

Each rule is one helper: finite, finite and positive, finite and >= 0,
in [0, 1], and a count, an integer (not a bool) from a minimum up to
2**bits: 2**53 by default, past which a float no longer counts exactly,
and 2**64 for a seed.  A rule returns its value as a Python float or int
or raises ``InvalidArgument`` with its one message, which names the
argument; NaN and bools fail every rule.  ``_store`` keeps a model's
fields as the floats their rule returns, never as numpy scalars.  Python
float arithmetic overflows to inf (and inf * 0 to nan) without raising,
so a computed result passes ``_in_float_range`` instead, whose one
``OverflowError`` message names the quantity; an array of results
passes it whole, and the message reads its first entry that is not finite.
"""

import math
from numbers import Integral, Real

import numpy as np


class CombsyncError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(CombsyncError, ValueError):
    """An argument is outside its documented domain."""


class InsufficientData(CombsyncError, ValueError):
    """A series is too short for the requested estimator."""


class DegenerateInput(CombsyncError, ValueError):
    """Structurally valid input that cannot be processed (e.g. zeros where logs are needed)."""


def _finite(name: str, value) -> float:
    if value is True or value is False or not math.isfinite(value):
        raise InvalidArgument(f"{name} must be finite, got {value}")
    return float(value)


def _positive(name: str, value) -> float:
    if value is True or value is False or not math.isfinite(value) or value <= 0.0:
        raise InvalidArgument(f"{name} must be finite and positive, got {value}")
    return float(value)


def _non_negative(name: str, value) -> float:
    if value is True or value is False or not math.isfinite(value) or value < 0.0:
        raise InvalidArgument(f"{name} must be finite and >= 0, got {value}")
    return float(value)


def _unit_interval(name: str, value) -> float:
    if value is True or value is False or not 0.0 <= value <= 1.0:
        raise InvalidArgument(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def _count(name: str, value, minimum: int, bits: int = 53) -> int:
    count = value
    if type(value) is not int:  # an int subclass, a numpy integer, a bool or no integer at all
        count = int(value) if isinstance(value, Integral) and not isinstance(value, bool) else -1
    # Every minimum is >= 0, so -1 fails, and count >> bits is 0 exactly when count < 2**bits.
    if count < minimum or count >> bits:
        raise InvalidArgument(f"{name} must be >= {minimum} and < 2**{bits}, got {value!r}")
    return count


def _real(value) -> bool:
    """Whether value is a real number and not a bool, as a Python int past int64 or a Fraction is."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _store(obj, rule, *names: str) -> None:
    """Check each named field of the frozen dataclass obj by rule and store the float it returns."""
    for name in names:
        object.__setattr__(obj, name, rule(name, getattr(obj, name)))


def _in_float_range(name: str, value):
    """value, a number or a non-empty array, unless it or an entry is not finite, which the error names."""
    first = value.flat[np.argmin(np.isfinite(value))] if isinstance(value, np.ndarray) else value
    if not math.isfinite(first):
        raise OverflowError(f"{name} left the float range: {first}")
    return value
