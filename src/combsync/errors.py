"""Exception types shared across the toolkit, and the range rules its inputs are checked against.

Each rule is one helper: finite, finite and positive, finite and >= 0,
in [0, 1], and a count from a minimum up to 2**53 (past which a float
no longer counts exactly).  A helper returns the value it is given or raises
``InvalidArgument`` with the rule's one message, which names the
argument; NaN fails every rule.
"""

import math


class CombsyncError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(CombsyncError, ValueError):
    """An argument is outside its documented domain."""


class InsufficientData(CombsyncError, ValueError):
    """A series is too short for the requested estimator."""


class DegenerateInput(CombsyncError, ValueError):
    """Structurally valid input that cannot be processed (e.g. zeros where logs are needed)."""


def _finite(name: str, value):
    if not math.isfinite(value):
        raise InvalidArgument(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value):
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidArgument(f"{name} must be finite and positive, got {value}")
    return value


def _non_negative(name: str, value):
    if not math.isfinite(value) or value < 0.0:
        raise InvalidArgument(f"{name} must be finite and >= 0, got {value}")
    return value


def _unit_interval(name: str, value):
    if not 0.0 <= value <= 1.0:
        raise InvalidArgument(f"{name} must lie in [0, 1], got {value}")
    return value


def _count(name: str, value, minimum: int):
    if not minimum <= value < 2**53:
        raise InvalidArgument(f"{name} must be >= {minimum} and < 2**53, got {value}")
    return value
