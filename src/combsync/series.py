"""Uniformly sampled clock data: phase deviations and fractional frequency.

Both containers hold window averages on a fixed grid with sample period
``tau0``: ``TimeSeriesX`` stores phase (timing) deviations in seconds,
``TimeSeriesY`` stores dimensionless fractional-frequency values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, _positive, _real, _store


@dataclass(frozen=True)
class _Series:
    """A positive, finite ``tau0`` and one-dimensional ``samples`` of integers or floats, stored as floats."""

    tau0: float
    samples: np.ndarray

    def __post_init__(self):
        _store(self, _positive, "tau0")
        samples = np.asarray(self.samples)
        # Bools, complex numbers and strings would cast without a word; ints past int64 come as objects.
        if samples.dtype.kind not in "iuf" and not (samples.dtype.kind == "O" and all(map(_real, samples.flat))):
            raise InvalidArgument(f"samples must be integers or floats, got dtype {samples.dtype}")
        if samples.ndim != 1:
            raise InvalidArgument(f"samples must be one-dimensional, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples.astype(float, copy=False))

    def __len__(self) -> int:
        return self.samples.size


class TimeSeriesY(_Series):
    """Averaged fractional-frequency samples (dimensionless)."""


class TimeSeriesX(_Series):
    """Averaged timing-deviation samples (seconds)."""
