"""Uniformly sampled clock data: phase deviations and fractional frequency.

Both containers hold window averages on a fixed grid with sample period
``tau0``: ``TimeSeriesX`` stores phase (timing) deviations in seconds,
``TimeSeriesY`` stores dimensionless fractional-frequency values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, _positive


@dataclass(frozen=True)
class _Series:
    """A positive, finite ``tau0`` and one-dimensional float ``samples``."""

    tau0: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau0", _positive("tau0", float(self.tau0)))
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise InvalidArgument(f"samples must be one-dimensional, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


class TimeSeriesY(_Series):
    """Averaged fractional-frequency samples (dimensionless)."""


class TimeSeriesX(_Series):
    """Averaged timing-deviation samples (seconds)."""
