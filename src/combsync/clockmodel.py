"""Oscillator and mode-locked-laser comb models.

A ``ClockModel`` turns a nominal oscillator (frequency offset, linear
drift, power-law noise) into sampled phase-deviation series for the
stability estimators; its offset + drift ramp is written once, in
``ramp_phase``, for a float or an array of times.  ``CombParams`` carries
the frequency-domain comb descriptor (repetition rate, carrier-envelope
offset, pulse duration) of a sync config, and ``comb_time_params``
derives its time-domain partners.  Neither the carrier waveform nor the
pulse train is synthesized, because every consumer works on x/y data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument, _finite, _positive
from .noisegen import NoiseSpec, generate_noise
from .seeding import check_seed, derive_seed
from .series import TimeSeriesX

#: Photodetector-friendly repetition-rate band for comb sampling schemes.
REP_RATE_BAND_HZ = (10e6, 1e9)


@dataclass(frozen=True)
class ClockModel:
    """An oscillator: nominal frequency plus deterministic and noise terms.

    frac_freq_offset is a constant fractional-frequency bias; drift is
    its linear rate of change per second.
    """

    nu0: float
    frac_freq_offset: float = 0.0
    drift: float = 0.0
    noise: tuple[NoiseSpec, ...] = ()

    def __post_init__(self):
        _positive("nu0", self.nu0)
        for name in ("frac_freq_offset", "drift"):
            _finite(name, getattr(self, name))
        object.__setattr__(self, "noise", tuple(self.noise))


@dataclass(frozen=True)
class CombParams:
    """Frequency-comb descriptor: mode_N = N*f_r + f_0.

    t_0 is the pulse duration; t_r = 1/f_r and the carrier-envelope
    phase slip are derived, never stored.
    """

    f_r: float
    f_0: float
    t_0: float
    n_range: tuple[int, int]

    def __post_init__(self):
        _positive("f_r", self.f_r)
        if not (0.0 <= self.f_0 < self.f_r):
            raise InvalidArgument(f"offset frequency must satisfy 0 <= f_0 < f_r, got {self.f_0}")
        _positive("t_0", self.t_0)
        lo, hi = self.n_range
        if int(lo) != lo or int(hi) != hi or lo < 1 or hi < lo:
            raise InvalidArgument(f"n_range must be an integer interval with 1 <= lo <= hi, got {self.n_range}")
        object.__setattr__(self, "n_range", (int(lo), int(hi)))
        if not (REP_RATE_BAND_HZ[0] <= self.f_r <= REP_RATE_BAND_HZ[1]):
            warnings.warn(
                f"repetition rate {self.f_r:g} Hz is outside the "
                f"{REP_RATE_BAND_HZ[0]:g}-{REP_RATE_BAND_HZ[1]:g} Hz band of "
                "off-the-shelf photodetection",
                stacklevel=2,
            )


def ramp_phase(clock: ClockModel, t):
    """Phase of the offset + drift ramp at time t (a float or an array of times)."""
    return clock.frac_freq_offset * t + 0.5 * clock.drift * t * t


def sample_clock(clock: ClockModel, count: int, tau0: float, seed: int = 0) -> TimeSeriesX:
    """Sample the clock's phase deviation at count points spaced tau0 apart.

    The deterministic part (offset + drift ramp) is integrated exactly;
    each noise source contributes its fractional-frequency samples
    accumulated stepwise, one rectangle per sample period.
    """
    if count < 2:
        raise InvalidArgument(f"count must be >= 2, got {count}")
    seed = check_seed(seed)
    tau0 = _positive("tau0", float(tau0))
    x = ramp_phase(clock, np.arange(count) * tau0)
    for i, spec in enumerate(clock.noise):
        if spec.amplitude == 0.0:
            continue
        derived = replace(spec, seed=derive_seed(seed, i, spec.seed))
        y = generate_noise(derived, max(2, count - 1), tau0).samples[: count - 1]
        x[1:] += np.cumsum(y) * tau0
    return TimeSeriesX(tau0, x)


def comb_time_params(comb: CombParams) -> tuple[float, float]:
    """Pulse period t_r = 1/f_r and carrier-envelope phase slip 2*pi*f_0/f_r."""
    return 1.0 / comb.f_r, 2.0 * math.pi * comb.f_0 / comb.f_r
