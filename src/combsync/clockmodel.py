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
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument, _count, _finite, _in_float_range, _non_negative, _positive, _store
from .noisegen import NoiseSpec, generate_noise
from .seeding import check_seed, derive_seed
from .series import TimeSeriesX


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
        _store(self, _positive, "nu0")
        _store(self, _finite, "frac_freq_offset", "drift")
        object.__setattr__(self, "noise", tuple(self.noise))


@dataclass(frozen=True)
class CombParams:
    """Frequency-comb descriptor: mode_N = N*f_r + f_0.

    t_0 is the pulse duration; t_r = 1/f_r and the carrier-envelope
    phase slip are derived, never stored.  f_0 passes the >= 0 rule of
    ``errors``, then must lie below f_r.  n_range is a pair (lo, hi) of
    mode numbers, lo <= hi, each passing the count rule of ``errors`` from 1.
    """

    f_r: float
    f_0: float
    t_0: float
    n_range: tuple[int, int]

    def __post_init__(self):
        _store(self, _positive, "f_r")
        _store(self, _non_negative, "f_0")
        if not self.f_0 < self.f_r:
            raise InvalidArgument(f"offset frequency must satisfy 0 <= f_0 < f_r, got {self.f_0}")
        _store(self, _positive, "t_0")
        try:
            lo, hi = self.n_range
        except (TypeError, ValueError):  # not iterable, or not two items: (2, 1) fails the pair rule below
            lo, hi = 2, 1
        n_range = (_count("n_range[0]", lo, 1), _count("n_range[1]", hi, 1))
        if n_range[1] < n_range[0]:
            raise InvalidArgument(f"n_range must be a pair (lo, hi) with lo <= hi, got {self.n_range!r}")
        object.__setattr__(self, "n_range", n_range)


def ramp_phase(clock: ClockModel, t):
    """Phase of the offset + drift ramp at time t (a float or an array of times)."""
    return clock.frac_freq_offset * t + 0.5 * clock.drift * t * t


def sample_clock(clock: ClockModel, count: int, tau0: float, seed: int = 0) -> TimeSeriesX:
    """Sample the clock's phase deviation at count points spaced tau0 apart.

    The deterministic part (offset + drift ramp) is integrated exactly;
    each noise source contributes its fractional-frequency samples
    accumulated stepwise, one rectangle per sample period.  A ramp past
    the float range at the last sample raises OverflowError; each ramp
    term grows with t, so that one value bounds the whole ramp.  So does
    a phase that the accumulated noise takes past the float range.
    """
    count = _count("count", count, 2)
    seed = check_seed(seed)
    tau0 = _positive("tau0", tau0)
    _in_float_range("ramp at the last sample", ramp_phase(clock, (count - 1) * tau0))
    x = ramp_phase(clock, np.arange(count) * tau0)
    for i, spec in enumerate(clock.noise):
        if spec.amplitude == 0.0:
            continue
        derived = replace(spec, seed=derive_seed(seed, i, spec.seed))
        y = generate_noise(derived, max(2, count - 1), tau0).samples[: count - 1]
        x[1:] += np.cumsum(y) * tau0
    return TimeSeriesX(tau0, _in_float_range("phase", x))


def comb_time_params(comb: CombParams) -> tuple[float, float]:
    """Pulse period t_r = 1/f_r and carrier-envelope phase slip 2*pi*f_0/f_r."""
    return (_in_float_range("pulse period", 1.0 / comb.f_r),
            _in_float_range("phase slip", 2.0 * math.pi * comb.f_0 / comb.f_r))
