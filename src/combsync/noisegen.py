"""Power-law clock-noise synthesis.

Five canonical oscillator noise processes, identified by the exponent
``beta`` of the one-sided fractional-frequency PSD ``S_y(f) = A * f**beta``:

    white PM          beta = +2
    flicker PM        beta = +1
    white FM          beta =  0
    flicker FM        beta = -1
    random-walk FM    beta = -2

The amplitude ``A`` is the PSD coefficient at f = 1 Hz.  FM kinds are
shaped directly in the frequency (y) domain.  PM kinds are shaped as
phase (x) noise with exponent ``beta - 2`` and PSD coefficient
``A / (2*pi)**2``, then differenced to fractional frequency, which keeps
the PM/FM distinction explicit at the synthesis level.

Long-memory shaping uses the recursive fractional-difference filter
(exact power-law tail, well conditioned); spectral-FFT synthesis exists
only as a test oracle in the test suite.  A shaped series of ``n`` samples
(``count`` for FM kinds, ``count + 1`` phase samples for PM kinds) filters
``2n`` white draws and drops the first ``n`` as warm-up.  For the flicker
kinds the filter runs as one FFT convolution of the smallest power-of-two
size at or above ``3n - 1``, the least size that keeps the emitted samples
free of wrap-around.  That convolution runs in a private work set for
its FFT size ``L``: two spectra of ``L/2 + 1`` complex, the read-only
filter spectrum of the draw count it was last used for and the draws'
spectrum, and a buffer for the draws and the filtered series (``L``
floats).  The draws, the transforms and the product write into those
buffers, and each series is copied out into an array of its own, so every
sample is bit for bit what fresh arrays give.  Flicker series of one
length made one after the other (both clocks of a campaign, a sweep over
seeds) transform only their draws.  A series of another draw count
reloads the filter spectrum: the taps and the draws go into two rows of
the buffer and one two-row ``rfft`` transforms both.  numpy's FFT
allocates a fresh scratch of ``2 L`` floats on every call, and mapping it
in costs thousands of page faults at large ``L``; one call pays that once
for both rows, each row bit for bit what a call of its own gives.  The
work set keeps about ``24 L`` bytes alive (24 MiB at 2**18 samples, 6 MiB
at 2**16), and its buffer grows to ``2 * total`` floats, at most about
``L/3`` more, once the two rows of ``total`` draws exceed ``L``.  It stays
until a flicker series of another FFT size, ``_KEPT_FROM`` (1024) or
more, replaces it; a smaller one, such as the few draws of one exchange,
runs in a work set of its own that goes with the call.  A lock makes
concurrent syntheses take turns.  With no draw or spectrum array
allocated per call, the peak resident memory falls although more stays
resident.  Random-walk FM has every tap equal to 1, so its filter is the
running sum of the draws.  That sum runs in blocks of about ``sqrt(n)``
draws: a sequential cumulative sum inside each block, on top of a
pairwise sum of the warm-up draws and a cumulative sum of the block
totals.  At ``n = 2**18`` it stays within about 6 eps of the largest
exact sum, as the FFT convolution did; one sequential cumulative sum
over all ``n`` draws strays by about 130 eps.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgument, _count, _in_float_range, _non_negative, _positive, _store
from .seeding import check_seed
from .series import TimeSeriesY

_TWO_PI = 2.0 * math.pi


class NoiseKind(Enum):
    """The five canonical power-law processes."""

    WHITE_PM = "white_pm"
    FLICKER_PM = "flicker_pm"
    WHITE_FM = "white_fm"
    FLICKER_FM = "flicker_fm"
    RANDOM_WALK_FM = "random_walk_fm"

    @property
    def beta(self) -> int:
        """Exponent of the fractional-frequency PSD, S_y ~ f**beta."""
        return _BETA[self]

    @property
    def is_pm(self) -> bool:
        return self in (NoiseKind.WHITE_PM, NoiseKind.FLICKER_PM)


_BETA = {
    NoiseKind.WHITE_PM: 2,
    NoiseKind.FLICKER_PM: 1,
    NoiseKind.WHITE_FM: 0,
    NoiseKind.FLICKER_FM: -1,
    NoiseKind.RANDOM_WALK_FM: -2,
}


@dataclass(frozen=True)
class NoiseSpec:
    """One power-law noise process.

    amplitude is the one-sided S_y PSD coefficient at 1 Hz
    (dimensionless^2/Hz); seed selects the deterministic sample path.
    """

    kind: NoiseKind
    amplitude: float
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, NoiseKind):
            raise InvalidArgument(f"kind must be a NoiseKind, got {self.kind!r}")
        _store(self, _non_negative, "amplitude")
        object.__setattr__(self, "seed", check_seed(self.seed))


def fractional_filter_coeffs(beta_exponent: float, count: int) -> np.ndarray:
    """First ``count`` impulse-response taps of the 1/f^|beta| shaping filter.

    Recursion: h_0 = 1, h_k = h_{k-1} * (k - 1 + |beta|/2) / k.
    """
    count = _count("count", count, 1)
    half = abs(float(beta_exponent)) / 2.0
    taps = np.empty(count)
    taps[0] = 1.0
    # The ratios (k - 1 + half) / k are built and multiplied up in place in taps[1:].
    k = np.arange(1, count, dtype=float)
    ratios = taps[1:]
    np.subtract(k, 1.0, out=ratios)
    ratios += half
    ratios /= k
    np.cumprod(ratios, out=ratios)
    return taps


def _shaped_gaussian(rng, exponent: int, coefficient: float, count: int, tau0: float) -> np.ndarray:
    """Gaussian sequence with one-sided PSD ``coefficient * f**exponent``.

    exponent <= 0.  ``2 * count`` white draws are filtered and the first
    ``count`` outputs dropped as warm-up, leaving ``count`` samples in an
    array of their own.  Exponent -2 is the running sum of the draws,
    summed in blocks of about ``sqrt(count)``; the flicker exponent runs
    an FFT of the smallest power of two at or above ``3 * count - 1`` in
    the buffers of ``_flicker_work_set``, or of a work set of its own
    below ``_KEPT_FROM``.
    """
    # Discrete innovation variance for a 1 Hz PSD coefficient at sample
    # period tau0: S(f) = 2 * qd * (2*pi)**b * tau0**(b+1) * f**b.
    qd = _in_float_range("innovation variance", coefficient / (2.0 * _TWO_PI**exponent * tau0 ** (exponent + 1)))
    total = 2 * count
    if exponent == -1:
        size = _flicker_fft_size(total)
        work_set = _flicker_work_set(size) if size >= _KEPT_FROM else _FlickerWorkSet(size)
        return work_set.synthesize(rng, math.sqrt(qd), total)
    white = rng.standard_normal(total)
    if exponent == 0:
        return white[count:] * math.sqrt(qd)
    white *= math.sqrt(qd)
    # Row r of the zero-padded tail starts from the warm-up sum plus the totals of rows < r.
    width = math.isqrt(count - 1) + 1
    blocks = np.zeros((-(-count // width), width))
    blocks.ravel()[:count] = white[count:]
    starts = np.empty(len(blocks))
    starts[0] = np.sum(white[:count])
    starts[1:] = blocks[:-1].sum(axis=1)
    np.cumsum(starts, out=starts)
    np.cumsum(blocks, axis=1, out=blocks)
    blocks += starts[:, None]
    return blocks.ravel()[:count].copy()


def _flicker_fft_size(total: int) -> int:
    """FFT size of a flicker series filtered from ``total`` draws, of which the last ``total // 2`` are kept."""
    # The linear convolution spans [0, 2*total - 2] and a size-L FFT folds n + L onto n,
    # so the kept slice n >= total/2 is alias-free once L >= total + total/2 - 1.
    return 1 << (total + total // 2 - 2).bit_length()


class _FlickerWorkSet:
    """Resident arrays of the flicker FFT convolution at one FFT size; used only under ``lock``.

    ``spectra`` holds two spectra: row 0 is ``response``, the read-only
    filter spectrum of the first ``total`` taps (``total`` is 0 while none
    is loaded), and row 1 is ``spectrum``, the draws' spectrum.
    ``signal`` holds the draws, then the filtered series.  A reload puts
    the taps and the draws in two rows of ``signal`` and transforms both
    in one call, so ``signal`` grows to ``2 * total`` floats when that
    exceeds the FFT size.
    """

    def __init__(self, size: int):
        self.size = size
        self.total = 0
        self.spectra = np.empty((2, size // 2 + 1), dtype=complex)
        self.response, self.spectrum = self.spectra
        self.response.flags.writeable = False
        self.signal = np.empty(size)
        self.lock = threading.Lock()

    def synthesize(self, rng, scale: float, total: int) -> np.ndarray:
        """The last ``total // 2`` of ``total`` draws times ``scale``, flicker-filtered, in an array of their own."""
        with self.lock:
            reload = self.total != total
            if reload:
                self.total = 0  # cleared first, so a reload that raises is never reused
                if 2 * total > self.signal.size:
                    self.signal = np.empty(2 * total)
                rows = self.signal[: 2 * total].reshape(2, total)
                rows[0] = fractional_filter_coeffs(-1, total)
                draws = rows[1]
            else:
                draws = self.signal[:total]
            rng.standard_normal(out=draws)
            draws *= scale
            if reload:
                # pocketfft allocates a fresh scratch on every call: one call for both rows pays it once.
                np.fft.rfft(rows, self.size, axis=-1, out=self.spectra)
                self.total = total
            else:
                np.fft.rfft(draws, self.size, out=self.spectrum)
            self.spectrum *= self.response
            np.fft.irfft(self.spectrum, self.size, out=self.signal[: self.size])
            return self.signal[total // 2 : total].copy()


#: FFT sizes below this synthesize in a work set of their own, so the few draws of one exchange keep
#: the resident work set of a campaign's long series.
_KEPT_FROM = 2**10


@functools.lru_cache(maxsize=1)
def _flicker_work_set(size: int) -> _FlickerWorkSet:
    """The one flicker work set, for FFT size ``size``; a call with another size replaces it."""
    return _FlickerWorkSet(size)


def generate_noise(spec: NoiseSpec, count: int, tau0: float) -> TimeSeriesY:
    """Synthesize ``count`` fractional-frequency samples of the given process.

    Deterministic for a fixed (spec, count, tau0); zero amplitude yields
    an identically-zero series.  A sample past the float range raises
    OverflowError.
    """
    count = _count("count", count, 2)
    tau0 = _positive("tau0", tau0)
    if spec.amplitude == 0.0:
        return TimeSeriesY(tau0, np.zeros(count))
    rng = np.random.default_rng(spec.seed)
    beta = spec.kind.beta
    if spec.kind.is_pm:
        x = _shaped_gaussian(rng, beta - 2, spec.amplitude / _TWO_PI**2, count + 1, tau0)
        return TimeSeriesY(tau0, _in_float_range("fractional frequency", np.diff(x) / tau0))
    return TimeSeriesY(tau0, _shaped_gaussian(rng, beta, spec.amplitude, count, tau0))
