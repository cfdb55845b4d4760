"""Independent reference implementations used only by the tests.

Everything here is deliberately literal and slow: deviation statistics
as explicit nested loops and as exact integer sums, frequency-domain
noise synthesis as an alternative generation route, the recursive-filter
synthesis with its first (full-length) FFT padding, flicker synthesis with
a fresh filter transform at the package's padding, the octave sweep with
fresh arrays at every step, a compensated running sum, textbook deviation
levels for the three FM noise kinds, the four timing scaling laws as
separate closed forms, a campaign's two-way estimates with its
timestamp noise drawn serially after both clock paths, and a periodogram
of a generated series.  None of it shares code with the
package under test; the periodogram only raises the package's error type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

from combsync.errors import InsufficientData


# ---------------------------------------------------------------------------
# Literal deviation sums (1-based indexing transcribed directly)


def brute_ffi0_y(y: np.ndarray) -> float:
    big_m = y.size
    acc = sum((y[k] - y[k - 1]) ** 2 for k in range(1, big_m))
    return float(np.sqrt(acc / (2.0 * (big_m - 1))))


def brute_ffi0_x(x: np.ndarray, tau0: float) -> float:
    big_m = x.size - 1
    acc = sum((x[k + 1] - 2.0 * x[k] + x[k - 1]) ** 2 for k in range(1, big_m))
    return float(np.sqrt(acc / (2.0 * (big_m - 1) * tau0**2)))


def brute_ffi1_y(y: np.ndarray, m: int) -> float:
    big_m = y.size
    outer = 0.0
    for j in range(1, big_m - 2 * m + 2):
        inner = sum(y[k + m - 1] - y[k - 1] for k in range(j, j + m))
        outer += inner**2
    return float(np.sqrt(outer / (2.0 * m**2 * (big_m - 2 * m + 1))))


def brute_ffi1_x(x: np.ndarray, m: int, tau0: float) -> float:
    big_m = x.size - 1
    acc = sum(
        (x[k + 2 * m - 1] - 2.0 * x[k + m - 1] + x[k - 1]) ** 2
        for k in range(1, big_m - 2 * m + 2)
    )
    return float(np.sqrt(acc / (2.0 * m**2 * (big_m - 2 * m + 1) * tau0**2)))


def brute_ffi2_y(y: np.ndarray, m: int) -> float:
    big_m = y.size
    outer = 0.0
    for j in range(1, big_m - 3 * m + 3):
        mid = 0.0
        for i in range(j, j + m):
            mid += sum(y[k + m - 1] - y[k - 1] for k in range(i, i + m))
        outer += mid**2
    return float(np.sqrt(outer / (2.0 * m**4 * (big_m - 3 * m + 2))))


def brute_ffi2_x(x: np.ndarray, m: int, tau0: float) -> float:
    big_m = x.size - 1
    outer = 0.0
    for j in range(1, big_m - 3 * m + 3):
        inner = sum(
            x[k + 2 * m - 1] - 2.0 * x[k + m - 1] + x[k - 1] for k in range(j, j + m)
        )
        outer += inner**2
    return float(np.sqrt(outer / (2.0 * m**4 * (big_m - 3 * m + 2) * tau0**2)))


# ---------------------------------------------------------------------------
# Exact deviations: the samples as integers over one power-of-two
# denominator, so every prefix sum and every square is exact


def _common_integers(y: np.ndarray) -> tuple[list[int], int]:
    """Integers n_k and one denominator d with y_k = n_k / d exactly."""
    ratios = [value.as_integer_ratio() for value in y.tolist()]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _sqrt_fraction(num: int, den: int, bits: int = 100) -> Fraction:
    """sqrt(num / den) rounded down to a Fraction within 2**-bits relative."""
    if num == 0:
        return Fraction(0)
    shift = max(0, bits + 2 - (num.bit_length() - den.bit_length()) // 2)
    return Fraction(math.isqrt((num << (2 * shift)) // den), 1 << shift)


def exact_ffi1(y: np.ndarray, m: int) -> Fraction:
    """ffi1 of float samples y as a Fraction within 2**-100 relative of the exact value.

    With phase sums P_i = y_0 + ... + y_{i-1}, the window sums are
    w_j = P_{j+2m} - 2 P_{j+m} + P_j.
    """
    ints, den = _common_integers(y)
    p = list(accumulate(ints, initial=0))
    terms = len(ints) - 2 * m + 1
    total = sum((p[j + 2 * m] - 2 * p[j + m] + p[j]) ** 2 for j in range(terms))
    return _sqrt_fraction(total, 2 * m**2 * terms * den**2)


def exact_ffi0(y: np.ndarray, m: int) -> Fraction:
    """ffi0 at averaging factor m of float samples y as a Fraction within 2**-100 relative of the exact value.

    The sums of adjacent m-sample blocks j and j + 1 differ by
    d_j = P_{(j+2)m} - 2 P_{(j+1)m} + P_{jm}; a trailing partial block is dropped.
    """
    ints, den = _common_integers(y)
    p = list(accumulate(ints, initial=0))
    terms = len(ints) // m - 1
    total = sum((p[(j + 2) * m] - 2 * p[(j + 1) * m] + p[j * m]) ** 2 for j in range(terms))
    return _sqrt_fraction(total, 2 * m**2 * terms * den**2)


def exact_ffi2(y: np.ndarray, m: int) -> Fraction:
    """ffi2 of float samples y as a Fraction within 2**-100 relative of the exact value.

    With Q_i = P_0 + ... + P_{i-1} over the phase sums P, the double
    window sums are s_j = Q_{j+3m} - 3 Q_{j+2m} + 3 Q_{j+m} - Q_j.
    """
    ints, den = _common_integers(y)
    q = list(accumulate(accumulate(ints, initial=0), initial=0))
    terms = len(ints) - 3 * m + 2
    total = sum((q[j + 3 * m] - 3 * q[j + 2 * m] + 3 * q[j + m] - q[j]) ** 2 for j in range(terms))
    return _sqrt_fraction(total, 2 * m**4 * terms * den**2)


# ---------------------------------------------------------------------------
# The octave sweep allocating a fresh array at every step


def octave_sweep_reference(y: np.ndarray, tau0: float, m_values, variant: str) -> dict:
    """Octave-sweep values {m: value} of ``variant`` at the powers of two in m_values.

    ``variant`` is "ffi0", "ffi1", "ffi2" or "tdev"; ffi0 reads the ffi1
    differences at every m-th start.  The carried sums, each readout and its
    squares are new arrays at every step.  An m that ``y`` is too short for
    is left out, and the sweep carries on without it.  A series whose
    samples all lie within a factor of two of y[0] is swept minus y[0].
    """
    single = variant in ("ffi0", "ffi1")
    c = float(y[0])
    if c != 0.0 and min(c / 2.0, 2.0 * c) <= y.min() and y.max() <= max(c / 2.0, 2.0 * c):
        y = y - c
    carried, carried_m = y, 1
    values = {}
    for m in sorted(m_values):
        if y.size < (2 * m if single else 3 * m - 1):
            continue
        while carried_m < m:
            k = carried_m
            if single:
                carried = carried[:-k] + carried[k:]
            else:
                z = carried[k:-k] * 2.0
                z += carried[: -2 * k]
                z += carried[2 * k :]
                carried = z
            carried_m = 2 * k
        sums = carried[m:] - carried[:-m]
        if variant == "ffi0":
            sums = sums[::m]
        scale = m * m if single else m**4
        value = float(np.sqrt(np.sum(sums * sums) / (2.0 * scale * sums.size)))
        if variant == "tdev":
            value = m * tau0 / math.sqrt(3.0) * value
        values[m] = value
    return values


# ---------------------------------------------------------------------------
# Alternative noise synthesis: direct spectral shaping, and the recursive
# filter padded to the full convolution length


def spectral_noise(beta: int, coefficient: float, count: int, tau0: float, rng) -> np.ndarray:
    """Gaussian noise with one-sided PSD coefficient * f**beta via rfft shaping."""
    freqs = np.fft.rfftfreq(count, d=tau0)
    target = np.zeros_like(freqs)
    target[1:] = coefficient * freqs[1:] ** beta
    white = rng.standard_normal(count)
    spectrum = np.fft.rfft(white)
    # White input has flat one-sided PSD 2*qd*tau0 with qd = 1
    spectrum *= np.sqrt(target / (2.0 * tau0))
    return np.fft.irfft(spectrum, count)


def fractional_taps(exponent: float, count: int) -> np.ndarray:
    """Impulse response h_0 = 1, h_k = h_{k-1} * (k - 1 + |exponent|/2) / k, one tap at a time."""
    half = abs(float(exponent)) / 2.0
    taps = [1.0]
    for k in range(1, count):
        taps.append(taps[-1] * ((k - 1.0 + half) / k))
    return np.array(taps)


def shaped_gaussian_reference(rng, exponent: int, coefficient: float, count: int, tau0: float) -> np.ndarray:
    """Recursive-filter synthesis with its first padding rule.

    The FFT is padded to the next power of two at or above 2 * total - 1,
    the full length of the linear convolution, so no sample wraps around.
    """
    qd = coefficient / (2.0 * (2.0 * np.pi) ** exponent * tau0 ** (exponent + 1))
    total = 2 * count
    white = rng.standard_normal(total) * np.sqrt(qd)
    h = fractional_taps(exponent, total)
    size = 1 << (2 * total - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(white, size) * np.fft.rfft(h, size), size)[count:total]


def one_shot_flicker(rng, coefficient: float, count: int, tau0: float) -> np.ndarray:
    """Flicker (exponent -1) synthesis with fresh taps and a fresh filter transform.

    The package's formula at its right-sized padding, the next power of two
    at or above 3 * count - 1, with the taps from the scalar recursion and
    nothing kept from one call to the next.
    """
    exponent = -1
    qd = coefficient / (2.0 * (2.0 * np.pi) ** exponent * tau0 ** (exponent + 1))
    total = 2 * count
    white = rng.standard_normal(total) * np.sqrt(qd)
    h = fractional_taps(exponent, total)
    size = 1 << (3 * count - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(white, size) * np.fft.rfft(h, size), size)[count:total]


def compensated_running_sum(values: np.ndarray, start: int) -> np.ndarray:
    """Running sums values[0] + ... + values[k] for k >= start, in Python floats.

    Neumaier's compensated summation carries each addition's rounding error
    in a second float, so every sum is exact to within about one rounding.
    """
    total = carry = 0.0
    sums = []
    for k, value in enumerate(values.tolist()):
        t = total + value
        if abs(total) >= abs(value):
            carry += (total - t) + value
        else:
            carry += (value - t) + total
        total = t
        if k >= start:
            sums.append(total + carry)
    return np.array(sums)


# ---------------------------------------------------------------------------
# Textbook deviation levels sigma_y(tau) for the FM kinds, in terms of the
# 1 Hz PSD coefficient of S_y


def white_fm_adev(amplitude: float, tau: float) -> float:
    return np.sqrt(amplitude / (2.0 * tau))


def flicker_fm_adev(amplitude: float) -> float:
    return np.sqrt(2.0 * np.log(2.0) * amplitude)


def random_walk_fm_adev(amplitude: float, tau: float) -> float:
    return np.sqrt((2.0 * np.pi**2 / 3.0) * amplitude * tau)


# ---------------------------------------------------------------------------
# The four timing scaling laws, one closed form each (relative scale)


def sigma_tof(n: float, t0: float) -> float:
    return t0 / math.sqrt(n)


def sigma_phase(n: float, nu0: float) -> float:
    return 1.0 / (nu0 * math.sqrt(n))


def sigma_tm(n: float, t0: float, nu0: float) -> float:
    return 1.0 / math.sqrt(n * ((1.0 / t0) ** 2 + nu0**2))


def sigma_tm_squeezed(n: float, t0: float, nu0: float, r: float) -> float:
    return math.exp(-r) * sigma_tm(n, t0, nu0)


# ---------------------------------------------------------------------------
# A campaign's two-way estimates, each with one estimator error added


def serial_two_way_estimates(xa: np.ndarray, xb: np.ndarray, delays: tuple[float, float], true_offset: float,
                             turnaround: float, sigma: float, noise_seed: int) -> np.ndarray:
    """((t2 - t1) - (t4 - t3)) / 2 of each exchange plus its N(0, sigma**2) estimator error.

    The clock paths are sampled before this call; the errors are one
    normal draw per estimate from ``noise_seed``.  Times run from each
    exchange's start, as in ``synclink``.
    """
    d_ab, d_ba = delays
    t1 = xa
    t2 = d_ab + true_offset + xb
    t3 = d_ab + turnaround + true_offset + xb
    t4 = d_ab + turnaround + d_ba + xa
    return ((t2 - t1) - (t4 - t3)) / 2.0 + np.random.default_rng(noise_seed).normal(0.0, sigma, len(xa))


# ---------------------------------------------------------------------------
# Periodogram, and its segment-averaged slope over the central frequency decade


def psd_estimate(series) -> tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram of a series; returns (frequencies Hz, density).

    Normalized so that sum(density) * df equals the series variance
    (rectangular window, mean removed).
    """
    y = series.samples
    n = y.size
    if n < 16:
        raise InsufficientData(f"psd_estimate needs at least 16 samples, got {n}")
    spectrum = np.fft.rfft(y - y.mean())
    freqs = np.fft.rfftfreq(n, d=series.tau0)
    density = (2.0 * series.tau0 / n) * np.abs(spectrum) ** 2
    density[0] = 0.0
    if n % 2 == 0:
        density[-1] /= 2.0  # Nyquist bin appears once
    return freqs, density


def psd_log_slope(series, segments: int = 8) -> float:
    n = len(series.samples) // segments
    acc = None
    for i in range(segments):
        freqs, density = psd_estimate(type(series)(series.tau0, series.samples[i * n : (i + 1) * n]))
        acc = density if acc is None else acc + density
    acc /= segments
    freqs, acc = freqs[1:], acc[1:]
    mid = np.sqrt(freqs[0] * freqs[-1])
    mask = (freqs >= mid / np.sqrt(10.0)) & (freqs <= mid * np.sqrt(10.0))
    return float(np.polyfit(np.log10(freqs[mask]), np.log10(acc[mask]), 1)[0])
