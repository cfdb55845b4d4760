"""Fractional-frequency instability estimators and the sigma-tau machinery.

Three deviation statistics over averaged fractional-frequency samples,
plus the time deviation derived from the third:

    ffi0  -- two-sample deviation of adjacent, non-overlapping m-sample blocks
    ffi1  -- overlapping form with averaging factor m
    ffi2  -- modified form (double-averaged differences), the only one
             that separates white PM from flicker PM
    tdev  -- (tau / sqrt(3)) * ffi2

All four read one kind of window sums: ffi1 squares the differences
Y_m[k+m] - Y_m[k] of the m-sample window sums Y_m at every k, ffi0 at
every m-th k (adjacent blocks), and ffi2 and tdev take the window sums
once more.  A single-m estimator evaluates them through cumulative
windows of the raw sample differences, which is algebraically the
phase-domain (second/third difference) form evaluated without building
large phase partial sums.  A curve over octave averaging factors (every
m a power of two) is swept instead: one array of window sums is carried
from m to 2m by adding two (ffi0, ffi1) or three (ffi2, tdev) shifted
copies of itself, so no long running sum is formed at all; the sums of
every octave and their readouts go into two work arrays of the series'
length, allocated once per curve that has an m the series can hold.
These are the octave-spaced estimators of Riley, Handbook of Frequency
Stability Analysis, NIST SP 1065 (2008).  The literal nested sums remain
the test oracle.

A long octave curve (``_SPLIT_FROM`` samples or more, on a process that
may run on two CPUs) splits each octave's elementwise passes between
the calling thread and one helper thread; numpy's loops release the
interpreter lock, so both halves run at once.  Each sum stays one call
on the calling thread, so every value is bit for bit the serial one.
The helper starts and ends within one ``stability_curve`` call.

Each rule is checked once, where its value is made or read: both paths
pass every deviation through the float-range rule of ``errors``, and
``stability_curve`` checks every averaging factor and tau before any work,
so the records it builds check nothing again.  ``fit_slope``, the one
reader of a curve that may be built by hand, checks the points it fits.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import DegenerateInput, InsufficientData, InvalidArgument, _count, _in_float_range, _non_negative
from .noisegen import NoiseKind
from .series import TimeSeriesX, TimeSeriesY


class Variant(Enum):
    """Which statistic a stability point or curve was computed with."""

    FFI0 = "ffi0"
    FFI1 = "ffi1"
    FFI2 = "ffi2"
    TDEV = "tdev"


#: The variants that take the window sums twice; FFI0 and FFI1 take them once.
_DOUBLE = (Variant.FFI2, Variant.TDEV)


@dataclass(frozen=True)
class StabilityPoint:
    """One (tau, value) sample of a sigma-tau curve.

    ``stability_curve`` makes every point: tau = m * tau0 and value are
    finite Python floats, tau > 0 and value >= 0, and m is an int from 1.
    A point built by hand is not checked; ``fit_slope`` checks what it reads.
    """

    tau: float
    value: float
    m: int
    variant: Variant


@dataclass(frozen=True)
class StabilityCurve:
    """Stability points of one variant at distinct averaging factors, in increasing tau.

    ``warnings`` records averaging factors that were skipped because the
    source series was too short for them.
    """

    points: tuple[StabilityPoint, ...]
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# x <-> y conversion


def y_from_x(series: TimeSeriesX) -> TimeSeriesY:
    """First difference of phase deviations: ybar_k = (xbar_{k+1} - xbar_k)/tau0."""
    if not isinstance(series, TimeSeriesX):
        raise InvalidArgument(f"y_from_x needs a TimeSeriesX, got {type(series).__name__}")
    x = series.samples
    if x.size < 2:
        raise InvalidArgument(f"y_from_x needs at least 2 samples, got {x.size}")
    return TimeSeriesY(series.tau0, np.diff(x) / series.tau0)


# ---------------------------------------------------------------------------
# Estimators


def _window_sums(a: np.ndarray, m: int) -> np.ndarray:
    """Sums of every m consecutive entries of a (len(a) - m + 1 windows)."""
    if m == 1:
        return a
    cs = np.cumsum(a)
    out = np.empty(a.size - m + 1)
    out[0] = cs[m - 1]
    np.subtract(cs[m:], cs[:-m], out=out[1:])
    return out


def _min_length(variant: Variant, m: int) -> int:
    """Fewest samples a point at averaging factor m needs: 2m for FFI0 and FFI1, 3m - 1 for FFI2 and TDEV."""
    return 3 * m - 1 if variant in _DOUBLE else 2 * m


def _too_short(variant: Variant, m: int, size: int) -> str:
    """Why size samples hold no point at m; a TDEV point is reported as the FFI2 it reads."""
    name = "ffi2" if variant in _DOUBLE else variant.value
    return f"{name} with m={m} needs at least {_min_length(variant, m)} samples, got {size}"


def _terms(variant: Variant, sums: np.ndarray, m: int) -> np.ndarray:
    """The window sums a point at m reads: FFI1's at every m-th start for FFI0 (adjacent blocks), else all."""
    return sums[::m] if variant is Variant.FFI0 else sums


def _deviation(squares: np.ndarray, scale: int) -> float:
    """sqrt(sum(squares) / (2 * scale * len(squares))), the readout of every estimator."""
    return float(np.sqrt(np.sum(squares) / (2.0 * scale * squares.size)))


def _readout(variant: Variant, squares: np.ndarray, m: int, tau0: float) -> float:
    """The value at averaging factor m from the squares of the terms it reads (``_terms``).

    The deviation is scaled by m**2 (FFI0, FFI1) or m**4 (FFI2, TDEV);
    TDEV's is then converted to seconds at tau = m * tau0.  A deviation
    past the float range raises OverflowError named for its statistic,
    ffi2 for a TDEV's, as ``_too_short`` names it.
    """
    if variant not in _DOUBLE:
        return _in_float_range(variant.value, _deviation(squares, m * m))
    deviation = _in_float_range("ffi2", _deviation(squares, m**4))
    return tdev_from_ffi2(deviation, m * tau0) if variant is Variant.TDEV else deviation


def _windowed(series: TimeSeriesY, m: int, variant: Variant) -> float:
    """The value at averaging factor m: window sums of y[k+m] - y[k], taken twice for FFI2 and TDEV."""
    if not isinstance(series, TimeSeriesY):
        raise InvalidArgument(f"{variant.value} needs a TimeSeriesY, got {type(series).__name__}")
    m = _count("m", m, 1)
    y = series.samples
    if y.size < _min_length(variant, m):
        raise InsufficientData(_too_short(variant, m, y.size))
    sums = _window_sums(y[m:] - y[:-m], m)
    if variant in _DOUBLE:
        sums = _window_sums(sums, m)
    terms = _terms(variant, sums, m)
    terms *= terms
    return _readout(variant, terms, m, series.tau0)


def ffi0(series: TimeSeriesY) -> float:
    """Two-sample deviation of adjacent samples (tau = tau0)."""
    return _windowed(series, 1, Variant.FFI0)


def ffi1(series: TimeSeriesY, m: int) -> float:
    """Overlapping two-sample deviation at averaging factor m (tau = m*tau0)."""
    return _windowed(series, m, Variant.FFI1)


def ffi2(series: TimeSeriesY, m: int) -> float:
    """Modified (double-averaged) deviation at averaging factor m."""
    return _windowed(series, m, Variant.FFI2)


def tdev_from_ffi2(ffi2_value: float, tau: float) -> float:
    """Time deviation (s) from a modified deviation at integration time tau; OverflowError past the float range."""
    return _in_float_range("tdev", tau / math.sqrt(3.0) * _non_negative("ffi2_value", ffi2_value))


def tdev(series: TimeSeriesY, m: int) -> float:
    """Time deviation (seconds) at averaging factor m."""
    return _windowed(series, m, Variant.TDEV)


# ---------------------------------------------------------------------------
# Curves


def _shifted_exactly(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y - c written into out if every sample lies between c/2 and 2c, c = y[0] != 0; else y.

    Each such difference is exact (Sterbenz), and no statistic changes
    under a shift, but the octave sums of y would carry its mean and their
    readouts keep its rounding.  Zero-mean noise is never shifted.
    """
    c = float(y[0])
    lo, hi = sorted((c / 2.0, 2.0 * c))
    if c != 0.0 and math.isfinite(c) and lo <= y.min() and y.max() <= hi:
        return np.subtract(y, c, out=out)
    return y


#: Octave curves of series at least this long split each octave's array passes between two threads.
#: The measured crossover (2-vCPU Xeon, numpy 2.4, FFI1 and FFI2 over m = 1 ... 2**13): the pair took
#: 1.4-1.5 times as long at 2**16 + 2 samples, 0.94-1.05 times at 2**17, 0.71-0.98 times at 3 * 2**16
#: and 0.67-0.69 times at 2**20.  With one handoff per step and per readout: 0.81-0.95 times at 3 * 2**16
#: and 0.83-0.94 times at 2**18, while a second CPU was free to run the helper.
_SPLIT_FROM = 3 * 2**16


def _cpus() -> int:
    """How many CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


class _Helper:
    """A second thread for one curve: it runs one task at a time in a copy of its maker's context.

    numpy's error state is context-local, so the helper's ufuncs raise,
    warn or ignore as its maker's do.  Two locks hand each task over and
    back, each held while its side has nothing to take; the slots they
    guard are touched by one thread at a time.  The helper holds no task
    once the task is done.  Leaving the ``with`` block stops the thread
    and joins it.
    """

    def __init__(self):
        self._task: Optional[Callable[[], None]] = None
        self._error: Optional[BaseException] = None
        self._posted, self._done = threading.Lock(), threading.Lock()
        self._posted.acquire()
        self._done.acquire()
        run = contextvars.copy_context().run
        self._thread = threading.Thread(target=run, args=(self._serve,), name="combsync-octave-helper", daemon=True)

    def __enter__(self) -> "_Helper":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.start(None)
        self._thread.join()

    def _serve(self) -> None:
        while True:
            self._posted.acquire()
            task, self._task = self._task, None
            if task is None:
                return
            try:
                task()
            except BaseException as exc:  # handed over: the maker raises it (_in_halves)
                self._error = exc
            task = None
            self._done.release()

    def start(self, task: Optional[Callable[[], None]]) -> None:
        """Hand task to the helper; None stops it."""
        self._task = task
        self._posted.release()

    def wait(self) -> Optional[BaseException]:
        """The exception the started task raised, or None once it returned."""
        self._done.acquire()
        error, self._error = self._error, None
        return error


def _in_halves(helper: Optional[_Helper], size: int, grain: int, region: Callable[[int, int], None]) -> None:
    """Run region(lo, hi) over [0, size): all here without a helper, else split at a multiple of grain.

    This thread takes the lower half and the helper the upper.  The upper
    half is over whenever this thread leaves, and the lower half's
    exception is raised before the upper half's, as in one pass.
    """
    if helper is None:
        return region(0, size)
    mid = size // 2 // grain * grain
    helper.start(partial(region, mid, size))
    try:
        region(0, mid)
    finally:
        exc = helper.wait()
    if exc is not None:
        raise exc


def _octave_sweep(series: TimeSeriesY, variant: Variant, ms: list[int], helper: Optional[_Helper]) -> list[float]:
    """The point values at the increasing powers of two ms, from one array carried across the octaves.

    FFI0 and FFI1 carry the m-sample window sums Y_m (Y_1 = y, Y_2m = Y_m[:-m] + Y_m[m:])
    and read w = Y_m[m:] - Y_m[:-m].  FFI2 and TDEV carry their triangular
    double sums Z_m (Z_1 = y, Z_2m = Z_m[:-2m] + 2 Z_m[m:-m] + Z_m[2m:]) and
    read s = Z_m[m:] - Z_m[:-m].  w and s are the window sums ``_windowed``
    builds from cumulative sums, so both paths share ``_readout``; each m fits the series.
    Two work arrays of len(y) floats, allocated once per curve, take turns:
    each octave step and each readout writes into the one not holding the
    carried sums, which start as y or as its exact shift (``_shifted_exactly``).

    With a helper thread, ``_in_halves`` splits each step and each readout
    at its half index.  Each element is computed as in one pass, and one
    ``np.sum`` reads the whole array here, so every value is bit for bit
    the serial one.
    """
    y = series.samples
    double = variant in _DOUBLE
    shift = 2 if double else 1  # each step shortens the carried sums by shift * k
    spare, busy = np.empty(y.size), np.empty(y.size)
    carried, k = _shifted_exactly(y, busy), 1

    def step(lo: int, hi: int) -> None:
        """Entries [lo, hi) of the step from the carried sums at k to those at 2k, into spare."""
        z = spare[lo:hi]
        if double:
            np.multiply(carried[k + lo : k + hi], 2.0, out=z)
            z += carried[lo:hi]
            z += carried[2 * k + lo : 2 * k + hi]
        else:
            np.add(carried[lo:hi], carried[k + lo : k + hi], out=z)

    def readout(lo: int, hi: int) -> None:
        """The squares of the terms at m from entries [lo, hi), into spare."""
        terms = _terms(variant, np.subtract(carried[m + lo : m + hi], carried[lo:hi], out=spare[lo:hi]), m)
        terms *= terms

    values = []
    for m in ms:
        while k < m:
            _in_halves(helper, carried.size - shift * k, 1, step)
            carried, k = spare[: carried.size - shift * k], 2 * k
            spare, busy = busy, spare
        size = carried.size - m
        _in_halves(helper, size, m if variant is Variant.FFI0 else 1, readout)
        values.append(_readout(variant, _terms(variant, spare[:size], m), m, series.tau0))
    return values


def stability_curve(series: TimeSeriesY, m_values: Iterable[int], variant: Variant) -> StabilityCurve:
    """Evaluate one statistic over several averaging factors.

    Before any work, each averaging factor passes the count rule of
    ``errors`` from 1 (an integer, not a bool or an integral float, below
    2**53) or raises InvalidArgument, and each tau = m * tau0 past the
    float range raises OverflowError; the factors the series is too short
    for are set aside and noted in the curve's ``warnings``.  So a curve
    that cannot be returned, or has no m that fits, allocates no work
    array and starts no helper.  Factors that are all powers of two are
    swept octave by octave, on two threads for a series of at least
    ``_SPLIT_FROM`` samples where the process may run on two CPUs (the
    helper ends with the call); any other set is evaluated per m.
    """
    if not isinstance(variant, Variant):
        raise InvalidArgument(f"unknown variant {variant!r}")
    if not isinstance(series, TimeSeriesY):
        raise InvalidArgument(f"stability_curve needs a TimeSeriesY, got {type(series).__name__}")
    ms = sorted({_count("m", m, 1) for m in m_values})
    taus = [_in_float_range("tau", m * series.tau0) for m in ms]
    size = series.samples.size
    fits = [m for m in ms if _min_length(variant, m) <= size]  # a prefix: the length a point needs grows with m
    swept = bool(fits) and all(m & (m - 1) == 0 for m in ms)
    paired = swept and size >= _SPLIT_FROM and _cpus() >= 2
    with _Helper() if paired else nullcontext() as helper:
        if swept:
            values = _octave_sweep(series, variant, fits, helper)
        else:
            values = [_windowed(series, m, variant) for m in fits]
    points = tuple(StabilityPoint(tau=t, value=v, m=m, variant=variant) for t, v, m in zip(taus, values, fits))
    warnings = tuple(f"m={m}: {_too_short(variant, m, size)}" for m in ms[len(fits) :])
    return StabilityCurve(points=points, warnings=warnings)


def octave_m_values(length: int, variant: Variant = Variant.FFI2) -> list[int]:
    """Octave-spaced averaging factors valid for a series of the given length, a count from 0."""
    length = _count("length", length, 0)
    ms, m = [], 1
    while _min_length(variant, m) <= length:
        ms.append(m)
        m *= 2
    return ms


def fit_slope(curve: StabilityCurve, tau_range: Optional[tuple[float, float]] = None) -> float:
    """Least-squares slope of log10(value) against log10(tau).

    tau_range restricts the fit to points with tau in [lo, hi] inclusive;
    None uses every point.  A fitted point whose tau or value is not
    finite and positive raises DegenerateInput: a curve may be built by
    hand, and its points are not checked before.
    """
    pts = curve.points
    if tau_range is not None:
        lo, hi = tau_range
        pts = tuple(p for p in pts if lo <= p.tau <= hi)
    if len(pts) < 3:
        raise InsufficientData(f"fit_slope needs at least 3 points in range, got {len(pts)}")
    taus = np.array([p.tau for p in pts])
    values = np.array([p.value for p in pts])
    if not np.all((0.0 < taus) & (taus < math.inf) & (0.0 < values) & (values < math.inf)):
        raise DegenerateInput("fit_slope requires finite, strictly positive taus and stability values")
    return float(np.polyfit(np.log10(taus), np.log10(values), 1)[0])


# ---------------------------------------------------------------------------
# Noise identification

# Slope of FFI vs tau on a log-log plot for each dominant noise process.
_SLOPE_TABLE_FFI01 = {
    NoiseKind.WHITE_PM: -1.0,
    NoiseKind.FLICKER_PM: -1.0,
    NoiseKind.WHITE_FM: -0.5,
    NoiseKind.FLICKER_FM: 0.0,
    NoiseKind.RANDOM_WALK_FM: 0.5,
}
_SLOPE_TABLE_FFI2 = {**_SLOPE_TABLE_FFI01, NoiseKind.WHITE_PM: -1.5}

# Half the minimum separation between distinct table rows (0.5), so the
# acceptance bands of different slopes never overlap.
CLASSIFY_TOLERANCE = 0.25


def classify_noise(slope: float, variant: Variant) -> set[NoiseKind]:
    """All noise kinds whose table slope lies within 0.25 of the fitted slope.

    Under ffi0/ffi1 a slope near -1 is intrinsically ambiguous between
    white PM and flicker PM; only ffi2 separates them.
    """
    if variant in (Variant.FFI0, Variant.FFI1):
        table = _SLOPE_TABLE_FFI01
    elif variant is Variant.FFI2:
        table = _SLOPE_TABLE_FFI2
    else:
        raise InvalidArgument(f"classify_noise accepts FFI0/FFI1/FFI2 curves, got {variant!r}")
    return {kind for kind, alpha in table.items() if abs(slope - alpha) <= CLASSIFY_TOLERANCE}
