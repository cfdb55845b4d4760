"""Fractional-frequency instability estimators and the sigma-tau machinery.

Three deviation statistics over averaged fractional-frequency samples,
plus the time deviation derived from the third:

    ffi0  -- two-sample deviation of adjacent samples
    ffi1  -- overlapping form with averaging factor m
    ffi2  -- modified form (double-averaged differences), the only one
             that separates white PM from flicker PM
    tdev  -- (tau / sqrt(3)) * ffi2

A single-m estimator evaluates its overlapping sums through cumulative
windows of the raw sample differences, which is algebraically the
phase-domain (second/third difference) form evaluated without building
large phase partial sums.  A curve over octave averaging factors
(every m a power of two) is swept instead: one array of window sums is
carried from m to 2m by adding two (ffi1) or three (ffi2, tdev) shifted
copies of itself, so no long running sum is formed at all; the sums
of every octave and their readouts go into two work arrays of the
series' length, allocated once per curve.  These are
the octave-spaced overlapping estimators of Riley, Handbook of Frequency
Stability Analysis, NIST SP 1065 (2008).  The literal nested sums remain
the test oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .artifacts import read_table, write_table
from .errors import DegenerateInput, InsufficientData, InvalidArgument, _non_negative, _positive
from .noisegen import NoiseKind
from .series import TimeSeriesX, TimeSeriesY


class Variant(Enum):
    """Which statistic a stability point or curve was computed with."""

    FFI0 = "ffi0"
    FFI1 = "ffi1"
    FFI2 = "ffi2"
    TDEV = "tdev"


@dataclass(frozen=True)
class StabilityPoint:
    """One (tau, value) sample of a sigma-tau curve."""

    tau: float
    value: float
    m: int
    variant: Variant

    def __post_init__(self):
        object.__setattr__(self, "m", _validate_m(self.m))
        _non_negative("value", self.value)
        _positive("tau", self.tau)


@dataclass(frozen=True)
class StabilityCurve:
    """Stability points at distinct averaging factors, ordered by tau.

    ``warnings`` records averaging factors that were skipped because the
    source series was too short for them.
    """

    points: tuple[StabilityPoint, ...]
    source_length: Optional[int] = None
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "warnings", tuple(self.warnings))
        variants = {p.variant for p in points}
        if len(variants) > 1:
            raise InvalidArgument(f"curve mixes variants {sorted(v.value for v in variants)}")
        ms = [p.m for p in points]
        if len(set(ms)) != len(ms):
            raise InvalidArgument("curve has duplicate averaging factors")
        taus = [p.tau for p in points]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise InvalidArgument("curve points must be strictly increasing in tau")

    @property
    def variant(self) -> Optional[Variant]:
        return self.points[0].variant if self.points else None


# ---------------------------------------------------------------------------
# x <-> y conversion


def y_from_x(series: TimeSeriesX) -> TimeSeriesY:
    """First difference of phase deviations: ybar_k = (xbar_{k+1} - xbar_k)/tau0."""
    x = series.samples
    if x.size < 2:
        raise InvalidArgument(f"y_from_x needs at least 2 samples, got {x.size}")
    return TimeSeriesY(series.tau0, np.diff(x) / series.tau0)


def x_from_y(series: TimeSeriesY) -> TimeSeriesX:
    """Cumulative inverse of :func:`y_from_x`, starting at phase deviation 0."""
    y = series.samples
    if y.size < 1:
        raise InvalidArgument("x_from_y needs at least 1 sample")
    return TimeSeriesX(series.tau0, np.concatenate(([0.0], np.cumsum(y) * series.tau0)))


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


def _validate_m(m: int) -> int:
    """m as an int; a bool, a non-number, a fraction, a non-finite or a non-positive value raises InvalidArgument."""
    integral = isinstance(m, numbers.Integral) or (isinstance(m, (float, np.floating)) and m.is_integer())
    if isinstance(m, bool) or not integral or m < 1:
        raise InvalidArgument(f"averaging factor m must be a positive integer, got {m!r}")
    return int(m)


def _min_length(variant: Variant, m: int) -> int:
    """Fewest samples a point at averaging factor m needs: 2m for FFI0 and FFI1, 3m - 1 for FFI2 and TDEV."""
    return 3 * m - 1 if variant in (Variant.FFI2, Variant.TDEV) else 2 * m


def _check_length(variant: Variant, m: int, size: int) -> None:
    """Raise InsufficientData for too few samples; a TDEV point is reported as the FFI2 it reads."""
    need = _min_length(variant, m)
    if size < need:
        name = "ffi1" if variant is Variant.FFI1 else "ffi2"
        raise InsufficientData(f"{name} with m={m} needs at least {need} samples, got {size}")


def _deviation(sums: np.ndarray, scale: int) -> float:
    """sqrt(sum(sums**2) / (2 * scale * len(sums))), the readout of every estimator.

    Consumes ``sums``: it is squared in place, so callers pass an array of their own.
    """
    sums *= sums
    return float(np.sqrt(np.sum(sums) / (2.0 * scale * sums.size)))


def _readout(variant: Variant, sums: np.ndarray, m: int, tau0: float) -> float:
    """The FFI1, FFI2 or TDEV value at averaging factor m from its window sums, which it consumes.

    The deviation is scaled by m**2 (FFI1) or m**4 (FFI2, TDEV); TDEV's is
    then converted to seconds at tau = m * tau0.
    """
    if variant is Variant.FFI1:
        return _deviation(sums, m * m)
    deviation = _deviation(sums, m**4)
    return tdev_from_ffi2(deviation, m * tau0) if variant is Variant.TDEV else deviation


def _windowed(series: TimeSeriesY, m: int, variant: Variant) -> float:
    """FFI1, FFI2 or TDEV at averaging factor m: window sums of y[k+m] - y[k], taken twice for FFI2 and TDEV."""
    m = _validate_m(m)
    y = series.samples
    _check_length(variant, m, y.size)
    sums = _window_sums(y[m:] - y[:-m], m)
    if variant is not Variant.FFI1:
        sums = _window_sums(sums, m)
    return _readout(variant, sums, m, series.tau0)


def ffi0(series: TimeSeriesY) -> float:
    """Two-sample deviation of adjacent samples (tau = tau0)."""
    y = series.samples
    if y.size < 2:
        raise InsufficientData(f"ffi0 needs at least 2 samples, got {y.size}")
    return _deviation(np.diff(y), 1)


def ffi1(series: TimeSeriesY, m: int) -> float:
    """Overlapping two-sample deviation at averaging factor m (tau = m*tau0)."""
    return _windowed(series, m, Variant.FFI1)


def ffi2(series: TimeSeriesY, m: int) -> float:
    """Modified (double-averaged) deviation at averaging factor m."""
    return _windowed(series, m, Variant.FFI2)


def tdev_from_ffi2(ffi2_value: float, tau: float) -> float:
    """Time deviation in seconds from a modified deviation at integration time tau."""
    return tau / math.sqrt(3.0) * ffi2_value


def tdev(series: TimeSeriesY, m: int) -> float:
    """Time deviation (seconds) at averaging factor m."""
    return _windowed(series, m, Variant.TDEV)


# ---------------------------------------------------------------------------
# Curves


def decimate(series: TimeSeriesY, m: int) -> TimeSeriesY:
    """Block-average m consecutive samples; the trailing remainder is dropped."""
    m = _validate_m(m)
    n_blocks = series.samples.size // m
    if n_blocks < 1:
        raise InsufficientData(f"cannot decimate {series.samples.size} samples by m={m}")
    blocks = series.samples[: n_blocks * m].reshape(n_blocks, m)
    return TimeSeriesY(series.tau0 * m, blocks.mean(axis=1))


def _point_value(series: TimeSeriesY, m: int, variant: Variant) -> float:
    if variant is Variant.FFI0:
        return ffi0(decimate(series, m))
    if variant in (Variant.FFI1, Variant.FFI2, Variant.TDEV):
        return _windowed(series, m, variant)
    raise InvalidArgument(f"unknown variant {variant!r}")


def _octave_sweep(series: TimeSeriesY, variant: Variant) -> Callable[[int], float]:
    """Point values for increasing powers of two m, from one array carried across the octaves.

    FFI1 carries the m-sample window sums Y_m (Y_1 = y, Y_2m = Y_m[:-m] + Y_m[m:])
    and reads w = Y_m[m:] - Y_m[:-m].  FFI2 and TDEV carry their triangular
    double sums Z_m (Z_1 = y, Z_2m = Z_m[:-2m] + 2 Z_m[m:-m] + Z_m[2m:]) and
    read s = Z_m[m:] - Z_m[:-m].  w and s are the window sums ffi1 and ffi2
    build from cumulative sums, so both paths share ``_check_length`` and ``_readout``.
    Two work arrays of len(y) floats, allocated once per curve, take turns:
    each octave step and each readout writes into the one not holding the
    carried sums.
    """
    y = series.samples
    is_ffi1 = variant is Variant.FFI1
    carried, carried_m = y, 1
    spare, busy = np.empty(y.size), np.empty(y.size)

    def value(m: int) -> float:
        nonlocal carried, carried_m, spare, busy
        _check_length(variant, m, y.size)
        while carried_m < m:
            k = carried_m
            if is_ffi1:
                z = np.add(carried[:-k], carried[k:], out=spare[: carried.size - k])
            else:
                z = np.multiply(carried[k:-k], 2.0, out=spare[: carried.size - 2 * k])
                z += carried[: -2 * k]
                z += carried[2 * k :]
            carried, carried_m = z, 2 * k
            spare, busy = busy, spare
        sums = np.subtract(carried[m:], carried[:-m], out=spare[: carried.size - m])
        return _readout(variant, sums, m, series.tau0)

    return value


def stability_curve(series: TimeSeriesY, m_values: Iterable[int], variant: Variant) -> StabilityCurve:
    """Evaluate one statistic over several averaging factors.

    FFI1, FFI2 and TDEV curves whose averaging factors are all powers of
    two are swept octave by octave; FFI0 and other sets of m evaluate each
    point on its own.  Averaging factors the series is too short for are
    skipped and noted in the returned curve's ``warnings`` instead of
    failing the curve.
    """
    ms = sorted({_validate_m(m) for m in m_values})
    if variant in (Variant.FFI1, Variant.FFI2, Variant.TDEV) and all(m & (m - 1) == 0 for m in ms):
        point_value = _octave_sweep(series, variant)
    else:
        point_value = partial(_point_value, series, variant=variant)
    points = []
    warnings = []
    for m in ms:
        try:
            value = point_value(m)
        except InsufficientData as exc:
            warnings.append(f"m={m}: {exc}")
            continue
        points.append(StabilityPoint(tau=m * series.tau0, value=value, m=m, variant=variant))
    return StabilityCurve(points=tuple(points), source_length=len(series), warnings=tuple(warnings))


def octave_m_values(length: int, variant: Variant = Variant.FFI2) -> list[int]:
    """Octave-spaced averaging factors valid for a series of the given length."""
    ms = []
    m = 1
    while _min_length(variant, m) <= length:
        ms.append(m)
        m *= 2
    return ms


def fit_slope(curve: StabilityCurve, tau_range: Optional[tuple[float, float]] = None) -> float:
    """Least-squares slope of log10(value) against log10(tau).

    tau_range restricts the fit to points with tau in [lo, hi] inclusive;
    None uses every point.
    """
    pts = curve.points
    if tau_range is not None:
        lo, hi = tau_range
        pts = tuple(p for p in pts if lo <= p.tau <= hi)
    if len(pts) < 3:
        raise InsufficientData(f"fit_slope needs at least 3 points in range, got {len(pts)}")
    values = np.array([p.value for p in pts])
    if np.any(values <= 0.0):
        raise DegenerateInput("fit_slope requires strictly positive stability values")
    taus = np.log10([p.tau for p in pts])
    return float(np.polyfit(taus, np.log10(values), 1)[0])


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


# ---------------------------------------------------------------------------
# Serialization

CURVE_CSV_FIELDS = ("tau_s", "value", "m", "variant")


def curve_to_csv(curve: StabilityCurve, path, metadata: Optional[Mapping[str, object]] = None) -> None:
    """Write a non-empty curve to ``path`` as CSV with ``tau_s,value,m,variant`` columns, sorted by tau.

    Metadata key/value pairs, then the curve's warnings (``warning_<i>``)
    and source length, go into leading ``#`` comment lines so the data
    round-trips exactly.
    """
    if not curve.points:
        raise InvalidArgument("cannot write an empty stability curve")
    header = {**(metadata or {}), **{f"warning_{i}": warning for i, warning in enumerate(curve.warnings)}}
    if curve.source_length is not None:
        header["source_length"] = curve.source_length
    rows = [(p.tau, p.value, p.m, p.variant.value) for p in sorted(curve.points, key=lambda p: p.tau)]
    write_table(path, header, dict(zip(CURVE_CSV_FIELDS, zip(*rows))))


def _parse_cells(name: str, cells: list[str], parse: Callable[[str], object]) -> list:
    """Parse one column's cells; a cell ``parse`` rejects is reported with its column and data row."""
    values = []
    for row, cell in enumerate(cells, 1):
        try:
            values.append(parse(cell))
        except ValueError:
            raise InvalidArgument(f"cannot read {name} cell {cell!r} in data row {row}") from None
    return values


def curve_from_csv(stream: Iterable[str]) -> StabilityCurve:
    """Read a curve previously written by :func:`curve_to_csv`."""
    header, columns = read_table(stream)
    if tuple(columns) != CURVE_CSV_FIELDS:
        raise InvalidArgument(f"unexpected curve CSV header {list(columns)!r}")
    source_length = header.get("source_length")
    if source_length is not None and not source_length.isdecimal():
        raise InvalidArgument(f"source_length must be a non-negative integer, got {source_length!r}")
    # The columns follow StabilityPoint's field order: tau, value, m, variant.
    parsed = [_parse_cells(name, columns[name], parse)
              for name, parse in zip(CURVE_CSV_FIELDS, (float, float, int, Variant))]
    points = tuple(StabilityPoint(*cells) for cells in zip(*parsed))
    warnings = tuple(value for key, value in header.items() if key.startswith("warning_"))
    return StabilityCurve(points=points, source_length=None if source_length is None else int(source_length),
                          warnings=warnings)
