"""One-way and two-way time transfer over a free-space link.

One exchange produces the classic timestamp quartet: A transmits (t1),
B receives (t2), B replies after a fixed 1 ms turnaround (t3), A
receives (t4), each timestamp read in the owning clock's own timescale.
Each clock contributes one phase draw per exchange.  The two-way
combination ((t2 - t1) - (t4 - t3))/2 cancels any reciprocal path delay
exactly; asymmetry delta between the directions biases it by delta/2.

A single exchange is noiseless apart from the clocks, whose phase it
reads at t = 1 s.  A campaign repeats exchanges on a fixed schedule,
adds the estimator's error to each two-way estimate, feeds the
residuals to the stability estimators, and reports sigma_dt as the
configured excess bias plus the sample deviation of the residuals.  The
estimator error is one normal draw per estimate, from a stream of its
own (sub-seed 3) that neither clock path reads.  Its deviation and the
advantage report's squeezed deviation degrade squeezing by the same link
efficiency (Gaussian-beam collection on the receive aperture times the
detector efficiency), through ``quantum.lossy_sigma``.

One kernel computes the quartet and one formula the offset, on Python
floats (one exchange) or arrays (a campaign).  One exchange returns its
quartet as an ``ExchangeRecord``, a 4-tuple checked once on construction.
A clock without an active noise source draws no random stream, so its
path is the same for every seed, and one exchange reads its phase off
``ramp_phase`` with no sample path or sub-seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .clockmodel import ClockModel, ramp_phase, sample_clock
from .errors import InvalidArgument, _count, _finite, _in_float_range, _non_negative, _positive, _store, _unit_interval
from .quantum import EstimatorModel, _mean, _mean_and_deviation, lossy_sigma, model_sigma, required_squeezing
from .seeding import check_seed, derive_seed
from .series import TimeSeriesX
from .stability import StabilityCurve, Variant, octave_m_values, stability_curve, y_from_x

#: Near-surface troposphere lengthens the effective path by 1 ns per km.
TROPOSPHERE_DELAY_S_PER_KM = 1e-9

#: B's receive-to-reply time.  A clock's phase is constant over one
#: exchange, so the turnaround cancels in t4 - t3 up to rounding, and the
#: one-way estimate never reads t3 or t4.
TURNAROUND_S = 1e-3


@dataclass(frozen=True)
class GeometricParams:
    """Gaussian-beam geometry of a free-space link (all lengths in meters)."""

    wavelength: float
    waist: float
    aperture_radius: float

    def __post_init__(self):
        _store(self, _positive, "wavelength", "waist", "aperture_radius")


@dataclass(frozen=True)
class LinkModel:
    """Free-space link between two terminals.

    Per-direction delays may differ; enabling the troposphere adds
    1 ns/km to each direction.  sigma_excess is the additive
    synchronization bias folded into the reported timing error.
    """

    distance_km: float
    delay_ab: float
    delay_ba: float
    troposphere: bool = False
    geometric: Optional[GeometricParams] = None
    eta_detector: float = 1.0
    sigma_excess: float = 0.0

    def __post_init__(self):
        _store(self, _positive, "distance_km")
        _store(self, _non_negative, "delay_ab", "delay_ba", "sigma_excess")
        _store(self, _unit_interval, "eta_detector")

    def effective_delays(self) -> tuple[float, float]:
        """Per-direction delays including the troposphere contribution."""
        extra = TROPOSPHERE_DELAY_S_PER_KM * self.distance_km if self.troposphere else 0.0
        return self.delay_ab + extra, self.delay_ba + extra


class _Quartet(NamedTuple):
    t1: float  # A transmits
    t2: float  # B receives
    t3: float  # B transmits
    t4: float  # A receives


class ExchangeRecord(_Quartet):
    """Timestamp quartet of one two-way exchange, in each clock's own timescale.

    An immutable, hashable 4-tuple (t1, t2, t3, t4); every construction,
    ``_make`` and ``_replace`` included, checks it.
    """

    __slots__ = ()

    def __new__(cls, t1: float, t2: float, t3: float, t4: float):
        if not (math.isfinite(t1) and math.isfinite(t2) and math.isfinite(t3) and math.isfinite(t4)):
            name = next(name for name, t in zip(cls._fields, (t1, t2, t3, t4)) if not math.isfinite(t))
            raise InvalidArgument(f"timestamp {name} must be finite")
        if t4 < t1:
            raise InvalidArgument("A must receive after transmitting (t4 >= t1)")
        if t3 < t2:
            raise InvalidArgument("B must reply after receiving (t3 >= t2)")
        return tuple.__new__(cls, (t1, t2, t3, t4))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _is_noisy(clock: ClockModel) -> bool:
    return bool(clock.noise) and any(spec.amplitude != 0.0 for spec in clock.noise)


def _clock_path(clock: ClockModel, count: int, tau0: float, seed: int, stream: int) -> np.ndarray:
    """Phase path of the clock, sampled with sub-seed ``stream`` of seed."""
    return sample_clock(clock, count, tau0, derive_seed(seed, stream)).samples


def _clock_phase(clock: ClockModel, seed: int, stream: int) -> float:
    """Phase error at t = 1 s; a noiseless clock's is its ramp there, with no path sampled."""
    if _is_noisy(clock):
        return float(_clock_path(clock, 2, 1.0, seed, stream)[1])
    return float(ramp_phase(clock, 1.0))


def _timestamps(xa, xb, d_ab, d_ba, true_offset):
    """Quartet (t1, t2, t3, t4) from clock errors xa, xb, the two path delays and B's offset.

    Times run from the exchange's start: a common epoch cancels in both
    estimators and would otherwise quantize away sub-femtosecond noise
    against coordinates of order 1e3 s.
    """
    time_b_tx = d_ab + TURNAROUND_S
    return (
        xa,
        d_ab + true_offset + xb,
        time_b_tx + true_offset + xb,
        time_b_tx + d_ba + xa,
    )


def _two_way(t1, t2, t3, t4):
    return ((t2 - t1) - (t4 - t3)) / 2.0


def simulate_exchange(
    clock_a: ClockModel,
    clock_b: ClockModel,
    link: LinkModel,
    true_offset: float,
    seed: int = 0,
) -> ExchangeRecord:
    """One two-way exchange; B's clock leads A's by true_offset seconds.

    Each clock's timestamps carry its own phase error at t = 1 s (one
    noise draw per clock, constant over the sub-second exchange); the
    timestamps carry no other noise.  A timestamp past the float range
    raises OverflowError, whether or not its clock has noise.
    """
    true_offset = _finite("true_offset", true_offset)
    seed = check_seed(seed)
    xa = _clock_phase(clock_a, seed, 1)
    xb = _clock_phase(clock_b, seed, 2)
    stamps = _timestamps(xa, xb, *link.effective_delays(), true_offset)
    try:
        return ExchangeRecord(*stamps)
    except InvalidArgument:  # the inputs are finite, so a timestamp that is not left the float range
        for name, t in zip(ExchangeRecord._fields, stamps):
            _in_float_range(f"timestamp {name}", t)
        raise


def two_way_offset(record: ExchangeRecord) -> float:
    """Clock offset estimate ((t2 - t1) - (t4 - t3)) / 2.

    Exact for reciprocal delays; a directional asymmetry delta biases the
    estimate by delta/2 regardless of the common delay.
    """
    return _two_way(record.t1, record.t2, record.t3, record.t4)


def one_way_offset(record: ExchangeRecord, assumed_delay: float) -> float:
    """Clock offset from the forward leg alone, (t2 - t1) - assumed_delay.

    Any unmodeled path delay (e.g. the troposphere) lands directly in the
    estimate.
    """
    return (record.t2 - record.t1) - _finite("assumed_delay", assumed_delay)


def link_efficiency(link: LinkModel) -> float:
    """Composite transmissivity: geometric collection x detector efficiency.

    Geometric collection is the encircled power of the diffracted
    Gaussian beam on the receive aperture; a link without geometry
    collects everything and passes ``eta_detector`` alone.
    """
    g = link.geometric
    if g is None:
        return link.eta_detector
    distance_m = link.distance_km * 1e3
    rayleigh = math.pi * g.waist**2 / g.wavelength
    beam_radius = g.waist * math.sqrt(1.0 + (distance_m / rayleigh) ** 2)
    eta_geo = 1.0 - math.exp(-2.0 * g.aperture_radius**2 / beam_radius**2)
    return eta_geo * link.eta_detector


@dataclass(frozen=True)
class SyncCampaign:
    """Configuration of a repeated-exchange synchronization run."""

    clock_a: ClockModel
    clock_b: ClockModel
    link: LinkModel
    interval: float = 1.0
    true_offset: float = 0.0
    estimator: Optional[EstimatorModel] = None

    def __post_init__(self):
        _store(self, _positive, "interval")
        _store(self, _finite, "true_offset")


@dataclass(frozen=True)
class CampaignResult:
    """Per-exchange estimates plus summary statistics of one campaign."""

    estimates: np.ndarray
    truth: float
    residuals: np.ndarray
    mean_offset: float
    sigma_delta_t: float
    tdev_curve: StabilityCurve


def _estimator_error(seed: int, sigma: float, trials: int) -> np.ndarray:
    """The estimator's error of each of trials estimates, from sub-seed 3 of the campaign's seed."""
    return np.random.default_rng(derive_seed(seed, 3)).normal(0.0, sigma, trials)


def run_sync_campaign(config: SyncCampaign, trials: int, seed: int = 0) -> CampaignResult:
    """Run trials exchanges spaced config.interval apart and analyze residuals.

    Each clock's phase error evolves along one continuous sampled path;
    both timestamps a clock contributes within an exchange share its
    error at that epoch.  Each two-way estimate adds one estimator error
    of deviation ``lossy_sigma(estimator, link_efficiency(link))``; a
    campaign without an estimator, or whose deviation is 0, draws none.
    sigma_delta_t is the link's sigma_excess plus the sample deviation of
    (estimate - true_offset).
    """
    trials = _count("trials", trials, 100)
    seed = check_seed(seed)
    estimator = config.estimator
    sigma_m = 0.0 if estimator is None else lossy_sigma(estimator, link_efficiency(config.link))
    xa = _clock_path(config.clock_a, trials, config.interval, seed, 1)
    xb = _clock_path(config.clock_b, trials, config.interval, seed, 2)
    estimates = _two_way(*_timestamps(xa, xb, *config.link.effective_delays(), config.true_offset))
    if sigma_m != 0.0:
        estimates += _estimator_error(seed, sigma_m, trials)
    residuals = estimates - config.true_offset
    residual_series = TimeSeriesX(config.interval, residuals)
    curve = stability_curve(
        y_from_x(residual_series),
        octave_m_values(trials - 1, Variant.TDEV),
        Variant.TDEV,
    )
    _, deviation = _mean_and_deviation(residuals)
    return CampaignResult(
        estimates=estimates,
        truth=config.true_offset,
        residuals=residuals,
        mean_offset=float(_mean(estimates)),
        sigma_delta_t=config.link.sigma_excess + deviation,
        tdev_curve=curve,
    )


@dataclass(frozen=True)
class AdvantageReport:
    """Classical-vs-squeezed comparison over one link."""

    eta_total: float
    sigma_classical: float
    sigma_quantum: float
    advantage_ratio: float
    required_db_for_2x: Optional[float]


def advantage_report(link: LinkModel, model: EstimatorModel) -> AdvantageReport:
    """Deterministic link-budget summary of the squeezing advantage.

    eta_total is ``link_efficiency(link)``.  The squeezed deviation is
    ``lossy_sigma(model, eta_total)``: the classical one scaled by the
    square root of the squeezed quadrature variance exp(-2r), relative to
    the vacuum level 1, after loss: eta*exp(-2r) + 1 - eta.  A campaign
    over the link draws its estimator error with the same deviation.
    """
    eta_total = link_efficiency(link)
    sigma_classical = model_sigma(replace(model, r=0.0))
    sigma_quantum = lossy_sigma(model, eta_total)
    return AdvantageReport(
        eta_total=eta_total,
        sigma_classical=sigma_classical,
        sigma_quantum=sigma_quantum,
        advantage_ratio=sigma_classical / sigma_quantum,
        required_db_for_2x=required_squeezing(eta_total, 2.0),
    )
