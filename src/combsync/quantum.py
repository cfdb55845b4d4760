"""Timing-precision scaling laws, squeezing in dB, and photonic loss.

The four scaling laws give the standard deviation of a timing-offset
estimate versus the photon budget n per measurement window:

    time-of-flight        sigma ~ T0 / sqrt(n)
    phase comparison      sigma ~ 1 / (nu0 * sqrt(n))
    temporal-mode         sigma ~ 1 / sqrt(n * ((1/T0)^2 + nu0^2))
    squeezed temporal     sigma ~ exp(-r) / sqrt(n * ((1/T0)^2 + nu0^2))

All four are proportionalities; the constant is fixed to 1 and every
check downstream compares ratios or fitted exponents so it cancels.
With n = sinh(r)^2 the squeezed law approaches the 1/n Heisenberg
scaling, versus the 1/sqrt(n) standard quantum limit of the first three.

Squeezing magnitudes in dB follow the variance convention
10*log10(exp(2r)).  Photonic loss acts on a single-mode squeezed state
as beam-splitter admixture of vacuum, V -> eta*V + (1 - eta); the link
budget in ``synclink`` reads the squeezed variance from ``apply_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import InvalidArgument
from .seeding import check_seed

_LN10 = math.log(10.0)


class EstimatorMethod(Enum):
    TOF = "tof"
    PHASE = "phase"
    TEMPORAL_MODE = "temporal_mode"


@dataclass(frozen=True)
class SqueezedState:
    """Pure single-mode squeezed state with parameter r (nepers).

    Variances are normalized to the vacuum (SQL) level of 1.
    """

    r: float

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r < 0.0:
            raise InvalidArgument(f"squeezing parameter r must be finite and >= 0, got {self.r}")

    @property
    def variance_squeezed(self) -> float:
        return math.exp(-2.0 * self.r)

    @property
    def variance_antisqueezed(self) -> float:
        try:
            return math.exp(2.0 * self.r)
        except OverflowError:  # exp(2r) leaves the float range above r ~ 354.9
            return math.inf


@dataclass(frozen=True)
class QuadratureVariances:
    """Squeezed and antisqueezed quadrature variances after a loss channel."""

    variance_squeezed: float
    variance_antisqueezed: float


@dataclass(frozen=True)
class EstimatorModel:
    """A timing-offset measurement: method, photon budget, and signal shape.

    n is the photon count per measurement window, nu0 the carrier
    frequency, t0 the pulse duration.  Squeezing (r > 0) is meaningful
    only for the temporal-mode method.
    """

    method: EstimatorMethod
    n: float
    nu0: float
    t0: float
    r: float = 0.0

    def __post_init__(self):
        if not isinstance(self.method, EstimatorMethod):
            raise InvalidArgument(f"method must be an EstimatorMethod, got {self.method!r}")
        for name in ("n", "nu0", "t0"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidArgument(f"{name} must be finite and positive, got {v}")
        if not math.isfinite(self.r) or self.r < 0.0:
            raise InvalidArgument(f"r must be finite and >= 0, got {self.r}")
        if self.r > 0.0 and self.method is not EstimatorMethod.TEMPORAL_MODE:
            raise InvalidArgument("squeezing (r > 0) requires the temporal-mode method")


# ---------------------------------------------------------------------------
# Scaling laws


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not math.isfinite(value) or value <= 0.0:
            raise InvalidArgument(f"{name} must be finite and positive, got {value}")


def sigma_tof(n: float, t0: float) -> float:
    """Time-of-flight estimate deviation, T0/sqrt(n) (relative scale)."""
    _require_positive(n=n, t0=t0)
    return t0 / math.sqrt(n)


def sigma_phase(n: float, nu0: float) -> float:
    """Phase-comparison estimate deviation, 1/(nu0*sqrt(n)) (relative scale)."""
    _require_positive(n=n, nu0=nu0)
    return 1.0 / (nu0 * math.sqrt(n))


def sigma_tm(n: float, t0: float, nu0: float) -> float:
    """Temporal-mode estimate deviation; carries both TOF and phase information."""
    _require_positive(n=n, t0=t0, nu0=nu0)
    return 1.0 / math.sqrt(n * ((1.0 / t0) ** 2 + nu0**2))


def sigma_tm_squeezed(n: float, t0: float, nu0: float, r: float) -> float:
    """Temporal-mode deviation with quadrature squeezing r; exp(-r) * sigma_tm."""
    if not math.isfinite(r) or r < 0.0:
        raise InvalidArgument(f"r must be finite and >= 0, got {r}")
    return math.exp(-r) * sigma_tm(n, t0, nu0)


def model_sigma(model: EstimatorModel) -> float:
    """Closed-form deviation for an estimator model."""
    if model.method is EstimatorMethod.TOF:
        return sigma_tof(model.n, model.t0)
    if model.method is EstimatorMethod.PHASE:
        return sigma_phase(model.n, model.nu0)
    return sigma_tm_squeezed(model.n, model.t0, model.nu0, model.r)


# ---------------------------------------------------------------------------
# Squeezing bookkeeping


def db_from_r(r: float) -> float:
    """Squeezing in variance dB: 10*log10(exp(2r))."""
    if not math.isfinite(r) or r < 0.0:
        raise InvalidArgument(f"r must be finite and >= 0, got {r}")
    return 20.0 * r / _LN10


def r_from_db(db: float) -> float:
    """Inverse of :func:`db_from_r`."""
    if not math.isfinite(db) or db < 0.0:
        raise InvalidArgument(f"dB value must be finite and >= 0, got {db}")
    return db * _LN10 / 20.0


def apply_loss(state: Union[SqueezedState, QuadratureVariances], eta: float) -> QuadratureVariances:
    """Beam-splitter loss: each variance V becomes eta*V + (1 - eta).

    Composes multiplicatively in eta and drives both variances toward
    the vacuum level 1.
    """
    if not math.isfinite(eta) or not (0.0 <= eta <= 1.0):
        raise InvalidArgument(f"transmissivity eta must lie in [0, 1], got {eta}")
    if eta == 0.0:  # pure vacuum; also keeps 0 * inf (r above ~354.9) from giving nan
        return QuadratureVariances(1.0, 1.0)
    return QuadratureVariances(
        variance_squeezed=eta * state.variance_squeezed + (1.0 - eta),
        variance_antisqueezed=eta * state.variance_antisqueezed + (1.0 - eta),
    )


def required_squeezing(eta_total: float, advantage_factor: float) -> Optional[float]:
    """Smallest squeezing (variance dB) giving the target deviation reduction.

    The effective deviation reduction under loss is
    sqrt(eta*exp(-2r) + (1 - eta)); the vacuum admixture floors it at
    sqrt(1 - eta), so targets below that floor return None (unattainable),
    as does every target at eta = 0, where the floor is 1.
    """
    if not (0.0 <= eta_total <= 1.0):
        raise InvalidArgument(f"eta_total must lie in [0, 1], got {eta_total}")
    if not math.isfinite(advantage_factor) or advantage_factor <= 1.0:
        raise InvalidArgument(f"advantage_factor must exceed 1, got {advantage_factor}")
    target_variance = 1.0 / advantage_factor**2
    floor = 1.0 - eta_total
    if floor >= target_variance:
        return None
    r = -0.5 * math.log((target_variance - floor) / eta_total)
    return db_from_r(r)


def monte_carlo_sigma(
    model: EstimatorModel, trials: int, seed: int = 0, true_offset: float = 0.0
) -> tuple[float, float]:
    """Sampled (mean, std) of timing-offset estimates under the model's law.

    Each trial draws one Gaussian estimate around true_offset with the
    closed-form deviation of the model.
    """
    if not 100 <= trials < 2**53:
        raise InvalidArgument(f"trials must be >= 100 and < 2**53, got {trials}")
    if not math.isfinite(true_offset):
        raise InvalidArgument("true_offset must be finite")
    sigma = model_sigma(model)
    rng = np.random.default_rng(check_seed(seed))
    draws = rng.normal(true_offset, sigma, trials)
    return float(draws.mean()), float(draws.std(ddof=1))
