"""Timing-precision scaling laws, squeezing in dB, and photonic loss.

One function, ``model_sigma``, gives the standard deviation of a
timing-offset estimate for an ``EstimatorModel``, keyed on its method,
versus the photon budget n per measurement window:

    tof                   sigma ~ T0 / sqrt(n)
    phase                 sigma ~ 1 / (nu0 * sqrt(n))
    temporal_mode         sigma ~ exp(-r) / sqrt(n * ((1/T0)^2 + nu0^2))

r is the quadrature squeezing, 0 unless the temporal-mode estimate is
squeezed (Lamine, Fabre & Treps, PRL 101, 123601, 2008).  All are
proportionalities; the constant is fixed to 1 and every check downstream
compares ratios or fitted exponents so it cancels.  With n = sinh(r)^2
the squeezed law approaches the 1/n Heisenberg scaling, versus the
1/sqrt(n) standard quantum limit of the unsqueezed laws.

Squeezing magnitudes in dB follow the variance convention
10*log10(exp(2r)).  Photonic loss acts on a quadrature variance as
beam-splitter admixture of vacuum, V -> eta*V + (1 - eta) (``apply_loss``);
``lossy_sigma`` applies it to the squeezed quadrature variance exp(-2r),
normalized to the vacuum (SQL) level of 1, and scales the unsqueezed
deviation by its square root.  The link budget in ``synclink`` (the
advantage report and a campaign's estimator error) reads its deviation
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InvalidArgument, _count, _finite, _non_negative, _positive, _unit_interval
from .seeding import check_seed

_LN10 = math.log(10.0)


class EstimatorMethod(Enum):
    TOF = "tof"
    PHASE = "phase"
    TEMPORAL_MODE = "temporal_mode"


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
            _positive(name, getattr(self, name))
        _non_negative("r", self.r)
        if self.r > 0.0 and self.method is not EstimatorMethod.TEMPORAL_MODE:
            raise InvalidArgument("squeezing (r > 0) requires the temporal-mode method")


# ---------------------------------------------------------------------------
# Scaling laws


def model_sigma(model: EstimatorModel) -> float:
    """Closed-form deviation of the model's method, from its already validated fields (relative scale)."""
    if model.method is EstimatorMethod.TOF:
        sigma = model.t0 / math.sqrt(model.n)
    elif model.method is EstimatorMethod.PHASE:
        sigma = 1.0 / (model.nu0 * math.sqrt(model.n))
    else:
        sigma = math.exp(-model.r) * (1.0 / math.sqrt(model.n * ((1.0 / model.t0) ** 2 + model.nu0**2)))
    if not math.isfinite(sigma):  # a Python float division overflows to inf without raising
        raise OverflowError(f"deviation of {model} is {sigma}")
    return sigma


# ---------------------------------------------------------------------------
# Squeezing bookkeeping


def db_from_r(r: float) -> float:
    """Squeezing in variance dB: 10*log10(exp(2r))."""
    return 20.0 * _non_negative("r", r) / _LN10


def r_from_db(db: float) -> float:
    """Inverse of :func:`db_from_r`."""
    return _non_negative("db", db) * _LN10 / 20.0


def apply_loss(variance: float, eta: float) -> float:
    """Beam-splitter loss of a quadrature variance V: eta*V + (1 - eta).

    Composes multiplicatively in eta and drives V toward the vacuum level 1.
    """
    return _unit_interval("eta", eta) * variance + (1.0 - eta)


def lossy_sigma(model: EstimatorModel, eta: float) -> float:
    """The model's deviation after loss eta: sigma(r = 0) * sqrt(apply_loss(exp(-2r), eta)).

    At r = 0 and eta = 1 the factor is exactly 1.0, so the deviation is
    ``model_sigma(model)`` bit for bit; once exp(-2r) underflows to 0 at
    eta = 1 the deviation is 0.
    """
    effective_variance = apply_loss(math.exp(-2.0 * model.r), eta)
    return math.sqrt(effective_variance) * model_sigma(replace(model, r=0.0))


def required_squeezing(eta_total: float, advantage_factor: float) -> Optional[float]:
    """Smallest squeezing (variance dB) giving the target deviation reduction.

    The effective deviation reduction under loss is
    sqrt(eta*exp(-2r) + (1 - eta)); the vacuum admixture floors it at
    sqrt(1 - eta), so targets below that floor return None (unattainable),
    as does every target at eta = 0, where the floor is 1.
    """
    _unit_interval("eta_total", eta_total)
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
    _count("trials", trials, 100)
    _finite("true_offset", true_offset)
    sigma = model_sigma(model)
    rng = np.random.default_rng(check_seed(seed))
    draws = rng.normal(true_offset, sigma, trials)
    return float(draws.mean()), float(draws.std(ddof=1))
