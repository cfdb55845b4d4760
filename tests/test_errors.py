"""The shared range rules of ``combsync.errors``, and every argument checked against one.

Each rule rejects NaN, both infinities and the values just past its
excluded bound, with one message that names the argument.  Each row of
``ARGUMENTS`` sets one constructor field or function argument to each of
its rule's rejected values in an otherwise valid call.  The count rule
takes a minimum, so it and the counts checked against it have their own
tables, ``COUNT_MINIMA`` and ``COUNTS``.
"""

from __future__ import annotations

import math

import pytest

from combsync.clockmodel import ClockModel, CombParams, sample_clock
from combsync.errors import InvalidArgument, _count, _finite, _non_negative, _positive, _unit_interval
from combsync.noisegen import NoiseKind, NoiseSpec, generate_noise
from combsync.quantum import (
    EstimatorMethod,
    EstimatorModel,
    apply_loss,
    db_from_r,
    monte_carlo_sigma,
    r_from_db,
    required_squeezing,
)
from combsync.series import TimeSeriesX, TimeSeriesY
from combsync.stability import StabilityPoint, Variant
from combsync.synclink import (
    ExchangeRecord,
    GeometricParams,
    LinkModel,
    SyncCampaign,
    advantage_report,
    one_way_offset,
    run_sync_campaign,
    simulate_exchange,
)

TINY = 5e-324  # the smallest positive subnormal
NON_FINITE = (math.nan, math.inf, -math.inf)

#: rule -> (the message after the argument's name, rejected values, accepted values)
RULES = {
    _finite: ("must be finite", NON_FINITE, (-1e308, 0.0, 1e308)),
    _positive: ("must be finite and positive", (*NON_FINITE, 0.0, -0.0, -TINY), (TINY, 1.0, 1e308)),
    _non_negative: ("must be finite and >= 0", (*NON_FINITE, -TINY, -1.0), (0.0, TINY, 1e308)),
    _unit_interval: ("must lie in [0, 1]", (*NON_FINITE, -TINY, math.nextafter(1.0, 2.0)), (0.0, 0.5, 1.0)),
}

CLOCK = ClockModel(nu0=1e14)
LINK = LinkModel(distance_km=100.0, delay_ab=3e-4, delay_ba=3e-4)
GEOMETRY = dict(wavelength=1.56e-6, waist=0.16552, aperture_radius=0.3)
ESTIMATOR = dict(method=EstimatorMethod.TEMPORAL_MODE, n=10.0, nu0=1e14, t0=1e-14, r=0.0)
COMB = dict(f_r=100e6, f_0=0.0, t_0=1e-13, n_range=(1, 10))

#: (argument name, rule, call with the argument set to a value)
ARGUMENTS = [
    ("tau0", _positive, lambda v: TimeSeriesY(v, [0.0, 1.0])),
    ("tau0", _positive, lambda v: TimeSeriesX(v, [0.0, 1.0])),
    ("tau0", _positive, lambda v: generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 1.0), 4, v)),
    ("tau0", _positive, lambda v: sample_clock(CLOCK, 4, v)),
    ("amplitude", _non_negative, lambda v: NoiseSpec(NoiseKind.WHITE_FM, v)),
    ("nu0", _positive, lambda v: ClockModel(nu0=v)),
    ("frac_freq_offset", _finite, lambda v: ClockModel(nu0=1e14, frac_freq_offset=v)),
    ("drift", _finite, lambda v: ClockModel(nu0=1e14, drift=v)),
    ("f_r", _positive, lambda v: CombParams(**{**COMB, "f_r": v})),
    ("t_0", _positive, lambda v: CombParams(**{**COMB, "t_0": v})),
    ("r", _non_negative, lambda v: advantage_report(LINK, EstimatorModel(**{**ESTIMATOR, "r": v}))),
    *((name, _positive, lambda v, name=name: EstimatorModel(**{**ESTIMATOR, name: v}))
      for name in ("n", "nu0", "t0")),
    ("r", _non_negative, lambda v: EstimatorModel(**{**ESTIMATOR, "r": v})),
    ("r", _non_negative, db_from_r),
    ("db", _non_negative, r_from_db),
    ("eta", _unit_interval, lambda v: apply_loss(1.0, v)),
    ("eta_total", _unit_interval, lambda v: required_squeezing(v, 2.0)),
    ("true_offset", _finite, lambda v: monte_carlo_sigma(EstimatorModel(**ESTIMATOR), 100, true_offset=v)),
    ("tau", _positive, lambda v: StabilityPoint(tau=v, value=1.0, m=1, variant=Variant.FFI1)),
    ("value", _non_negative, lambda v: StabilityPoint(tau=1.0, value=v, m=1, variant=Variant.FFI1)),
    *((name, _positive, lambda v, name=name: GeometricParams(**{**GEOMETRY, name: v})) for name in GEOMETRY),
    ("distance_km", _positive, lambda v: LinkModel(distance_km=v, delay_ab=0.0, delay_ba=0.0)),
    *((name, _non_negative, lambda v, name=name: LinkModel(**{"distance_km": 1.0, "delay_ab": 0.0,
                                                               "delay_ba": 0.0, name: v}))
      for name in ("delay_ab", "delay_ba", "sigma_excess")),
    ("eta_detector", _unit_interval, lambda v: LinkModel(distance_km=1.0, delay_ab=0.0, delay_ba=0.0, eta_detector=v)),
    ("true_offset", _finite, lambda v: simulate_exchange(CLOCK, CLOCK, LINK, v)),
    ("assumed_delay", _finite, lambda v: one_way_offset(ExchangeRecord(0.0, 1.0, 1.0, 2.0), v)),
    ("interval", _positive, lambda v: SyncCampaign(CLOCK, CLOCK, LINK, interval=v)),
    ("true_offset", _finite, lambda v: SyncCampaign(CLOCK, CLOCK, LINK, true_offset=v)),
]

COUNT_MINIMA = (2, 100)

#: (argument name, minimum, call with the count set to a value)
COUNTS = [
    ("count", 2, lambda v: generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 1.0), v, 1.0)),
    ("trials", 100, lambda v: monte_carlo_sigma(EstimatorModel(**ESTIMATOR), v)),
    ("trials", 100, lambda v: run_sync_campaign(SyncCampaign(CLOCK, CLOCK, LINK), v)),
]


def count_rejected(minimum):
    """Below the minimum, at and past 2**53, and every non-finite value."""
    return (minimum - 1, -1, 2**53, 2**53 + 1, 10**20, *NON_FINITE)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule_rejects_with_one_message_and_returns_what_it_accepts(rule):
    text, rejected, accepted = RULES[rule]
    for value in rejected:
        with pytest.raises(InvalidArgument) as info:
            rule("arg", value)
        assert str(info.value) == f"arg {text}, got {value}"
    for value in accepted:
        assert rule("arg", value) is value


@pytest.mark.parametrize("name,rule,call", ARGUMENTS, ids=[f"{i}-{row[0]}" for i, row in enumerate(ARGUMENTS)])
def test_argument_is_checked_by_its_rule(name, rule, call):
    text, rejected, accepted = RULES[rule]
    for value in rejected:
        with pytest.raises(InvalidArgument) as info:
            call(value)
        assert str(info.value) == f"{name} {text}, got {value}"
    call(accepted[1])


@pytest.mark.parametrize("minimum", COUNT_MINIMA)
def test_count_rule_rejects_with_one_message_and_returns_what_it_accepts(minimum):
    for value in count_rejected(minimum):
        with pytest.raises(InvalidArgument) as info:
            _count("arg", value, minimum)
        assert str(info.value) == f"arg must be >= {minimum} and < 2**53, got {value}"
    for value in (minimum, minimum + 1, 2**53 - 1):
        assert _count("arg", value, minimum) is value


@pytest.mark.parametrize("name,minimum,call", COUNTS, ids=[f"{i}-{row[0]}" for i, row in enumerate(COUNTS)])
def test_count_is_checked_by_the_count_rule(name, minimum, call):
    for value in count_rejected(minimum):
        with pytest.raises(InvalidArgument) as info:
            call(value)
        assert str(info.value) == f"{name} must be >= {minimum} and < 2**53, got {value}"
    call(minimum)
