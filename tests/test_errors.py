"""The shared range rules of ``combsync.errors``, and every argument checked against one.

These tables are the only tests of the rules.  Each float rule rejects
NaN, both infinities, bools and the values just past its excluded bound,
with one message that names the argument, and returns what it accepts as
a Python float.  Each row of ``ARGUMENTS`` sets one constructor field or
function argument to each of its rule's rejected values in an otherwise
valid call, and a model built from a numpy scalar stores a Python float.
The count rule takes a minimum and a bit width, so it and the counts,
seeds, averaging factors and mode numbers checked against it have their
own table, ``COUNTS``.  The float-range rule checks a computed result,
not an argument: each row of ``RESULTS`` is a valid call whose result
leaves the float range, and only ``errors`` may raise the
``OverflowError`` that rule raises.  Only ``errors`` may name ``numbers`` or ``Integral``, so
the count rule stays the one integer rule.
"""

from __future__ import annotations

import ast
import dataclasses
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from combsync.clockmodel import ClockModel, CombParams, comb_time_params, sample_clock
from combsync.config import ScalingRun, SeriesSource, StabilityRun
from combsync.errors import (
    InvalidArgument,
    _count,
    _finite,
    _in_float_range,
    _non_negative,
    _positive,
    _unit_interval,
)
from combsync.noisegen import NoiseKind, NoiseSpec, fractional_filter_coeffs, generate_noise
from combsync.quantum import (
    EstimatorMethod,
    EstimatorModel,
    apply_loss,
    db_from_r,
    model_sigma,
    monte_carlo_sigma,
    r_from_db,
    required_squeezing,
)
from combsync.seeding import check_seed
from combsync.series import TimeSeriesX, TimeSeriesY
from combsync.stability import Variant, ffi0, ffi1, ffi2, octave_m_values, stability_curve, tdev, tdev_from_ffi2
from combsync.synclink import (
    ExchangeRecord,
    GeometricParams,
    LinkModel,
    SyncCampaign,
    one_way_offset,
    run_sync_campaign,
    simulate_exchange,
)

TINY = 5e-324  # the smallest positive subnormal
NON_FINITE = (math.nan, math.inf, -math.inf)
BOOLS = (True, False)

#: rule -> (the message after the argument's name, rejected values, accepted values)
RULES = {
    _finite: ("must be finite", (*NON_FINITE, *BOOLS), (-1e308, 0.0, 1e308)),
    _positive: ("must be finite and positive", (*NON_FINITE, *BOOLS, 0.0, -0.0, -TINY), (TINY, 1.0, 1e308)),
    _non_negative: ("must be finite and >= 0", (*NON_FINITE, *BOOLS, -TINY, -1.0), (0.0, TINY, 1e308)),
    _unit_interval: ("must lie in [0, 1]", (*NON_FINITE, *BOOLS, -TINY, math.nextafter(1.0, 2.0)),
                     (0.0, 0.5, 1.0)),
}

CLOCK = ClockModel(nu0=1e14)
NOISY = ClockModel(nu0=1e14, noise=(NoiseSpec(NoiseKind.WHITE_FM, 1e-24),))
SERIES = TimeSeriesY(1.0, np.arange(8.0) ** 2)
LINK = LinkModel(distance_km=100.0, delay_ab=3e-4, delay_ba=3e-4)
GEOMETRY = dict(wavelength=1.56e-6, waist=0.16552, aperture_radius=0.3)
ESTIMATOR = dict(method=EstimatorMethod.TEMPORAL_MODE, n=10.0, nu0=1e14, t0=1e-14, r=0.0)
COMB = dict(f_r=100e6, f_0=0.0, t_0=1e-13, n_range=(1, 10))
SCALING = dict(mode="sql", trials=100, nu0=1e14, t0=1e-14, n_values=(10.0,))

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
    *((name, _positive, lambda v, name=name: EstimatorModel(**{**ESTIMATOR, name: v}))
      for name in ("n", "nu0", "t0")),
    ("r", _non_negative, lambda v: EstimatorModel(**{**ESTIMATOR, "r": v})),
    ("r", _non_negative, db_from_r),
    ("db", _non_negative, r_from_db),
    ("eta", _unit_interval, lambda v: apply_loss(1.0, v)),
    ("eta_total", _unit_interval, lambda v: required_squeezing(v, 2.0)),
    *((name, _positive, lambda v, name=name: ScalingRun(**{**SCALING, name: v})) for name in ("nu0", "t0")),
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
    ("f_0", _non_negative, lambda v: CombParams(**{**COMB, "f_0": v})),
    ("variance", _non_negative, lambda v: apply_loss(v, 0.5)),
    ("ffi2_value", _non_negative, lambda v: tdev_from_ffi2(v, 1.0)),
]

#: (argument name, minimum, bits, call with the count set to a value)
COUNTS = [
    ("count", 2, 53, lambda v: generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 1.0), v, 1.0)),
    ("trials", 100, 53, lambda v: monte_carlo_sigma(EstimatorModel(**ESTIMATOR), v)),
    ("trials", 100, 53, lambda v: run_sync_campaign(SyncCampaign(CLOCK, CLOCK, LINK), v)),
    ("count", 2, 53, lambda v: sample_clock(CLOCK, v, 1.0)),
    ("count", 1, 53, lambda v: fractional_filter_coeffs(-1.0, v)),
    ("seed", 0, 64, check_seed),
    ("seed", 0, 64, lambda v: NoiseSpec(NoiseKind.WHITE_FM, 1.0, seed=v)),
    ("seed", 0, 64, lambda v: monte_carlo_sigma(EstimatorModel(**ESTIMATOR), 100, v)),
    *(row for clock in (CLOCK, NOISY) for row in [
        ("seed", 0, 64, lambda v, clock=clock: simulate_exchange(clock, clock, LINK, 0.0, v)),
        ("seed", 0, 64, lambda v, clock=clock: run_sync_campaign(SyncCampaign(clock, clock, LINK), 100, v)),
        ("seed", 0, 64, lambda v, clock=clock: sample_clock(clock, 4, 1.0, v)),
    ]),
    ("n_range[0]", 1, 53, lambda v: CombParams(**{**COMB, "n_range": (v, 10)})),
    ("m", 1, 53, lambda v: ffi1(SERIES, v)),
    ("m", 1, 53, lambda v: ffi2(SERIES, v)),
    ("m", 1, 53, lambda v: tdev(SERIES, v)),
    ("m", 1, 53, lambda v: stability_curve(SERIES, [1, v], Variant.FFI0)),
    ("m", 1, 53, lambda v: StabilityRun(SeriesSource(NoiseSpec(NoiseKind.WHITE_FM, 1.0), 64), Variant.FFI1, (v,))),
    ("n_range[1]", 1, 53, lambda v: CombParams(**{**COMB, "n_range": (1, v)})),
    ("length", 0, 53, octave_m_values),
]


class Label(int):
    """An int subclass: checked by its value, returned as a plain int."""


def count_rejected(minimum, bits):
    """Below the minimum (a numpy integer and an int subclass too), at and past 2**bits, every non-finite value,
    and in-range values that are no integer: floats, bools, strings, bytes, None, a list and a complex number."""
    return (*sorted({minimum - 1, -1}), np.int64(minimum - 1), Label(minimum - 1), 2**bits, 2**bits + 1, 10**20,
            *NON_FINITE, float(minimum), np.float64(minimum), minimum + 0.5, *BOOLS, np.bool_(True), "3", b"12", None,
            [1], 2 + 0j)


def value_id(value):
    return f"{type(value).__name__}-{value!r}"


@pytest.mark.parametrize("rule,value", [(rule, value) for rule in RULES for value in RULES[rule][1]],
                         ids=lambda arg: arg.__name__ if callable(arg) else value_id(arg))
def test_rule_rejects_with_one_message(rule, value):
    with pytest.raises(InvalidArgument) as info:
        rule("arg", value)
    assert str(info.value) == f"arg {RULES[rule][0]}, got {value}"


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule_returns_what_it_accepts_as_a_float(rule):
    for value in (*RULES[rule][2], *map(np.float64, RULES[rule][2])):
        result = rule("arg", value)
        assert type(result) is float and result == value


@pytest.mark.parametrize("name,rule,call", ARGUMENTS, ids=[f"{i}-{row[0]}" for i, row in enumerate(ARGUMENTS)])
def test_argument_is_checked_by_its_rule(name, rule, call):
    text, rejected, accepted = RULES[rule]
    for value in rejected:
        with pytest.raises(InvalidArgument) as info:
            call(value)
        assert str(info.value) == f"{name} {text}, got {value}"
    result = call(np.float64(accepted[1]))
    if dataclasses.is_dataclass(result):
        assert type(getattr(result, name)) is float


@pytest.mark.parametrize("samples,dtype", [(np.array([1 + 1j, 2]), "complex128"), ([True, False], "bool"),
                                           (["1e3", "2"], "<U3"), ([2**64, True], "object"),
                                           ([Decimal(1), 2], "object"), ([None, 2], "object")],
                         ids=["complex", "bool", "str", "object-bool", "object-decimal", "object-none"])
def test_samples_must_be_integers_or_floats(samples, dtype):
    # numpy would cast each of these to floats: dropping the imaginary part, or reading True, '1e3', a
    # Decimal or None (as nan) as numbers.  A Decimal is not a numbers.Real.
    with pytest.raises(InvalidArgument) as info:
        TimeSeriesY(1.0, samples)
    assert str(info.value) == f"samples must be integers or floats, got dtype {dtype}"


@pytest.mark.parametrize("samples", [[2**64, 1], [Fraction(1, 4), 2], [2**64, 0.5]], ids=["int", "fraction", "mixed"])
def test_integers_past_int64_and_fractions_are_stored_as_floats(samples):
    # numpy holds these as objects; every item is a real number, so each is cast as an int64 array would be.
    stored = TimeSeriesY(1.0, samples).samples
    assert stored.dtype == np.float64 and stored.tolist() == [float(v) for v in samples]


@pytest.mark.parametrize("minimum,bits,value", [(minimum, bits, value) for minimum, bits in sorted({row[1:3] for row in COUNTS})
                                                for value in count_rejected(minimum, bits)],
                         ids=lambda arg: str(arg) if type(arg) is int else value_id(arg))
def test_count_rule_rejects_with_one_message(minimum, bits, value):
    with pytest.raises(InvalidArgument) as info:
        _count("arg", value, minimum, bits)
    assert str(info.value) == f"arg must be >= {minimum} and < 2**{bits}, got {value!r}"


@pytest.mark.parametrize("minimum,bits", sorted({row[1:3] for row in COUNTS}))
def test_count_rule_returns_what_it_accepts_as_an_int(minimum, bits):
    for value in (minimum, minimum + 1, 2**bits - 1, np.int64(minimum), Label(minimum)):
        result = _count("arg", value, minimum, bits)
        assert type(result) is int and result == value


@pytest.mark.parametrize("name,minimum,bits,call", COUNTS, ids=[f"{i}-{row[0]}" for i, row in enumerate(COUNTS)])
def test_count_is_checked_by_the_count_rule(name, minimum, bits, call):
    for value in count_rejected(minimum, bits):
        with pytest.raises(InvalidArgument) as info:
            call(value)
        assert str(info.value) == f"{name} must be >= {minimum} and < 2**{bits}, got {value!r}"
    call(minimum)


#: Adjacent differences of 4e200, whose squares leave the float range.
LOUD = TimeSeriesY(1.0, np.array([1e200, -1e200] * 4))


def quietly(call, *args):
    """call(*args) without numpy's overflow warning, which the test settings turn into an error."""
    with np.errstate(over="ignore"):
        return call(*args)


#: (quantity, its value past the float range, a valid call whose result leaves the float range)
RESULTS = [
    ("ramp at the last sample", math.inf, lambda: sample_clock(ClockModel(nu0=1.0, drift=1.0), 3, 1e200)),
    ("ramp at the last sample", math.nan, lambda: sample_clock(ClockModel(nu0=1.0, frac_freq_offset=1.0), 3, 1e308)),
    ("pulse period", math.inf, lambda: comb_time_params(CombParams(**{**COMB, "f_r": 5e-324}))),
    ("phase slip", math.inf, lambda: comb_time_params(CombParams(**{**COMB, "f_r": 1.7e308, "f_0": 1.6e308}))),
    ("innovation variance", math.inf, lambda: generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 1e62), 4, 1e-300)),
    ("deviation", math.inf, lambda: model_sigma(EstimatorModel(EstimatorMethod.TOF, n=1e-300, nu0=1e14, t0=1e200))),
    ("tdev", math.inf, lambda: tdev_from_ffi2(1e300, 1e300)),
    ("tdev", math.nan, lambda: tdev_from_ffi2(0.0, math.inf)),
    ("tau", math.inf, lambda: stability_curve(TimeSeriesY(1e308, np.zeros(64)), [2], Variant.FFI1)),
    ("squeezing in dB", math.inf, lambda: db_from_r(1e308)),
    ("deviation", math.inf, lambda: model_sigma(EstimatorModel(EstimatorMethod.PHASE, n=1e-300, nu0=1e-160, t0=1.0))),
    ("tdev", math.nan, lambda: tdev(TimeSeriesY(1e308, np.zeros(64)), 2)),  # tau = 2e308 times a zero deviation
    # A model stores a numpy scalar as a Python float, so its result leaves the float range without a numpy warning.
    ("ramp at the last sample", math.inf, lambda: sample_clock(ClockModel(nu0=1.0, drift=np.float64(1.0)), 3, 1e200)),
    ("deviation", math.inf, lambda: model_sigma(EstimatorModel(EstimatorMethod.TOF, n=np.float64(1e-300), nu0=1e14,
                                                               t0=np.float64(1e200)))),
    ("squeezing in dB", math.inf, lambda: db_from_r(np.float64(1e308))),
    # A deviation, named for its statistic (a TDEV's for the ffi2 it reads), single-m, swept and per m.
    ("ffi0", math.inf, lambda: quietly(ffi0, LOUD)),
    ("ffi1", math.inf, lambda: quietly(ffi1, LOUD, 1)),
    ("ffi2", math.inf, lambda: quietly(ffi2, LOUD, 1)),
    ("ffi2", math.inf, lambda: quietly(tdev, LOUD, 1)),
    ("ffi0", math.inf, lambda: quietly(stability_curve, LOUD, [1, 2], Variant.FFI0)),
    ("ffi2", math.inf, lambda: quietly(stability_curve, LOUD, [1, 2], Variant.TDEV)),
    ("ffi1", math.inf, lambda: quietly(stability_curve, LOUD, [1, 3], Variant.FFI1)),
    ("ffi2", math.inf, lambda: quietly(stability_curve, LOUD, [1, 3], Variant.FFI2)),
]


def test_float_range_rule_raises_with_one_message_and_returns_what_it_accepts():
    for value in NON_FINITE:
        with pytest.raises(OverflowError) as info:
            _in_float_range("result", value)
        assert str(info.value) == f"result left the float range: {value}"
    for value in (-1e308, -TINY, 0.0, -0.0, 1e308, np.float64(2.0)):
        assert _in_float_range("result", value) is value


@pytest.mark.parametrize("name,value,call", RESULTS, ids=[f"{i}-{row[0]}" for i, row in enumerate(RESULTS)])
def test_result_is_checked_by_the_float_range_rule(name, value, call):
    with pytest.raises(OverflowError) as info:
        call()
    assert str(info.value) == f"{name} left the float range: {value}"


def test_only_errors_raises_overflow_error():
    package = Path(__file__).resolve().parent.parent / "src" / "combsync"
    raising = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "OverflowError":
                    raising.append(f"{path.name}:{node.lineno}")
    assert raising == [], f"raise OverflowError outside errors.py (use errors._in_float_range): {raising}"


def test_only_errors_names_numbers_or_integral():
    package = Path(__file__).resolve().parent.parent / "src" / "combsync"
    naming = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = [alias.name for alias in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            if (isinstance(node, ast.ImportFrom) and node.module == "numbers" or "numbers" in imported
                    or "Integral" in imported or isinstance(node, ast.Name) and node.id == "Integral"
                    or isinstance(node, ast.Attribute) and node.attr == "Integral"):
                naming.append(f"{path.name}:{node.lineno}")
    assert naming == [], f"numbers or Integral outside errors.py (use errors._count): {naming}"
