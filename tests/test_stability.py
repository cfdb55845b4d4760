import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from combsync import stability
from combsync.errors import DegenerateInput, InsufficientData, InvalidArgument
from combsync.noisegen import NoiseKind, NoiseSpec, generate_noise
from combsync.series import TimeSeriesX, TimeSeriesY
from combsync.stability import (
    StabilityCurve,
    StabilityPoint,
    Variant,
    classify_noise,
    ffi0,
    ffi1,
    ffi2,
    fit_slope,
    octave_m_values,
    stability_curve,
    tdev,
    tdev_from_ffi2,
    y_from_x,
)

import oracles

finite_samples = hnp.arrays(
    np.float64,
    st.integers(8, 40),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=64),
)


def m_lists(m):
    """Lists of averaging factors drawn from m, each an int or a numpy int, duplicates allowed."""
    return st.lists(st.one_of(m, m.map(np.int64)), min_size=1, max_size=12)


def random_series(seed, length=32, tau0=1.0):
    rng = np.random.default_rng(seed)
    return TimeSeriesY(tau0, rng.normal(0.0, 1.0, length))


def brute_ffi0(samples, m):
    """The literal two-sample deviation of the means of adjacent m-sample blocks."""
    blocks = [sum(samples[i * m:(i + 1) * m].tolist()) / m for i in range(samples.size // m)]
    return oracles.brute_ffi0_y(np.array(blocks))


class TestConversions:
    def test_constant_x_gives_zero_y(self):
        y = y_from_x(TimeSeriesX(0.5, np.full(10, 3.7)))
        assert not y.samples.any()

    def test_unit_ramp(self):
        tau0 = 0.25
        y = y_from_x(TimeSeriesX(tau0, [0.0, tau0, 2 * tau0]))
        assert y.samples.tolist() == [1.0, 1.0]

    def test_linear_x_gives_constant_rate(self):
        c, tau0 = 3.25e-9, 2.0
        x = TimeSeriesX(tau0, c * np.arange(12) * tau0)
        assert y_from_x(x).samples == pytest.approx(np.full(11, c), rel=1e-12, abs=0.0)

    def test_samples_must_be_one_dimensional(self):
        with pytest.raises(InvalidArgument, match=r"^samples must be one-dimensional, got shape \(1, 2\)$"):
            TimeSeriesY(1.0, [[0.0, 1.0]])

    def test_y_from_x_rejects_single_sample(self):
        with pytest.raises(InvalidArgument):
            y_from_x(TimeSeriesX(1.0, [0.0]))

    def test_y_from_x_rejects_a_frequency_series(self):
        with pytest.raises(InvalidArgument, match=r"^y_from_x needs a TimeSeriesX, got TimeSeriesY$"):
            y_from_x(TimeSeriesY(1.0, np.zeros(8)))

    def test_x_from_y_zeroes(self):
        assert oracles.x_from_y(np.zeros(5), 1.0).tolist() == [0.0] * 6

    def test_x_from_y_unit_case(self):
        assert oracles.x_from_y(np.array([1.0, 1.0]), 1.0).tolist() == [0.0, 1.0, 2.0]

    @given(finite_samples)
    def test_round_trip_recovers_series(self, samples):
        x = oracles.x_from_y(samples, 0.5)
        back = y_from_x(TimeSeriesX(0.5, x))
        scale = max(1.0, np.abs(samples).max())
        np.testing.assert_allclose(back.samples, samples, rtol=1e-12, atol=1e-12 * scale)
        assert back.tau0 == 0.5
        assert x.size == samples.size + 1


class TestPhaseSeriesRejected:
    """Every estimator reads fractional frequency; a phase path, such as a sampled clock's, is refused."""

    PHASE = TimeSeriesX(1.0, np.cumsum(np.random.default_rng(2).normal(0.0, 1e-9, 64)))

    @pytest.mark.parametrize("estimator", [ffi0, ffi1, ffi2, tdev], ids=lambda estimator: estimator.__name__)
    def test_single_m_calls(self, estimator):
        m = () if estimator is ffi0 else (4,)
        with pytest.raises(InvalidArgument, match=rf"^{estimator.__name__} needs a TimeSeriesY, got TimeSeriesX$"):
            estimator(self.PHASE, *m)

    @pytest.mark.parametrize("m_values", [[], [1, 2, 4], [1, 3]], ids=["no-m", "swept", "per-m"])
    def test_curves(self, m_values):
        with pytest.raises(InvalidArgument, match=r"^stability_curve needs a TimeSeriesY, got TimeSeriesX$"):
            stability_curve(self.PHASE, m_values, Variant.FFI2)


class TestFfi0:
    def test_constant_series_is_zero(self):
        assert ffi0(TimeSeriesY(1.0, np.full(16, 0.3))) == 0.0

    def test_alternating_hand_value(self):
        # Sum of squared adjacent differences is 3 * (+-2)^2 = 12; /(2*3) = 2
        assert ffi0(TimeSeriesY(1.0, [1.0, -1.0, 1.0, -1.0])) == pytest.approx(math.sqrt(2.0))

    def test_linear_ramp(self):
        c = 0.7
        series = TimeSeriesY(1.0, c * np.arange(20))
        assert ffi0(series) == pytest.approx(abs(c) / math.sqrt(2.0), rel=1e-12, abs=0.0)

    def test_rejects_single_sample(self):
        with pytest.raises(InsufficientData):
            ffi0(TimeSeriesY(1.0, [1.0]))


class TestFfi1:
    def test_m1_equals_ffi0_bitwise(self):
        series = random_series(5)
        assert ffi1(series, 1) == ffi0(series)

    def test_constant_series_zero(self):
        assert ffi1(TimeSeriesY(1.0, np.full(32, 1.5)), 5) == 0.0

    def test_matches_brute_force_double_sum(self):
        series = random_series(16, length=16)
        assert ffi1(series, 3) == pytest.approx(oracles.brute_ffi1_y(series.samples, 3), rel=1e-13, abs=0.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            ffi1(random_series(1, length=9), 5)

    def test_single_outer_term_boundary(self):
        # M = 2m leaves exactly one outer term
        series = TimeSeriesY(1.0, [0.5, -0.25, 1.0, 2.0])
        assert ffi1(series, 2) == pytest.approx(oracles.brute_ffi1_y(series.samples, 2), rel=1e-13, abs=0.0)
        with pytest.raises(InsufficientData):
            ffi1(TimeSeriesY(1.0, [1.0, 2.0, 3.0]), 2)

    def test_accepts_integer_valued_m(self):
        series = random_series(2)
        assert ffi1(series, np.int64(3)) == ffi1(series, 3)


class TestFfi2:
    def test_m1_equals_ffi0_bitwise(self):
        series = random_series(6)
        assert ffi2(series, 1) == ffi0(series)

    def test_constant_series_zero(self):
        assert ffi2(TimeSeriesY(1.0, np.full(32, -2.5)), 3) == 0.0

    def test_matches_brute_force_triple_sum(self):
        series = random_series(20, length=20)
        assert ffi2(series, 2) == pytest.approx(oracles.brute_ffi2_y(series.samples, 2), rel=1e-13, abs=0.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            ffi2(random_series(2, length=10), 4)


class TestTdev:
    def test_eq_10_spot_values(self):
        # Terrestrial-experiment sanity: 1e-18 at tau = 1e3 s and 1e2 s
        assert tdev_from_ffi2(1e-18, 1e3) == pytest.approx(5.8e-16, rel=0.01, abs=0.0)
        assert tdev_from_ffi2(1e-18, 1e2) == pytest.approx(5.8e-17, rel=0.01, abs=0.0)

    def test_constant_series_zero(self):
        assert tdev(TimeSeriesY(1.0, np.full(16, 4.2)), 2) == 0.0

    def test_consistency_with_ffi2(self):
        series = random_series(9, length=40, tau0=0.5)
        m = 3
        assert tdev(series, m) == m * series.tau0 / math.sqrt(3.0) * ffi2(series, m)


class TestInvariants:
    @given(finite_samples, st.integers(1, 5))
    def test_scale_equivariance(self, samples, m):
        series = TimeSeriesY(1.0, samples)
        if len(samples) < 3 * m - 1 + 1:
            return
        c = -3.7
        scaled = TimeSeriesY(1.0, c * samples)
        # scaling before differencing rounds each product, so allow an
        # absolute floor at the eps * |c| * max|y| rounding scale
        floor = 1e-12 * abs(c) * (1.0 + np.abs(samples).max())
        for fn in (ffi1, ffi2):
            base = fn(series, m)
            assert fn(scaled, m) == pytest.approx(abs(c) * base, rel=1e-10, abs=floor)

    @given(finite_samples, st.floats(-10, 10), st.integers(1, 4))
    def test_offset_invariance(self, samples, offset, m):
        series = TimeSeriesY(1.0, samples)
        if len(samples) < 3 * m + 2:
            return
        shifted = TimeSeriesY(1.0, samples + offset)
        scale = max(1.0, np.abs(samples).max() + abs(offset))
        for fn in (ffi1, ffi2):
            assert fn(shifted, m) == pytest.approx(fn(series, m), rel=1e-9, abs=1e-12 * scale)

    @given(finite_samples, st.integers(1, 4))
    def test_time_reversal_invariance_ffi0_ffi1(self, samples, m):
        series = TimeSeriesY(1.0, samples)
        reverse = TimeSeriesY(1.0, samples[::-1].copy())
        assert ffi0(reverse) == pytest.approx(ffi0(series), rel=1e-12, abs=1e-300)
        if len(samples) >= 2 * m + 1:
            assert ffi1(reverse, m) == pytest.approx(ffi1(series, m), rel=1e-12, abs=1e-300)

    def test_dual_form_agreement(self):
        # y-form and x-form of every estimator agree on series built via x_from_y
        for seed in range(10):
            series = random_series(seed, length=24, tau0=0.75)
            x = oracles.x_from_y(series.samples, series.tau0)
            assert ffi0(series) == pytest.approx(
                oracles.brute_ffi0_x(x, series.tau0), rel=1e-12, abs=0.0
            )
            for m in (1, 2, 3):
                assert ffi1(series, m) == pytest.approx(
                    oracles.brute_ffi1_x(x, m, series.tau0), rel=1e-12, abs=0.0
                )
                assert ffi2(series, m) == pytest.approx(
                    oracles.brute_ffi2_x(x, m, series.tau0), rel=1e-12, abs=0.0
                )


class TestStabilityCurve:
    def test_white_fm_octave_curve_slope(self):
        series = generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 1e-22, seed=30), 2**15, 1.0)
        curve = stability_curve(series, octave_m_values(len(series)), Variant.FFI1)
        assert fit_slope(curve, (2.0, 2**10)) == pytest.approx(-0.5, abs=0.1)

    def test_constant_series_gives_zero_curve(self):
        series = TimeSeriesY(1.0, np.full(64, 0.8))
        curve = stability_curve(series, [1, 2, 4], Variant.FFI2)
        assert all(p.value == 0.0 for p in curve.points)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_points_equal_single_m_calls(self, variant):
        series = random_series(31, length=64)
        lookup = {
            Variant.FFI1: lambda m: ffi1(series, m),
            Variant.FFI2: lambda m: ffi2(series, m),
            Variant.TDEV: lambda m: tdev(series, m),
        }.get(variant)
        scale = 1.0 + np.abs(series.samples).max()
        for m_values in ([1, 2, 4, 8], [1, 2, 3, 8]):
            curve = stability_curve(series, m_values, variant)
            # Octave curves are swept, which rounds differently from the
            # single-m window sums; every other curve calls them.
            swept = m_values == [1, 2, 4, 8]
            assert [p.m for p in curve.points] == m_values
            for p in curve.points:
                if lookup is None:  # FFI0 has no single-m call: compare with the literal block form
                    assert p.value == pytest.approx(brute_ffi0(series.samples, p.m), rel=1e-12, abs=1e-12 * scale)
                elif swept:
                    assert p.value == pytest.approx(lookup(p.m), rel=1e-13, abs=0.0)
                else:
                    assert p.value == lookup(p.m)
                assert p.tau == p.m * series.tau0

    @pytest.mark.parametrize("m_values", [[1, 2], [1, 3]])
    def test_rejects_a_variant_that_is_not_a_variant(self, m_values):
        with pytest.raises(InvalidArgument, match="unknown variant 'ffi1'"):
            stability_curve(random_series(4), m_values, "ffi1")

    @pytest.mark.parametrize("variant", list(Variant))
    def test_tau_past_the_float_range_raises(self, variant):
        # m = 1 fits; tau at m = 2 is inf, which TDEV would multiply by the zero deviation.
        with pytest.raises(OverflowError):
            stability_curve(TimeSeriesY(1.0e308, np.zeros(64)), [1, 2], variant)

    @pytest.mark.parametrize("variant", [Variant.FFI1, Variant.FFI2, Variant.TDEV])
    def test_sweep_skips_like_single_m_calls(self, variant):
        # 21 samples: ffi1 stops after m = 8 and ffi2 after m = 4 (it needs 3m - 1).
        series = random_series(7, length=21)
        m_values = [1, 2, 4, 8, 16, 32]
        single = {Variant.FFI1: ffi1, Variant.FFI2: ffi2, Variant.TDEV: tdev}[variant]
        kept, warnings = [], []
        for m in m_values:
            try:
                single(series, m)
            except InsufficientData as exc:
                warnings.append(f"m={m}: {exc}")
            else:
                kept.append(m)
        curve = stability_curve(series, m_values, variant)
        assert warnings and [p.m for p in curve.points] == kept
        assert curve.warnings == tuple(warnings)
        # Adding m = 3 sends the same set down the per-m path.
        mixed = stability_curve(series, [*m_values, 3], variant)
        assert [p.m for p in mixed.points] == sorted([*kept, 3])
        assert mixed.warnings == curve.warnings

    @given(
        st.integers(2, 5000),
        st.integers(0, 2**32 - 1),
        st.sets(st.sampled_from([2**j for j in range(13)]), min_size=1),
        st.sampled_from(list(Variant)),
    )
    @example(5000, 0, {2**j for j in range(13)}, Variant.FFI2)
    @example(5000, 0, {2**j for j in range(13)}, Variant.FFI0)
    @example(2, 0, {1, 2}, Variant.FFI1)
    def test_sweep_equals_the_allocating_reference(self, length, seed, m_values, variant):
        series = random_series(seed, length, tau0=0.25)
        curve = stability_curve(series, m_values, variant)
        reference = oracles.octave_sweep_reference(series.samples, series.tau0, m_values, variant.value)
        assert {p.m: p.value for p in curve.points} == reference  # bit for bit
        assert [int(w.split(":")[0][2:]) for w in curve.warnings] == sorted(set(m_values) - set(reference))

    @given(
        finite_samples,
        st.one_of(st.sets(st.sampled_from([1, 2, 4, 8, 16]), min_size=1),
                  st.sets(st.integers(1, 14), min_size=1)),
        st.sampled_from(list(Variant)),
    )
    def test_matches_brute_oracles(self, samples, m_values, variant):
        series = TimeSeriesY(0.5, samples)
        curve = stability_curve(series, m_values, variant)
        scale = 1.0 + np.abs(samples).max()
        for p in curve.points:
            m = p.m
            if variant is Variant.FFI0:
                brute = brute_ffi0(samples, m)
            elif variant is Variant.FFI1:
                brute = oracles.brute_ffi1_y(samples, m)
            else:
                brute = oracles.brute_ffi2_y(samples, m)
                if variant is Variant.TDEV:
                    brute *= m * series.tau0 / math.sqrt(3.0)
            assert p.value == pytest.approx(brute, rel=1e-12, abs=1e-12 * scale)
        skipped = sorted(set(m_values) - {p.m for p in curve.points})
        assert [int(w.split(":")[0][2:]) for w in curve.warnings] == skipped

    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_skipped_m_that_is_not_a_power_of_two_keeps_the_per_m_path(self, variant):
        # The sweep rounds differently on this series, so only the per-m path gives these bits.
        series = random_series(1, length=64)
        curve = stability_curve(series, [1, 2, 4, 8, 5000], variant)
        per_m = [stability._windowed(series, m, variant) for m in (1, 2, 4, 8)]
        assert [p.value for p in curve.points] == per_m
        assert [p.value for p in stability_curve(series, [1, 2, 4, 8], variant).points] != per_m
        name, need = ("ffi2", 14999) if variant in stability._DOUBLE else (variant.value, 10000)
        assert curve.warnings == (f"m=5000: {name} with m=5000 needs at least {need} samples, got 64",)

    def test_skip_with_warning_policy(self):
        series = random_series(3, length=10)
        curve = stability_curve(series, [1, 2, 8], Variant.FFI2)
        assert [p.m for p in curve.points] == [1, 2]
        assert len(curve.warnings) == 1 and "m=8" in curve.warnings[0]

    @given(
        st.integers(2, 64),
        st.integers(0, 2**32 - 1),
        st.one_of(m_lists(st.sampled_from([2**j for j in range(7)] + [2**52])), m_lists(st.integers(1, 40))),
        st.sampled_from(list(Variant)),
    )
    @example(64, 0, [1, 2, 4, 4, np.int64(8), 2**52], Variant.TDEV)
    @example(64, 0, [1, 3, 3, np.int64(5), 40], Variant.FFI0)
    def test_makes_points_that_hold_every_record_rule(self, length, seed, m_values, variant):
        # The records check nothing themselves: this is what stability_curve guarantees them.
        series = random_series(seed, length, tau0=0.25)
        curve = stability_curve(series, m_values, variant)
        ms = [p.m for p in curve.points]
        taus = [p.tau for p in curve.points]
        assert all(p.variant is variant for p in curve.points)
        assert all(type(m) is int for m in ms) and all(a < b for a, b in zip(ms, ms[1:]))
        assert all(type(tau) is float for tau in taus) and all(a < b for a, b in zip(taus, taus[1:]))
        assert all(type(p.value) is float and 0.0 <= p.value < math.inf for p in curve.points)
        skipped = sorted({int(m) for m in m_values} - set(ms))
        assert [w.split(":")[0] for w in curve.warnings] == [f"m={m}" for m in skipped]


class TestOctaveSweepAccuracy:
    """The octave sweep against exact integer sums, at 2^14 samples of each noise kind.

    Over every octave m > 1 with at least 64 terms, the sweep's worst
    relative error is no worse than the single-m window form's (or 2 eps,
    where both are at the rounding floor), and strictly better on the FM
    kinds, whose window form subtracts long running sums.  The first bound
    also holds on white FM with a mean of 1e3 and 1e6 standard deviations,
    which the window form differences away first.  FFI0 stays within 4
    eps on both paths.
    """

    @staticmethod
    def worst_errors(series, variant):
        single, exact, terms = {
            Variant.FFI1: (ffi1, oracles.exact_ffi1, lambda m: len(series) - 2 * m + 1),
            Variant.FFI2: (ffi2, oracles.exact_ffi2, lambda m: len(series) - 3 * m + 2),
        }[variant]
        m_values = [m for m in octave_m_values(len(series), variant) if m > 1 and terms(m) >= 64]
        curve = stability_curve(series, m_values, variant)
        assert [p.m for p in curve.points] == m_values
        window = swept = 0.0
        for p in curve.points:
            ref = exact(series.samples, p.m)
            window = max(window, float(abs(Fraction(single(series, p.m)) - ref) / ref))
            swept = max(swept, float(abs(Fraction(p.value) - ref) / ref))
        return window, swept

    @pytest.mark.parametrize("kind,mean", [*((kind, 0.0) for kind in NoiseKind),
                                           (NoiseKind.WHITE_FM, 1e3), (NoiseKind.WHITE_FM, 1e6)],
                             ids=[*(kind.value for kind in NoiseKind), "white_fm-mean-1e3-sigma",
                                  "white_fm-mean-1e6-sigma"])
    def test_sweep_is_at_least_as_accurate(self, kind, mean):
        samples = generate_noise(NoiseSpec(kind, 1e-22, seed=0), 2**14, 1.0).samples
        series = TimeSeriesY(1.0, samples + mean * samples.std())
        eps = np.finfo(float).eps
        for variant in (Variant.FFI1, Variant.FFI2):
            window, swept = self.worst_errors(series, variant)
            assert swept <= max(window, 2 * eps), (variant, window, swept)
            if mean == 0.0 and kind in (NoiseKind.WHITE_FM, NoiseKind.FLICKER_FM, NoiseKind.RANDOM_WALK_FM):
                assert swept < window, (variant, window, swept)

    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda kind: kind.value)
    def test_ffi0_within_4_eps(self, kind):
        # Both paths: the octave m are swept, the others read per-m cumulative windows.
        series = generate_noise(NoiseSpec(kind, 1e-22, seed=0), 2**14, 1.0)
        eps = np.finfo(float).eps
        for m_values in (octave_m_values(len(series), Variant.FFI0), [3, 5, 10, 30, 100, 200]):
            m_values = [m for m in m_values if m > 1 and len(series) // m - 1 >= 64]
            curve = stability_curve(series, m_values, Variant.FFI0)
            assert [p.m for p in curve.points] == m_values
            for p in curve.points:
                ref = oracles.exact_ffi0(series.samples, p.m)
                assert float(abs(Fraction(p.value) - ref) / ref) <= 4 * eps, (m_values, p.m)


class TestPairedSweep:
    """Long octave curves split each octave's array passes between this thread and a helper.

    Every test forces two CPUs (or one) through ``os.sched_getaffinity``,
    or through ``os.cpu_count`` where that is missing, and counts the
    helpers made; the stress test gives each join a timeout.
    """

    SPLIT = stability._SPLIT_FROM

    @staticmethod
    def cpus(mp, count):
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    @staticmethod
    def count_helpers(mp):
        made = []

        class Counted(stability._Helper):
            def __init__(self):
                super().__init__()
                made.append(self)

        mp.setattr(stability, "_Helper", Counted)
        return made

    @classmethod
    def serial(cls, series, m_values, variant):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "_SPLIT_FROM", math.inf)
            made = cls.count_helpers(mp)
            curve = stability_curve(series, m_values, variant)
        assert made == []
        return curve

    @given(
        st.sampled_from([8, SPLIT]).flatmap(lambda split: st.tuples(st.just(split), st.integers(split // 2, 2 * split))),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e3, -1e3]),
        st.sets(st.sampled_from([2**j for j in range(20)]), min_size=1),
        st.sampled_from(list(Variant)),
    )
    @settings(max_examples=30)
    @example((SPLIT, SPLIT), 0, 0.0, {2**j for j in range(20)}, Variant.FFI2)
    @example((SPLIT, SPLIT - 1), 0, 0.0, {2**j for j in range(20)}, Variant.FFI1)
    @example((8, 8), 0, 0.0, {1, 2, 4}, Variant.FFI0)
    def test_paired_equals_serial_bit_for_bit(self, split_and_length, seed, mean, m_values, variant):
        # The real threshold and a lowered one, on series either side of it; a mean of +-1e3 sigma is swept
        # shifted, and an m of 2**18 or 2**19 is too long for every series here and skipped.  A curve
        # with no m that fits makes no helper.
        split, length = split_and_length
        series = TimeSeriesY(0.25, np.random.default_rng(seed).normal(mean, 1.0, length))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "_SPLIT_FROM", split)
            self.cpus(mp, 2)
            made = self.count_helpers(mp)
            paired = stability_curve(series, m_values, variant)
        assert len(made) == (length >= split and len(paired.points) > 0)
        assert repr(paired) == repr(self.serial(series, m_values, variant))  # repr keeps every bit, -0.0 too

    def test_many_curves_at_once_each_equal_serial(self, monkeypatch):
        # More curve threads than cores, each with its own helper, switching as often as the interpreter allows.
        monkeypatch.setattr(stability, "_SPLIT_FROM", 256)
        self.cpus(monkeypatch, 2)
        variants = list(Variant)
        jobs = [(TimeSeriesY(1.0, np.random.default_rng(i).normal(0.0, 1.0, 4096 + 37 * i)), variants[i % 4])
                for i in range(2 * (os.cpu_count() or 1) + 2)]
        m_values = [2**j for j in range(12)]
        expected = [self.serial(series, m_values, variant) for series, variant in jobs]
        results = [None] * len(jobs)

        def run(i):
            series, variant = jobs[i]
            results[i] = [stability_curve(series, m_values, variant) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert got is not None and all(repr(curve) == repr(want) for curve in got)

    def test_overflow_in_the_helpers_half_raises_here(self, monkeypatch):
        # Only the upper half of the series is loud, so only the helper's squares overflow.
        self.cpus(monkeypatch, 2)
        made = self.count_helpers(monkeypatch)
        half = self.SPLIT // 2
        series = TimeSeriesY(1.0, np.concatenate([np.zeros(half), np.tile([1e200, -1e200], half // 2)]))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            stability_curve(series, [1, 2], Variant.FFI1)
        assert len(made) == 1

    @pytest.mark.parametrize("tau0,error", [(5e307, "tau left the float range"), (1.0, "overflow encountered")])
    def test_a_step_taken_early_raises_where_the_serial_sweep_steps(self, monkeypatch, tau0, error):
        # Every Y_2 is 9e307, so the readout at m = 2 reads zeros, while the step to m = 4, taken with that
        # readout, overflows.  With tau0 = 5e307 the tau at m = 4 leaves the float range before any work.
        monkeypatch.setattr(stability, "_SPLIT_FROM", 8)
        self.cpus(monkeypatch, 2)
        made = self.count_helpers(monkeypatch)
        y = np.empty(64)
        y[0::2], y[1::2] = np.arange(32.0), 9e307
        for variant in (Variant.FFI0, Variant.FFI1):
            for sweep in (stability_curve, self.serial):
                with np.errstate(over="raise"), pytest.raises(ArithmeticError, match=error):
                    sweep(TimeSeriesY(tau0, y), [2, 4], variant)
        assert len(made) == (0 if tau0 > 1.0 else 2)

    @pytest.mark.parametrize("loud", [False, True], ids=["returned", "raised"])
    def test_no_thread_outlives_a_curve(self, monkeypatch, loud):
        self.cpus(monkeypatch, 2)
        made = self.count_helpers(monkeypatch)
        samples = np.tile([1e200, -1e200], self.SPLIT // 2) if loud else np.ones(self.SPLIT)
        before = threading.active_count()
        for variant in Variant:
            try:
                with np.errstate(over="raise"):
                    stability_curve(TimeSeriesY(1.0, samples), [1, 2, 4], variant)
            except FloatingPointError:
                assert loud
            else:
                assert not loud
            assert threading.active_count() == before
        assert len(made) == len(Variant) and not any(helper._thread.is_alive() for helper in made)

    @pytest.mark.parametrize("mean", [0.0, 1e3, -1e3], ids=["carried-in-place", "shifted", "shifted-negative"])
    def test_a_paired_curve_allocates_two_arrays_of_the_series_length(self, monkeypatch, mean):
        # The readouts write their squares into the spare work array, as the serial sweep does.
        monkeypatch.setattr(stability, "_SPLIT_FROM", 8)
        self.cpus(monkeypatch, 2)
        made = self.count_helpers(monkeypatch)
        size = 2**16
        series = TimeSeriesY(1.0, np.random.default_rng(7).normal(mean, 1.0, size))
        for variant in (Variant.FFI1, Variant.FFI2):
            tracemalloc.start()
            try:
                stability_curve(series, octave_m_values(size, variant), variant)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.2 * series.samples.nbytes
        assert len(made) == 2

    @pytest.mark.parametrize("count,helpers", [(None, 0), (1, 0), (2, 1)])
    def test_without_an_affinity_call_the_machines_cpus_count(self, monkeypatch, count, helpers):
        # os.sched_getaffinity is missing on macOS and Windows.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setattr(stability, "_SPLIT_FROM", 8)
        made = self.count_helpers(monkeypatch)
        series = random_series(5, length=64)
        curve = stability_curve(series, [1, 2, 4], Variant.FFI1)
        assert len(made) == helpers
        assert repr(curve) == repr(self.serial(series, [1, 2, 4], Variant.FFI1))

    @pytest.mark.parametrize("m_values", [[], [2**20, 2**21]], ids=["no-m", "every-m-too-long"])
    def test_a_curve_with_no_m_that_fits_allocates_no_work_array(self, monkeypatch, m_values):
        self.cpus(monkeypatch, 2)
        made = self.count_helpers(monkeypatch)
        size = 2**20
        series = TimeSeriesY(1.0, np.random.default_rng(3).normal(0.0, 1.0, size))
        for variant in Variant:
            tracemalloc.start()
            try:
                curve = stability_curve(series, m_values, variant)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < series.samples.nbytes
            double = variant in stability._DOUBLE
            name = "ffi2" if double else variant.value
            assert curve == StabilityCurve(points=(), warnings=tuple(
                f"m={m}: {name} with m={m} needs at least {3 * m - 1 if double else 2 * m} samples, got {size}"
                for m in m_values))
        assert made == []

    def test_a_tau_past_the_float_range_raises_before_any_work(self, monkeypatch):
        # m = 1 and 2 fit and their taus are finite, but the tau at m = 4 is 2e308.
        self.cpus(monkeypatch, 2)
        made = self.count_helpers(monkeypatch)
        series = TimeSeriesY(5e307, np.random.default_rng(3).normal(0.0, 1.0, 2**20))
        for variant in Variant:
            tracemalloc.start()
            try:
                with pytest.raises(OverflowError, match=r"^tau left the float range: inf$"):
                    stability_curve(series, [1, 2, 4], variant)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < series.samples.nbytes
        assert made == []

    def test_one_cpu_stays_serial(self, monkeypatch):
        self.cpus(monkeypatch, 1)
        made = self.count_helpers(monkeypatch)
        series = random_series(5, length=self.SPLIT)
        curve = stability_curve(series, [1, 2, 4, 8], Variant.FFI2)
        assert made == [] and repr(curve) == repr(self.serial(series, [1, 2, 4, 8], Variant.FFI2))


class TestFitSlope:
    def test_exact_power_law(self):
        points = tuple(
            StabilityPoint(tau=float(m), value=1.0 / m, m=m, variant=Variant.FFI1)
            for m in (1, 2, 4, 8, 16)
        )
        assert fit_slope(StabilityCurve(points=points)) == pytest.approx(-1.0, abs=1e-12)

    def test_white_pm_ffi2_minus_three_halves(self):
        slopes = []
        for seed in range(4):
            series = generate_noise(NoiseSpec(NoiseKind.WHITE_PM, 1e-24, seed=seed), 2**16, 1.0)
            curve = stability_curve(series, [2**k for k in range(12)], Variant.FFI2)
            slopes.append(fit_slope(curve, (4.0, 2**10)))
        assert np.mean(slopes) == pytest.approx(-1.5, abs=0.15)

    def test_white_pm_ffi1_minus_one(self):
        slopes = []
        for seed in range(4):
            series = generate_noise(NoiseSpec(NoiseKind.WHITE_PM, 1e-24, seed=seed), 2**16, 1.0)
            curve = stability_curve(series, [2**k for k in range(12)], Variant.FFI1)
            slopes.append(fit_slope(curve, (4.0, 2**10)))
        assert np.mean(slopes) == pytest.approx(-1.0, abs=0.15)

    def test_too_few_points(self):
        points = tuple(
            StabilityPoint(tau=float(m), value=1.0, m=m, variant=Variant.FFI1) for m in (1, 2)
        )
        with pytest.raises(InsufficientData):
            fit_slope(StabilityCurve(points=points))

    def test_zero_values_degenerate(self):
        points = tuple(
            StabilityPoint(tau=float(m), value=0.0, m=m, variant=Variant.FFI1) for m in (1, 2, 4)
        )
        with pytest.raises(DegenerateInput):
            fit_slope(StabilityCurve(points=points))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["tau", "value"])
    def test_rejects_a_point_whose_tau_or_value_is_not_finite_and_positive(self, field, bad):
        # A hand-built curve is not checked until fit_slope reads it.
        points = [StabilityPoint(tau=float(m), value=1.0 / m, m=m, variant=Variant.FFI1) for m in (1, 2, 4)]
        points[1] = dataclasses.replace(points[1], **{field: bad})
        with pytest.raises(DegenerateInput) as info:
            fit_slope(StabilityCurve(points=tuple(points)))
        assert str(info.value) == "fit_slope requires finite, strictly positive taus and stability values"


class TestClassifyNoise:
    def test_white_pm_under_ffi2(self):
        assert classify_noise(-1.5, Variant.FFI2) == {NoiseKind.WHITE_PM}

    def test_ambiguous_pair_under_ffi1(self):
        assert classify_noise(-1.0, Variant.FFI1) == {NoiseKind.WHITE_PM, NoiseKind.FLICKER_PM}

    def test_ffi0_shares_the_ffi1_table(self):
        assert classify_noise(-0.5, Variant.FFI0) == {NoiseKind.WHITE_FM}
        assert classify_noise(-1.0, Variant.FFI0) == classify_noise(-1.0, Variant.FFI1)

    def test_random_walk_under_ffi2(self):
        assert classify_noise(0.5, Variant.FFI2) == {NoiseKind.RANDOM_WALK_FM}

    def test_no_match_returns_empty_set(self):
        assert classify_noise(3.0, Variant.FFI2) == set()

    def test_rejects_tdev_variant(self):
        with pytest.raises(InvalidArgument):
            classify_noise(-1.0, Variant.TDEV)
