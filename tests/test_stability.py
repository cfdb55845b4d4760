import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

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

    def test_skip_with_warning_policy(self):
        series = random_series(3, length=10)
        curve = stability_curve(series, [1, 2, 8], Variant.FFI2)
        assert [p.m for p in curve.points] == [1, 2]
        assert len(curve.warnings) == 1 and "m=8" in curve.warnings[0]

    def test_curve_validation(self):
        p1 = StabilityPoint(tau=1.0, value=1.0, m=1, variant=Variant.FFI1)
        p2 = StabilityPoint(tau=2.0, value=1.0, m=2, variant=Variant.FFI2)
        with pytest.raises(InvalidArgument):
            StabilityCurve(points=(p1, p2))
        with pytest.raises(InvalidArgument):
            StabilityCurve(points=(p1, p1))
        earlier = StabilityPoint(tau=0.5, value=1.0, m=2, variant=Variant.FFI1)
        with pytest.raises(InvalidArgument, match=r"^curve points must be strictly increasing in tau$"):
            StabilityCurve(points=(p1, earlier))

    def test_point_stores_m_as_int(self):
        point = StabilityPoint(tau=4.0, value=1.0, m=np.int64(4), variant=Variant.FFI1)
        assert type(point.m) is int and point.m == 4


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
