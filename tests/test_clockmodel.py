import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from combsync.clockmodel import (
    ClockModel,
    CombParams,
    comb_time_params,
    ramp_phase,
    sample_clock,
)
from combsync.errors import InvalidArgument
from combsync.noisegen import NoiseKind, NoiseSpec, generate_noise
from combsync.seeding import derive_seed
from combsync.stability import Variant, fit_slope, stability_curve, tdev, y_from_x


def quiet_clock(**kwargs):
    return ClockModel(nu0=1.94e14, **kwargs)


def comb_100mhz(f_0=20e6):
    return CombParams(f_r=100e6, f_0=f_0, t_0=1e-13, n_range=(1, 3_000_000))


class TestSampleClock:
    def test_noiseless_quiet_clock_is_zero(self):
        x = sample_clock(quiet_clock(), 16, 1.0, seed=3)
        assert not x.samples.any()

    def test_constant_offset_ramp(self):
        x = sample_clock(quiet_clock(frac_freq_offset=1e-9), 4, 1.0)
        assert x.samples == pytest.approx([0.0, 1e-9, 2e-9, 3e-9], rel=1e-15, abs=0.0)

    def test_pure_drift_is_quadratic(self):
        d, tau0 = 2.5e-12, 0.5
        x = sample_clock(quiet_clock(drift=d), 64, tau0)
        k = np.arange(64)
        assert x.samples == pytest.approx(0.5 * d * (k * tau0) ** 2, rel=1e-14, abs=1e-30)

    def test_deterministic_per_seed(self):
        clock = quiet_clock(noise=(NoiseSpec(NoiseKind.WHITE_FM, 1e-24, seed=4),))
        a = sample_clock(clock, 256, 1.0, seed=9)
        b = sample_clock(clock, 256, 1.0, seed=9)
        c = sample_clock(clock, 256, 1.0, seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_offset_recovered_through_y_from_x(self):
        offset = 3.2e-10
        x = sample_clock(quiet_clock(frac_freq_offset=offset), 32, 2.0)
        y = y_from_x(x)
        assert y.samples == pytest.approx(np.full(31, offset), rel=1e-12, abs=0.0)

    def test_tdev_blind_to_constant_offset(self):
        offset = 5e-9
        x = sample_clock(quiet_clock(frac_freq_offset=offset), 128, 1.0)
        y = y_from_x(x)
        # Exact zero in exact arithmetic; allow rounding of the x ramp
        rounding = 100 * np.finfo(float).eps * np.abs(x.samples).max()
        for m in (1, 2, 8, 16):
            assert tdev(y, m) <= rounding

    def test_pure_drift_ffi0_slope_plus_one(self):
        x = sample_clock(quiet_clock(drift=1e-12), 2**12, 1.0)
        curve = stability_curve(y_from_x(x), [2**k for k in range(9)], Variant.FFI0)
        assert fit_slope(curve) == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_edge_seeds_accepted(self, seed):
        clock = quiet_clock(noise=(NoiseSpec(NoiseKind.WHITE_PM, 1e-20, seed=1),))
        x = sample_clock(clock, 8, 1e-8, seed=seed)
        assert len(x) == 8
        assert x.samples[1:].all()

    def test_zero_amplitude_source_matches_noiseless(self):
        noisy = quiet_clock(frac_freq_offset=1e-9, noise=(NoiseSpec(NoiseKind.WHITE_PM, 0.0, seed=2),))
        x = sample_clock(noisy, 100, 1e-8, seed=5)
        assert np.array_equal(x.samples, sample_clock(quiet_clock(frac_freq_offset=1e-9), 100, 1e-8).samples)

    def test_white_pm_jitter_moment(self):
        tau0, sigma_t = 1e-8, 1e-12
        # White PM amplitude whose phase-domain standard deviation is sigma_t
        amplitude = 2.0 * (2.0 * math.pi) ** 2 * tau0 * sigma_t**2
        clock = quiet_clock(noise=(NoiseSpec(NoiseKind.WHITE_PM, amplitude, seed=6),))
        x = sample_clock(clock, 10_000, tau0, seed=7)
        assert x.samples[0] == 0.0
        assert x.samples[1:].std(ddof=1) == pytest.approx(sigma_t, rel=0.1, abs=0.0)

    def test_identical_sources_draw_separate_streams(self):
        spec = NoiseSpec(NoiseKind.WHITE_FM, 1e-24, seed=4)
        one = sample_clock(quiet_clock(noise=(spec,)), 64, 1.0, seed=9).samples
        two = sample_clock(quiet_clock(noise=(spec, spec)), 64, 1.0, seed=9).samples
        assert not np.allclose(two, 2.0 * one, rtol=0.1, atol=0.0)


# Ramp coefficients: signed zeros, subnormals and values near 1e-9, besides
# Hypothesis draws from [-1e-8, 1e-8].
RAMP_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-9, -1e-9, 1.0000000000000002e-9]),
    st.floats(min_value=-1e-8, max_value=1e-8),
)


class TestRampPhase:
    @given(offset=RAMP_COEFFS, drift=RAMP_COEFFS, tau0=st.floats(min_value=1e-3, max_value=1e3))
    def test_float_matches_sampled_path(self, offset, drift, tau0):
        clock = quiet_clock(frac_freq_offset=offset, drift=drift)
        x = ramp_phase(clock, tau0)
        assert type(x) is float
        assert x.hex() == float(sample_clock(clock, 2, tau0).samples[1]).hex()


def array_formula(clock, count, tau0, seed):
    """The path the array formula gives: the ramp at every sample time plus each source's summed noise."""
    x = ramp_phase(clock, np.arange(count) * tau0)
    for i, spec in enumerate(clock.noise):
        derived = replace(spec, seed=derive_seed(seed, i, spec.seed))
        y = generate_noise(derived, max(2, count - 1), tau0).samples[: count - 1]
        x[1:] += np.cumsum(y) * tau0
    return x


class TestZeroRamp:
    """A clock with zero offset and drift samples the array formula's bytes, signed zeros included."""

    @pytest.mark.parametrize("offset", [0.0, -0.0])
    @pytest.mark.parametrize("drift", [0.0, -0.0])
    @pytest.mark.parametrize("count,tau0,noise", [
        (2, 1.0, ()),
        (2, 1.0, (NoiseSpec(NoiseKind.WHITE_FM, 1e-24, seed=4),)),
        (64, 0.5, ()),
        (64, 0.5, (NoiseSpec(NoiseKind.FLICKER_PM, 1e-24, seed=4), NoiseSpec(NoiseKind.WHITE_FM, 1e-24, seed=4))),
        (100, 1e306, ()),  # the last sample time is 9.9e307, just inside the float range
    ], ids=["2-quiet", "2-noisy", "64-quiet", "64-noisy", "100-wide"])
    def test_matches_the_array_formula(self, offset, drift, count, tau0, noise):
        clock = quiet_clock(frac_freq_offset=offset, drift=drift, noise=noise)
        x = sample_clock(clock, count, tau0, seed=9).samples
        assert x.dtype == np.float64
        assert x.tobytes() == array_formula(clock, count, tau0, 9).tobytes()

    @pytest.mark.parametrize("clock", [quiet_clock(), quiet_clock(frac_freq_offset=1.0),
                                       quiet_clock(drift=-0.0, noise=(NoiseSpec(NoiseKind.WHITE_PM, 1.0),))],
                             ids=["zero-ramp", "offset", "noisy"])
    @pytest.mark.parametrize("count_type", [int, np.int64])
    def test_span_past_the_float_range_raises(self, clock, count_type):
        with pytest.raises(OverflowError, match="ramp at the last sample left the float range: nan"):
            sample_clock(clock, count_type(3), 1e308)
        assert sample_clock(clock, count_type(2), 1e308).samples[0] == 0.0


class TestClockModelValidation:
    def test_noise_list_stored_as_tuple(self):
        spec = NoiseSpec(NoiseKind.FLICKER_FM, 1e-26, seed=3)
        clock = ClockModel(nu0=1e14, noise=[spec])
        assert clock.noise == (spec,)
        hash(clock)


class TestCombParams:
    def test_derived_quantities_not_stored(self):
        comb = comb_100mhz()
        assert not hasattr(comb, "t_r")
        t_r, dphi = comb_time_params(comb)
        assert t_r == 1.0 / comb.f_r
        assert dphi == 2.0 * math.pi * comb.f_0 / comb.f_r

    def test_rejects_offset_at_or_above_f_r(self):
        with pytest.raises(InvalidArgument):
            comb_100mhz(f_0=100e6)

    # Each bound passes the count rule (tests/test_errors.py's COUNTS); these are the pair rule's cases,
    # a value that is no sequence at all among them.
    @pytest.mark.parametrize("n_range", [(5, 4), (1, 2, 3), (1,), 5, None, 1.5])
    def test_rejects_bad_n_range(self, n_range):
        with pytest.raises(InvalidArgument) as info:
            CombParams(f_r=100e6, f_0=0.0, t_0=1e-13, n_range=n_range)
        assert str(info.value) == f"n_range must be a pair (lo, hi) with lo <= hi, got {n_range!r}"

    def test_n_range_normalized_to_ints(self):
        comb = CombParams(f_r=100e6, f_0=0.0, t_0=1e-13, n_range=[np.int64(2), 9])
        assert comb.n_range == (2, 9)
        assert all(type(n) is int for n in comb.n_range)

class TestCombTimeParams:
    def test_25_mhz_period_is_40_ns(self):
        comb = CombParams(f_r=25e6, f_0=0.0, t_0=3.5e-13, n_range=(1, 10**7))
        t_r, _ = comb_time_params(comb)
        assert t_r == pytest.approx(40e-9, rel=1e-15, abs=0.0)

    def test_zero_offset_zero_slip(self):
        assert comb_time_params(comb_100mhz(f_0=0.0))[1] == 0.0

    def test_quarter_rate_offset_gives_half_pi(self):
        assert comb_time_params(comb_100mhz(f_0=25e6))[1] == pytest.approx(math.pi / 2.0, rel=1e-15, abs=0.0)
