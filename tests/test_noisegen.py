import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from combsync import noisegen
from combsync.errors import InsufficientData, InvalidArgument
from combsync.noisegen import (
    NoiseKind,
    NoiseSpec,
    _flicker_work_set,
    _shaped_gaussian,
    fractional_filter_coeffs,
    generate_noise,
)
from combsync.series import TimeSeriesY
from combsync.stability import Variant, fit_slope, stability_curve

import oracles


class TestFractionalFilterCoeffs:
    def test_white_passes_unfiltered(self):
        assert fractional_filter_coeffs(0.0, 5).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_random_walk_taps_are_all_one(self):
        # |beta|/2 = 1 makes the recursion h_k = h_{k-1} * k / k
        assert fractional_filter_coeffs(-2.0, 4).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_flicker_taps(self):
        # h_1 = 1 * (0 + 0.5) / 1, h_2 = 0.5 * (1 + 0.5) / 2
        assert fractional_filter_coeffs(-1.0, 3).tolist() == [1.0, 0.5, 0.375]

    @pytest.mark.parametrize("beta", [-2.0, -1.5, -1.0, 0.0, 0.5])
    def test_equals_the_allocating_vector_recursion(self, beta):
        half = abs(beta) / 2.0
        for count in range(1, 5001):
            k = np.arange(1, count, dtype=float)
            expected = np.concatenate(([1.0], np.cumprod((k - 1.0 + half) / k)))
            assert np.array_equal(fractional_filter_coeffs(beta, count), expected)

    @given(st.floats(-2.5, 0.0), st.integers(1, 40))
    def test_matches_scalar_recursion(self, beta, count):
        taps = fractional_filter_coeffs(beta, count)
        h, half = 1.0, abs(beta) / 2.0
        for k in range(count):
            if k > 0:
                h = h * (k - 1 + half) / k
            assert taps[k] == pytest.approx(h, rel=1e-14, abs=0.0)

    def test_h0_is_always_one(self):
        assert fractional_filter_coeffs(1.7, 1)[0] == 1.0


def test_spec_kind_must_be_a_noise_kind():
    with pytest.raises(InvalidArgument, match=r"^kind must be a NoiseKind, got 'white_fm'$"):
        NoiseSpec("white_fm", 1.0)


class TestGenerateNoise:
    def test_zero_amplitude_yields_exact_zeros(self):
        series = generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 0.0, seed=3), 1024, 1.0)
        assert len(series) == 1024
        assert not series.samples.any()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_zero_amplitude_for_every_kind(self, kind):
        series = generate_noise(NoiseSpec(kind, 0.0, seed=1), 64, 0.5)
        assert not series.samples.any()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_deterministic_per_seed(self, kind):
        spec = NoiseSpec(kind, 1e-22, seed=99)
        a = generate_noise(spec, 512, 2.0)
        b = generate_noise(spec, 512, 2.0)
        assert np.array_equal(a.samples, b.samples)
        c = generate_noise(NoiseSpec(kind, 1e-22, seed=100), 512, 2.0)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_series_owns_only_its_samples(self, kind):
        # A view into the draw or FFT buffer would keep two to four times the samples alive.
        samples = generate_noise(NoiseSpec(kind, 1e-22, seed=4), 4097, 0.5).samples
        owner = samples
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == samples.nbytes == 4097 * 8

    def test_white_fm_ffi1_slope(self):
        series = generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 1e-22, seed=7), 2**16, 1.0)
        curve = stability_curve(series, [2**k for k in range(13)], Variant.FFI1)
        assert fit_slope(curve, (2.0, 2**11)) == pytest.approx(-0.5, abs=0.1)

    def test_random_walk_fm_ffi1_slope(self):
        series = generate_noise(NoiseSpec(NoiseKind.RANDOM_WALK_FM, 1e-22, seed=8), 2**16, 1.0)
        curve = stability_curve(series, [2**k for k in range(13)], Variant.FFI1)
        assert fit_slope(curve, (2.0, 2**11)) == pytest.approx(0.5, abs=0.1)

    @pytest.mark.parametrize(
        "kind,level",
        [
            (NoiseKind.WHITE_FM, lambda a, tau: oracles.white_fm_adev(a, tau)),
            (NoiseKind.FLICKER_FM, lambda a, tau: oracles.flicker_fm_adev(a)),
            (NoiseKind.RANDOM_WALK_FM, lambda a, tau: oracles.random_walk_fm_adev(a, tau)),
        ],
    )
    def test_fm_amplitude_matches_textbook_adev_level(self, kind, level):
        # Cross-checks the 1 Hz PSD-coefficient convention against the
        # standard sigma_y(tau) levels for each FM process.
        amplitude, tau0, m = 4e-24, 1.0, 8
        values = []
        for seed in range(6):
            series = generate_noise(NoiseSpec(kind, amplitude, seed=seed), 2**16, tau0)
            curve = stability_curve(series, [m], Variant.FFI1)
            values.append(curve.points[0].value)
        assert np.mean(values) == pytest.approx(level(amplitude, m * tau0), rel=0.12, abs=0.0)

    @pytest.mark.parametrize("kind", [NoiseKind.WHITE_FM, NoiseKind.FLICKER_FM, NoiseKind.RANDOM_WALK_FM])
    def test_filter_route_matches_spectral_synthesis_oracle(self, kind):
        # Same amplitude through the package filter and through direct
        # rfft shaping must land on the same deviation level.
        amplitude, m = 1e-22, 16
        ours, theirs = [], []
        rng = np.random.default_rng(505)
        for seed in range(8):
            series = generate_noise(NoiseSpec(kind, amplitude, seed=seed), 2**15, 1.0)
            ours.append(stability_curve(series, [m], Variant.FFI1).points[0].value)
            alt = oracles.spectral_noise(kind.beta, amplitude, 2**15, 1.0, rng)
            theirs.append(stability_curve(TimeSeriesY(1.0, alt), [m], Variant.FFI1).points[0].value)
        assert np.mean(ours) == pytest.approx(np.mean(theirs), rel=0.15, abs=0.0)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_spectral_fidelity_central_decade(self, kind):
        slopes = [
            oracles.psd_log_slope(generate_noise(NoiseSpec(kind, 1e-3, seed=seed), 2**16, 1.0))
            for seed in range(3)
        ]
        assert np.mean(slopes) == pytest.approx(kind.beta, abs=0.3)

    @pytest.mark.parametrize("kind,corr", [(NoiseKind.WHITE_PM, 1.5), (NoiseKind.WHITE_FM, 1.0)])
    def test_white_kinds_are_stationary(self, kind, corr):
        # corr accounts for the MA(1) correlation of differenced white
        # phase noise in the variance-of-variance estimate.
        series = generate_noise(NoiseSpec(kind, 1e-20, seed=21), 2**16, 1.0)
        half = len(series) // 2
        v1 = series.samples[:half].var()
        v2 = series.samples[half:].var()
        se = np.sqrt(2.0 * corr / half) * max(v1, v2)
        assert abs(v1 - v2) <= 3.0 * np.sqrt(2.0) * se


class TestPsdEstimate:
    def test_all_zero_series(self):
        freqs, density = oracles.psd_estimate(TimeSeriesY(1.0, np.zeros(64)))
        assert not density.any()
        assert freqs[0] == 0.0

    def test_rejects_short_series(self):
        with pytest.raises(InsufficientData):
            oracles.psd_estimate(TimeSeriesY(1.0, np.zeros(15)))

    def test_white_fm_slope(self):
        series = generate_noise(NoiseSpec(NoiseKind.WHITE_FM, 1e-4, seed=11), 2**15, 1.0)
        assert oracles.psd_log_slope(series) == pytest.approx(0.0, abs=0.2)

    def test_random_walk_slope(self):
        series = generate_noise(NoiseSpec(NoiseKind.RANDOM_WALK_FM, 1e-4, seed=12), 2**15, 1.0)
        assert oracles.psd_log_slope(series) == pytest.approx(-2.0, abs=0.3)

    @given(st.integers(0, 2**32), st.sampled_from(list(NoiseKind)))
    def test_parseval_within_five_percent(self, seed, kind):
        series = generate_noise(NoiseSpec(kind, 1e-6, seed=seed), 256, 0.25)
        freqs, density = oracles.psd_estimate(series)
        df = freqs[1] - freqs[0]
        variance = series.samples.var()
        assert density.sum() * df == pytest.approx(variance, rel=0.05, abs=0.0)


SHAPED_KINDS = [NoiseKind.FLICKER_PM, NoiseKind.FLICKER_FM, NoiseKind.RANDOM_WALK_FM]
# The right-sized FFT rounds differently from the full-length one.  Over 100
# seeds per kind at counts 257, 4097 and 2**15 + 1, the worst difference was
# 6.0 eps * max|ref| for flicker PM and 3.5 for flicker FM.  Random-walk FM, a
# blocked running sum, was at most 11.0 (at 2**15 + 1); the FFT it replaced
# reached 12.2, which set this bound.
FFT_ULPS = 16


def _reference_noise(kind, count, seed, amplitude=1e-22, tau0=0.5):
    """generate_noise's PM/FM split over the full-length-padding oracle."""
    rng = np.random.default_rng(seed)
    if kind.is_pm:
        x = oracles.shaped_gaussian_reference(rng, kind.beta - 2, amplitude / (2.0 * np.pi) ** 2, count + 1, tau0)
        return np.diff(x) / tau0
    return oracles.shaped_gaussian_reference(rng, kind.beta, amplitude, count, tau0)


class TestFftSize:
    @pytest.mark.parametrize("kind", SHAPED_KINDS)
    @pytest.mark.parametrize("count", [2, 3, 255, 256, 257, 4096, 4097, 2**15 + 1])
    def test_matches_full_length_padding_within_a_few_ulps(self, kind, count):
        ours = generate_noise(NoiseSpec(kind, 1e-22, seed=count), count, 0.5).samples
        ref = _reference_noise(kind, count, seed=count)
        assert np.max(np.abs(ours - ref)) <= FFT_ULPS * np.finfo(float).eps * np.max(np.abs(ref))

    # Random-walk FM runs no FFT, so only flicker FM can match the oracle bit for bit.
    @pytest.mark.parametrize("kind", [NoiseKind.FLICKER_FM])
    @pytest.mark.parametrize("count", [2, 256, 4096, 2**15])
    def test_fm_kinds_at_power_of_two_counts_are_bit_identical(self, kind, count):
        # 3 * count - 1 and 4 * count - 1 round up to the same power of two.
        ours = generate_noise(NoiseSpec(kind, 1e-22, seed=count), count, 0.5).samples
        assert np.array_equal(ours, _reference_noise(kind, count, seed=count))

    @pytest.mark.parametrize("exponent", [-1, -2])
    @pytest.mark.parametrize("count", [2, 3, 5, 17, 33, 64])
    def test_matches_direct_convolution(self, exponent, count):
        coefficient, total = 1e-20, 2 * count
        scale = np.sqrt(coefficient / (2.0 * (2.0 * np.pi) ** exponent))  # tau0 = 1
        white = np.random.default_rng(count).standard_normal(total) * scale
        direct = np.convolve(white, oracles.fractional_taps(exponent, total))[count:total]
        bound = FFT_ULPS * np.finfo(float).eps * np.max(np.abs(direct))
        for shaped in (_shaped_gaussian(np.random.default_rng(count), exponent, coefficient, count, 1.0),
                       oracles.shaped_gaussian_reference(np.random.default_rng(count), exponent, coefficient,
                                                         count, 1.0)):
            assert np.max(np.abs(shaped - direct)) <= bound


def _one_shot_noise(kind, count, seed, amplitude, tau0):
    """generate_noise's PM/FM split over the fresh-transform flicker oracle."""
    rng = np.random.default_rng(seed)
    if kind.is_pm:
        return np.diff(oracles.one_shot_flicker(rng, amplitude / (2.0 * np.pi) ** 2, count + 1, tau0)) / tau0
    return oracles.one_shot_flicker(rng, amplitude, count, tau0)


FLICKER_SIZE_4096 = 16384  # FFT size of flicker FM at 4096 and 4097 and of flicker PM at 4096 and 5119


def _record_rfft_calls(monkeypatch) -> list:
    """Record the input shape and the ``n`` of every ``np.fft.rfft`` call from now on."""
    calls = []
    real_rfft = np.fft.rfft

    def recording_rfft(a, n=None, *args, **kwargs):
        calls.append((np.shape(a), n))
        return real_rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    return calls


def test_flicker_work_set_keeps_samples_bit_identical(monkeypatch):
    # (kind, count, amplitude, tau0, reload): a flicker PM series of count n
    # filters n + 1 phase samples, so PM at 4096 shares its draw count with FM at 4097.
    # All eight share one FFT size, so one work set serves them; a reload transforms
    # the taps and the draws as two rows of one call, a reuse the draws alone.
    # Two rows outgrow the FFT size from PM at 4096 on (8194 draws each); PM at 5119
    # (10240 draws) grows the buffer again, which then serves the shorter rows of FM at 4096.
    sequence = [
        (NoiseKind.FLICKER_PM, 4096, 1e-22, 0.5, True),
        (NoiseKind.FLICKER_FM, 4096, 1e-22, 0.5, True),
        (NoiseKind.FLICKER_PM, 4096, 1e-22, 0.5, True),
        (NoiseKind.FLICKER_FM, 4097, 1e-22, 0.5, False),
        (NoiseKind.FLICKER_FM, 4096, 3e-26, 2.0, True),
        (NoiseKind.FLICKER_FM, 4096, 1e-22, 0.5, False),
        (NoiseKind.FLICKER_PM, 5119, 1e-22, 0.5, True),
        (NoiseKind.FLICKER_FM, 4096, 1e-22, 0.5, True),
    ]
    _flicker_work_set.cache_clear()
    calls = _record_rfft_calls(monkeypatch)
    longest = 0
    for seed, (kind, count, amplitude, tau0, reload) in enumerate(sequence):
        total = 2 * (count + kind.is_pm)
        longest = max(longest, total)
        calls.clear()
        samples = generate_noise(NoiseSpec(kind, amplitude, seed=seed), count, tau0).samples
        assert calls == [((2, total) if reload else (total,), FLICKER_SIZE_4096)]
        assert np.array_equal(samples, _one_shot_noise(kind, count, seed, amplitude, tau0))
        work = _flicker_work_set(FLICKER_SIZE_4096)
        assert work.total == total
        assert work.signal.size == max(FLICKER_SIZE_4096, 2 * longest)
        assert not work.response.flags.writeable
    assert _flicker_work_set.cache_info().misses == 1


def test_flicker_series_share_no_memory():
    first_spec, second_spec = (NoiseSpec(NoiseKind.FLICKER_FM, 1e-22, seed=seed) for seed in (1, 2))
    first = generate_noise(first_spec, 1000, 1.0).samples
    second = generate_noise(second_spec, 1000, 1.0).samples
    assert not np.shares_memory(first, second)
    first_copy, second_copy = first.copy(), second.copy()
    first[:] = 0.0
    third = generate_noise(first_spec, 1000, 1.0).samples
    assert np.array_equal(second, second_copy)
    assert np.array_equal(third, first_copy)
    assert np.array_equal(third, _one_shot_noise(NoiseKind.FLICKER_FM, 1000, 1, 1e-22, 1.0))


def test_flicker_syntheses_in_two_threads_match_serial():
    # PM and FM at 4096 share the FFT size, and so the work set, but not the filter
    # spectrum: every synthesis of one thread reloads what the other left there.
    def series(kind):
        return [generate_noise(NoiseSpec(kind, 1e-22, seed=seed), 4096, 1.0).samples for seed in range(10)]

    kinds = (NoiseKind.FLICKER_PM, NoiseKind.FLICKER_FM)
    serial = {kind: series(kind) for kind in kinds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {kind: pool.submit(series, kind) for kind in kinds}
            threaded = {kind: future.result(timeout=60) for kind, future in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for kind in kinds:
        assert all(np.array_equal(a, b) for a, b in zip(threaded[kind], serial[kind], strict=True))


def test_a_failed_reload_is_not_reused(monkeypatch):
    _flicker_work_set.cache_clear()
    generate_noise(NoiseSpec(NoiseKind.FLICKER_FM, 1e-22, seed=0), 4096, 1.0)
    real_coeffs = noisegen.fractional_filter_coeffs
    failures = []

    def coeffs_failing_once(beta_exponent, count):
        if not failures:
            failures.append(count)
            raise MemoryError
        return real_coeffs(beta_exponent, count)

    monkeypatch.setattr(noisegen, "fractional_filter_coeffs", coeffs_failing_once)
    pm = NoiseSpec(NoiseKind.FLICKER_PM, 1e-22, seed=1)
    with pytest.raises(MemoryError):
        generate_noise(pm, 4096, 1.0)
    assert failures == [2 * 4097]
    assert not _flicker_work_set(FLICKER_SIZE_4096).response.flags.writeable
    assert np.array_equal(generate_noise(pm, 4096, 1.0).samples,
                          _one_shot_noise(NoiseKind.FLICKER_PM, 4096, 1, 1e-22, 1.0))
    assert np.array_equal(generate_noise(NoiseSpec(NoiseKind.FLICKER_FM, 1e-22, seed=0), 4096, 1.0).samples,
                          _one_shot_noise(NoiseKind.FLICKER_FM, 4096, 0, 1e-22, 1.0))


def _running_sum_error(count, seed, coefficient=1e-22):
    """Random-walk _shaped_gaussian's distance from the compensated running sum, in eps."""
    scale = np.sqrt(coefficient / (2.0 * (2.0 * np.pi) ** -2))  # tau0 = 1
    white = np.random.default_rng(seed).standard_normal(2 * count) * scale
    # From the warm-up sum on: the kept sums of a short walk can cancel to near
    # zero while the warm-up sum, which every float route rounds, stays large.
    exact = oracles.compensated_running_sum(white, count - 1)
    ours = _shaped_gaussian(np.random.default_rng(seed), -2, coefficient, count, 1.0)
    assert ours.shape == (count,)
    return np.max(np.abs(ours - exact[1:])) / (np.finfo(float).eps * np.max(np.abs(exact)))


class TestRunningSum:
    @given(st.integers(2, 5000), st.integers(0, 2**32))
    @example(2, 0)
    @example(3, 0)
    @example(4096, 1)  # 64 blocks of 64
    @example(4097, 1)  # 63 blocks of 65 and one of 2
    @example(1000, 2)  # 31 blocks of 32 and one of 8
    def test_within_fft_ulps_of_the_compensated_sum(self, count, seed):
        assert _running_sum_error(count, seed) <= FFT_ULPS

    def test_within_fft_ulps_of_the_compensated_sum_at_2_to_the_18(self):
        assert _running_sum_error(2**18, 18) <= FFT_ULPS
