import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from combsync.errors import InvalidArgument
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
from combsync.synclink import LinkModel, advantage_report

import oracles

positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
r_values = st.floats(0.0, 10.0, allow_nan=False)
# Wide enough that exp(-r) times a law goes subnormal or to 0, narrow enough that no square overflows.
wide = st.floats(1e-100, 1e100)


def squeezed_report(r, eta_detector=1.0):
    """The advantage report of a temporal-mode estimate squeezed by r over a bare link."""
    link = LinkModel(distance_km=100.0, delay_ab=1e-3, delay_ba=1e-3, eta_detector=eta_detector)
    return advantage_report(link, EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=100.0, nu0=1.92e14, t0=1e-14, r=r))


class TestSqueezedVariance:
    """The squeezed quadrature variance exp(-2r) that an advantage report degrades by loss."""

    def test_vacuum_limit(self):
        report = squeezed_report(0.0)
        assert report.sigma_quantum == report.sigma_classical

    @given(r_values)
    def test_squeezed_variance_in_db_is_db_from_r(self, r):
        report = squeezed_report(r)
        variance = (report.sigma_quantum / report.sigma_classical) ** 2
        assert -10.0 * math.log10(variance) == pytest.approx(db_from_r(r), abs=1e-9)

    def test_rejects_negative_r(self):
        with pytest.raises(InvalidArgument):
            squeezed_report(-0.1)

    def test_squeezed_variance_underflows_to_zero(self):
        report = squeezed_report(400.0, eta_detector=0.9)
        assert report.sigma_quantum == math.sqrt(1.0 - 0.9) * report.sigma_classical


def tof(n, t0):
    return model_sigma(EstimatorModel(EstimatorMethod.TOF, n=n, nu0=1.0, t0=t0))


def phase(n, nu0):
    return model_sigma(EstimatorModel(EstimatorMethod.PHASE, n=n, nu0=nu0, t0=1.0))


def tm(n, t0, nu0, r=0.0):
    return model_sigma(EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=n, nu0=nu0, t0=t0, r=r))


class TestScalingLaws:
    def test_tof_quadruple_photons_halves_sigma(self):
        assert tof(4.0, 1e-14) == pytest.approx(tof(1.0, 1e-14) / 2.0, rel=1e-15, abs=0.0)

    def test_tof_unit_normalization(self):
        assert tof(1.0, 1e-14) == 1e-14

    def test_tof_linear_in_t0(self):
        assert tof(9.0, 5e-15) == pytest.approx(tof(9.0, 1e-14) / 2.0, rel=1e-15, abs=0.0)

    def test_phase_unit_case(self):
        assert phase(1.0, 1.0) == 1.0

    def test_phase_halves_with_doubled_carrier(self):
        assert phase(10.0, 2e14) == pytest.approx(phase(10.0, 1e14) / 2.0, rel=1e-15, abs=0.0)

    def test_phase_at_telecom_carrier(self):
        assert phase(100.0, 1.92e14) == pytest.approx(5.2e-16, rel=2e-3, abs=0.0)

    def test_tm_unit_case(self):
        assert tm(1.0, 1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15, abs=0.0)

    def test_tm_degenerates_to_tof_without_carrier(self):
        assert tm(5.0, 2e-14, 1e-6) == pytest.approx(tof(5.0, 2e-14), rel=1e-9, abs=0.0)

    def test_tm_degenerates_to_phase_for_long_pulses(self):
        assert tm(5.0, 1e9, 1.92e14) == pytest.approx(phase(5.0, 1.92e14), rel=1e-9, abs=0.0)

    @given(positive, positive, positive)
    def test_tm_dominates_both_single_observable_methods(self, n, t0, nu0):
        sigma = tm(n, t0, nu0)
        assert sigma <= tof(n, t0) * (1 + 1e-12)
        assert sigma <= phase(n, nu0) * (1 + 1e-12)

    def test_squeezed_reduces_to_classical_at_zero_r(self):
        assert tm(7.0, 1e-14, 1.9e14, 0.0) == oracles.sigma_tm(7.0, 1e-14, 1.9e14)

    def test_published_1p5_db_reduction(self):
        r = r_from_db(1.5)
        scale = tm(1.0, 1e-13, 2.5e11, r) / tm(1.0, 1e-13, 2.5e11)
        assert 8.9e-23 * scale == pytest.approx(7.5e-23, rel=0.01, abs=0.0)

    def test_closed_form_heisenberg_exponent(self):
        rs = np.linspace(2.0, 8.0, 13)
        ns = np.sinh(rs) ** 2
        sig = [tm(n, 1e-14, 1.92e14, r) for n, r in zip(ns, rs)]
        slope = np.polyfit(np.log10(ns), np.log10(sig), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_hl_asymptote_sigma_times_n_constant(self):
        values = [
            tm(math.sinh(r) ** 2, 1e-14, 1.92e14, r) * math.sinh(r) ** 2
            for r in np.linspace(3.0, 8.0, 11)
        ]
        assert (max(values) - min(values)) / values[-1] < 0.02

    def test_rejects_non_positive_arguments(self):
        for n, t0 in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
            with pytest.raises(InvalidArgument):
                tof(n, t0)
        with pytest.raises(InvalidArgument):
            phase(1.0, -2.0)
        with pytest.raises(InvalidArgument):
            tm(1.0, 1.0, 1.0, -0.5)

    @given(st.sampled_from(EstimatorMethod), wide, wide, wide, st.floats(0.0, 700.0))
    def test_equals_the_separate_closed_forms_bit_for_bit(self, method, n, t0, nu0, r):
        r = r if method is EstimatorMethod.TEMPORAL_MODE else 0.0
        reference = {
            EstimatorMethod.TOF: lambda: oracles.sigma_tof(n, t0),
            EstimatorMethod.PHASE: lambda: oracles.sigma_phase(n, nu0),
            EstimatorMethod.TEMPORAL_MODE: lambda: oracles.sigma_tm_squeezed(n, t0, nu0, r),
        }[method]()
        assert model_sigma(EstimatorModel(method, n=n, nu0=nu0, t0=t0, r=r)).hex() == reference.hex()


class TestDbConversions:
    def test_zero_round_trip(self):
        assert db_from_r(0.0) == 0.0
        assert r_from_db(0.0) == 0.0

    def test_15_db(self):
        assert r_from_db(15.0) == pytest.approx(1.727, abs=5e-4)

    def test_7_db_matches_factor_five_sigma_reduction(self):
        # a 5x amplitude reduction needs exp(-r) = 1/sqrt(5), and
        # 10*log10(5) is just under 7 dB in the variance convention
        r = r_from_db(10.0 * math.log10(5.0))
        assert math.exp(-r) == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12, abs=0.0)
        assert r_from_db(7.0) == pytest.approx(r, rel=2e-3, abs=0.0)

    @given(st.floats(0.0, 40.0))
    def test_round_trip_identity(self, db):
        assert db_from_r(r_from_db(db)) == pytest.approx(db, rel=1e-12, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgument):
            db_from_r(-1e-9)
        with pytest.raises(InvalidArgument):
            r_from_db(-3.0)


class TestApplyLoss:
    def test_identity_channel(self):
        variance = math.exp(-2.0 * 1.2)
        assert apply_loss(variance, 1.0) == variance

    def test_full_loss_gives_vacuum(self):
        assert apply_loss(math.exp(-2.0 * 3.0), 0.0) == 1.0

    def test_full_loss_of_underflowed_state_is_vacuum(self):
        assert apply_loss(math.exp(-2.0 * 400.0), 0.0) == 1.0

    def test_half_loss_caps_squeezing_at_3db(self):
        variance = apply_loss(math.exp(-2.0 * 20.0), 0.5)
        assert variance == pytest.approx(0.5, rel=1e-8, abs=0.0)
        assert -10.0 * math.log10(variance) == pytest.approx(3.01, abs=0.01)

    @given(st.floats(0.0, 1.0))
    def test_loss_leaves_vacuum_at_vacuum(self, eta):
        assert apply_loss(1.0, eta) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    @given(r_values, st.floats(0.0, 1.0))
    def test_loss_stays_between_state_and_vacuum(self, r, eta):
        variance = math.exp(-2.0 * r)
        assert variance - 1e-15 <= apply_loss(variance, eta) <= 1.0 + 1e-15

    @given(r_values, st.floats(0.0, 1.0))
    def test_contractive_toward_vacuum(self, r, eta):
        variance = math.exp(-2.0 * r)
        assert abs(apply_loss(variance, eta) - 1.0) <= abs(variance - 1.0) + 1e-15

    @given(r_values, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_composition_law(self, r, eta1, eta2):
        variance = math.exp(-2.0 * r)
        twice = apply_loss(apply_loss(variance, eta2), eta1)
        assert twice == pytest.approx(apply_loss(variance, eta1 * eta2), rel=1e-12, abs=1e-12)

    def test_rejects_eta_out_of_range(self):
        with pytest.raises(InvalidArgument):
            apply_loss(math.exp(-2.0 * 1.0), 1.0001)


class TestRequiredSqueezing:
    def test_lossless_two_x(self):
        assert required_squeezing(1.0, 2.0) == pytest.approx(10.0 * math.log10(4.0), rel=1e-12, abs=0.0)

    def test_unattainable_at_quarter_floor(self):
        for eta in (0.75, 0.6, 0.5):
            assert required_squeezing(eta, 2.0) is None

    def test_monotone_in_loss(self):
        etas = [1.0, 0.97, 0.9, 0.85, 0.8]
        dbs = [required_squeezing(eta, 2.0) for eta in etas]
        assert all(b is not None for b in dbs)
        assert all(b >= a for a, b in zip(dbs, dbs[1:]))

    def test_achievability_round_trip(self):
        db = required_squeezing(0.9, 1.5)
        r = r_from_db(db)
        reduction = math.sqrt(0.9 * math.exp(-2.0 * r) + 0.1)
        assert reduction == pytest.approx(1.0 / 1.5, rel=1e-12, abs=0.0)

    def test_total_loss_is_unattainable(self):
        assert required_squeezing(0.0, 2.0) is None
        assert required_squeezing(0.0, 1.001) is None

    def test_rejects_bad_arguments(self):
        for eta in (-0.1, -1e-300, 1.0001, math.nan):
            with pytest.raises(InvalidArgument):
                required_squeezing(eta, 2.0)
        with pytest.raises(InvalidArgument):
            required_squeezing(0.5, 1.0)


class TestEstimatorModel:
    def test_squeezing_requires_temporal_mode(self):
        with pytest.raises(InvalidArgument):
            EstimatorModel(EstimatorMethod.TOF, n=10.0, nu0=1e14, t0=1e-14, r=0.5)

    def test_rejects_method_given_as_string(self):
        with pytest.raises(InvalidArgument, match="method must be an EstimatorMethod"):
            EstimatorModel("tof", n=10.0, nu0=1e14, t0=1e-14)

    @pytest.mark.parametrize("field", ["n", "nu0", "t0"])
    def test_rejects_non_positive_field(self, field):
        kwargs = dict(n=10.0, nu0=1e14, t0=1e-14)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(InvalidArgument, match=f"{field} must be finite and positive"):
                EstimatorModel(EstimatorMethod.TEMPORAL_MODE, **{**kwargs, field: bad})

    def test_rejects_negative_r(self):
        with pytest.raises(InvalidArgument, match="r must be finite and >= 0"):
            EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=10.0, nu0=1e14, t0=1e-14, r=-0.1)

    @pytest.mark.parametrize("method,n,nu0,t0", [(EstimatorMethod.TOF, 1e-300, 1.92e14, 1e200),
                                                 (EstimatorMethod.PHASE, 1e-300, 1e-160, 1e-14)])
    def test_model_sigma_past_the_float_range_raises(self, method, n, nu0, t0):
        with pytest.raises(OverflowError, match="deviation of .* is inf"):
            model_sigma(EstimatorModel(method, n=n, nu0=nu0, t0=t0))

    def test_model_sigma_dispatch(self):
        kwargs = dict(n=25.0, nu0=2e14, t0=1e-14)
        assert model_sigma(EstimatorModel(EstimatorMethod.TOF, **kwargs)) == oracles.sigma_tof(25.0, 1e-14)
        assert model_sigma(EstimatorModel(EstimatorMethod.PHASE, **kwargs)) == oracles.sigma_phase(25.0, 2e14)
        assert model_sigma(
            EstimatorModel(EstimatorMethod.TEMPORAL_MODE, r=1.0, **kwargs)
        ) == oracles.sigma_tm_squeezed(25.0, 1e-14, 2e14, 1.0)


class TestMonteCarloSigma:
    def test_rejects_too_few_trials(self):
        model = EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=10.0, nu0=1e14, t0=1e-14)
        with pytest.raises(InvalidArgument):
            monte_carlo_sigma(model, 99)

    @pytest.mark.parametrize("trials", [2**53, 10**20])
    def test_rejects_trials_past_exact_float_counting(self, trials):
        model = EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=10.0, nu0=1e14, t0=1e-14)
        with pytest.raises(InvalidArgument, match="trials must be >= 100 and < 2\\*\\*53"):
            monte_carlo_sigma(model, trials)

    def test_mean_and_std_within_three_standard_errors(self):
        model = EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=100.0, nu0=1.92e14, t0=1e-14)
        sigma = model_sigma(model)
        trials = 4000
        mean, std = monte_carlo_sigma(model, trials, seed=42, true_offset=2e-15)
        assert abs(mean - 2e-15) <= 3.0 * sigma / math.sqrt(trials)
        assert abs(std - sigma) <= 3.0 * sigma / math.sqrt(2.0 * trials)

    @pytest.mark.parametrize("true_offset", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_true_offset(self, true_offset):
        model = EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=100.0, nu0=1.92e14, t0=1e-14)
        with pytest.raises(InvalidArgument, match="true_offset must be finite"):
            monte_carlo_sigma(model, 100, true_offset=true_offset)

    def test_sql_exponent_sweep(self):
        ns = np.logspace(2, 6, 9)
        stds = [
            monte_carlo_sigma(
                EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=float(n), nu0=1.92e14, t0=1e-14),
                1000,
                seed=i,
            )[1]
            for i, n in enumerate(ns)
        ]
        slope = np.polyfit(np.log10(ns), np.log10(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_deterministic_per_seed(self):
        model = EstimatorModel(EstimatorMethod.PHASE, n=10.0, nu0=1e14, t0=1e-14)
        assert monte_carlo_sigma(model, 500, seed=7) == monte_carlo_sigma(model, 500, seed=7)

    @pytest.mark.parametrize("seed", [-1, 2**64, 7.5, True, "12"])
    def test_rejects_a_seed_that_is_not_a_64_bit_integer(self, seed):
        model = EstimatorModel(EstimatorMethod.PHASE, n=10.0, nu0=1e14, t0=1e-14)
        with pytest.raises(InvalidArgument, match="seed must be"):
            monte_carlo_sigma(model, 500, seed=seed)
