import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from combsync.errors import InvalidArgument
from combsync.quantum import (
    EstimatorMethod,
    EstimatorModel,
    SqueezedState,
    apply_loss,
    db_from_r,
    model_sigma,
    monte_carlo_sigma,
    r_from_db,
    required_squeezing,
    sigma_phase,
    sigma_tm,
    sigma_tm_squeezed,
    sigma_tof,
)

positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
r_values = st.floats(0.0, 10.0, allow_nan=False)


class TestSqueezedState:
    def test_vacuum_limit(self):
        s = SqueezedState(0.0)
        assert s.variance_squeezed == 1.0
        assert s.variance_antisqueezed == 1.0

    @given(r_values)
    def test_purity_product(self, r):
        s = SqueezedState(r)
        assert s.variance_squeezed * s.variance_antisqueezed == pytest.approx(1.0, rel=1e-12)

    def test_rejects_negative_r(self):
        with pytest.raises(InvalidArgument):
            SqueezedState(-0.1)

    def test_antisqueezed_variance_past_float_range_is_inf(self):
        state = SqueezedState(400.0)
        assert state.variance_antisqueezed == math.inf
        assert apply_loss(state, 0.9).variance_squeezed == 1.0 - 0.9


class TestScalingLaws:
    def test_tof_quadruple_photons_halves_sigma(self):
        assert sigma_tof(4.0, 1e-14) == pytest.approx(sigma_tof(1.0, 1e-14) / 2.0, rel=1e-15)

    def test_tof_unit_normalization(self):
        assert sigma_tof(1.0, 1e-14) == 1e-14

    def test_tof_linear_in_t0(self):
        assert sigma_tof(9.0, 5e-15) == pytest.approx(sigma_tof(9.0, 1e-14) / 2.0, rel=1e-15)

    def test_phase_unit_case(self):
        assert sigma_phase(1.0, 1.0) == 1.0

    def test_phase_halves_with_doubled_carrier(self):
        assert sigma_phase(10.0, 2e14) == pytest.approx(sigma_phase(10.0, 1e14) / 2.0, rel=1e-15)

    def test_phase_at_telecom_carrier(self):
        assert sigma_phase(100.0, 1.92e14) == pytest.approx(5.2e-16, rel=2e-3)

    def test_tm_unit_case(self):
        assert sigma_tm(1.0, 1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_tm_degenerates_to_tof_without_carrier(self):
        assert sigma_tm(5.0, 2e-14, 1e-6) == pytest.approx(sigma_tof(5.0, 2e-14), rel=1e-9)

    def test_tm_degenerates_to_phase_for_long_pulses(self):
        assert sigma_tm(5.0, 1e9, 1.92e14) == pytest.approx(sigma_phase(5.0, 1.92e14), rel=1e-9)

    @given(positive, positive, positive)
    def test_tm_dominates_both_single_observable_methods(self, n, t0, nu0):
        tm = sigma_tm(n, t0, nu0)
        assert tm <= sigma_tof(n, t0) * (1 + 1e-12)
        assert tm <= sigma_phase(n, nu0) * (1 + 1e-12)

    def test_squeezed_reduces_to_classical_at_zero_r(self):
        assert sigma_tm_squeezed(7.0, 1e-14, 1.9e14, 0.0) == sigma_tm(7.0, 1e-14, 1.9e14)

    def test_published_1p5_db_reduction(self):
        r = r_from_db(1.5)
        scale = sigma_tm_squeezed(1.0, 1e-13, 2.5e11, r) / sigma_tm(1.0, 1e-13, 2.5e11)
        assert 8.9e-23 * scale == pytest.approx(7.5e-23, rel=0.01)

    def test_closed_form_heisenberg_exponent(self):
        rs = np.linspace(2.0, 8.0, 13)
        ns = np.sinh(rs) ** 2
        sig = [sigma_tm_squeezed(n, 1e-14, 1.92e14, r) for n, r in zip(ns, rs)]
        slope = np.polyfit(np.log10(ns), np.log10(sig), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_hl_asymptote_sigma_times_n_constant(self):
        values = [
            sigma_tm_squeezed(math.sinh(r) ** 2, 1e-14, 1.92e14, r) * math.sinh(r) ** 2
            for r in np.linspace(3.0, 8.0, 11)
        ]
        assert (max(values) - min(values)) / values[-1] < 0.02

    def test_rejects_non_positive_arguments(self):
        for bad in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
            with pytest.raises(InvalidArgument):
                sigma_tof(*bad)
        with pytest.raises(InvalidArgument):
            sigma_phase(1.0, -2.0)
        with pytest.raises(InvalidArgument):
            sigma_tm_squeezed(1.0, 1.0, 1.0, -0.5)


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
        assert math.exp(-r) == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)
        assert r_from_db(7.0) == pytest.approx(r, rel=2e-3)

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
        out = apply_loss(SqueezedState(1.2), 1.0)
        assert out.variance_squeezed == SqueezedState(1.2).variance_squeezed
        assert out.variance_antisqueezed == SqueezedState(1.2).variance_antisqueezed

    def test_full_loss_gives_vacuum(self):
        out = apply_loss(SqueezedState(3.0), 0.0)
        assert out.variance_squeezed == 1.0
        assert out.variance_antisqueezed == 1.0

    def test_full_loss_of_overflowed_state_is_vacuum(self):
        out = apply_loss(SqueezedState(400.0), 0.0)
        assert out.variance_squeezed == 1.0
        assert out.variance_antisqueezed == 1.0

    def test_half_loss_caps_squeezing_at_3db(self):
        out = apply_loss(SqueezedState(20.0), 0.5)
        assert out.variance_squeezed == pytest.approx(0.5, rel=1e-8)
        assert -10.0 * math.log10(out.variance_squeezed) == pytest.approx(3.01, abs=0.01)

    @given(r_values, st.floats(0.0, 1.0))
    def test_contractive_toward_vacuum(self, r, eta):
        state = SqueezedState(r)
        out = apply_loss(state, eta)
        assert abs(out.variance_squeezed - 1.0) <= abs(state.variance_squeezed - 1.0) + 1e-15
        assert abs(out.variance_antisqueezed - 1.0) <= abs(state.variance_antisqueezed - 1.0) + 1e-15

    @given(r_values, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_composition_law(self, r, eta1, eta2):
        state = SqueezedState(r)
        twice = apply_loss(apply_loss(state, eta2), eta1)
        once = apply_loss(state, eta1 * eta2)
        assert twice.variance_squeezed == pytest.approx(once.variance_squeezed, rel=1e-12, abs=1e-12)
        assert twice.variance_antisqueezed == pytest.approx(once.variance_antisqueezed, rel=1e-9)

    def test_rejects_eta_out_of_range(self):
        with pytest.raises(InvalidArgument):
            apply_loss(SqueezedState(1.0), 1.0001)


class TestRequiredSqueezing:
    def test_lossless_two_x(self):
        assert required_squeezing(1.0, 2.0) == pytest.approx(10.0 * math.log10(4.0), rel=1e-12)

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
        assert reduction == pytest.approx(1.0 / 1.5, rel=1e-12)

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

    def test_model_sigma_dispatch(self):
        kwargs = dict(n=25.0, nu0=2e14, t0=1e-14)
        assert model_sigma(EstimatorModel(EstimatorMethod.TOF, **kwargs)) == sigma_tof(25.0, 1e-14)
        assert model_sigma(EstimatorModel(EstimatorMethod.PHASE, **kwargs)) == sigma_phase(25.0, 2e14)
        assert model_sigma(
            EstimatorModel(EstimatorMethod.TEMPORAL_MODE, r=1.0, **kwargs)
        ) == sigma_tm_squeezed(25.0, 1e-14, 2e14, 1.0)


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
