import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from combsync import synclink
from combsync.clockmodel import ClockModel, sample_clock
from combsync.config import load_config
from combsync.errors import InvalidArgument
from combsync.noisegen import NoiseKind, NoiseSpec
from combsync.quantum import EstimatorMethod, EstimatorModel, r_from_db
from combsync.seeding import derive_seed
from combsync.series import TimeSeriesX
from combsync.stability import fit_slope, tdev_from_ffi2, y_from_x
from combsync.synclink import (
    AdvantageReport,
    ExchangeRecord,
    GeometricParams,
    LinkModel,
    SyncCampaign,
    advantage_report,
    link_efficiency,
    one_way_offset,
    run_sync_campaign,
    simulate_exchange,
    two_way_offset,
)

import oracles

C_KM_PER_S = 299792.458


def quiet_clock():
    return ClockModel(nu0=1.94e14)


def symmetric_link(delay, **kwargs):
    return LinkModel(distance_km=100.0, delay_ab=delay, delay_ba=delay, **kwargs)


def tm_estimator(n=100.0, r=0.0):
    return EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=n, nu0=1.92e14, t0=1e-14, r=r)


def default_leo_geometry(wavelength=1.56e-6, aperture_radius=0.3, match_distance_km=100.0):
    """Telescope geometry whose diffraction-limited divergence spreads the
    beam to the aperture radius at the matching distance."""
    divergence = aperture_radius / (match_distance_km * 1e3)
    return GeometricParams(wavelength=wavelength, waist=wavelength / (math.pi * divergence),
                           aperture_radius=aperture_radius)


class TestSimulateExchange:
    def test_symmetric_noiseless_bookkeeping(self):
        d, offset = 100.0 / C_KM_PER_S, 4.2e-6
        rec = simulate_exchange(quiet_clock(), quiet_clock(), symmetric_link(d), offset, seed=1)
        assert rec.t2 - rec.t1 == pytest.approx(d + offset, rel=1e-15, abs=0.0)
        assert rec.t4 - rec.t3 == pytest.approx(d - offset, rel=1e-15, abs=0.0)

    def test_zero_delay_zero_offset(self):
        rec = simulate_exchange(quiet_clock(), quiet_clock(), symmetric_link(0.0), 0.0, seed=2)
        assert rec.t1 == rec.t2
        assert rec.t3 == rec.t4

    def test_troposphere_adds_one_ns_per_km_each_way(self):
        link_dry = symmetric_link(0.0)
        link_wet = symmetric_link(0.0, troposphere=True)
        dry = simulate_exchange(quiet_clock(), quiet_clock(), link_dry, 0.0, seed=3)
        wet = simulate_exchange(quiet_clock(), quiet_clock(), link_wet, 0.0, seed=3)
        assert (wet.t2 - wet.t1) - (dry.t2 - dry.t1) == pytest.approx(100e-9, abs=1e-18)
        assert (wet.t4 - wet.t3) - (dry.t4 - dry.t3) == pytest.approx(100e-9, abs=1e-18)

    def test_deterministic_per_seed(self):
        clock = ClockModel(nu0=1e14, noise=(NoiseSpec(NoiseKind.WHITE_FM, 1e-24, seed=3),))
        recs = [
            simulate_exchange(clock, quiet_clock(), symmetric_link(1e-3), 1e-6, seed=12)
            for _ in range(2)
        ]
        assert recs[0] == recs[1]

    def test_record_ordering_enforced(self):
        with pytest.raises(InvalidArgument) as info:
            ExchangeRecord(t1=1.0, t2=0.5, t3=0.4, t4=2.0)
        assert str(info.value) == "B must reply after receiving (t3 >= t2)"
        with pytest.raises(InvalidArgument) as info:
            ExchangeRecord(t1=1.0, t2=1.1, t3=1.2, t4=0.9)
        assert str(info.value) == "A must receive after transmitting (t4 >= t1)"


class TestExchangeRecord:
    RECORD = ExchangeRecord(t1=0.0, t2=1.0, t3=1.5, t4=2.0)

    @pytest.mark.parametrize("name", ["t1", "t2", "t3", "t4", "other"])
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(self.RECORD, name, 0.5)
        assert self.RECORD == (0.0, 1.0, 1.5, 2.0)

    def test_equal_records_hash_equal(self):
        copy = ExchangeRecord(0.0, 1.0, 1.5, 2.0)
        assert copy == self.RECORD and copy is not self.RECORD
        assert hash(copy) == hash(self.RECORD)
        assert len({copy, self.RECORD, ExchangeRecord(0.0, 1.0, 1.5, 2.5)}) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(4))
    def test_message_names_the_first_non_finite_field(self, index, value):
        fields = [0.0, 1.0, 1.5, 2.0]
        fields[index] = value
        with pytest.raises(InvalidArgument) as info:
            ExchangeRecord(*fields)
        assert str(info.value) == f"timestamp t{index + 1} must be finite"
        with pytest.raises(InvalidArgument) as info:
            self.RECORD._replace(**{f"t{index + 1}": value})
        assert str(info.value) == f"timestamp t{index + 1} must be finite"

    def test_replace_keeps_the_ordering_checks(self):
        assert self.RECORD._replace(t4=3.0) == ExchangeRecord(0.0, 1.0, 1.5, 3.0)
        with pytest.raises(InvalidArgument, match=r"\(t4 >= t1\)"):
            self.RECORD._replace(t4=-1.0)
        with pytest.raises(InvalidArgument, match=r"\(t3 >= t2\)"):
            ExchangeRecord._make([0.0, 1.0, 0.5, 2.0])


class TestTwoWayOffset:
    def test_symmetric_recovery_random_batch(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = float(rng.uniform(1e-5, 1e-2))
            offset = float(rng.uniform(-1e-3, 1e-3))
            rec = simulate_exchange(quiet_clock(), quiet_clock(), symmetric_link(d), offset, seed=5)
            assert abs(two_way_offset(rec) - offset) < 1e-15

    def test_asymmetry_bias_is_half_delta(self):
        delta = 1e-9
        link = LinkModel(distance_km=10.0, delay_ab=1e-3 + delta, delay_ba=1e-3)
        rec = simulate_exchange(quiet_clock(), quiet_clock(), link, 0.0, seed=6)
        assert two_way_offset(rec) == pytest.approx(delta / 2.0, abs=1e-17)

    def test_bias_independent_of_common_delay(self):
        delta = 2e-9
        biases = []
        for common in (1e-5, 1e-3, 1e-1):
            link = LinkModel(distance_km=10.0, delay_ab=common + delta, delay_ba=common)
            rec = simulate_exchange(quiet_clock(), quiet_clock(), link, 3e-7, seed=7)
            biases.append(two_way_offset(rec) - 3e-7)
        assert max(biases) - min(biases) < 1e-17
        assert biases[0] == pytest.approx(delta / 2.0, abs=1e-17)

    def test_zero_everything(self):
        rec = simulate_exchange(quiet_clock(), quiet_clock(), symmetric_link(0.0), 0.0, seed=8)
        assert two_way_offset(rec) == 0.0


class TestOneWayOffset:
    def test_known_delay_recovers_offset(self):
        d, offset = 2.5e-3, -7e-7
        rec = simulate_exchange(quiet_clock(), quiet_clock(), symmetric_link(d), offset, seed=9)
        assert one_way_offset(rec, d) == pytest.approx(offset, abs=1e-18)

    def test_unmodeled_troposphere_error(self):
        d = 100.0 / C_KM_PER_S
        link = symmetric_link(d, troposphere=True)
        rec = simulate_exchange(quiet_clock(), quiet_clock(), link, 0.0, seed=10)
        assert one_way_offset(rec, d) == pytest.approx(100e-9, rel=1e-9, abs=0.0)

    def test_zero_assumed_zero_true_delay(self):
        offset = 5.5e-8
        rec = simulate_exchange(quiet_clock(), quiet_clock(), symmetric_link(0.0), offset, seed=11)
        assert one_way_offset(rec, 0.0) == pytest.approx(offset, abs=1e-18)

    def test_agrees_with_two_way_when_delays_known(self):
        d, offset = 3.3e-4, 1.1e-6
        rec = simulate_exchange(quiet_clock(), quiet_clock(), symmetric_link(d), offset, seed=12)
        assert one_way_offset(rec, d) == pytest.approx(two_way_offset(rec), abs=1e-17)


class TestLinkEfficiency:
    def test_full_collection_limit(self):
        geometry = GeometricParams(wavelength=1.56e-6, waist=0.05, aperture_radius=100.0)
        link = LinkModel(distance_km=1.0, delay_ab=0.0, delay_ba=0.0, geometric=geometry)
        assert link_efficiency(link) == 1.0

    @pytest.mark.parametrize("geometric", [None, default_leo_geometry()], ids=["bare", "geometric"])
    def test_is_the_eta_total_of_the_advantage_report(self, geometric):
        link = symmetric_link(1e-3, geometric=geometric, eta_detector=0.9)
        assert advantage_report(link, tm_estimator(r=1.0)).eta_total == link_efficiency(link)
        if geometric is None:
            assert link_efficiency(link) == 0.9

    def test_monotone_in_distance(self):
        geometry = default_leo_geometry()
        etas = []
        for km in (10.0, 50.0, 100.0, 300.0, 1000.0):
            link = LinkModel(distance_km=km, delay_ab=0.0, delay_ba=0.0, geometric=geometry)
            eta = link_efficiency(link)
            assert 0.0 <= eta <= 1.0
            etas.append(eta)
        assert all(b <= a for a, b in zip(etas, etas[1:]))

    def test_detector_efficiency_multiplies(self):
        geometry = default_leo_geometry()
        base = LinkModel(distance_km=100.0, delay_ab=0.0, delay_ba=0.0, geometric=geometry)
        scaled = LinkModel(distance_km=100.0, delay_ab=0.0, delay_ba=0.0, geometric=geometry,
                           eta_detector=0.9)
        assert link_efficiency(scaled) == pytest.approx(0.9 * link_efficiency(base), rel=1e-12, abs=0.0)


class TestRunSyncCampaign:
    def test_noiseless_symmetric_sigma_is_excess_exactly(self):
        link = symmetric_link(1e-3, sigma_excess=3.5e-12)
        campaign = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(), link=link,
                                true_offset=1e-6)
        result = run_sync_campaign(campaign, 500, seed=1)
        assert result.sigma_delta_t == 3.5e-12
        assert result.mean_offset == pytest.approx(1e-6, abs=1e-18)
        assert all(p.value == 0.0 for p in result.tdev_curve.points)

    def test_white_pm_clocks_give_white_noise_floor(self):
        clocks = [
            ClockModel(nu0=1.94e14, noise=(NoiseSpec(NoiseKind.WHITE_PM, 1e-24, seed=s),))
            for s in (1, 2)
        ]
        campaign = SyncCampaign(clock_a=clocks[0], clock_b=clocks[1],
                                link=symmetric_link(1e-3), estimator=tm_estimator())
        result = run_sync_campaign(campaign, 4096, seed=3)
        assert fit_slope(result.tdev_curve, (1.0, 128.0)) == pytest.approx(-0.5, abs=0.15)

    def test_frequency_offset_keeps_the_tdev_curve_exact(self):
        # The residual y carries clock A's 1e-9 offset as a mean, a million times its spread.
        campaign = SyncCampaign(clock_a=ClockModel(nu0=1.94e14, frac_freq_offset=1e-9), clock_b=quiet_clock(),
                                link=symmetric_link(1e-3), estimator=tm_estimator())
        result = run_sync_campaign(campaign, 4096, seed=3)
        y = y_from_x(TimeSeriesX(campaign.interval, result.residuals)).samples
        assert [p.m for p in result.tdev_curve.points] == [2**j for j in range(11)]
        for p in result.tdev_curve.points:
            exact = tdev_from_ffi2(float(oracles.exact_ffi2(y, p.m)), p.tau)
            assert abs(p.value - exact) <= 2 * np.finfo(float).eps * exact, p.m

    def test_doubling_photons_shrinks_sigma_by_sqrt2(self):
        link = symmetric_link(1e-3)
        base = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(), link=link,
                            estimator=tm_estimator(n=100.0))
        double = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(), link=link,
                              estimator=tm_estimator(n=200.0))
        r1 = run_sync_campaign(base, 2000, seed=4)
        r2 = run_sync_campaign(double, 2000, seed=4)
        assert r1.sigma_delta_t / r2.sigma_delta_t == pytest.approx(math.sqrt(2.0), rel=0.1, abs=0.0)

    def test_squeezing_never_hurts(self):
        link = symmetric_link(1e-3)
        classical = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(), link=link,
                                 estimator=tm_estimator(n=50.0))
        squeezed = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(), link=link,
                                estimator=tm_estimator(n=50.0, r=1.0))
        r0 = run_sync_campaign(classical, 1000, seed=5)
        r1 = run_sync_campaign(squeezed, 1000, seed=5)
        assert r1.sigma_delta_t <= r0.sigma_delta_t

    def test_residuals_shape_and_truth(self):
        campaign = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(),
                                link=symmetric_link(1e-3), true_offset=2e-6,
                                estimator=tm_estimator())
        result = run_sync_campaign(campaign, 256, seed=6)
        assert result.truth == 2e-6
        assert result.estimates.shape == result.residuals.shape == (256,)
        np.testing.assert_allclose(result.residuals, result.estimates - 2e-6, atol=0.0)

    # The benchmark's campaigns: white PM clocks, then white PM, flicker FM and random-walk FM ones.
    @pytest.mark.parametrize("mixed", [False, True], ids=["white", "mixed"])
    def test_estimates_equal_the_oracle(self, mixed):
        def clock(seed):
            noise = [NoiseSpec(NoiseKind.WHITE_PM, 3e-24, seed=seed)]
            if mixed:
                noise += [NoiseSpec(NoiseKind.FLICKER_FM, 2e-27, seed=seed + 1),
                          NoiseSpec(NoiseKind.RANDOM_WALK_FM, 5e-31, seed=seed + 2)]
            return ClockModel(nu0=1.94e14, noise=tuple(noise))

        trials, seed = 2**16, 2301
        link = symmetric_link(700.0 / C_KM_PER_S)
        campaign = SyncCampaign(clock(10), clock(20), link, true_offset=4e-4, estimator=tm_estimator())
        result = run_sync_campaign(campaign, trials, seed=seed)
        xa = sample_clock(campaign.clock_a, trials, campaign.interval, derive_seed(seed, 1)).samples
        xb = sample_clock(campaign.clock_b, trials, campaign.interval, derive_seed(seed, 2)).samples
        estimates = oracles.serial_two_way_estimates(
            xa, xb, link.effective_delays(), campaign.true_offset, synclink.TURNAROUND_S,
            advantage_report(link, campaign.estimator).sigma_quantum, derive_seed(seed, 3))

        def digest(estimates, residuals):
            return hashlib.sha256(estimates.tobytes() + residuals.tobytes()).hexdigest()

        assert digest(result.estimates, result.residuals) == digest(estimates, estimates - campaign.true_offset)


class TestCampaignLinkBudget:
    # Quiet clocks: each residual is the estimate's own error, whose deviation is the lossy one.
    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.01])
    def test_residual_deviation_is_the_advantage_reports_sigma_quantum(self, eta):
        trials = 20_000
        link = symmetric_link(1e-3, eta_detector=eta)
        estimator = tm_estimator(n=1000.0, r=2.0)
        campaign = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(), link=link, estimator=estimator)
        result = run_sync_campaign(campaign, trials, seed=7)
        expected = advantage_report(link, estimator).sigma_quantum
        # Five standard errors of a sample deviation of `trials` normal draws.
        assert result.sigma_delta_t == pytest.approx(expected, rel=5.0 / math.sqrt(2.0 * (trials - 1)), abs=0.0)

    def test_squeezing_that_underflows_on_a_lossless_link_draws_no_noise(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a campaign whose estimator deviation is 0 must draw no estimator error")

        monkeypatch.setattr(synclink, "_estimator_error", forbidden)
        campaign = SyncCampaign(clock_a=quiet_clock(), clock_b=quiet_clock(), link=symmetric_link(1e-3),
                                estimator=tm_estimator(r=400.0))
        result = run_sync_campaign(campaign, 256, seed=8)
        assert result.sigma_delta_t == 0.0


class TestAdvantageReport:
    def test_unit_efficiency_two_x(self):
        link = LinkModel(distance_km=100.0, delay_ab=1e-3, delay_ba=1e-3, eta_detector=1.0)
        report = advantage_report(link, tm_estimator(r=r_from_db(10.0 * math.log10(4.0))))
        assert report.eta_total == 1.0
        assert report.advantage_ratio == pytest.approx(2.0, rel=1e-12, abs=0.0)
        assert report.required_db_for_2x == pytest.approx(10.0 * math.log10(4.0), rel=1e-12, abs=0.0)

    def test_half_efficiency_caps_at_sqrt2(self):
        link = LinkModel(distance_km=100.0, delay_ab=1e-3, delay_ba=1e-3, eta_detector=0.5)
        report = advantage_report(link, tm_estimator(r=20.0))
        assert report.advantage_ratio == pytest.approx(math.sqrt(2.0), rel=1e-8, abs=0.0)
        assert report.required_db_for_2x is None

    def test_classical_baseline_ratio_is_one(self):
        link = LinkModel(distance_km=100.0, delay_ab=1e-3, delay_ba=1e-3)
        report = advantage_report(link, tm_estimator(r=0.0))
        assert report.advantage_ratio == 1.0
        assert report.sigma_quantum == report.sigma_classical

    def test_geometry_feeds_eta_total(self):
        geometry = default_leo_geometry()
        link = LinkModel(distance_km=100.0, delay_ab=1e-3, delay_ba=1e-3,
                         geometric=geometry, eta_detector=0.9)
        report = advantage_report(link, tm_estimator(r=1.0))
        bare = LinkModel(distance_km=100.0, delay_ab=1e-3, delay_ba=1e-3, geometric=geometry)
        assert report.eta_total == pytest.approx(0.9 * link_efficiency(bare), rel=1e-12, abs=0.0)
        assert isinstance(report, AdvantageReport)


# Exchange and campaign outputs pinned bit for bit (float.hex of t1, t2, t3,
# t4 and the two-way offset; sha256 over the campaign arrays and TDEV points).
RAMP = ClockModel(nu0=1.94e14, frac_freq_offset=3e-13, drift=2e-17)
NOISY = ClockModel(nu0=1.94e14, noise=(NoiseSpec(NoiseKind.WHITE_FM, 1e-24, seed=3),
                                       NoiseSpec(NoiseKind.FLICKER_PM, 1e-26, seed=4)))
DRY = LinkModel(distance_km=300.0, delay_ab=1.0006e-3, delay_ba=1.0002e-3)
WET = LinkModel(distance_km=300.0, delay_ab=1.0006e-3, delay_ba=1.0002e-3, troposphere=True)

PINNED_EXCHANGES = [
    ((quiet_clock(), quiet_clock(), DRY, 4.2e-6, 11), {},
     ("0x0.0p+0", "0x1.0766fc8e5b77fp-10", "0x1.06c5ecdebb0bep-9", "0x1.895223b942ac4p-9",
      "0x1.27476ca61b980p-18")),
    ((RAMP, quiet_clock(), DRY, -2.5e-7, 12), {},
     ("0x1.51c7fec21a56fp-42", "0x1.063c5a236204dp-10", "0x1.06309ba93e525p-9", "0x1.895223b9eb904p-9",
      "-0x1.ad7fd28fc4000p-25")),
    ((NOISY, quiet_clock(), DRY, 4.2e-6, 13), {},
     ("-0x1.8c8ba577c324bp-41", "0x1.0766fc8e5b77fp-10", "0x1.06c5ecdebb0bep-9", "0x1.895223b7b620ap-9",
      "0x1.27476fbf32e00p-18")),
    ((NOISY, NOISY, DRY, 1e-6, 14), {},
     ("-0x1.0fc404a70f030p-42", "0x1.06903cf59b26ap-10", "0x1.065a8d125ae33p-9", "0x1.895223b8baca4p-9",
      "0x1.421f53d639000p-20")),
    ((NOISY, RAMP, DRY, 3e-6, 15), {},
     ("-0x1.5632cbd67c486p-41", "0x1.071674b7dd09ep-10", "0x1.069da8f37bd4dp-9", "0x1.895223b7ec797p-9",
      "0x1.ad7f31a826300p-19")),
    ((quiet_clock(), NOISY, WET, -1e-6, 16), {},
     ("0x0.0p+0", "0x1.061e272fce007p-10", "0x1.0621822f74501p-9", "0x1.896645af36b9cp-9",
      "-0x1.ad7f3edb4bc00p-21")),
]

PINNED_CAMPAIGNS = [
    (SyncCampaign(NOISY, NOISY, WET, interval=2.0, true_offset=3e-6, estimator=tm_estimator()),
     "3ebc0c6a61dff8c875116272538e34e9da6a40f979ed8ed0964c1eb4c3d8fcfc",
     "0x1.ad80234011a34p-19", "0x1.91ba6ccc2597bp-37"),
    (SyncCampaign(RAMP, NOISY, DRY, true_offset=-1e-6),
     "296506c370b26a5e20b0cde7bead1d0283ea857645435184e59e2fe7dd7f85d2",
     "-0x1.ad92dc5bffc0ep-21", "0x1.831e45a0ff77ap-34"),
]

# float.hex of eta_total, sigma_classical, sigma_quantum, advantage_ratio and
# required_db_for_2x (None when unattainable).
LEO_FIXTURE = load_config(str(Path(__file__).parent / "configs" / "advantage_leo.yaml")).payload
SHORT_HOP = LinkModel(distance_km=20.0, delay_ab=6.7e-5, delay_ba=6.6e-5,
                      geometric=GeometricParams(wavelength=1.56e-6, waist=0.08, aperture_radius=0.3),
                      eta_detector=0.95)
PINNED_ADVANTAGE = [
    (LEO_FIXTURE.link, LEO_FIXTURE.estimator,
     ("0x1.6957f4146aeddp-1", "0x1.50d456f24b406p-53", "0x1.7b0758b522665p-54", "0x1.c6ff11bc1b8bep+0", None)),
    (SHORT_HOP, EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=500.0, nu0=1.92e14, t0=1e-14, r=0.9),
     ("0x1.e645f5147bd87p-1", "0x1.dc594991392c4p-53", "0x1.b1b3f73406da3p-54", "0x1.192c1eddaacf8p+1",
      "0x1.b15b0df3e4a45p+2")),
    # exp(2r) overflows a float here; the squeezed variance does not
    (LinkModel(distance_km=100.0, delay_ab=1e-3, delay_ba=1e-3, eta_detector=0.9),
     EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=1.0, nu0=1.92e14, t0=1e-14, r=400.0),
     ("0x1.ccccccccccccdp-1", "0x1.4cdbdc2b01c3fp-48", "0x1.a5096caede107p-50", "0x1.94c583ada5b53p+1",
      "0x1.f2044d05591fcp+2")),
]


@pytest.mark.pin
class TestPinnedOutputs:
    @pytest.mark.parametrize("args,kwargs,expected", PINNED_EXCHANGES,
                             ids=["noiseless", "ramp-quiet", "noisy", "noisy-noisy", "noisy-ramp", "quiet-noisy-wet"])
    def test_exchange_quartet_and_offset(self, args, kwargs, expected):
        rec = simulate_exchange(*args, **kwargs)
        values = (rec.t1, rec.t2, rec.t3, rec.t4, two_way_offset(rec))
        assert [v.hex() for v in values] == list(expected)
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("campaign,digest,mean_offset,sigma_delta_t", PINNED_CAMPAIGNS,
                             ids=["noisy", "ramp"])
    def test_campaign(self, campaign, digest, mean_offset, sigma_delta_t):
        result = run_sync_campaign(campaign, 2**10, seed=21)
        h = hashlib.sha256(result.estimates.tobytes() + result.residuals.tobytes())
        for p in result.tdev_curve.points:
            h.update(f"{p.m} {float(p.tau).hex()} {float(p.value).hex()}".encode())
        assert h.hexdigest() == digest
        assert result.mean_offset.hex() == mean_offset
        assert result.sigma_delta_t.hex() == sigma_delta_t

    @pytest.mark.parametrize("link,model,expected", PINNED_ADVANTAGE, ids=["leo-fixture", "short-hop", "r400"])
    def test_advantage_report(self, link, model, expected):
        report = advantage_report(link, model)
        values = (report.eta_total, report.sigma_classical, report.sigma_quantum, report.advantage_ratio,
                  report.required_db_for_2x)
        assert [None if v is None else v.hex() for v in values] == list(expected)


SILENT = ClockModel(nu0=1.94e14, drift=1e-17, noise=(NoiseSpec(NoiseKind.WHITE_FM, 0.0, seed=1),
                                                     NoiseSpec(NoiseKind.FLICKER_FM, 0.0, seed=2)))


class TestNoiselessClockSeed:
    @pytest.mark.parametrize("clock", [RAMP, SILENT], ids=["no-noise", "zero-amplitude"])
    def test_record_ignores_seed(self, clock):
        records = {simulate_exchange(clock, clock, DRY, 1e-6, seed=s)
                   for s in (0, 1, 2**32 + 5, 2**63)}
        assert len(records) == 1

    def test_noisy_record_follows_seed(self):
        records = {simulate_exchange(NOISY, quiet_clock(), DRY, 1e-6, seed=s) for s in (0, 1, 2, 3)}
        assert len(records) == 4


ENTRY_POINTS = {
    "exchange": lambda clock, seed: simulate_exchange(clock, clock, DRY, 1e-6, seed=seed),
    "campaign": lambda clock, seed: run_sync_campaign(SyncCampaign(clock, clock, DRY), 128, seed=seed),
    "sample_clock": lambda clock, seed: sample_clock(clock, 4, 1.0, seed=seed),
}


class TestExchangeArguments:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("clock", [RAMP, NOISY], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_edge_seeds_accepted(self, entry, clock, seed):
        ENTRY_POINTS[entry](clock, seed)

    def test_noiseless_exchange_samples_no_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a noiseless exchange must not sample a clock path")

        monkeypatch.setattr(synclink, "sample_clock", forbidden)
        rec = simulate_exchange(RAMP, SILENT, DRY, 1e-6)
        assert all(type(v) is float for v in (rec.t1, rec.t2, rec.t3, rec.t4))

class TestExchangeTiming:
    def test_noiseless_phase_is_the_ramp_at_one_second(self):
        rec = simulate_exchange(RAMP, quiet_clock(), symmetric_link(0.0), 0.0, seed=7)
        assert rec.t1 == RAMP.frac_freq_offset * 1.0 + 0.5 * RAMP.drift * 1.0
        assert rec.t2 == 0.0

    def test_noisy_phase_is_the_path_sample_at_one_second(self):
        rec = simulate_exchange(NOISY, quiet_clock(), symmetric_link(0.0), 0.0, seed=7)
        assert rec.t1 == sample_clock(NOISY, 2, 1.0, seed=derive_seed(7, 1)).samples[1]
        assert rec.t1 != 0.0

    # A clock's phase is one draw per exchange, so a turnaround 500 times the
    # fixed one moves the two-way estimate only by rounding at 0.5 s.
    def test_exchange_estimate_ignores_turnaround(self, monkeypatch):
        before = two_way_offset(simulate_exchange(NOISY, RAMP, DRY, 3e-6, seed=15))
        monkeypatch.setattr(synclink, "TURNAROUND_S", 0.5)
        rec = simulate_exchange(NOISY, RAMP, DRY, 3e-6, seed=15)
        assert rec.t3 - rec.t2 == pytest.approx(0.5, rel=1e-12, abs=0.0)
        assert abs(two_way_offset(rec) - before) <= 2 * math.ulp(0.5)

    def test_campaign_estimates_ignore_turnaround(self, monkeypatch):
        campaign = SyncCampaign(NOISY, NOISY, WET, true_offset=3e-6, estimator=tm_estimator())
        before = run_sync_campaign(campaign, 128, seed=5).estimates
        monkeypatch.setattr(synclink, "TURNAROUND_S", 0.5)
        after = run_sync_campaign(campaign, 128, seed=5).estimates
        assert np.abs(after - before).max() <= 2 * math.ulp(0.5)
