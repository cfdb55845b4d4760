"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime budgets are pinned here and nowhere else.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from combsync.cli import main as cli_main
from combsync.clockmodel import ClockModel
from combsync.noisegen import NoiseKind, NoiseSpec, generate_noise
from combsync.quantum import (
    EstimatorMethod,
    EstimatorModel,
    apply_loss,
    model_sigma,
    monte_carlo_sigma,
    r_from_db,
    required_squeezing,
)
from combsync.series import TimeSeriesY
from combsync.stability import (
    Variant,
    ffi0,
    ffi1,
    ffi2,
    fit_slope,
    stability_curve,
    tdev_from_ffi2,
    x_from_y,
)
from combsync.synclink import (
    LinkModel,
    SyncCampaign,
    run_sync_campaign,
    simulate_exchange,
    one_way_offset,
    two_way_offset,
)

import oracles

CONFIGS = Path(__file__).parent / "configs"


def criterion(number, budget_s, description):
    """Wrap a criterion so it reports PASS/FAIL and its runtime budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.1f}s)")
            assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"

        return wrapper

    return decorate


@criterion(1, 5.0, "ffi0 = ffi1(m=1) = ffi2(m=1) to 1e-14 on 200 random series")
def test_criterion_1_estimator_coincidence():
    rng = np.random.default_rng(101)
    for _ in range(200):
        length = int(rng.integers(8, 513))
        series = TimeSeriesY(float(rng.uniform(0.01, 10.0)), rng.normal(0.0, 1.0, length))
        base = ffi0(series)
        assert abs(ffi1(series, 1) - base) <= 1e-14 * base
        assert abs(ffi2(series, 1) - base) <= 1e-14 * base


@criterion(2, 30.0, "optimized estimators match literal y-form and x-form sums to 1e-12")
def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    for _ in range(100):
        length = int(rng.integers(10, 41))
        tau0 = float(rng.uniform(0.1, 5.0))
        y = rng.normal(0.0, 1.0, length)
        series = TimeSeriesY(tau0, y)
        x = x_from_y(series).samples
        m_max = (length - 2) // 3
        m = int(rng.integers(1, max(2, m_max + 1)))

        checks = [
            (ffi0(series), oracles.brute_ffi0_y(y)),
            (ffi0(series), oracles.brute_ffi0_x(x, tau0)),
            (ffi1(series, m), oracles.brute_ffi1_y(y, m)),
            (ffi1(series, m), oracles.brute_ffi1_x(x, m, tau0)),
            (ffi2(series, m), oracles.brute_ffi2_y(y, m)),
            (ffi2(series, m), oracles.brute_ffi2_x(x, m, tau0)),
        ]
        for optimized, brute in checks:
            assert abs(optimized - brute) <= 1e-12 * abs(brute)


@criterion(3, 300.0, "slope table reproduced within 0.15; PM kinds split only by ffi2")
def test_criterion_3_slope_table():
    expected = {
        NoiseKind.WHITE_PM: (-1.0, -1.5),
        NoiseKind.FLICKER_PM: (-1.0, -1.0),
        NoiseKind.WHITE_FM: (-0.5, -0.5),
        NoiseKind.FLICKER_FM: (0.0, 0.0),
        NoiseKind.RANDOM_WALK_FM: (0.5, 0.5),
    }
    count, seeds = 2**18, 20
    m_values = [2**k for k in range(14)]
    fit_range = (4.0, 4096.0)
    mean_slopes = {}
    for kind, (alpha1, alpha2) in expected.items():
        s1, s2 = [], []
        for seed in range(seeds):
            series = generate_noise(NoiseSpec(kind, 1e-22, seed=seed), count, 1.0)
            s1.append(fit_slope(stability_curve(series, m_values, Variant.FFI1), fit_range))
            s2.append(fit_slope(stability_curve(series, m_values, Variant.FFI2), fit_range))
        mean_slopes[kind] = (np.mean(s1), np.mean(s2))
        assert mean_slopes[kind][0] == pytest.approx(alpha1, abs=0.15), kind
        assert mean_slopes[kind][1] == pytest.approx(alpha2, abs=0.15), kind
    gap_ffi2 = abs(mean_slopes[NoiseKind.WHITE_PM][1] - mean_slopes[NoiseKind.FLICKER_PM][1])
    gap_ffi1 = abs(mean_slopes[NoiseKind.WHITE_PM][0] - mean_slopes[NoiseKind.FLICKER_PM][0])
    assert gap_ffi2 >= 0.35
    assert gap_ffi1 < 0.35


@criterion(4, 1.0, "tdev arithmetic consistent with published ffi2/tau pairs within 5%")
def test_criterion_4_tdev_arithmetic():
    # (ffi2, tau, published tdev) triples from field results that round
    # 5.77e-16-style values to one significant figure
    rows = [
        (1e-18, 1e3, 6e-16),
        (1e-18, 1e2, 6e-17),
        (1e-18, 1e3, 6e-16),
    ]
    for ffi2_value, tau, published in rows:
        computed = tdev_from_ffi2(ffi2_value, tau)
        assert abs(computed - published) <= 0.05 * published
    # and the series-level operation applies exactly the same arithmetic
    series = TimeSeriesY(0.5, np.random.default_rng(4).normal(0, 1e-15, 64))
    from combsync.stability import tdev

    assert tdev(series, 4) == tdev_from_ffi2(ffi2(series, 4), 4 * series.tau0)


@criterion(5, 120.0, "Monte Carlo SQL exponent -0.50 +- 0.05 over five decades")
def test_criterion_5_sql_scaling():
    ns = np.logspace(2, 7, 11)
    stds = []
    for i, n in enumerate(ns):
        model = EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=float(n), nu0=1.92e14, t0=1e-14)
        stds.append(monte_carlo_sigma(model, 1000, seed=500 + i)[1])
    exponent = np.polyfit(np.log10(ns), np.log10(stds), 1)[0]
    assert exponent == pytest.approx(-0.50, abs=0.05)


@criterion(6, 120.0, "Monte Carlo HL exponent -1.00 +- 0.05 with n = sinh(r)^2")
def test_criterion_6_hl_scaling():
    rs = np.linspace(2.0, 8.0, 13)
    ns = np.sinh(rs) ** 2
    stds = []
    for i, (n, r) in enumerate(zip(ns, rs)):
        model = EstimatorModel(
            EstimatorMethod.TEMPORAL_MODE, n=float(n), nu0=1.92e14, t0=1e-14, r=float(r)
        )
        stds.append(monte_carlo_sigma(model, 1000, seed=600 + i)[1])
    exponent = np.polyfit(np.log10(ns), np.log10(stds), 1)[0]
    assert exponent == pytest.approx(-1.00, abs=0.05)


@criterion(7, 1.0, "1.5 dB squeezing turns 8.9e-23 s into 7.5e-23 s within 1%")
def test_criterion_7_squeezing_ratio():
    r = r_from_db(1.5)
    squeezed, classical = (
        model_sigma(EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=1.0, nu0=2.5e11, t0=1.3e-13, r=rr))
        for rr in (r, 0.0)
    )
    ratio = squeezed / classical
    assert ratio == pytest.approx(math.exp(-r), rel=1e-12, abs=0.0)
    assert 8.9e-23 * ratio == pytest.approx(7.5e-23, rel=0.01, abs=0.0)


@criterion(8, 1.0, "loss floor: 6.02 dB at eta=1, unattainable at eta<=0.75, 3.01 dB cap")
def test_criterion_8_loss_floor():
    lossless = required_squeezing(1.0, 2.0)
    assert lossless == pytest.approx(10.0 * math.log10(4.0), rel=1e-12, abs=0.0)
    assert round(lossless, 2) == 6.02
    for eta in (0.75, 0.7, 0.6, 0.5):
        assert required_squeezing(eta, 2.0) is None
    effective_db = []
    for r in (5.0, 10.0, 20.0):
        variance = apply_loss(math.exp(-2.0 * r), 0.5)
        effective_db.append(-10.0 * math.log10(variance))
    assert all(db <= 3.0103 + 1e-9 for db in effective_db)
    assert effective_db[-1] == pytest.approx(3.01, abs=0.01)


@criterion(9, 10.0, "two-way cancellation exact; bias delta/2; troposphere 1 ns/km")
def test_criterion_9_two_way():
    quiet = ClockModel(nu0=1.94e14)
    rng = np.random.default_rng(909)
    for i in range(1000):
        delay = float(rng.uniform(1e-5, 1e-2))
        offset = float(rng.uniform(-1e-3, 1e-3))
        link = LinkModel(distance_km=100.0, delay_ab=delay, delay_ba=delay)
        rec = simulate_exchange(quiet, quiet, link, offset, seed=i)
        assert abs(two_way_offset(rec) - offset) < 1e-15

    delta = 1e-9
    for common in (1e-4, 1e-3, 1e-2):
        link = LinkModel(distance_km=100.0, delay_ab=common + delta, delay_ba=common)
        rec = simulate_exchange(quiet, quiet, link, 0.0, seed=7)
        assert two_way_offset(rec) == pytest.approx(delta / 2.0, abs=1e-17)

    base = 100.0 / 299792.458
    wet = LinkModel(distance_km=100.0, delay_ab=base, delay_ba=base, troposphere=True)
    rec = simulate_exchange(quiet, quiet, wet, 0.0, seed=8)
    assert one_way_offset(rec, base) == pytest.approx(100 * 1e-9, rel=1e-9, abs=0.0)


@criterion(10, 120.0, "white-PM campaign residual TDEV slope -1/2 +- 0.15 over two decades")
def test_criterion_10_white_noise_floor():
    clocks = [
        ClockModel(nu0=1.94e14, noise=(NoiseSpec(NoiseKind.WHITE_PM, 1e-24, seed=s),))
        for s in (11, 22)
    ]
    link = LinkModel(distance_km=100.0, delay_ab=3.336e-4, delay_ba=3.336e-4)
    estimator = EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=100.0, nu0=1.92e14, t0=1e-14)
    campaign = SyncCampaign(clock_a=clocks[0], clock_b=clocks[1], link=link,
                            interval=1.0, true_offset=1e-6, estimator=estimator)
    result = run_sync_campaign(campaign, 8192, seed=5)
    slope = fit_slope(result.tdev_curve, (1.0, 128.0))
    assert slope == pytest.approx(-0.5, abs=0.15)


@criterion(11, 60.0, "every CLI command is byte-deterministic for fixed config and seed")
def test_criterion_11_cli_determinism(tmp_path):
    fixtures = [
        ("noise", "noise_flicker_fm.yaml", ["noise.csv"]),
        ("stability", "stability_white_fm.yaml", ["sigma_tau.csv"]),
        ("sync", "sync_white_pm.yaml", ["campaign.csv", "campaign_summary.txt"]),
        ("quantum-scaling", "scaling_sql.yaml", ["scaling.csv"]),
        ("advantage", "advantage_leo.yaml", ["advantage.txt"]),
    ]
    for command, fixture, artifacts in fixtures:
        out1 = tmp_path / f"{command}-1"
        out2 = tmp_path / f"{command}-2"
        assert cli_main([command, "--config", str(CONFIGS / fixture), "--out", str(out1)]) == 0
        assert cli_main([command, "--config", str(CONFIGS / fixture), "--out", str(out2)]) == 0
        for name in artifacts:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)
