import hashlib
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import combsync
from combsync import cli
from combsync.artifacts import read_table
from combsync.cli import main
from combsync.clockmodel import comb_time_params
from combsync.config import load_config
from combsync.noisegen import NoiseKind, generate_noise
from combsync.quantum import EstimatorModel, model_sigma, monte_carlo_sigma
from combsync.seeding import derive_seed
from combsync.stability import (
    StabilityCurve,
    StabilityPoint,
    Variant,
    classify_noise,
    fit_slope,
    octave_m_values,
    stability_curve,
)
from combsync.synclink import advantage_report, run_sync_campaign
from test_config import YAML_FAULTS

CONFIGS = Path(__file__).parent / "configs"


def run_cli(command, config, out, extra=()):
    return main([command, "--config", str(config), "--out", str(out), *extra])


#: sha256 of every fixture artifact, so that a change meant to keep the artifacts
#: byte-identical fails here when it does not.
FIXTURE_SHA256 = [
    ("noise", "noise_flicker_fm.yaml", "noise.csv",
     "0da425724a428322f25b9816c3ba7421e629e853c6b39e99aaee022020357f75"),
    ("noise", "noise_flicker_pm.yaml", "noise.csv",
     "b26e89849fa90a635b8e2f7640e24caa91ca8c6dcab46dfc3879fbd184f78335"),
    ("noise", "noise_random_walk_fm.yaml", "noise.csv",
     "febf2928db343e2ac5c701fa80fc5779f384b91e5873d3bf7cb31554c9f3dc04"),
    ("stability", "stability_white_fm.yaml", "sigma_tau.csv",
     "06af1363b77a9b8be55890bbad5546ee9893bdea1c0257bafa62c198ab049245"),
    ("stability", "stability_white_pm_ffi2.yaml", "sigma_tau.csv",
     "30f041ff0a624c392b8afa33b92be4e9df63ac825dc9538c75abdd53a9c1b1a2"),
    ("stability", "stability_tdev_m_values.yaml", "sigma_tau.csv",
     "bcc0e9dec7ee1cb8164000bb52c0a64c0265ab765f31cc50acd6dcfb7f635cb4"),
    ("stability", "stability_flicker_pm_ffi0.yaml", "sigma_tau.csv",
     "8c7a7a8797936bf9faffe0ec881f77fe64ee06f834c2d021ec6a6553f70146a0"),
    ("sync", "sync_white_pm.yaml", "campaign.csv",
     "a0ced7bcd273b362b6c8343c54b1da5cd3261f88132788010703bdcb7ea428b0"),
    ("sync", "sync_white_pm.yaml", "campaign_summary.txt",
     "e5f887da1ba0629fd5c3d649297ee075f98d2855266c381d159f0054a7ddb3d6"),
    ("sync", "sync_flicker_fm.yaml", "campaign.csv",
     "911231c671ae8671edaf7ed16bbf028aaa5ec3bda4b2833aecaee61452154c7b"),
    ("sync", "sync_flicker_fm.yaml", "campaign_summary.txt",
     "9d4aff6499cc5e36f557a11d99e49d446a90a39f1179aaa2cc29a6185825c073"),
    ("quantum-scaling", "scaling_sql.yaml", "scaling.csv",
     "fc048f79c62f7ad1da676a61c36fd2ac280fdba176c298d3240f9d682848f508"),
    ("quantum-scaling", "scaling_hl.yaml", "scaling.csv",
     "f3c4d2a2afb666ef46f72d6fd685a295152aabdd7a8f8525b5c4229e2179ccdb"),
    ("advantage", "advantage_leo.yaml", "advantage.txt",
     "cfdeb4b5809ea634a9cc60760882dfef76989ed691f2cb0f0fb17cfc5281c8a1"),
]


#: (command, config, the artifacts pinned for it) of every fixture config.
ALL_FIXTURES = [(command, fixture, [artifact for _, f, artifact, _ in FIXTURE_SHA256 if f == fixture])
                for command, fixture in dict.fromkeys((command, fixture) for command, fixture, _, _ in FIXTURE_SHA256)]
FIXTURE_IDS = [fixture for _, fixture, _ in ALL_FIXTURES]


def test_every_fixture_config_is_pinned():
    assert sorted(path.name for path in CONFIGS.glob("*.yaml")) == sorted(FIXTURE_IDS)


@pytest.mark.parametrize("command,fixture,artifacts", ALL_FIXTURES, ids=FIXTURE_IDS)
def test_end_to_end_fixture(command, fixture, artifacts, tmp_path):
    # Exit 0 means the command is the config's own: a mismatch exits 2.
    assert run_cli(command, CONFIGS / fixture, tmp_path) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(artifacts)
    for name in artifacts:
        head = (tmp_path / name).read_text().splitlines()
        assert head[0].startswith("# config_sha256=")
        assert head[1].startswith("# seed=")


@pytest.mark.parametrize("command,fixture,artifacts", ALL_FIXTURES, ids=FIXTURE_IDS)
def test_byte_identical_reruns(command, fixture, artifacts, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(command, CONFIGS / fixture, out1) == 0
    assert run_cli(command, CONFIGS / fixture, out2) == 0
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.pin
@pytest.mark.parametrize("command,fixture,artifact,digest", FIXTURE_SHA256,
                         ids=[f"{fixture}:{artifact}" for _, fixture, artifact, _ in FIXTURE_SHA256])
def test_fixture_artifact_bytes_are_pinned(command, fixture, artifact, digest, tmp_path):
    assert run_cli(command, CONFIGS / fixture, tmp_path) == 0
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


def test_white_fm_fixture_slope(tmp_path):
    assert run_cli("stability", CONFIGS / "stability_white_fm.yaml", tmp_path) == 0
    header, columns = _table(tmp_path / "sigma_tau.csv")
    assert header["source_length"] == "65536"
    assert fit_slope(_curve(columns), (2.0, 2048.0)) == pytest.approx(-0.5, abs=0.1)


def test_white_pm_ffi2_fixture_slope_round_trip(tmp_path):
    assert run_cli("stability", CONFIGS / "stability_white_pm_ffi2.yaml", tmp_path) == 0
    curve = _curve(_table(tmp_path / "sigma_tau.csv")[1])
    assert {p.variant for p in curve.points} == {Variant.FFI2}
    assert fit_slope(curve, (4.0, 1024.0)) == pytest.approx(-1.5, abs=0.15)


def test_flicker_pm_ffi0_fixture_slope(tmp_path):
    # FFI0 reads a slope near -1 for both PM kinds and cannot tell them apart.
    assert run_cli("stability", CONFIGS / "stability_flicker_pm_ffi0.yaml", tmp_path) == 0
    curve = _curve(_table(tmp_path / "sigma_tau.csv")[1])
    assert {p.variant for p in curve.points} == {Variant.FFI0}
    slope = fit_slope(curve, (2.0, 1024.0))
    assert classify_noise(slope, Variant.FFI0) == {NoiseKind.WHITE_PM, NoiseKind.FLICKER_PM}


def test_unknown_key_exits_2_and_names_key(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text(
        "command: noise\nseed: 1\nnoise:\n  kind: white_fm\n  amplitude: 1.0\n"
        "  count: 64\n  tau0: 1.0\n  ampltude: 2.0\n"
    )
    assert run_cli("noise", config, tmp_path) == 2
    assert "ampltude" in capsys.readouterr().err

    config2 = tmp_path / "bad2.yaml"
    config2.write_text("command: noise\nseed: 1\nnoise: {kind: white_fm, amplitude: 1.0, count: 64}\nbogus: 1\n")
    assert run_cli("noise", config2, tmp_path) == 2
    assert "bogus" in capsys.readouterr().err


def test_yaml_syntax_error_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.yaml"
    for text, message in YAML_FAULTS:
        config.write_bytes(text)
        assert run_cli("noise", config, tmp_path) == 2
        assert capsys.readouterr().err == f"combsync: config error: {message}\n"


def test_missing_seed_for_stochastic_command(tmp_path, capsys):
    config = tmp_path / "noseed.yaml"
    config.write_text("command: noise\nnoise: {kind: white_fm, amplitude: 1.0, count: 64}\n")
    assert run_cli("noise", config, tmp_path) == 2
    assert "seed" in capsys.readouterr().err
    # --seed on the command line satisfies the requirement
    assert run_cli("noise", config, tmp_path, extra=["--seed", "5"]) == 0


def test_command_mismatch_exits_2(tmp_path, capsys):
    assert run_cli("noise", CONFIGS / "stability_white_fm.yaml", tmp_path) == 2
    assert "stability" in capsys.readouterr().err


def test_unreadable_config_exits_2_and_creates_no_output(tmp_path, capsys):
    config, out = tmp_path / "missing.yaml", tmp_path / "out"
    assert run_cli("noise", config, out) == 2
    assert capsys.readouterr().err == f"combsync: cannot read config: [Errno 2] No such file or directory: '{config}'\n"
    assert not out.exists()


def test_working_directory_is_the_output_without_out_flag(tmp_path, monkeypatch, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text("command: noise\nseed: 2\nnoise: {kind: white_fm, amplitude: 1.0, count: 64, tau0: 1.0}\n")
    monkeypatch.chdir(tmp_path)
    assert main(["noise", "--config", str(config)]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'noise.csv'}\n"


def test_seed_override_changes_output(tmp_path):
    out1, out2, out3, out4 = tmp_path / "a", tmp_path / "b", tmp_path / "c", tmp_path / "d"
    config = CONFIGS / "noise_flicker_fm.yaml"
    assert run_cli("noise", config, out1) == 0
    assert run_cli("noise", config, out2, extra=["--seed", "18"]) == 0
    assert run_cli("noise", config, out3, extra=["--seed", "17"]) == 0
    # The argument parser is shared across calls: an override must not outlive its call.
    assert run_cli("noise", config, out4) == 0
    body = lambda p: _table(p / "noise.csv")[1]
    assert body(out1) != body(out2)
    assert body(out1) == body(out3)
    assert body(out4) == body(out1)


def test_runtime_estimator_failure_exits_3(tmp_path, capsys):
    # Every requested averaging factor is too large for the series, so the
    # curve comes out empty and the CLI refuses it before opening sigma_tau.csv.
    config = tmp_path / "short.yaml"
    config.write_text(
        "command: stability\nseed: 1\nstability:\n  variant: ffi2\n  m_values: [64]\n"
        "  noise: {kind: white_fm, amplitude: 1.0, count: 16, tau0: 1.0}\n"
    )
    assert run_cli("stability", config, tmp_path) == 3
    assert capsys.readouterr().err == "combsync: error: cannot write an empty stability curve\n"
    assert not (tmp_path / "sigma_tau.csv").exists()


def _stability_config(tmp_path, variant, m_values, count, tau0=1.0):
    """A stability config on a white FM series of ``count`` samples, and its parsed form."""
    path = tmp_path / "stability.yaml"
    path.write_text(
        f"command: stability\nseed: 1\nstability:\n  variant: {variant}\n  m_values: {list(m_values)}\n"
        f"  noise: {{kind: white_fm, amplitude: 1.0, count: {count}, tau0: {tau0}}}\n"
    )
    return path, load_config(path, command="stability")


def _expected_curve(config):
    """The curve the CLI computes for a stability config."""
    run = config.payload
    spec = replace(run.noise.spec, seed=derive_seed(config.seed, run.noise.spec.seed))
    series = generate_noise(spec, run.noise.count, run.noise.tau0)
    return stability_curve(series, run.m_values or octave_m_values(len(series), run.variant), run.variant)


def test_emit_sigma_tau_single_point(tmp_path):
    path, config = _stability_config(tmp_path, "ffi1", [1], 8, tau0=0.5)
    assert run_cli("stability", path, tmp_path) == 0
    (point,) = _expected_curve(config).points
    lines = (tmp_path / "sigma_tau.csv").read_text(encoding="utf-8").splitlines()
    assert lines == [f"# config_sha256={hashlib.sha256(config.raw_bytes).hexdigest()}", "# seed=1",
                     "# source_length=8", "tau_s,value,m,variant", f"0.5,{point.value!r},1,ffi1"]


# The largest averaging factor a 16-sample series holds is 8 for FFI0/FFI1
# (2m samples) and 5 for FFI2/TDEV (3m - 1 samples); one more empties the curve.
@pytest.mark.parametrize("variant,m,written", [
    ("ffi0", 8, True), ("ffi0", 9, False),
    ("ffi1", 8, True), ("ffi1", 9, False),
    ("ffi2", 5, True), ("ffi2", 6, False),
    ("tdev", 5, True), ("tdev", 6, False),
])
def test_emit_sigma_tau_rejects_empty_curve(variant, m, written, tmp_path, capsys):
    path, _ = _stability_config(tmp_path, variant, [m], 16)
    if written:
        assert run_cli("stability", path, tmp_path) == 0
        _, columns = _table(tmp_path / "sigma_tau.csv")
        assert (columns["m"], columns["variant"]) == ([str(m)], [variant])
    else:
        assert run_cli("stability", path, tmp_path) == 3
        assert capsys.readouterr().err == "combsync: error: cannot write an empty stability curve\n"
        assert not (tmp_path / "sigma_tau.csv").exists()


def test_round_trip_exact(tmp_path):
    # tau0 = 0.3 makes every tau = m * tau0 a float whose shortest repr must read back to the same bits.
    path, config = _stability_config(tmp_path, "tdev", [1, 2, 4, 8, 16], 128, tau0=0.3)
    assert run_cli("stability", path, tmp_path) == 0
    curve = _curve(_table(tmp_path / "sigma_tau.csv")[1])
    assert curve == _expected_curve(config)


def test_warnings_round_trip(tmp_path):
    path, config = _stability_config(tmp_path, "ffi1", [1, 64, 128], 16)
    assert run_cli("stability", path, tmp_path) == 0
    curve = _expected_curve(config)
    assert len(curve.warnings) == 2
    header, columns = _table(tmp_path / "sigma_tau.csv")
    assert list(header) == ["config_sha256", "seed", "warning_0", "warning_1", "source_length"]
    assert [header["warning_0"], header["warning_1"]] == list(curve.warnings)
    assert "m=64" in header["warning_0"] and "m=128" in header["warning_1"]
    assert columns["m"] == ["1"]


_GEOMETRY = "wavelength: 1.56e-6, aperture_radius: 0.3"


@pytest.mark.parametrize("link,r,fault", [
    ("{distance_km: 100.0, delay_ab: 3.0e-4, delay_ba: 3.0e-4, eta_detector: 1.0}", 400.0, "ZeroDivisionError"),
    (f"{{distance_km: 100.0, delay_ab: 3.0e-4, delay_ba: 3.0e-4, geometric: {{{_GEOMETRY}, waist: 1.0e-300}}}}",
     1.0, "ZeroDivisionError"),
    (f"{{distance_km: 1.0e300, delay_ab: 3.0e-4, delay_ba: 3.0e-4, geometric: {{{_GEOMETRY}, waist: 0.16552}}}}",
     1.0, "OverflowError"),
], ids=["squeezed-deviation-underflows", "rayleigh-range-underflows", "beam-radius-overflows"])
def test_float_range_fault_exits_3_with_one_named_line(link, r, fault, tmp_path, capsys):
    config = tmp_path / "range.yaml"
    config.write_text(f"command: advantage\nadvantage:\n  link: {link}\n"
                      f"  estimator: {{method: temporal_mode, n: 1000.0, nu0: 1.92e14, t0: 1.0e-14, r: {r}}}\n")
    assert run_cli("advantage", config, tmp_path) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"combsync: error: advantage: a result left the float range ({fault})"]


def _spoiled(name, spoil):
    """``cli.<name>`` with ``spoil`` applied to what the real function returns."""
    real = getattr(cli, name)
    return lambda *args, **kwargs: spoil(real(*args, **kwargs))


def _set(array, index, value):
    array[index] = value
    return array


# Each case hands the writer one non-finite float: a column cell, a header or summary value, a curve value.
NON_FINITE = {
    "noise-sample": ("noise", "noise_random_walk_fm.yaml", "generate_noise",
                     lambda series: replace(series, samples=_set(series.samples, 7, np.nan))),
    "campaign-estimate": ("sync", "sync_white_pm.yaml", "run_sync_campaign",
                          lambda result: replace(result, estimates=_set(result.estimates, 0, np.inf))),
    "campaign-summary": ("sync", "sync_white_pm.yaml", "run_sync_campaign",
                         lambda result: replace(result, sigma_delta_t=math.inf)),
    "curve-value": ("stability", "stability_white_pm_ffi2.yaml", "stability_curve",
                    lambda curve: SimpleNamespace(points=[SimpleNamespace(**{**vars(p), "value": math.nan})
                                                          for p in curve.points], warnings=curve.warnings)),
    "monte-carlo-mean": ("quantum-scaling", "scaling_sql.yaml", "monte_carlo_sigma",
                         lambda draw: (-math.inf, draw[1])),
    "advantage-ratio": ("advantage", "advantage_leo.yaml", "advantage_report",
                        lambda report: replace(report, advantage_ratio=math.nan)),
}


@pytest.mark.parametrize("command,fixture,name,spoil", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_value_exits_3_and_writes_no_artifact(command, fixture, name, spoil, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(cli, name, _spoiled(name, spoil))
    out = tmp_path / "out"
    assert run_cli(command, CONFIGS / fixture, out) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"combsync: error: {command}: a result left the float range (FloatingPointError)"]
    assert list(out.iterdir()) == []


def test_output_path_collision_exits_4(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    assert run_cli("noise", CONFIGS / "noise_flicker_fm.yaml", blocker) == 4
    assert "i/o error" in capsys.readouterr().err


def test_scaling_hl_fixture_exponent(tmp_path):
    assert run_cli("quantum-scaling", CONFIGS / "scaling_hl.yaml", tmp_path) == 0
    header, _ = _table(tmp_path / "scaling.csv")
    assert float(header["fitted_exponent"]) == pytest.approx(-1.0, abs=0.05)


def test_advantage_fixture_reports_flag(tmp_path):
    assert run_cli("advantage", CONFIGS / "advantage_leo.yaml", tmp_path) == 0
    text = (tmp_path / "advantage.txt").read_text()
    assert "advantage_ratio = " in text
    assert "required_db_for_2x = " in text


def _table(path):
    with open(path, encoding="utf-8") as fh:
        return read_table(fh)


def _curve(columns):
    """The stability curve whose points are the cells of a sigma_tau.csv table."""
    cells = zip(*(columns[name] for name in ("tau_s", "value", "m", "variant")))
    return StabilityCurve(points=tuple(StabilityPoint(float(tau), float(value), int(m), Variant(variant))
                                       for tau, value, m, variant in cells))


def _bits(values):
    """Floats (or cells parsed as floats) as hex strings, so that == compares bit for bit."""
    return [float(v).hex() for v in values]


def _text_artifact(path):
    """The ``key = value`` pairs of a text artifact and the fields of its ``tdev`` lines."""
    pairs, tdev = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("tdev "):
            tdev.append(dict(field.split("=") for field in line.split()[1:]))
        elif not line.startswith(("#", "warning: ")):
            key, value = line.split(" = ")
            pairs[key] = value
    return pairs, tdev


def test_noise_cells_parse_to_the_generated_floats(tmp_path):
    config = CONFIGS / "noise_flicker_fm.yaml"
    assert run_cli("noise", config, tmp_path) == 0
    source = load_config(config, command="noise").payload
    spec = replace(source.spec, seed=derive_seed(17, source.spec.seed))
    samples = generate_noise(spec, source.count, source.tau0).samples
    _, columns = _table(tmp_path / "noise.csv")
    assert columns["k"] == [str(k) for k in range(len(samples))]
    assert _bits(columns["y"]) == _bits(samples.tolist())


def test_campaign_cells_parse_to_the_campaign_floats(tmp_path):
    config = CONFIGS / "sync_white_pm.yaml"
    assert run_cli("sync", config, tmp_path) == 0
    run = load_config(config, command="sync").payload
    result = run_sync_campaign(run.campaign, run.trials, 9)
    _, columns = _table(tmp_path / "campaign.csv")
    assert columns["trial"] == [str(k) for k in range(run.trials)]
    assert _bits(columns["estimate_s"]) == _bits(result.estimates.tolist())
    assert _bits(columns["truth_s"]) == _bits([result.truth] * run.trials)
    assert _bits(columns["residual_s"]) == _bits(result.residuals.tolist())

    pairs, tdev = _text_artifact(tmp_path / "campaign_summary.txt")
    t_r, dphi = comb_time_params(run.comb)
    points = result.tdev_curve.points
    expected = {"trials": run.trials, "mean_offset_s": result.mean_offset,
                "sigma_delta_t_s": result.sigma_delta_t, "sigma_excess_s": run.campaign.link.sigma_excess,
                "comb_t_r_s": t_r, "comb_delta_phi_ceo_rad": dphi, "tdev_points": len(points)}
    assert list(pairs) == list(expected)
    assert _bits(pairs.values()) == _bits(expected.values())
    assert [t["m"] for t in tdev] == [str(p.m) for p in points]
    assert _bits(t["tau_s"] for t in tdev) == _bits(p.tau for p in points)
    assert _bits(t["value_s"] for t in tdev) == _bits(p.value for p in points)


@pytest.mark.parametrize("fixture", ["stability_white_fm.yaml", "stability_white_pm_ffi2.yaml",
                                     "stability_tdev_m_values.yaml"])
def test_sigma_tau_cells_parse_to_the_curve_floats(fixture, tmp_path):
    config = load_config(CONFIGS / fixture, command="stability")
    assert run_cli("stability", CONFIGS / fixture, tmp_path) == 0
    run = config.payload
    spec = replace(run.noise.spec, seed=derive_seed(config.seed, run.noise.spec.seed))
    series = generate_noise(spec, run.noise.count, run.noise.tau0)
    curve = stability_curve(series, run.m_values or octave_m_values(len(series), run.variant), run.variant)
    header, columns = _table(tmp_path / "sigma_tau.csv")
    warnings = {f"warning_{i}": warning for i, warning in enumerate(curve.warnings)}
    assert header == {"config_sha256": hashlib.sha256(config.raw_bytes).hexdigest(), "seed": str(config.seed),
                      **warnings, "source_length": str(len(series))}
    assert list(header) == ["config_sha256", "seed", *warnings, "source_length"]
    assert list(columns) == ["tau_s", "value", "m", "variant"]
    assert _bits(columns["tau_s"]) == _bits(p.tau for p in curve.points)
    assert _bits(columns["value"]) == _bits(p.value for p in curve.points)
    assert columns["m"] == [str(p.m) for p in curve.points]
    assert columns["variant"] == [run.variant.value] * len(curve.points)


@pytest.mark.parametrize("fixture", ["scaling_sql.yaml", "scaling_hl.yaml"])
def test_scaling_cells_parse_to_the_monte_carlo_floats(fixture, tmp_path):
    config = load_config(CONFIGS / fixture, command="quantum-scaling")
    assert run_cli("quantum-scaling", CONFIGS / fixture, tmp_path) == 0
    run = config.payload
    if run.mode == "sql":
        points = [(n, 0.0) for n in run.n_values]
    else:
        points = [(float(np.sinh(r) ** 2), r) for r in run.r_values]
    models = [EstimatorModel(method=run.method, n=n, nu0=run.nu0, t0=run.t0, r=r) for n, r in points]
    draws = [monte_carlo_sigma(model, run.trials, derive_seed(config.seed, i)) for i, model in enumerate(models)]
    header, columns = _table(tmp_path / "scaling.csv")
    assert _bits(columns["n"]) == _bits(n for n, _ in points)
    assert _bits(columns["r"]) == _bits(r for _, r in points)
    assert _bits(columns["sigma_model"]) == _bits(map(model_sigma, models))
    assert _bits(columns["mc_mean"]) == _bits(mean for mean, _ in draws)
    assert _bits(columns["mc_std"]) == _bits(std for _, std in draws)
    exponent = np.polyfit(np.log10([n for n, _ in points]), np.log10([std for _, std in draws]), 1)[0]
    assert _bits([header["fitted_exponent"]]) == _bits([exponent])


def test_advantage_cells_parse_to_the_report_floats(tmp_path):
    config = load_config(CONFIGS / "advantage_leo.yaml", command="advantage")
    assert run_cli("advantage", CONFIGS / "advantage_leo.yaml", tmp_path) == 0
    report = advantage_report(config.payload.link, config.payload.estimator)
    pairs, tdev = _text_artifact(tmp_path / "advantage.txt")
    expected = {"eta_total": report.eta_total, "sigma_classical_s": report.sigma_classical,
                "sigma_quantum_s": report.sigma_quantum, "advantage_ratio": report.advantage_ratio}
    required = report.required_db_for_2x
    assert pairs.pop("required_db_for_2x") == ("unattainable" if required is None else repr(required))
    assert list(pairs) == list(expected) and tdev == []
    assert _bits(pairs.values()) == _bits(expected.values())


def test_advantage_with_dead_detector_is_unattainable(tmp_path):
    config = tmp_path / "dead.yaml"
    config.write_text(
        "command: advantage\nadvantage:\n"
        "  link: {distance_km: 100.0, delay_ab: 3.0e-4, delay_ba: 3.0e-4, eta_detector: 0}\n"
        "  estimator: {method: temporal_mode, n: 1000.0, nu0: 1.92e14, t0: 1.0e-14, r: 1.0}\n"
    )
    assert run_cli("advantage", config, tmp_path) == 0
    text = (tmp_path / "advantage.txt").read_text()
    assert "eta_total = 0.0\n" in text
    assert "advantage_ratio = 1.0\n" in text
    assert "required_db_for_2x = unattainable\n" in text


def _run_module(tmp_path, block, **env):
    """``python -m combsync.cli quantum-scaling`` in a fresh interpreter, on the package under test."""
    config = tmp_path / "cfg.yaml"
    config.write_text(f"command: quantum-scaling\nseed: 1\nquantum_scaling: {block}\n")
    path = os.pathsep.join(filter(None, [str(Path(combsync.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "combsync.cli", "quantum-scaling", "--config", str(config), "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, **env, "PYTHONPATH": path}, timeout=120)


def test_overflowing_squeezing_fails_with_one_stderr_line(tmp_path):
    proc = _run_module(tmp_path, "{mode: hl, trials: 100, method: temporal_mode, nu0: 1.92e14, "
                                 "t0: 1.0e-14, r_values: [1.0, 800.0]}")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "combsync: error: quantum-scaling: a result left the float range (FloatingPointError)"]


def test_underflowing_deviation_succeeds_with_empty_stderr(tmp_path):
    proc = _run_module(tmp_path, "{mode: sql, method: tof, n_values: [1.0e300, 1.0e305], t0: 1.0e-300, "
                                 "nu0: 1.92e14, trials: 100}")
    assert (proc.returncode, proc.stderr) == (0, "")
    header, columns = _table(tmp_path / "scaling.csv")
    assert header["fitted_exponent"] == "nan"
    assert columns == {"n": ["1e+300", "1e+305"], "r": ["0.0", "0.0"], "sigma_model": ["0.0", "0.0"],
                       "mc_mean": ["0.0", "0.0"], "mc_std": ["0.0", "0.0"]}


def test_unknown_log_level_exits_2_with_one_line(tmp_path):
    proc = _run_module(tmp_path, "{mode: sql, trials: 100, nu0: 1.92e14, t0: 1.0e-14, n_values: [10, 100]}",
                       COMBSYNC_LOG="bogus")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["combsync: COMBSYNC_LOG must be a level name: "
                                        "DEBUG, INFO, WARNING, ERROR or CRITICAL; got 'BOGUS'"]


def test_floating_point_fault_is_logged_at_info(tmp_path):
    # Draws near 1e-201 square to below the smallest float inside the sample deviation.
    proc = _run_module(tmp_path, "{mode: sql, method: tof, n_values: [10, 100], t0: 1.0e-200, "
                                 "nu0: 1.92e14, trials: 100}", COMBSYNC_LOG="info")
    assert proc.returncode == 0
    assert "INFO combsync: numpy floating-point underflow" in proc.stderr.splitlines()
    header, columns = _table(tmp_path / "scaling.csv")
    assert (header["fitted_exponent"], columns["mc_std"]) == ("nan", ["0.0", "0.0"])


def test_log_level_is_read_on_every_call(tmp_path, monkeypatch, caplog, capsys):
    # caplog only listens: the level comes from COMBSYNC_LOG alone.
    logger = logging.getLogger("combsync")
    saved = logger.level
    config = CONFIGS / "advantage_leo.yaml"
    try:
        monkeypatch.setenv("COMBSYNC_LOG", "WARNING")
        assert run_cli("advantage", config, tmp_path / "quiet") == 0
        assert not [r for r in caplog.records if r.name == "combsync"]
        monkeypatch.setenv("COMBSYNC_LOG", "INFO")
        assert run_cli("advantage", config, tmp_path / "loud") == 0
        messages = [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "combsync"]
        assert messages == [("INFO", f"wrote {tmp_path / 'loud' / 'advantage.txt'}")]
    finally:
        logger.setLevel(saved)
