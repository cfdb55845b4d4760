from dataclasses import replace
from pathlib import Path

import pytest

from combsync.cli import emit_sigma_tau, main
from combsync.config import load_config
from combsync.errors import InvalidArgument
from combsync.noisegen import generate_noise
from combsync.seeding import derive_seed
from combsync.stability import (
    StabilityCurve,
    StabilityPoint,
    Variant,
    curve_from_csv,
    fit_slope,
)
from combsync.synclink import run_sync_campaign

CONFIGS = Path(__file__).parent / "configs"

ALL_FIXTURES = [
    ("noise", "noise_flicker_fm.yaml", ["noise.csv"]),
    ("stability", "stability_white_fm.yaml", ["sigma_tau.csv"]),
    ("sync", "sync_white_pm.yaml", ["campaign.csv", "campaign_summary.txt"]),
    ("quantum-scaling", "scaling_sql.yaml", ["scaling.csv"]),
    ("advantage", "advantage_leo.yaml", ["advantage.txt"]),
]


def run_cli(command, config, out, extra=()):
    return main([command, "--config", str(config), "--out", str(out), *extra])


@pytest.mark.parametrize("command,fixture,artifacts", ALL_FIXTURES)
def test_end_to_end_fixture(command, fixture, artifacts, tmp_path, capsys):
    assert run_cli(command, CONFIGS / fixture, tmp_path) == 0
    for name in artifacts:
        path = tmp_path / name
        assert path.exists(), name
        head = path.read_text().splitlines()
        assert head[0].startswith("# config_sha256=")
        assert head[1].startswith("# seed=")


@pytest.mark.parametrize("command,fixture,artifacts", ALL_FIXTURES)
def test_byte_identical_reruns(command, fixture, artifacts, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(command, CONFIGS / fixture, out1) == 0
    assert run_cli(command, CONFIGS / fixture, out2) == 0
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_white_fm_fixture_slope(tmp_path):
    assert run_cli("stability", CONFIGS / "stability_white_fm.yaml", tmp_path) == 0
    with open(tmp_path / "sigma_tau.csv") as fh:
        curve = curve_from_csv(fh)
    assert curve.source_length == 65536
    assert fit_slope(curve, (2.0, 2048.0)) == pytest.approx(-0.5, abs=0.1)


def test_white_pm_ffi2_fixture_slope_round_trip(tmp_path):
    assert run_cli("stability", CONFIGS / "stability_white_pm_ffi2.yaml", tmp_path) == 0
    with open(tmp_path / "sigma_tau.csv") as fh:
        curve = curve_from_csv(fh)
    assert curve.variant is Variant.FFI2
    assert fit_slope(curve, (4.0, 1024.0)) == pytest.approx(-1.5, abs=0.15)


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
    config.write_text("command: noise\nseed: [unclosed\n")
    assert run_cli("noise", config, tmp_path) == 2
    assert "config error" in capsys.readouterr().err


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


def test_config_output_field_used_without_out_flag(tmp_path):
    target = tmp_path / "from-config"
    config = tmp_path / "cfg.yaml"
    config.write_text(
        f"command: noise\nseed: 2\noutput: {target}\n"
        "noise: {kind: white_fm, amplitude: 1.0, count: 64, tau0: 1.0}\n"
    )
    assert main(["noise", "--config", str(config)]) == 0
    assert (target / "noise.csv").exists()


def test_seed_override_changes_output(tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    config = CONFIGS / "noise_flicker_fm.yaml"
    assert run_cli("noise", config, out1) == 0
    assert run_cli("noise", config, out2, extra=["--seed", "18"]) == 0
    assert run_cli("noise", config, out3, extra=["--seed", "17"]) == 0
    body = lambda p: [l for l in (p / "noise.csv").read_text().splitlines() if not l.startswith("#")]
    assert body(out1) != body(out2)
    assert body(out1) == body(out3)


def test_runtime_estimator_failure_exits_3(tmp_path, capsys):
    # Every requested averaging factor is too large for the series, so the
    # curve comes out empty and the emit step fails at run time.
    config = tmp_path / "short.yaml"
    config.write_text(
        "command: stability\nseed: 1\nstability:\n  variant: ffi2\n  m_values: [64]\n"
        "  noise: {kind: white_fm, amplitude: 1.0, count: 16, tau0: 1.0}\n"
    )
    assert run_cli("stability", config, tmp_path) == 3
    assert "empty" in capsys.readouterr().err


def test_output_path_collision_exits_4(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    assert run_cli("noise", CONFIGS / "noise_flicker_fm.yaml", blocker) == 4
    assert "i/o error" in capsys.readouterr().err


def test_emit_sigma_tau_single_point(tmp_path):
    curve = StabilityCurve(
        points=(StabilityPoint(tau=1.0, value=2.0, m=1, variant=Variant.FFI1),),
        source_length=8,
    )
    path = tmp_path / "single.csv"
    emit_sigma_tau(curve, path)
    lines = path.read_text().splitlines()
    assert lines == ["# source_length=8", "tau_s,value,m,variant", "1.0,2.0,1,ffi1"]


def test_emit_sigma_tau_rejects_empty_curve(tmp_path):
    with pytest.raises(InvalidArgument):
        emit_sigma_tau(StabilityCurve(points=()), tmp_path / "x.csv")


def test_scaling_hl_fixture_exponent(tmp_path):
    assert run_cli("quantum-scaling", CONFIGS / "scaling_hl.yaml", tmp_path) == 0
    text = (tmp_path / "scaling.csv").read_text()
    exponent = float(next(l for l in text.splitlines() if l.startswith("# fitted_exponent=")).split("=")[1])
    assert exponent == pytest.approx(-1.0, abs=0.05)


def test_advantage_fixture_reports_flag(tmp_path):
    assert run_cli("advantage", CONFIGS / "advantage_leo.yaml", tmp_path) == 0
    text = (tmp_path / "advantage.txt").read_text()
    assert "advantage_ratio = " in text
    assert "required_db_for_2x = " in text


def _cells(path):
    """Data rows of a CSV artifact, every cell parsed with float()."""
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    return [[float(cell) for cell in row.split(",")] for row in rows]


def test_noise_cells_parse_to_the_generated_floats(tmp_path):
    config = CONFIGS / "noise_flicker_fm.yaml"
    assert run_cli("noise", config, tmp_path) == 0
    source = load_config(config, command="noise").payload
    spec = replace(source.spec, seed=derive_seed(17, source.spec.seed))
    samples = generate_noise(spec, source.count, source.tau0).samples
    rows = _cells(tmp_path / "noise.csv")
    assert [k for k, _ in rows] == list(range(len(samples)))
    assert [y for _, y in rows] == samples.tolist()


def test_campaign_cells_parse_to_the_campaign_floats(tmp_path):
    config = CONFIGS / "sync_white_pm.yaml"
    assert run_cli("sync", config, tmp_path) == 0
    run = load_config(config, command="sync").payload
    result = run_sync_campaign(run.campaign, run.trials, 9)
    rows = _cells(tmp_path / "campaign.csv")
    assert [row[0] for row in rows] == list(range(run.trials))
    assert [row[1] for row in rows] == result.estimates.tolist()
    assert {row[2] for row in rows} == {result.truth}
    assert [row[3] for row in rows] == result.residuals.tolist()


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
