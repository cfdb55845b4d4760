"""The YAML config layer: one exact message per single-fault document, the
payloads of the fixture configs, and the CLI's outcome on documents at the
documented domain boundaries."""

import contextlib
import copy
import io
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from combsync import cli
from combsync.artifacts import read_table
from combsync.cli import main
from combsync.clockmodel import ClockModel, CombParams
from combsync.config import (
    MAX_NESTING,
    AdvantageRun,
    ConfigError,
    ScalingRun,
    SeriesSource,
    StabilityRun,
    SyncRun,
    load_config,
)
from combsync.noisegen import NoiseKind, NoiseSpec
from combsync.quantum import EstimatorMethod, EstimatorModel
from combsync.stability import Variant
from combsync.synclink import GeometricParams, LinkModel, SyncCampaign

CONFIGS = Path(__file__).parent / "configs"
DELETE = object()

LINK = {
    "distance_km": 100.0, "delay_ab": 3.3e-4, "delay_ba": 3.3e-4, "troposphere": False,
    "eta_detector": 1.0, "sigma_excess": 0.0,
    "geometric": {"wavelength": 1.56e-6, "waist": 0.16552, "aperture_radius": 0.3},
}
ESTIMATOR = {"method": "temporal_mode", "n": 100.0, "nu0": 1.92e14, "t0": 1.0e-14, "r": 0.0}
SERIES = {"kind": "white_fm", "amplitude": 1.0e-24, "seed": 0, "count": 64, "tau0": 1.0}
SCALING = {"trials": 100, "method": "temporal_mode", "nu0": 1.92e14, "t0": 1.0e-14}

#: One valid document per block shape; every case below changes one thing in one of them.
BASE = {
    "noise": {"command": "noise", "seed": 1, "noise": SERIES},
    "stability": {"command": "stability", "seed": 1,
                  "stability": {"variant": "ffi1", "m_values": [1, 2, 4], "noise": SERIES}},
    "sync": {"command": "sync", "seed": 1, "sync": {
        "trials": 128, "interval": 1.0, "true_offset": 0.0,
        "clock_a": {"nu0": 1.94e14, "frac_freq_offset": 0.0, "drift": 0.0,
                    "noise": [{"kind": "white_pm", "amplitude": 1.0e-24, "seed": 1}]},
        "clock_b": {"nu0": 1.94e14},
        "link": LINK,
        "estimator": ESTIMATOR,
        "comb": {"f_r": 1.0e8, "f_0": 2.0e7, "t_0": 1.0e-13, "n_range": [1, 3000000]},
    }},
    "sql": {"command": "quantum-scaling", "seed": 1,
            "quantum_scaling": {"mode": "sql", **SCALING, "n_values": [100, 1000]}},
    "hl": {"command": "quantum-scaling", "seed": 1,
           "quantum_scaling": {"mode": "hl", **SCALING, "r_values": [0.5, 1.0]}},
    "advantage": {"command": "advantage", "advantage": {"link": LINK, "estimator": ESTIMATOR}},
}

KINDS = "white_pm, flicker_pm, white_fm, flicker_fm, random_walk_fm"
HUGE = 10**400

# (base document, where, new value or DELETE, exact ConfigError text)
CASES = [
    # top level; an empty where replaces the whole document
    ("noise", (), [1, 2], "the config must be a mapping, got list"),
    ("noise", (), "noise", "the config must be a mapping, got str"),
    ("noise", ("seed",), "x", "'seed' must be an integer, got 'x'"),
    ("noise", ("seed",), 1.0, "'seed' must be an integer, got 1.0"),
    ("noise", ("seed",), -1, "invalid 'seed': seed must be >= 0 and < 2**64, got -1"),
    ("noise", ("seed",), 2**64, f"invalid 'seed': seed must be >= 0 and < 2**64, got {2**64}"),
    ("noise", ("seed",), DELETE, "command 'noise' is stochastic and requires a seed"),
    ("noise", ("command",), "bogus",
     "'command' must be one of: noise, stability, sync, quantum-scaling, advantage; got 'bogus'"),
    ("noise", ("command",), DELETE, "no command given on the command line or in the config"),
    ("noise", ("output",), 3, "unknown key 'output'"),
    ("noise", ("bogus",), 1, "unknown key 'bogus'"),
    ("noise", ("noise",), DELETE, "missing parameter block 'noise'"),
    ("noise", ("stability",), {}, "unexpected parameter block 'stability' for command 'noise'"),
    # noise: a series source with its noise spec inline
    ("noise", ("noise",), [1], "'noise' must be a mapping, got list"),
    ("noise", ("noise", "kind"), DELETE, "missing required key 'noise.kind'"),
    ("noise", ("noise", "kind"), "pink", f"'noise.kind' must be one of: {KINDS}; got 'pink'"),
    ("noise", ("noise", "amplitude"), DELETE, "missing required key 'noise.amplitude'"),
    ("noise", ("noise", "amplitude"), "x", "'noise.amplitude' must be a number, got 'x'"),
    ("noise", ("noise", "amplitude"), True, "'noise.amplitude' must be a number, got True"),
    ("noise", ("noise", "amplitude"), float("nan"), "'noise.amplitude' must be finite, got nan"),
    ("noise", ("noise", "amplitude"), float("inf"), "'noise.amplitude' must be finite, got inf"),
    ("noise", ("noise", "amplitude"), HUGE, f"'noise.amplitude' must be finite, got {HUGE}"),
    ("noise", ("noise", "amplitude"), -1.0,
     "invalid 'noise': amplitude must be finite and >= 0, got -1.0"),
    ("noise", ("noise", "seed"), 1.5, "'noise.seed' must be an integer, got 1.5"),
    ("noise", ("noise", "seed"), -1, "invalid 'noise': seed must be >= 0 and < 2**64, got -1"),
    ("noise", ("noise", "count"), DELETE, "missing required key 'noise.count'"),
    ("noise", ("noise", "count"), 64.0, "'noise.count' must be an integer, got 64.0"),
    ("noise", ("noise", "count"), False, "'noise.count' must be an integer, got False"),
    ("noise", ("noise", "tau0"), None, "'noise.tau0' must be a number, got None"),
    ("noise", ("noise", "ampltude"), 1.0, "unknown key 'noise.ampltude'"),
    # stability
    ("stability", ("stability",), "ffi1", "'stability' must be a mapping, got str"),
    ("stability", ("stability", "noise"), DELETE, "missing required key 'stability.noise'"),
    ("stability", ("stability", "noise"), 3, "'stability.noise' must be a mapping, got int"),
    ("stability", ("stability", "noise", "kind"), "pink",
     f"'stability.noise.kind' must be one of: {KINDS}; got 'pink'"),
    ("stability", ("stability", "noise", "count"), DELETE, "missing required key 'stability.noise.count'"),
    ("stability", ("stability", "noise", "variant"), "ffi1", "unknown key 'stability.noise.variant'"),
    ("stability", ("stability", "variant"), DELETE, "missing required key 'stability.variant'"),
    ("stability", ("stability", "variant"), "ffi3",
     "'stability.variant' must be one of: ffi0, ffi1, ffi2, tdev; got 'ffi3'"),
    ("stability", ("stability", "m_values"), [], "invalid 'stability': m_values must not be empty"),
    ("stability", ("stability", "m_values"), [0], "invalid 'stability': m must be >= 1 and < 2**53, got 0"),
    ("stability", ("stability", "m_values"), [2**53], f"invalid 'stability': m must be >= 1 and < 2**53, got {2**53}"),
    ("stability", ("stability", "m_values"), [1, 2.0], "'stability.m_values[1]' must be an integer, got 2.0"),
    ("stability", ("stability", "m_values"), [True], "'stability.m_values[0]' must be an integer, got True"),
    ("stability", ("stability", "m_values"), 4, "'stability.m_values' must be a list, got int"),
    ("stability", ("stability", "m_values"), None, "'stability.m_values' must be a list, got NoneType"),
    ("stability", ("stability", "m_value"), [1], "unknown key 'stability.m_value'"),
    # sync: the campaign's keys sit in the sync block
    ("sync", ("sync", "trials"), DELETE, "missing required key 'sync.trials'"),
    ("sync", ("sync", "trials"), 1.5, "'sync.trials' must be an integer, got 1.5"),
    ("sync", ("sync", "trails"), 128, "unknown key 'sync.trails'"),
    ("sync", ("sync", "interval"), "x", "'sync.interval' must be a number, got 'x'"),
    ("sync", ("sync", "interval"), -1.0, "invalid 'sync': interval must be finite and positive, got -1.0"),
    ("sync", ("sync", "true_offset"), float("nan"), "'sync.true_offset' must be finite, got nan"),
    ("sync", ("sync", "turnaround"), 1.0e-3, "unknown key 'sync.turnaround'"),
    ("sync", ("sync", "clock_a"), DELETE, "missing required key 'sync.clock_a'"),
    ("sync", ("sync", "clock_b"), "quartz", "'sync.clock_b' must be a mapping, got str"),
    ("sync", ("sync", "clock_a", "nu0"), DELETE, "missing required key 'sync.clock_a.nu0'"),
    ("sync", ("sync", "clock_a", "nu0"), -1.0,
     "invalid 'sync.clock_a': nu0 must be finite and positive, got -1.0"),
    ("sync", ("sync", "clock_a", "drift"), float("inf"), "'sync.clock_a.drift' must be finite, got inf"),
    ("sync", ("sync", "clock_a", "frac_freq_offset"), [0.0],
     "'sync.clock_a.frac_freq_offset' must be a number, got [0.0]"),
    ("sync", ("sync", "clock_a", "phi0"), 0.0, "unknown key 'sync.clock_a.phi0'"),
    ("sync", ("sync", "clock_b", "s0"), 1.0, "unknown key 'sync.clock_b.s0'"),
    ("sync", ("sync", "clock_a", "noise"), {"kind": "white_pm"}, "'sync.clock_a.noise' must be a list, got dict"),
    ("sync", ("sync", "clock_a", "noise"), None, "'sync.clock_a.noise' must be a list, got NoneType"),
    ("sync", ("sync", "clock_a", "noise", 0), 7, "'sync.clock_a.noise[0]' must be a mapping, got int"),
    ("sync", ("sync", "clock_a", "noise", 0, "kind"), DELETE,
     "missing required key 'sync.clock_a.noise[0].kind'"),
    ("sync", ("sync", "clock_a", "noise", 0, "amplitude"), -1.0,
     "invalid 'sync.clock_a.noise[0]': amplitude must be finite and >= 0, got -1.0"),
    ("sync", ("sync", "clock_a", "noise", 0, "count"), 8, "unknown key 'sync.clock_a.noise[0].count'"),
    ("sync", ("sync", "link"), DELETE, "missing required key 'sync.link'"),
    ("sync", ("sync", "link", "distance_km"), DELETE, "missing required key 'sync.link.distance_km'"),
    ("sync", ("sync", "link", "distance_km"), 0.0,
     "invalid 'sync.link': distance_km must be finite and positive, got 0.0"),
    ("sync", ("sync", "link", "troposphere"), 1, "'sync.link.troposphere' must be a boolean, got 1"),
    ("sync", ("sync", "link", "troposphere_enabled"), True,
     "unknown key 'sync.link.troposphere_enabled'"),
    ("sync", ("sync", "link", "eta_detector"), 1.5,
     "invalid 'sync.link': eta_detector must lie in [0, 1], got 1.5"),
    ("sync", ("sync", "link", "pointing_sigma"), 0.0, "unknown key 'sync.link.pointing_sigma'"),
    ("sync", ("sync", "link", "geometric"), None, "'sync.link.geometric' must be a mapping, got NoneType"),
    ("sync", ("sync", "link", "geometric", "waist"), DELETE,
     "missing required key 'sync.link.geometric.waist'"),
    ("sync", ("sync", "link", "geometric", "waist"), -1.0,
     "invalid 'sync.link.geometric': waist must be finite and positive, got -1.0"),
    ("sync", ("sync", "estimator"), None, "'sync.estimator' must be a mapping, got NoneType"),
    ("sync", ("sync", "estimator", "method"), DELETE, "missing required key 'sync.estimator.method'"),
    ("sync", ("sync", "estimator", "method"), "tdc",
     "'sync.estimator.method' must be one of: tof, phase, temporal_mode; got 'tdc'"),
    ("sync", ("sync", "estimator", "n"), 0.0,
     "invalid 'sync.estimator': n must be finite and positive, got 0.0"),
    ("sync", ("sync", "estimator"), {**ESTIMATOR, "method": "tof", "r": 1.0},
     "invalid 'sync.estimator': squeezing (r > 0) requires the temporal-mode method"),
    ("sync", ("sync", "comb"), [1], "'sync.comb' must be a mapping, got list"),
    ("sync", ("sync", "comb", "f_r"), DELETE, "missing required key 'sync.comb.f_r'"),
    ("sync", ("sync", "comb", "f_0"), 1.0e8,
     "invalid 'sync.comb': offset frequency must satisfy 0 <= f_0 < f_r, got 100000000.0"),
    ("sync", ("sync", "comb", "n_range"), DELETE, "missing required key 'sync.comb.n_range'"),
    ("sync", ("sync", "comb", "n_range"), [1],
     "invalid 'sync.comb': n_range must be a pair (lo, hi) with lo <= hi, got (1,)"),
    ("sync", ("sync", "comb", "n_range"), [1, 2.5], "'sync.comb.n_range[1]' must be an integer, got 2.5"),
    ("sync", ("sync", "comb", "n_range"), [True, 3], "'sync.comb.n_range[0]' must be an integer, got True"),
    ("sync", ("sync", "comb", "n_range"), "1-3", "'sync.comb.n_range' must be a list, got str"),
    ("sync", ("sync", "comb", "n_range"), [0, 3], "invalid 'sync.comb': n_range[0] must be >= 1 and < 2**53, got 0"),
    ("sync", ("sync", "comb", "t0"), 1.0, "unknown key 'sync.comb.t0'"),
    # quantum-scaling: the mode decides which list is allowed
    ("sql", ("quantum_scaling", "mode"), DELETE, "missing required key 'quantum_scaling.mode'"),
    ("sql", ("quantum_scaling", "mode"), "SQL", "invalid 'quantum_scaling': mode must be 'sql' or 'hl', got 'SQL'"),
    ("sql", ("quantum_scaling", "mode"), 1, "'quantum_scaling.mode' must be a string, got 1"),
    ("sql", ("quantum_scaling", "mdoe"), "sql", "unknown key 'quantum_scaling.mdoe'"),
    ("sql", ("quantum_scaling", "r_values"), [1.0],
     "invalid 'quantum_scaling': r_values is only valid in hl mode"),
    ("sql", ("quantum_scaling", "mode"), "hl", "invalid 'quantum_scaling': n_values is only valid in sql mode"),
    ("hl", ("quantum_scaling", "mode"), "sql", "invalid 'quantum_scaling': r_values is only valid in hl mode"),
    ("sql", ("quantum_scaling", "n_values"), DELETE, "invalid 'quantum_scaling': sql mode needs n_values"),
    ("hl", ("quantum_scaling", "r_values"), DELETE, "invalid 'quantum_scaling': hl mode needs r_values"),
    ("sql", ("quantum_scaling", "n_values"), [], "invalid 'quantum_scaling': sql mode needs n_values"),
    ("sql", ("quantum_scaling", "n_values"), [100, "a"], "'quantum_scaling.n_values[1]' must be a number, got 'a'"),
    ("hl", ("quantum_scaling", "r_values"), [True], "'quantum_scaling.r_values[0]' must be a number, got True"),
    ("hl", ("quantum_scaling", "r_values"), 1.0, "'quantum_scaling.r_values' must be a list, got float"),
    ("sql", ("quantum_scaling", "n_values"), [100, float("nan")],
     "'quantum_scaling.n_values[1]' must be finite, got nan"),
    ("sql", ("quantum_scaling", "n_values"), [100, HUGE], f"'quantum_scaling.n_values[1]' must be finite, got {HUGE}"),
    ("hl", ("quantum_scaling", "r_values"), [1.0, float("inf")],
     "'quantum_scaling.r_values[1]' must be finite, got inf"),
    ("sql", ("quantum_scaling", "trials"), DELETE, "missing required key 'quantum_scaling.trials'"),
    ("sql", ("quantum_scaling", "trials"), "many", "'quantum_scaling.trials' must be an integer, got 'many'"),
    ("sql", ("quantum_scaling", "method"), "tdc",
     "'quantum_scaling.method' must be one of: tof, phase, temporal_mode; got 'tdc'"),
    ("sql", ("quantum_scaling", "nu0"), DELETE, "missing required key 'quantum_scaling.nu0'"),
    ("hl", ("quantum_scaling", "t0"), float("-inf"), "'quantum_scaling.t0' must be finite, got -inf"),
    # quantum-scaling: the range rules of the estimator it sweeps, each item named
    ("sql", ("quantum_scaling", "nu0"), 0.0, "invalid 'quantum_scaling': nu0 must be finite and positive, got 0.0"),
    ("hl", ("quantum_scaling", "t0"), -1.0e-14,
     "invalid 'quantum_scaling': t0 must be finite and positive, got -1e-14"),
    ("sql", ("quantum_scaling", "n_values"), [-1.0, 100],
     "invalid 'quantum_scaling': n_values[0] must be finite and positive, got -1.0"),
    ("hl", ("quantum_scaling", "r_values"), [0.0, 1.0],
     "invalid 'quantum_scaling': r_values[0] must be finite and positive, got 0.0"),
    ("hl", ("quantum_scaling", "r_values"), [1.0e-200, 1.0],
     "invalid 'quantum_scaling': r_values[0] must give a photon number sinh(r)**2 > 0, got 0.0"),
    ("hl", ("quantum_scaling",), None, "'quantum_scaling' must be a mapping, got NoneType"),
    # advantage
    ("advantage", ("advantage", "link"), DELETE, "missing required key 'advantage.link'"),
    ("advantage", ("advantage", "estimator"), DELETE, "missing required key 'advantage.estimator'"),
    ("advantage", ("advantage", "estimator"), 1, "'advantage.estimator' must be a mapping, got int"),
    ("advantage", ("advantage", "estimator", "nu0"), "x",
     "'advantage.estimator.nu0' must be a number, got 'x'"),
    ("advantage", ("advantage", "estimator", "r"), -1.0,
     "invalid 'advantage.estimator': r must be finite and >= 0, got -1.0"),
    ("advantage", ("advantage", "link", "delay_ab"), -1.0,
     "invalid 'advantage.link': delay_ab must be finite and >= 0, got -1.0"),
    ("advantage", ("advantage", "link", "geometric", "aperture_radius"), DELETE,
     "missing required key 'advantage.link.geometric.aperture_radius'"),
    ("advantage", ("advantage", "seed"), 1, "unknown key 'advantage.seed'"),
    ("advantage", ("advantage", "link", "pointing_sigma"), 1e-6, "unknown key 'advantage.link.pointing_sigma'"),
]


def mutate(doc, where, value):
    if not where:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in where[:-1]:
        node = node[key]
    if value is DELETE:
        del node[where[-1]]
    else:
        node[where[-1]] = value
    return doc


def write(directory, doc) -> Path:
    path = Path(directory) / "config.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def _case_id(case):
    base, where, value, _ = case
    return f"{base}:{'.'.join(map(str, where))}={'<delete>' if value is DELETE else repr(value)[:24]}"


@pytest.mark.parametrize("base,where,value,message", CASES, ids=[_case_id(c) for c in CASES])
def test_single_fault_message(tmp_path, base, where, value, message):
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, mutate(BASE[base], where, value)))
    assert str(info.value) == message


def test_requested_command_must_match_the_file(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, BASE["noise"]), command="stability")
    assert str(info.value) == "config is for command 'noise' but 'stability' was requested"


@pytest.mark.parametrize("base,seed,message", [
    ("noise", "abc", "'seed' must be an integer, got 'abc'"),
    ("advantage", -5, "invalid 'seed': seed must be >= 0 and < 2**64, got -5"),
], ids=["noise-not-an-integer", "advantage-negative"])
def test_a_seed_override_does_not_hide_a_bad_file_seed(tmp_path, capsys, base, seed, message):
    path = write(tmp_path, mutate(BASE[base], ("seed",), seed))
    with pytest.raises(ConfigError) as info:
        load_config(path, seed_override=3)
    assert str(info.value) == message
    command = BASE[base]["command"]
    assert main([command, "--config", str(path), "--seed", "3", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"combsync: config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_seed_override_replaces_a_valid_file_seed(tmp_path):
    assert load_config(write(tmp_path, BASE["noise"]), seed_override=3).seed == 3
    with pytest.raises(ConfigError, match=r"^invalid 'seed': seed must be >= 0 and < 2\*\*64, got -1$"):
        load_config(write(tmp_path, BASE["noise"]), seed_override=-1)


@pytest.mark.parametrize("text,message", [
    ("command: noise\nseed: 1\nseed: 2\nnoise: {kind: white_fm, amplitude: 1.0, count: 64}\n",
     "duplicate key 'seed' on line 3"),
    ("command: noise\nseed: 1\nnoise:\n  kind: white_fm\n  amplitude: 1.0\n  amplitude: 2.0\n  count: 64\n",
     "duplicate key 'amplitude' on line 6"),
    ("command: sync\nseed: 1\nsync:\n  clock_a: {nu0: 1.0, noise: [{kind: white_pm, seed: 1, seed: 2}]}\n",
     "duplicate key 'seed' on line 4"),
])
def test_duplicate_keys_rejected(tmp_path, text, message):
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message


def test_duplicate_key_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.yaml"
    path.write_text(yaml.safe_dump(BASE["noise"], sort_keys=False) + "seed: 2\n")
    assert main(["noise", "--config", str(path), "--out", str(tmp_path)]) == 2
    line = len(path.read_text().splitlines())
    assert capsys.readouterr().err == f"combsync: config error: duplicate key 'seed' on line {line}\n"


#: One malformed config for each YAML stage (scanner, parser, composer, reader, constructor),
#: and its one-line message.
YAML_FAULTS = [
    (b"command: noise\nseed: @1\n",
     "cannot parse config: line 2, column 7: found character that cannot start any token "
     "(while scanning for the next token)"),
    (b"command: noise\nseed: [unclosed\n",
     "cannot parse config: line 3, column 1: did not find expected ',' or ']' "
     "(while parsing a flow sequence at line 2, column 7)"),
    (b"command: noise\nseed: *undefined\n",
     "cannot parse config: line 2, column 7: found undefined alias"),
    (b"command: noise\nseed: 1\xff\n",
     "cannot parse config: byte 22: unacceptable character #x00ff: invalid leading UTF-8 octet"),
    (b"command: noise\nseed: !!python/object:os.system 1\n",
     "cannot parse config: line 2, column 7: could not determine a constructor for the tag "
     "'tag:yaml.org,2002:python/object:os.system'"),
]


def test_yaml_errors_are_config_errors(tmp_path):
    path = tmp_path / "broken.yaml"
    for text, message in YAML_FAULTS:
        path.write_bytes(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message


#: Configs nested 2,000 and 100,000 levels deep (libyaml's composer overflows the C stack on the
#: second), and one with 100,000 unclosed '['.
@pytest.mark.parametrize("text,line", [
    ("[" * 2000 + "]" * 2000 + "\n", "line 1, column 101"),
    ("[" * 100_000 + "]" * 100_000 + "\n", "line 1, column 101"),
    ("command: noise\nseed: " + "[" * 100_000 + "\n", "line 2, column 106"),
], ids=["2000-deep", "100000-deep", "100000-unclosed"])
def test_deep_nesting_exits_2_with_one_line(tmp_path, text, line):
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "combsync.cli", "noise", "--config", str(path), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert (proc.returncode, proc.stderr) == (2, f"combsync: config error: cannot parse config: {line}: "
                                                 f"collections nested deeper than {MAX_NESTING} levels\n")


def test_overlong_integer_is_a_config_error(tmp_path):
    path = tmp_path / "long.yaml"
    path.write_text("command: noise\nseed: " + "9" * 5000
                    + "\nnoise: {kind: white_fm, amplitude: 1.0, count: 64}\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_an_empty_list_for_the_other_mode_is_an_absent_key(tmp_path):
    run = load_config(write(tmp_path, mutate(BASE["sql"], ("quantum_scaling", "r_values"), []))).payload
    assert (run.n_values, run.r_values) == ((100.0, 1000.0), ())


def test_optional_keys_take_the_field_defaults(tmp_path):
    doc = {"command": "sync", "seed": 1, "sync": {
        "trials": 128, "clock_a": {"nu0": 1.0}, "clock_b": {"nu0": 2.0},
        "link": {"distance_km": 1.0, "delay_ab": 0.0, "delay_ba": 0.0},
        "comb": {"f_r": 1.0e8, "t_0": 1.0e-13, "n_range": [1, 2]}}}
    run = load_config(write(tmp_path, doc)).payload
    assert repr(run) == repr(SyncRun(
        campaign=SyncCampaign(ClockModel(nu0=1.0), ClockModel(nu0=2.0),
                              LinkModel(distance_km=1.0, delay_ab=0.0, delay_ba=0.0)),
        trials=128,
        comb=CombParams(f_r=1.0e8, f_0=0.0, t_0=1.0e-13, n_range=(1, 2)),
    ))


def _link(**kwargs):
    return LinkModel(distance_km=100.0, delay_ab=3.3356409519815204e-4,
                     delay_ba=3.3356409519815204e-4, **kwargs)


def _clock(seed, *extra):
    return ClockModel(nu0=1.94e14, noise=(NoiseSpec(NoiseKind.WHITE_PM, 1.0e-24, seed), *extra))


FIXTURE_PAYLOADS = {
    "noise_flicker_fm.yaml": SeriesSource(NoiseSpec(NoiseKind.FLICKER_FM, 1.0e-22, 0), count=4096, tau0=0.5),
    "noise_flicker_pm.yaml": SeriesSource(NoiseSpec(NoiseKind.FLICKER_PM, 1.0e-22, 0), count=5119, tau0=0.5),
    "noise_random_walk_fm.yaml": SeriesSource(NoiseSpec(NoiseKind.RANDOM_WALK_FM, 1.0e-22, 0), count=4097,
                                              tau0=0.5),
    "stability_white_fm.yaml": StabilityRun(
        SeriesSource(NoiseSpec(NoiseKind.WHITE_FM, 1.0e-24, 0), count=65536, tau0=1.0),
        variant=Variant.FFI1, m_values=None),
    "stability_white_pm_ffi2.yaml": StabilityRun(
        SeriesSource(NoiseSpec(NoiseKind.WHITE_PM, 1.0e-24, 0), count=65536, tau0=1.0),
        variant=Variant.FFI2, m_values=None),
    "stability_flicker_pm_ffi0.yaml": StabilityRun(
        SeriesSource(NoiseSpec(NoiseKind.FLICKER_PM, 1.0e-24, 0), count=8192, tau0=1.0),
        variant=Variant.FFI0, m_values=None),
    "stability_tdev_m_values.yaml": StabilityRun(
        SeriesSource(NoiseSpec(NoiseKind.FLICKER_PM, 1.0e-24, 0), count=4096, tau0=1.0),
        variant=Variant.TDEV, m_values=(1, 3, 10, 30, 100, 2000)),
    "sync_white_pm.yaml": SyncRun(
        campaign=SyncCampaign(
            clock_a=_clock(1), clock_b=_clock(2), link=_link(), interval=1.0, true_offset=1.0e-6,
            estimator=EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=100.0, nu0=1.92e14, t0=1.0e-14)),
        trials=2048,
        comb=CombParams(f_r=1.0e8, f_0=2.0e7, t_0=1.0e-13, n_range=(1, 3000000))),
    "sync_flicker_fm.yaml": SyncRun(
        campaign=SyncCampaign(
            clock_a=_clock(1, NoiseSpec(NoiseKind.FLICKER_FM, 1.0e-30, 2)),
            clock_b=_clock(3, NoiseSpec(NoiseKind.FLICKER_FM, 1.0e-30, 4)),
            link=_link(), interval=1.0, true_offset=1.0e-6,
            estimator=EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=100.0, nu0=1.92e14, t0=1.0e-14)),
        trials=4096,
        comb=CombParams(f_r=1.0e8, f_0=2.0e7, t_0=1.0e-13, n_range=(1, 3000000))),
    "scaling_sql.yaml": ScalingRun(
        mode="sql", trials=1000, method=EstimatorMethod.TEMPORAL_MODE, nu0=1.92e14, t0=1.0e-14,
        n_values=(100.0, 316.0, 1000.0, 3160.0, 10000.0, 31600.0, 100000.0, 316000.0, 1000000.0),
        r_values=()),
    "scaling_hl.yaml": ScalingRun(
        mode="hl", trials=1000, method=EstimatorMethod.TEMPORAL_MODE, nu0=1.92e14, t0=1.0e-14,
        n_values=(), r_values=tuple(2.0 + 0.5 * i for i in range(13))),
    "advantage_leo.yaml": AdvantageRun(
        link=_link(eta_detector=0.9, geometric=GeometricParams(1.56e-6, 0.16552, 0.3)),
        estimator=EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=1000.0, nu0=1.92e14, t0=1.0e-14, r=1.727)),
}


def test_every_fixture_has_a_payload():
    assert sorted(FIXTURE_PAYLOADS) == sorted(p.name for p in CONFIGS.glob("*.yaml"))


@pytest.mark.parametrize("name", sorted(FIXTURE_PAYLOADS))
def test_fixture_payload(name):
    # repr, not ==, so that an int where a float belongs (or the reverse) shows.
    assert repr(load_config(CONFIGS / name).payload) == repr(FIXTURE_PAYLOADS[name])


def run_main(doc, inspect=None):
    """Exit code and stderr of one in-process CLI run of the document.

    The stderr is what a process of its own would print: its writes, one entry per Python warning
    and per combsync log record.  ``inspect(out)`` sees the output directory before it is removed.
    """
    err = io.StringIO()
    logger, handler = logging.getLogger("combsync"), logging.StreamHandler(err)
    with tempfile.TemporaryDirectory() as out:
        path = write(out, doc)
        command = doc.get("command", "noise")
        logger.addHandler(handler)
        try:
            with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = main([command, "--config", str(path), "--out", out])
        finally:
            logger.removeHandler(handler)
        if inspect is not None:
            inspect(Path(out))
    return code, err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)


@pytest.mark.parametrize("base", sorted(BASE))
def test_base_documents_run(base):
    assert run_main(BASE[base]) == (0, "")


@pytest.mark.parametrize("base,where,value,message", [
    ("noise", ("noise", "count"), 1, "count must be >= 2 and < 2**53, got 1"),
    ("noise", ("noise", "count"), 2**53, f"count must be >= 2 and < 2**53, got {2**53}"),
    ("noise", ("noise", "count"), 10**20, f"count must be >= 2 and < 2**53, got {10**20}"),
    ("noise", ("noise", "tau0"), 0.0, "tau0 must be finite and positive, got 0.0"),
    ("stability", ("stability", "noise", "count"), 2**63, f"count must be >= 2 and < 2**53, got {2**63}"),
    ("sync", ("sync", "trials"), 99, "trials must be >= 100 and < 2**53, got 99"),
    ("sync", ("sync", "trials"), 10**20, f"trials must be >= 100 and < 2**53, got {10**20}"),
    ("sql", ("quantum_scaling", "trials"), 2**53, f"trials must be >= 100 and < 2**53, got {2**53}"),
    ("advantage", ("advantage", "estimator"), {**ESTIMATOR, "method": "phase", "n": 5e-324, "nu0": 5e-324},
     "advantage: a result left the float range (ZeroDivisionError)"),
    # Window sums of a random walk this large overflow in numpy at the octave m values.
    ("stability", ("stability",), {"variant": "ffi1", "noise": {"kind": "random_walk_fm", "amplitude": 1.0e300,
                                                                "count": 4096}},
     "stability: a result left the float range (FloatingPointError)"),
    # The innovation variance of this white FM series is a Python float past the float range.
    ("noise", ("noise",), {"kind": "white_fm", "amplitude": 1.0e62, "count": 4, "tau0": 1.0e-300},
     "noise: a result left the float range (OverflowError)"),
    # A time-of-flight deviation past the float range, from Python float arithmetic.
    ("advantage", ("advantage", "estimator"), {"method": "tof", "n": 1.0e-300, "nu0": 1.92e14, "t0": 1.0e200},
     "advantage: a result left the float range (OverflowError)"),
    # tau = m * tau0 past the float range: the FFI1 point would store it, TDEV multiply it by a zero deviation.
    ("stability", ("stability",), {"variant": "ffi1", "m_values": [2], "noise": {
        "kind": "white_fm", "amplitude": 1.0e-24, "count": 64, "tau0": 1.0e308}},
     "stability: a result left the float range (OverflowError)"),
    ("stability", ("stability",), {"variant": "tdev", "m_values": [1, 2], "noise": {
        "kind": "white_fm", "amplitude": 1.0, "count": 64, "tau0": 1.0e308}},
     "stability: a result left the float range (OverflowError)"),
    # A TDEV value tau / sqrt(3) * ffi2 past the float range, at a finite tau.
    ("stability", ("stability",), {"variant": "tdev", "m_values": [1, 2, 4], "noise": {
        "kind": "flicker_fm", "amplitude": 1.0e200, "count": 64, "tau0": 1.0e300}},
     "stability: a result left the float range (OverflowError)"),
    # A pulse period 1/f_r past the float range.
    ("sync", ("sync", "comb"), {"f_r": 5e-324, "t_0": 1.0e-13, "n_range": [1, 2]},
     "sync: a result left the float range (OverflowError)"),
    # A campaign span (trials - 1) * interval past the float range, from Python float arithmetic.
    ("sync", ("sync",), {**BASE["sync"]["sync"], "interval": 1.0e308,
                         "clock_a": {"nu0": 1.94e14, "frac_freq_offset": 1.0e-9}},
     "sync: a result left the float range (OverflowError)"),
    # A drifting clock's ramp 0.5 * drift * t * t past the float range inside a finite campaign span.
    ("sync", ("sync",), {**BASE["sync"]["sync"], "interval": 1.0e200, "clock_a": {"nu0": 1.94e14, "drift": 1.0}},
     "sync: a result left the float range (OverflowError)"),
])
def test_runtime_faults_exit_3(base, where, value, message):
    assert run_main(mutate(BASE[base], where, value)) == (3, f"combsync: error: {message}\n")


def test_comb_outside_the_photodetection_band_adds_no_stderr_line():
    doc = yaml.safe_load((CONFIGS / "sync_flicker_fm.yaml").read_text())
    doc["sync"].update(trials=50, comb={**doc["sync"]["comb"], "f_r": 1.0e6, "f_0": 2.0e5})
    assert run_main(doc) == (3, "combsync: error: trials must be >= 100 and < 2**53, got 50\n")


def test_scaling_exponent_needs_two_distinct_n(tmp_path, capsys):
    path = write(tmp_path, mutate(BASE["sql"], ("quantum_scaling", "n_values"), [100, 100.0]))
    assert main(["quantum-scaling", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "# fitted_exponent=nan\n" in (tmp_path / "scaling.csv").read_text()


def test_memory_error_exits_3(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 256. TiB for an array with shape (35184372088832,)")

    monkeypatch.setattr(cli, "generate_noise", exhausted)
    assert run_main(BASE["noise"]) == (
        3, "combsync: error: Unable to allocate 256. TiB for an array with shape (35184372088832,)\n")


def mostly(common, rare):
    """Values of the strategy common, or about one draw in eight one of the rare values."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(rare) if i == 7 else common)


# The config fuzz: numbers from the edges of the float range or spread over 600 decades, and now and then a
# boundary value: a size at or past 2**53, a negative or integer-overflowing amplitude.  Sizes are small
# otherwise, so that no document allocates more than a few MB and about 100 documents run in a second.
FLOATS = st.one_of(st.sampled_from([1.0, 0.0, 5e-324, 1e-300, 1e300, 1.7e308]),
                   st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent))
AMPLITUDES = mostly(FLOATS, [-0.0, -1e-24, HUGE])
RAMPS = mostly(FLOATS, [-1e-13, -1e300])
COUNTS = mostly(st.integers(0, 256), [-1, 2**53, 2**53 + 1, 2**63, 2**64, 10**20])
TRIALS = mostly(st.sampled_from([100, 128]), [-1, 0, 99, 101, 2**53, 10**20])
ETAS = mostly(st.sampled_from([0.0, 5e-324, 0.5, 1.0, -0.0]), [1.0 + 2**-52])
M_VALUES = st.lists(mostly(st.integers(1, 8), [64, 2**53, 2**63, 2**64, 10**30]), min_size=1, max_size=4)
SEEDS = st.sampled_from([0, 1, 2**64 - 1])
KIND = st.sampled_from([k.value for k in NoiseKind])
METHOD = st.sampled_from([m.value for m in EstimatorMethod])

series = st.fixed_dictionaries({"kind": KIND, "amplitude": AMPLITUDES, "seed": SEEDS, "count": COUNTS,
                                "tau0": FLOATS})
link = st.fixed_dictionaries({
    "distance_km": FLOATS, "delay_ab": FLOATS, "delay_ba": FLOATS, "troposphere": st.booleans(),
    "eta_detector": ETAS, "sigma_excess": FLOATS,
}, optional={"geometric": st.fixed_dictionaries({"wavelength": FLOATS, "waist": FLOATS, "aperture_radius": FLOATS})})
#: Squeezing only where the temporal-mode method takes it.
estimator = st.builds(lambda m, n, nu0, t0, r: {"method": m, "n": n, "nu0": nu0, "t0": t0,
                                                **({"r": r} if m == "temporal_mode" else {})},
                      METHOD, FLOATS, FLOATS, FLOATS, FLOATS)
clock = st.fixed_dictionaries({"nu0": FLOATS}, optional={
    "frac_freq_offset": RAMPS, "drift": RAMPS,
    "noise": st.lists(st.fixed_dictionaries({"kind": KIND, "amplitude": AMPLITUDES, "seed": SEEDS}), max_size=2)})
#: Repetition rates inside the 10 MHz - 1 GHz photodetection band and outside it, at both ends.
comb = st.builds(lambda f_r, share, t_0: {"f_r": f_r, "f_0": share * f_r, "t_0": t_0, "n_range": [1, 10]},
                 st.one_of(st.sampled_from([1.0e6, 1.0e8, 1.0e10]), FLOATS), st.sampled_from([0.0, 0.25]), FLOATS)

DOCUMENTS = st.one_of(
    st.builds(lambda s, seed: {"command": "noise", "seed": seed, "noise": s}, series, SEEDS),
    st.builds(lambda s, v, m, seed: {"command": "stability", "seed": seed,
                                     "stability": {"noise": s, "variant": v, **m}},
              series, st.sampled_from([v.value for v in Variant]),
              st.one_of(st.just({}), st.builds(lambda m: {"m_values": m}, M_VALUES)), SEEDS),
    st.builds(lambda a, b, link, interval, offset, extra, trials, seed: {"command": "sync", "seed": seed, "sync": {
        "trials": trials, "interval": interval, "true_offset": offset, "clock_a": a, "clock_b": b, "link": link,
        **extra}},
        clock, clock, link, FLOATS, FLOATS, st.fixed_dictionaries({}, optional={"estimator": estimator, "comb": comb}),
        TRIALS, SEEDS),
    st.builds(lambda mode, values, trials, m, nu0, t0, seed: {
        "command": "quantum-scaling", "seed": seed, "quantum_scaling": {
            "mode": mode, "trials": trials, "method": m, "nu0": nu0, "t0": t0,
            ("n_values" if mode == "sql" else "r_values"): values}},
        st.sampled_from(["sql", "hl"]), st.lists(mostly(FLOATS, [100, HUGE]), min_size=1, max_size=3), TRIALS, METHOD,
        FLOATS, FLOATS, SEEDS),
    st.builds(lambda link, e: {"command": "advantage", "advantage": {"link": link, "estimator": e}},
              link, estimator),
)


def _artifact_values(path):
    """(name, value) of every header entry, table cell and ``name = value`` or ``name=value`` field."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".csv":
        header, columns = read_table(lines)
        yield from header.items()
        yield from ((name, cell) for name, cells in columns.items() for cell in cells)
        return
    for line in lines:
        if line.startswith("#"):
            yield line[1:].lstrip().partition("=")[::2]
        elif line.startswith("tdev "):
            yield from (field.partition("=")[::2] for field in line.split()[1:])
        elif not line.startswith("warning: "):
            yield line.partition(" = ")[::2]


def _non_finite(value: str) -> bool:
    try:
        return not math.isfinite(float(value))
    except ValueError:  # a word, not a number
        return False


@settings(max_examples=160, derandomize=True)
@given(DOCUMENTS)
def test_fuzzed_configs_exit_cleanly_with_finite_artifacts(doc):
    non_finite = []

    def inspect(out):
        non_finite.extend((path.name, name, value) for path in sorted(out.iterdir()) if path.name != "config.yaml"
                          for name, value in _artifact_values(path)
                          if name not in ("config_sha256", "fitted_exponent") and _non_finite(value))

    code, err = run_main(doc, inspect)
    assert code in (0, 2, 3), err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("combsync: "), err
    else:
        assert (err, non_finite) == ("", [])
