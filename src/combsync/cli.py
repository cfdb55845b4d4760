"""Config-driven experiment runner.

Usage: ``combsync <command> --config cfg.yaml [--seed N] [--out DIR]``
with commands noise, stability, sync, quantum-scaling, advantage.

Every emitted file starts with ``#`` comment lines carrying the SHA-256
of the config file and the resolved seed, and the same (config, seed)
pair always reproduces byte-identical artifacts.  Exit codes: 0 success,
2 config error, 3 estimator/runtime error (a result outside the float
range or a size too large to allocate included), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import COMMANDS, ConfigError, ExperimentConfig, load_config
from .errors import CombsyncError, InvalidArgument
from .noisegen import generate_noise
from .quantum import EstimatorModel, model_sigma, monte_carlo_sigma
from .seeding import derive_seed
from .stability import StabilityCurve, curve_to_csv, octave_m_values, stability_curve
from .synclink import advantage_report, run_sync_campaign
from .clockmodel import comb_time_params

log = logging.getLogger("combsync")


def _file_header(config: ExperimentConfig) -> dict:
    return {
        "config_sha256": hashlib.sha256(config.raw_bytes).hexdigest(),
        "seed": config.seed if config.seed is not None else "none",
    }


def _write_comments(fh, header: Mapping[str, object]) -> None:
    for key, value in header.items():
        fh.write(f"# {key}={value}\n")


def emit_sigma_tau(curve: StabilityCurve, path, metadata: Optional[Mapping[str, object]] = None) -> None:
    """Write a sigma-tau curve as CSV sorted by tau (plot-ready)."""
    if not curve.points:
        raise InvalidArgument("cannot emit an empty stability curve")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        curve_to_csv(curve, fh, metadata)


# ---------------------------------------------------------------------------
# Command implementations.  Each returns the list of files written.


def _run_noise(config: ExperimentConfig, outdir: Path) -> list[Path]:
    source = config.payload
    spec = replace(source.spec, seed=derive_seed(config.seed, source.spec.seed))
    series = generate_noise(spec, source.count, source.tau0)
    path = outdir / "noise.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_comments(fh, {**_file_header(config), "kind": spec.kind.value,
                             "amplitude": repr(spec.amplitude), "tau0_s": repr(series.tau0)})
        fh.write("k,y\n")
        for k, y in enumerate(series.samples.tolist()):
            fh.write(f"{k},{y!r}\n")
    return [path]


def _run_stability(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    spec = replace(run.source.spec, seed=derive_seed(config.seed, run.source.spec.seed))
    series = generate_noise(spec, run.source.count, run.source.tau0)
    m_values = run.m_values or octave_m_values(len(series), run.variant)
    curve = stability_curve(series, m_values, run.variant)
    path = outdir / "sigma_tau.csv"
    metadata = dict(_file_header(config))
    for i, warning in enumerate(curve.warnings):
        metadata[f"warning_{i}"] = warning
    emit_sigma_tau(curve, path, metadata)
    return [path]


def _run_sync(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    result = run_sync_campaign(run.campaign, run.trials, config.seed)
    header = _file_header(config)

    data_path = outdir / "campaign.csv"
    with open(data_path, "w", encoding="utf-8", newline="") as fh:
        _write_comments(fh, header)
        fh.write("trial,estimate_s,truth_s,residual_s\n")
        for k, (est, res) in enumerate(zip(result.estimates.tolist(), result.residuals.tolist())):
            fh.write(f"{k},{est!r},{result.truth!r},{res!r}\n")

    summary_path = outdir / "campaign_summary.txt"
    with open(summary_path, "w", encoding="utf-8") as fh:
        _write_comments(fh, header)
        fh.write(f"trials = {run.trials}\n")
        fh.write(f"mean_offset_s = {result.mean_offset!r}\n")
        fh.write(f"sigma_delta_t_s = {result.sigma_delta_t!r}\n")
        fh.write(f"sigma_excess_s = {run.campaign.link.sigma_excess!r}\n")
        if run.comb is not None:
            t_r, dphi = comb_time_params(run.comb)
            fh.write(f"comb_t_r_s = {t_r!r}\n")
            fh.write(f"comb_delta_phi_ceo_rad = {dphi!r}\n")
        fh.write(f"tdev_points = {len(result.tdev_curve.points)}\n")
        for p in result.tdev_curve.points:
            fh.write(f"tdev m={p.m} tau_s={p.tau!r} value_s={p.value!r}\n")
        for warning in result.tdev_curve.warnings:
            fh.write(f"warning: {warning}\n")
    return [data_path, summary_path]


def _run_scaling(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    if run.mode == "sql":
        points = [(n, 0.0) for n in run.n_values]
    else:
        points = [(float(np.sinh(r) ** 2), r) for r in run.r_values]
    rows = []
    for i, (n, r) in enumerate(points):
        model = EstimatorModel(method=run.method, n=n, nu0=run.nu0, t0=run.t0, r=r)
        mean, std = monte_carlo_sigma(model, run.trials, derive_seed(config.seed, i))
        rows.append((n, r, model_sigma(model), mean, std))
    log_n, log_std = np.log10([row[0] for row in rows]), np.log10([row[4] for row in rows])
    # The slope needs two distinct n, and a deviation that underflows to 0 has no logarithm.
    fit = np.ptp(log_n) > 0 and np.isfinite(log_n).all() and np.isfinite(log_std).all()
    exponent = float(np.polyfit(log_n, log_std, 1)[0]) if fit else float("nan")
    path = outdir / "scaling.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_comments(fh, {**_file_header(config), "mode": run.mode,
                             "fitted_exponent": repr(exponent)})
        fh.write("n,r,sigma_model,mc_mean,mc_std\n")
        for n, r, sigma, mean, std in rows:
            fh.write(f"{n!r},{r!r},{sigma!r},{mean!r},{std!r}\n")
    return [path]


def _run_advantage(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    report = advantage_report(run.link, run.estimator)
    path = outdir / "advantage.txt"
    with open(path, "w", encoding="utf-8") as fh:
        _write_comments(fh, _file_header(config))
        fh.write(f"eta_total = {report.eta_total!r}\n")
        fh.write(f"sigma_classical_s = {report.sigma_classical!r}\n")
        fh.write(f"sigma_quantum_s = {report.sigma_quantum!r}\n")
        fh.write(f"advantage_ratio = {report.advantage_ratio!r}\n")
        if report.required_db_for_2x is None:
            fh.write("required_db_for_2x = unattainable\n")
        else:
            fh.write(f"required_db_for_2x = {report.required_db_for_2x!r}\n")
    return [path]


_RUNNERS = {
    "noise": _run_noise,
    "stability": _run_stability,
    "sync": _run_sync,
    "quantum-scaling": _run_scaling,
    "advantage": _run_advantage,
}


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combsync",
        description="Frequency-stability and clock-synchronization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} experiment")
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: config or cwd)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("COMBSYNC_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, command=args.command,
                             seed_override=args.seed, output_override=args.out)
    except ConfigError as exc:
        print(f"combsync: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"combsync: cannot read config: {exc}", file=sys.stderr)
        return 2

    outdir = Path(config.output) if config.output else Path.cwd()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        written = _RUNNERS[config.command](config, outdir)
    except ConfigError as exc:
        print(f"combsync: config error: {exc}", file=sys.stderr)
        return 2
    except (CombsyncError, ArithmeticError, MemoryError) as exc:  # float range or memory exceeded
        print(f"combsync: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"combsync: i/o error: {exc}", file=sys.stderr)
        return 4
    for path in written:
        log.info("wrote %s", path)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
