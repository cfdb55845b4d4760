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
import functools
import hashlib
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .artifacts import write_artifact, write_table
from .config import COMMANDS, ConfigError, ExperimentConfig, load_config
from .errors import CombsyncError
from .noisegen import generate_noise
from .quantum import EstimatorModel, model_sigma, monte_carlo_sigma
from .seeding import derive_seed
from .stability import curve_to_csv, octave_m_values, stability_curve
from .synclink import advantage_report, run_sync_campaign
from .clockmodel import comb_time_params

log = logging.getLogger("combsync")


def _file_header(config: ExperimentConfig) -> dict:
    return {
        "config_sha256": hashlib.sha256(config.raw_bytes).hexdigest(),
        "seed": config.seed if config.seed is not None else "none",
    }


# ---------------------------------------------------------------------------
# Command implementations.  Each returns the list of files written.


def _run_noise(config: ExperimentConfig, outdir: Path) -> list[Path]:
    source = config.payload
    spec = replace(source.spec, seed=derive_seed(config.seed, source.spec.seed))
    series = generate_noise(spec, source.count, source.tau0)
    path = outdir / "noise.csv"
    write_table(path, {**_file_header(config), "kind": spec.kind.value, "amplitude": spec.amplitude,
                       "tau0_s": series.tau0},
                {"k": range(len(series)), "y": series.samples.tolist()})
    return [path]


def _run_stability(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    spec = replace(run.source.spec, seed=derive_seed(config.seed, run.source.spec.seed))
    series = generate_noise(spec, run.source.count, run.source.tau0)
    m_values = run.m_values or octave_m_values(len(series), run.variant)
    curve = stability_curve(series, m_values, run.variant)
    path = outdir / "sigma_tau.csv"
    curve_to_csv(curve, path, _file_header(config))
    return [path]


def _run_sync(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    result = run_sync_campaign(run.campaign, run.trials, config.seed)
    header = _file_header(config)

    data_path = outdir / "campaign.csv"
    write_table(data_path, header, {"trial": range(run.trials), "estimate_s": result.estimates.tolist(),
                                    "truth_s": [result.truth] * run.trials,
                                    "residual_s": result.residuals.tolist()})

    summary = {"trials": run.trials, "mean_offset_s": result.mean_offset,
               "sigma_delta_t_s": result.sigma_delta_t, "sigma_excess_s": run.campaign.link.sigma_excess}
    if run.comb is not None:
        summary["comb_t_r_s"], summary["comb_delta_phi_ceo_rad"] = comb_time_params(run.comb)
    points = result.tdev_curve.points
    summary["tdev_points"] = len(points)
    summary_path = outdir / "campaign_summary.txt"
    write_artifact(summary_path, header, [
        *(f"{key} = {value}\n" for key, value in summary.items()),
        *(f"tdev m={p.m} tau_s={p.tau} value_s={p.value}\n" for p in points),
        *(f"warning: {warning}\n" for warning in result.tdev_curve.warnings)])
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
    write_table(path, {**_file_header(config), "mode": run.mode, "fitted_exponent": exponent},
                dict(zip(("n", "r", "sigma_model", "mc_mean", "mc_std"), zip(*rows))))
    return [path]


def _run_advantage(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    report = advantage_report(run.link, run.estimator)
    required = "unattainable" if report.required_db_for_2x is None else report.required_db_for_2x
    summary = {"eta_total": report.eta_total, "sigma_classical_s": report.sigma_classical,
               "sigma_quantum_s": report.sigma_quantum, "advantage_ratio": report.advantage_ratio,
               "required_db_for_2x": required}
    path = outdir / "advantage.txt"
    write_artifact(path, _file_header(config), [f"{key} = {value}\n" for key, value in summary.items()])
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


@functools.cache
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
    level = os.environ.get("COMBSYNC_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):  # a name Logger.setLevel would reject
        print(f"combsync: COMBSYNC_LOG must be a level name: DEBUG, INFO, WARNING, ERROR or CRITICAL; "
              f"got {level!r}", file=sys.stderr)
        return 2
    # basicConfig installs the stderr handler once per process; the level is set on every call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)
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
        # numpy's floating-point faults go to the INFO log, not stderr; an underflow to 0.0 is still written.
        with np.errstate(all="call", call=lambda fault, _flag: log.info("numpy floating-point %s", fault)):
            written = _RUNNERS[config.command](config, outdir)
    except ArithmeticError as exc:  # a float overflowed, or underflowed to 0.0 and was divided by
        print(f"combsync: error: {config.command}: a result left the float range ({type(exc).__name__})",
              file=sys.stderr)
        return 3
    except (CombsyncError, MemoryError) as exc:
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
