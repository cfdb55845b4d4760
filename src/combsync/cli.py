"""Config-driven experiment runner.

Usage: ``combsync <command> --config cfg.yaml [--seed N] [--out DIR]``
with commands noise, stability, sync, quantum-scaling, advantage.

Every emitted file starts with ``#`` comment lines carrying the SHA-256
of the config file and the resolved seed, and the same (config, seed)
pair always reproduces byte-identical artifacts.  Exit codes: 0 success,
2 config error, 3 estimator/runtime error (a result outside the float
range or a size too large to allocate included), 4 output I/O error.
No artifact of an exit-0 run holds a non-finite number: every float
value passes one gate before the run's first file is opened.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .artifacts import write_artifact, write_table
from .config import COMMANDS, ConfigError, ExperimentConfig, SeriesSource, load_config
from .errors import CombsyncError, InvalidArgument
from .noisegen import generate_noise
from .quantum import EstimatorModel, model_sigma, monte_carlo_sigma
from .seeding import derive_seed
from .series import TimeSeriesY
from .stability import octave_m_values, stability_curve
from .synclink import advantage_report, run_sync_campaign
from .clockmodel import comb_time_params

log = logging.getLogger("combsync")


def _file_header(config: ExperimentConfig) -> dict:
    return {
        "config_sha256": hashlib.sha256(config.raw_bytes).hexdigest(),
        "seed": config.seed if config.seed is not None else "none",
    }


def _series(config: ExperimentConfig, source: SeriesSource) -> TimeSeriesY:
    """The source's noise series, its spec's seed derived from the run's seed."""
    spec = replace(source.spec, seed=derive_seed(config.seed, source.spec.seed))
    return generate_noise(spec, source.count, source.tau0)


def _require_finite(*values) -> None:
    """The gate before a write: each float, and each float array in one ``np.isfinite`` pass, must be finite.

    Other values (ints, strings, ranges) pass.  A violation raises
    FloatingPointError, which exits 3 with the float-range line.
    """
    for value in values:
        if isinstance(value, np.ndarray):
            finite = value.dtype.kind != "f" or np.isfinite(value).all()
        else:
            finite = not isinstance(value, float) or math.isfinite(value)
        if not finite:
            raise FloatingPointError(f"a non-finite value would be written: {value!r}")


def _write_table(path: Path, header: dict, columns: dict) -> None:
    """``write_table`` behind the gate; a float column comes as an array and is checked before it is listed."""
    _require_finite(*header.values(), *columns.values())
    write_table(path, header, {name: cells.tolist() if isinstance(cells, np.ndarray) else cells
                               for name, cells in columns.items()})


# ---------------------------------------------------------------------------
# Command implementations.  Each returns the list of files written.


def _run_noise(config: ExperimentConfig, outdir: Path) -> list[Path]:
    spec = config.payload.spec
    series = _series(config, config.payload)
    path = outdir / "noise.csv"
    _write_table(path, {**_file_header(config), "kind": spec.kind.value, "amplitude": spec.amplitude,
                        "tau0_s": series.tau0},
                 {"k": range(len(series)), "y": series.samples})
    return [path]


def _run_stability(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    series = _series(config, run.noise)
    m_values = run.m_values or octave_m_values(len(series), run.variant)
    curve = stability_curve(series, m_values, run.variant)
    points = curve.points
    if not points:
        raise InvalidArgument("cannot write an empty stability curve")
    header = {**_file_header(config), **{f"warning_{i}": warning for i, warning in enumerate(curve.warnings)},
              "source_length": len(series)}
    path = outdir / "sigma_tau.csv"
    _write_table(path, header, {"tau_s": np.array([p.tau for p in points]),
                                "value": np.array([p.value for p in points]),
                                "m": [p.m for p in points], "variant": [p.variant.value for p in points]})
    return [path]


def _run_sync(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    result = run_sync_campaign(run.campaign, run.trials, config.seed)
    header = _file_header(config)
    summary = {"trials": run.trials, "mean_offset_s": result.mean_offset,
               "sigma_delta_t_s": result.sigma_delta_t, "sigma_excess_s": run.campaign.link.sigma_excess}
    if run.comb is not None:
        summary["comb_t_r_s"], summary["comb_delta_phi_ceo_rad"] = comb_time_params(run.comb)
    points = result.tdev_curve.points
    summary["tdev_points"] = len(points)
    _require_finite(*summary.values(), *(value for p in points for value in (p.tau, p.value)))

    data_path = outdir / "campaign.csv"
    _write_table(data_path, header, {"trial": range(run.trials), "estimate_s": result.estimates,
                                     "truth_s": np.full(run.trials, result.truth),
                                     "residual_s": result.residuals})
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
    log_n, stds = np.log10([row[0] for row in rows]), np.array([row[4] for row in rows])
    # The slope needs two distinct n, and a deviation that underflows to 0 has no logarithm.
    fit = np.ptp(log_n) > 0 and (stds > 0.0).all()
    # Without a fit the exponent is the declared word nan, not a float, so the gate lets it through.
    exponent = float(np.polyfit(log_n, np.log10(stds), 1)[0]) if fit else "nan"
    path = outdir / "scaling.csv"
    _write_table(path, {**_file_header(config), "mode": run.mode, "fitted_exponent": exponent},
                 dict(zip(("n", "r", "sigma_model", "mc_mean", "mc_std"), np.array(rows).T)))
    return [path]


def _run_advantage(config: ExperimentConfig, outdir: Path) -> list[Path]:
    run = config.payload
    report = advantage_report(run.link, run.estimator)
    required = "unattainable" if report.required_db_for_2x is None else report.required_db_for_2x
    summary = {"eta_total": report.eta_total, "sigma_classical_s": report.sigma_classical,
               "sigma_quantum_s": report.sigma_quantum, "advantage_ratio": report.advantage_ratio,
               "required_db_for_2x": required}
    _require_finite(*summary.values())
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
        p.add_argument("--out", default=None, help="output directory (default: the working directory)")
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
        config = load_config(args.config, command=args.command, seed_override=args.seed)
    except ConfigError as exc:
        print(f"combsync: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"combsync: cannot read config: {exc}", file=sys.stderr)
        return 2

    outdir = Path(args.out) if args.out else Path.cwd()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        # A numpy overflow, nan or division by zero raises FloatingPointError, an ArithmeticError;
        # an underflow goes to the INFO log, not stderr, and the 0.0 is still written.
        with np.errstate(all="raise", under="call",
                         call=lambda fault, _flag: log.info("numpy floating-point %s", fault)):
            written = _RUNNERS[config.command](config, outdir)
    except ArithmeticError as exc:  # a float overflowed, turned nan, or underflowed to 0.0 and was divided by
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
