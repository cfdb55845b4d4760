"""The benchmark workloads: seeded inputs, the timed op, the output check.

Every workload is a closed loop of ops on one thread.  Op ``i`` of a
workload is built only from ``(workload, seed, i)``, so a seed fixes the
inputs byte for byte.  Ops come in cycles of ``cycle`` ops that cover
every op kind of the workload once; runs are made of whole cycles.

The ops call combsync only through module attributes
(``noisegen.generate_noise(...)``, ``cli.main(...)``) so that the traced
run's wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from combsync import cli, clockmodel, noisegen, quantum, stability, synclink
from combsync.clockmodel import ClockModel, CombParams
from combsync.noisegen import NoiseKind, NoiseSpec
from combsync.quantum import EstimatorMethod, EstimatorModel
from combsync.seeding import derive_seed
from combsync.stability import Variant
from combsync.synclink import GeometricParams, LinkModel, SyncCampaign

from artifacts import Report, check_csv, check_text, text_cells

KINDS = tuple(NoiseKind)
C_KM_PER_S = 299792.458

#: Criterion 3's slope table, (FFI1 slope, FFI2 slope) per dominant noise kind.
SLOPE_TABLE = {
    NoiseKind.WHITE_PM: (-1.0, -1.5),
    NoiseKind.FLICKER_PM: (-1.0, -1.0),
    NoiseKind.WHITE_FM: (-0.5, -0.5),
    NoiseKind.FLICKER_FM: (0.0, 0.0),
    NoiseKind.RANDOM_WALK_FM: (0.5, 0.5),
}
SLOPE_TOLERANCE = 0.15  # criterion 3
TDEV_WHITE_SLOPE, TDEV_TOLERANCE = -0.5, 0.15  # criterion 10
TWO_WAY_TOLERANCE_S = 1e-15  # criterion 9


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` only smoke-tests the harness."""

    slope_count: int = 2**18
    slope_m_exponents: int = 14  # m = 2**0 ... 2**13
    slope_fit: tuple[float, float] = (4.0, 4096.0)
    cli_noise_count: int = 2**19
    cli_stability_count: int = 2**18
    cli_sync_trials: int = 2**16
    cli_scaling_trials: int = 1000
    campaign_trials: int = 2**16
    tdev_fit: tuple[float, float] = (1.0, 128.0)
    batch_exchanges: int = 1000
    #: Whole cycles a run makes at least.  The slowest op kind of a cycle then
    #: has 16 samples, so op_tail_s (10 ops beyond it) falls inside that kind,
    #: not on a faster one, whatever the program's speed.
    min_cycles: int = 16


FULL = Sizes()
TINY = Sizes(slope_count=2**12, slope_m_exponents=8, slope_fit=(4.0, 64.0), cli_noise_count=256,
             cli_stability_count=2**10, cli_sync_trials=256, cli_scaling_trials=100,
             campaign_trials=2**10, batch_exchanges=20, min_cycles=1)


@dataclass
class Outcome:
    """Check result of one op; cli ops also report what they wrote."""

    ok: bool
    unparsable: int = 0
    bytes_written: int = 0
    rows_written: int = 0
    problem: str = ""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _amplitude(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# slope_table: noisegen + stability, no I/O


@dataclass(frozen=True)
class SlopeOp:
    spec: NoiseSpec


class SlopeTable:
    """Identify one synthesized series per op from its FFI1/FFI2 slopes."""

    cycle = len(KINDS)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.m_values = [2**k for k in range(sizes.slope_m_exponents)]

    def make_input(self, index: int) -> SlopeOp:
        rng = _rng("slope_table", self.seed, index)
        kind = KINDS[index % len(KINDS)]
        return SlopeOp(NoiseSpec(kind, _amplitude(rng, -26, -20), seed=rng.getrandbits(64)))

    def run(self, op: SlopeOp) -> Any:
        series = noisegen.generate_noise(op.spec, self.sizes.slope_count, 1.0)
        slopes = []
        for variant in (Variant.FFI1, Variant.FFI2):
            curve = stability.stability_curve(series, self.m_values, variant)
            slopes.append(stability.fit_slope(curve, self.sizes.slope_fit))
        return slopes, stability.classify_noise(slopes[1], Variant.FFI2)

    def check(self, op: SlopeOp, result: Any) -> Outcome:
        (s1, s2), kinds = result
        a1, a2 = SLOPE_TABLE[op.spec.kind]
        if abs(s1 - a1) <= SLOPE_TOLERANCE and abs(s2 - a2) <= SLOPE_TOLERANCE and op.spec.kind in kinds:
            return Outcome(True)
        return Outcome(False, problem=f"{op.spec.kind.value}: slopes {s1:.3f}, {s2:.3f}")


# ---------------------------------------------------------------------------
# sync_campaign: clockmodel + synclink + tdev


@dataclass(frozen=True)
class CampaignOp:
    campaign: SyncCampaign
    trials: int
    seed: int
    white_only: bool


@dataclass(frozen=True)
class BatchOp:
    clock: ClockModel
    links: tuple[LinkModel, ...]
    offsets: tuple[float, ...]
    seeds: tuple[int, ...]


class SyncCampaignWorkload:
    """Alternate vectorized campaigns with batches of scalar exchanges.

    The cycle is: white-PM campaign, scalar batch, mixed-noise campaign,
    scalar batch.
    """

    cycle = 4

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes

    def make_input(self, index: int):
        rng = _rng("sync_campaign", self.seed, index)
        if index % 2:
            count = self.sizes.batch_exchanges
            delays = [rng.uniform(1e-5, 1e-2) for _ in range(count)]
            return BatchOp(
                clock=ClockModel(nu0=1.94e14),
                links=tuple(LinkModel(distance_km=d * C_KM_PER_S, delay_ab=d, delay_ba=d) for d in delays),
                offsets=tuple(rng.uniform(-1e-3, 1e-3) for _ in range(count)),
                seeds=tuple(rng.getrandbits(32) for _ in range(count)),
            )
        white_only = index % 4 == 0

        def clock() -> ClockModel:
            noise = [NoiseSpec(NoiseKind.WHITE_PM, _amplitude(rng, -25, -23), seed=rng.getrandbits(32))]
            if not white_only:
                noise.append(NoiseSpec(NoiseKind.FLICKER_FM, _amplitude(rng, -28, -26), seed=rng.getrandbits(32)))
                noise.append(NoiseSpec(NoiseKind.RANDOM_WALK_FM, _amplitude(rng, -32, -30), seed=rng.getrandbits(32)))
            return ClockModel(nu0=1.94e14, noise=tuple(noise))

        distance = rng.uniform(50.0, 2000.0)
        campaign = SyncCampaign(
            clock_a=clock(),
            clock_b=clock(),
            link=LinkModel(distance_km=distance, delay_ab=distance / C_KM_PER_S, delay_ba=distance / C_KM_PER_S),
            true_offset=rng.uniform(-1e-3, 1e-3),
            estimator=EstimatorModel(EstimatorMethod.TEMPORAL_MODE, n=100.0, nu0=1.92e14, t0=1e-14),
        )
        return CampaignOp(campaign, self.sizes.campaign_trials, rng.getrandbits(32), white_only)

    def run(self, op) -> Any:
        if isinstance(op, CampaignOp):
            return synclink.run_sync_campaign(op.campaign, op.trials, op.seed)
        return [
            synclink.two_way_offset(synclink.simulate_exchange(op.clock, op.clock, link, offset, seed=s))
            for link, offset, s in zip(op.links, op.offsets, op.seeds)
        ]

    def check(self, op, result) -> Outcome:
        if isinstance(op, BatchOp):
            worst = max(abs(est - off) for est, off in zip(result, op.offsets))
            return Outcome(bool(worst < TWO_WAY_TOLERANCE_S), problem=f"two-way error {worst!r}")
        if not (np.all(np.isfinite(result.estimates))
                and np.array_equal(result.residuals, result.estimates - op.campaign.true_offset)):
            return Outcome(False, problem="campaign residuals are not estimate - truth")
        if op.white_only:
            slope = stability.fit_slope(result.tdev_curve, self.sizes.tdev_fit)
            if abs(slope - TDEV_WHITE_SLOPE) > TDEV_TOLERANCE:
                return Outcome(False, problem=f"white-PM TDEV slope {slope:.3f}")
        return Outcome(True)


# ---------------------------------------------------------------------------
# cli_artifacts and cli_commands: in-process CLI runs on generated YAML configs

#: One pass of cli_artifacts; the first op doubles as the warm-up.  The two quantum-scaling
#: entries are an sql and an hl sweep.  The small ops come first and the
#: noise op last: the page-cache writeback of the noise artifact stalls
#: the next file open for ~20 ms, which the checks after the pass absorb
#: instead of a 5 ms op.
CLI_PASS = ("quantum-scaling", "quantum-scaling", "advantage", "stability", "sync", "noise")
#: One pass of cli_commands: the commands of CLI_PASS whose artifacts parse
#: today.  The noise and sync commands write ``np.float64(...)`` cells under
#: numpy >= 2, so cli_artifacts, which runs them, fails its check.
CLI_CLEAN_PASS = ("quantum-scaling", "quantum-scaling", "advantage", "stability")
SQL_N = (100.0, 316.0, 1000.0, 3160.0, 10000.0, 31600.0, 100000.0, 316000.0, 1000000.0)
HL_R = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0)
GEOMETRY = {"wavelength": 1.56e-6, "waist": 0.16552, "aperture_radius": 0.3}


@dataclass(frozen=True)
class CliOp:
    command: str
    doc: dict
    config: Path
    out: Path
    text: str


def _noise_block(rng: random.Random, kind: str, count: int) -> dict:
    return {"kind": kind, "amplitude": _amplitude(rng, -26, -20), "seed": rng.getrandbits(32),
            "count": count, "tau0": 1.0}


def _spec(block: dict, seed: int) -> NoiseSpec:
    return NoiseSpec(NoiseKind(block["kind"]), block["amplitude"], seed=derive_seed(seed, block["seed"]))


def _clock(block: dict) -> ClockModel:
    return ClockModel(nu0=block["nu0"], noise=tuple(
        NoiseSpec(NoiseKind(n["kind"]), n["amplitude"], seed=n["seed"]) for n in block["noise"]))


def _link(block: dict) -> LinkModel:
    geometric = GeometricParams(**block["geometric"]) if "geometric" in block else None
    return LinkModel(distance_km=block["distance_km"], delay_ab=block["delay_ab"], delay_ba=block["delay_ba"],
                     geometric=geometric, eta_detector=block.get("eta_detector", 1.0))


def _estimator(block: dict) -> EstimatorModel:
    return EstimatorModel(EstimatorMethod(block["method"]), n=block["n"], nu0=block["nu0"],
                          t0=block["t0"], r=block.get("r", 0.0))


class CliArtifacts:
    """One in-process ``combsync.cli.main`` call per op, every command once per pass."""

    name = "cli_artifacts"
    commands = CLI_PASS
    cycle = len(commands)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def _doc(self, position: int, rng: random.Random) -> dict:
        s = self.sizes
        command = self.commands[position]
        seed = rng.getrandbits(32)
        if command == "noise":
            return {"command": command, "seed": seed, "noise": _noise_block(rng, "white_pm", s.cli_noise_count)}
        if command == "stability":
            return {"command": command, "seed": seed, "stability": {
                "variant": "ffi2", "noise": _noise_block(rng, "flicker_fm", s.cli_stability_count)}}
        if command == "sync":
            distance = rng.uniform(50.0, 2000.0)

            def clock(label: int) -> dict:
                return {"nu0": 1.94e14, "noise": [
                    {"kind": "white_pm", "amplitude": _amplitude(rng, -25, -23), "seed": label}]}

            return {"command": command, "seed": seed, "sync": {
                "trials": s.cli_sync_trials, "interval": 1.0, "true_offset": rng.uniform(-1e-3, 1e-3),
                "clock_a": clock(1), "clock_b": clock(2),
                "link": {"distance_km": distance, "delay_ab": distance / C_KM_PER_S,
                         "delay_ba": distance / C_KM_PER_S},
                "estimator": {"method": "temporal_mode", "n": 100.0, "nu0": 1.92e14, "t0": 1e-14},
                "comb": {"f_r": 1e8, "f_0": 2e7, "t_0": 1e-13, "n_range": [1, 3000000]}}}
        if command == "quantum-scaling":
            block = {"mode": "sql", "n_values": list(SQL_N)} if position == 0 else {"mode": "hl", "r_values": list(HL_R)}
            block.update({"trials": s.cli_scaling_trials, "method": "temporal_mode", "nu0": 1.92e14, "t0": 1e-14})
            return {"command": command, "seed": seed, "quantum_scaling": block}
        distance = rng.uniform(50.0, 2000.0)
        return {"command": command, "advantage": {
            "link": {"distance_km": distance, "delay_ab": distance / C_KM_PER_S, "delay_ba": distance / C_KM_PER_S,
                     "eta_detector": rng.uniform(0.5, 0.95), "geometric": dict(GEOMETRY)},
            "estimator": {"method": "temporal_mode", "n": 1000.0, "nu0": 1.92e14, "t0": 1e-14,
                          "r": rng.uniform(0.5, 2.5)}}}

    def make_input(self, index: int) -> CliOp:
        position = index % self.cycle
        doc = self._doc(position, _rng(self.name, self.seed, index))
        text = yaml.safe_dump(doc, sort_keys=False)
        config = self.workdir / f"op{position}.yaml"
        config.write_text(text, encoding="utf-8")
        return CliOp(self.commands[position], doc, config, self.workdir / f"out{position}", text)

    def run(self, op: CliOp) -> tuple[int, list[str]]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main([op.command, "--config", str(op.config), "--out", str(op.out)])
        return code, captured.getvalue().splitlines()

    def check(self, op: CliOp, result: tuple[int, list[str]]) -> Outcome:
        code, written = result
        if code != 0:
            return Outcome(False, problem=f"{op.command} exited {code}")
        seed = op.doc.get("seed")
        header = [("config_sha256", hashlib.sha256(op.text.encode("utf-8")).hexdigest()),
                  ("seed", "none" if seed is None else seed)]
        report = getattr(self, "_check_" + op.command.replace("-", "_"))(op, seed, header)
        if sorted(Path(w).name for w in written) != sorted(p.name for p in op.out.iterdir()):
            report.problems.append(f"printed paths {written}")
        return Outcome(report.ok, report.unparsable, report.bytes, report.rows,
                       "; ".join(report.problems) or f"{report.unparsable} unparsable, "
                       f"{report.mismatched} mismatched of {report.cells} cells")

    def _check_noise(self, op: CliOp, seed: int, header: list) -> Report:
        block = op.doc["noise"]
        spec = _spec(block, seed)
        y = noisegen.generate_noise(spec, block["count"], block["tau0"]).samples
        return check_csv(op.out / "noise.csv",
                         header + [("kind", spec.kind.value), ("amplitude", spec.amplitude),
                                   ("tau0_s", block["tau0"])],
                         ("k", "y"), [np.arange(y.size), y])

    def _check_stability(self, op: CliOp, seed: int, header: list) -> Report:
        block = op.doc["stability"]
        source = block["noise"]
        variant = Variant(block["variant"])
        series = noisegen.generate_noise(_spec(source, seed), source["count"], source["tau0"])
        curve = stability.stability_curve(series, stability.octave_m_values(len(series), variant), variant)
        header = header + [(f"warning_{i}", w) for i, w in enumerate(curve.warnings)]
        header.append(("source_length", len(series)))
        points = curve.points
        return check_csv(op.out / "sigma_tau.csv", header, ("tau_s", "value", "m", "variant"),
                         [[p.tau for p in points], [p.value for p in points], [p.m for p in points],
                          [p.variant.value for p in points]])

    def _check_sync(self, op: CliOp, seed: int, header: list) -> Report:
        block = op.doc["sync"]
        campaign = SyncCampaign(
            clock_a=_clock(block["clock_a"]), clock_b=_clock(block["clock_b"]), link=_link(block["link"]),
            interval=block["interval"], true_offset=block["true_offset"], estimator=_estimator(block["estimator"]))
        result = synclink.run_sync_campaign(campaign, block["trials"], seed)
        n = result.estimates.size
        report = check_csv(op.out / "campaign.csv", header, ("trial", "estimate_s", "truth_s", "residual_s"),
                           [np.arange(n), result.estimates, np.full(n, result.truth), result.residuals])
        comb = block["comb"]
        t_r, dphi = clockmodel.comb_time_params(CombParams(comb["f_r"], comb["f_0"], comb["t_0"],
                                                           tuple(comb["n_range"])))
        curve = result.tdev_curve
        lines = [["trials", block["trials"]], ["mean_offset_s", result.mean_offset],
                 ["sigma_delta_t_s", result.sigma_delta_t], ["sigma_excess_s", campaign.link.sigma_excess],
                 ["comb_t_r_s", t_r], ["comb_delta_phi_ceo_rad", dphi], ["tdev_points", len(curve.points)]]
        lines += [["tdev", "m", p.m, "tau_s", p.tau, "value_s", p.value] for p in curve.points]
        lines += [text_cells(f"warning: {w}") for w in curve.warnings]
        return report.add(check_text(op.out / "campaign_summary.txt", header, lines))

    def _check_quantum_scaling(self, op: CliOp, seed: int, header: list) -> Report:
        block = op.doc["quantum_scaling"]
        if block["mode"] == "sql":
            points = [(float(n), 0.0) for n in block["n_values"]]
        else:
            points = [(float(np.sinh(r) ** 2), float(r)) for r in block["r_values"]]
        rows = []
        for i, (n, r) in enumerate(points):
            model = EstimatorModel(EstimatorMethod(block["method"]), n=n, nu0=block["nu0"], t0=block["t0"], r=r)
            mean, std = quantum.monte_carlo_sigma(model, block["trials"], derive_seed(seed, i))
            rows.append((n, r, quantum.model_sigma(model), mean, std))
        exponent = float(np.polyfit(np.log10([row[0] for row in rows]), np.log10([row[4] for row in rows]), 1)[0])
        return check_csv(op.out / "scaling.csv",
                         header + [("mode", block["mode"]), ("fitted_exponent", exponent)],
                         ("n", "r", "sigma_model", "mc_mean", "mc_std"), [list(c) for c in zip(*rows)])

    def _check_advantage(self, op: CliOp, seed: int, header: list) -> Report:
        block = op.doc["advantage"]
        report = synclink.advantage_report(_link(block["link"]), _estimator(block["estimator"]))
        required = "unattainable" if report.required_db_for_2x is None else report.required_db_for_2x
        return check_text(op.out / "advantage.txt", header, [
            ["eta_total", report.eta_total], ["sigma_classical_s", report.sigma_classical],
            ["sigma_quantum_s", report.sigma_quantum], ["advantage_ratio", report.advantage_ratio],
            ["required_db_for_2x", required]])


class CliCommands(CliArtifacts):
    """``CliArtifacts`` restricted to the commands whose artifacts parse today."""

    name = "cli_commands"
    commands = CLI_CLEAN_PASS
    cycle = len(commands)


WORKLOADS = {
    "slope_table": SlopeTable,
    "cli_artifacts": CliArtifacts,
    "cli_commands": CliCommands,
    "sync_campaign": SyncCampaignWorkload,
}
