"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import artifacts  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from combsync import clockmodel, noisegen, synclink  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(name: str, seed: int, workdir: Path) -> bytes:
    workload = workloads.WORKLOADS[name](seed, workloads.FULL, workdir)
    return repr([workload.make_input(i) for i in range(2 * workload.cycle)]).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_deterministic_per_seed(name, tmp_path):
    first = _inputs(name, 7, tmp_path)
    assert _inputs(name, 7, tmp_path) == first
    assert _inputs(name, 8, tmp_path) != first


def _noise_csv(tmp_path: Path, cells: list[str]) -> Path:
    path = tmp_path / "noise.csv"
    path.write_text("# seed=3\nk,y\n" + "".join(f"{k},{c}\n" for k, c in enumerate(cells)), encoding="utf-8")
    return path


Y = [1.0, 1.65e-11, -3.2e-300, 9.999999999385771e-07]


def _check(path: Path) -> artifacts.Report:
    return artifacts.check_csv(path, [("seed", 3)], ("k", "y"), [np.arange(len(Y)), np.array(Y)])


def test_checker_accepts_a_clean_artifact(tmp_path):
    report = _check(_noise_csv(tmp_path, [repr(y) for y in Y]))
    assert report.ok, report
    assert (report.cells, report.rows) == (1 + 2 * len(Y), 1 + len(Y))


def test_checker_rejects_a_numpy_scalar_cell(tmp_path):
    cells = [repr(y) for y in Y]
    cells[0] = "np.float64(1.0)"
    report = _check(_noise_csv(tmp_path, cells))
    assert not report.ok
    assert (report.unparsable, report.mismatched) == (1, 0)


def test_checker_rejects_a_one_ulp_perturbed_cell(tmp_path):
    cells = [repr(y) for y in Y]
    cells[3] = repr(float(np.nextafter(Y[3], np.inf)))
    report = _check(_noise_csv(tmp_path, cells))
    assert not report.ok
    assert (report.unparsable, report.mismatched) == (0, 1)


def test_text_checker_rejects_a_numpy_scalar_value(tmp_path):
    path = tmp_path / "summary.txt"
    path.write_text("# seed=none\ntrials = 4\nmean_offset_s = np.float64(0.5)\n", encoding="utf-8")
    report = artifacts.check_text(path, [("seed", "none")], [["trials", 4], ["mean_offset_s", 0.5]])
    assert (report.ok, report.unparsable) == (False, 1)


@pytest.mark.parametrize("kind", list(noisegen.NoiseKind))
@pytest.mark.parametrize("count", [2, 255, 256, 1000])
def test_fft_points_match_the_transforms_noisegen_runs(kind, count, monkeypatch):
    lengths = []
    real_rfft = np.fft.rfft

    def recording_rfft(a, n=None, *args, **kwargs):
        lengths.append(n)
        return real_rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    noisegen.generate_noise(noisegen.NoiseSpec(kind, 1e-22, seed=1), count, 1.0)
    expected = spans.fft_points(kind.value, count)
    assert lengths == ([expected, expected] if expected else [])


def test_fft_points_pad_pm_kinds_past_the_next_power_of_two():
    assert spans.fft_points("flicker_pm", 2**18) == 2**21
    assert spans.fft_points("flicker_fm", 2**18) == 2**20


def test_spans_nest_and_self_time_is_never_negative():
    noise = (noisegen.NoiseSpec(noisegen.NoiseKind.FLICKER_FM, 1e-26, seed=1),)
    clock = clockmodel.ClockModel(nu0=1e14, noise=noise)
    campaign = synclink.SyncCampaign(clock, clock, synclink.LinkModel(100.0, 3e-4, 3e-4))
    original = synclink.sample_clock
    with spans.Tracer() as tracer:
        synclink.run_sync_campaign(campaign, 256, seed=1)
    assert synclink.sample_clock is original and clockmodel.generate_noise is noisegen.generate_noise

    names = [s.name for s in tracer.spans]
    assert names[0] == "synclink.run_sync_campaign"
    parents = {s.name: names[s.parent] if s.parent is not None else None for s in tracer.spans}
    assert parents == {
        "synclink.run_sync_campaign": None,
        "clockmodel.sample_clock": "synclink.run_sync_campaign",
        "noisegen.generate_noise": "clockmodel.sample_clock",
        "stability.stability_curve": "synclink.run_sync_campaign",
    }
    own = spans.self_times(tracer.spans)
    assert min(own) >= 0.0
    root = tracer.spans[0]
    children = sum(s.duration for s in tracer.spans if s.parent == 0)
    assert own[0] == pytest.approx(root.duration - children)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["synclink.exchanges"] == 256
    assert metrics["clockmodel.sample_clock.calls"] == 2


def test_deadline_stops_a_slow_run_before_min_cycles_and_still_measures_it(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "import_seconds", lambda: 0.25)
    workload = workloads.WORKLOADS["slope_table"](5, workloads.TINY, tmp_path)
    metrics, record, problems = worker.measure(workload, 0.0, 1000, time.perf_counter())
    assert record["cycles"] == 1 < record["min_cycles"] and not problems
    assert record["ops"] == workload.cycle and metrics["pass_rate"] == 1.0
    assert metrics["setup_s"] == 0.25 and len(record["import_s"]) == worker.SETUP_SAMPLES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_yields_every_named_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace:
        recorded = json.loads((ROOT / ".perfbench_runs" / f"{name}-seed5-trace1-spans.json").read_text())
        restored = [spans.Span(s["name"], s["start"], s["end"], s["parent"]) for s in recorded]
        assert restored and min(spans.self_times(restored)) >= 0.0
        for metric, value in result["metrics"].items():
            if metric.endswith(("busy_s", "self_s")):
                assert value["value"] >= 0.0, metric
