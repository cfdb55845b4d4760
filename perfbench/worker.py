"""One workload in one fresh process: the timed loop, checks and metrics.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS/OpenMP pinned to one thread.  Prints one JSON object on
its last stdout line: ``correct``/``attempted``/``failed``, the metrics
of the requested mode and a ``record`` of how they were obtained.

``--trace 0`` measures the end-to-end metrics untraced; ``setup_s``
comes from fresh-interpreter imports of ``combsync.cli`` taken between
cycles, spread over the timed loop.  ``--trace 1`` alternates an
untraced and a traced run of the same first cycle of ops and reports
per-layer metrics per cycle: exact counts from one traced cycle (they
must repeat in every traced cycle) and the median time across traced
cycles.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import combsync
from spans import Tracer, layer_metrics, self_times, spans_to_json
from workloads import FULL, TINY, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
#: Traced/untraced cycle pairs a trace run makes at least.
MIN_TRACE_PAIRS = 2
#: Fresh-interpreter imports behind setup_s, one about every seconds / SETUP_SAMPLES
#: of the timed loop; their own time does not count against --seconds.
SETUP_SAMPLES = 16
#: Seconds after the worker starts from which it starts no new cycle, even
#: below the minimum cycle count: a slow program is then still measured, on
#: fewer cycles, well within run.py's timeout.
DEADLINE_S = 120


def run_cycle(workload, inputs, tracer: Tracer | None = None):
    """Run one cycle of ops back to back; returns [(latency_s, Outcome)].

    Results are checked after the whole cycle, outside the timed ops and
    with the tracer's wrappers removed.
    """
    timed = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for k, op in enumerate(inputs):
            if tracer is not None:
                tracer.op = k
            start = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                result = exc
            timed.append((time.perf_counter() - start, result))
    out = []
    for op, (latency, result) in zip(inputs, timed):
        if isinstance(result, Exception):
            outcome = Outcome(False, problem=f"raised {result!r}")
        else:
            try:
                outcome = workload.check(op, result)
            except Exception:
                outcome = Outcome(False, problem=f"check raised: {traceback.format_exc(limit=2)}")
        out.append((latency, outcome))
    return out


def import_seconds() -> float:
    """Wall time for a fresh interpreter to ``import combsync.cli``.

    A blocking wait: subprocess's wait with a timeout polls in sleeps of
    up to 50 ms, which would quantize the measurement.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import combsync.cli"], cwd=ROOT)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing combsync.cli exited {code}")
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, 1)  # 1-based rank; with < 11 ops, the fastest op
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload, seconds: float, min_cycles: int, deadline: float) -> tuple[dict, dict, list[str]]:
    """Untraced closed loop of whole cycles; end-to-end metrics."""
    workload.run(workload.make_input(0))  # untimed warm-up op
    import_seconds()  # untimed warm-up import
    latencies, imports, problems = [], [], []
    index = cycles = passed = 0
    start = time.perf_counter()
    while (not cycles or (cycles < min_cycles and time.perf_counter() < deadline)
           or time.perf_counter() - start < seconds):
        if len(imports) < SETUP_SAMPLES and time.perf_counter() - start >= len(imports) * seconds / SETUP_SAMPLES:
            paused = time.perf_counter()
            imports.append(import_seconds())
            start += time.perf_counter() - paused
        inputs = [workload.make_input(index + k) for k in range(workload.cycle)]
        for latency, outcome in run_cycle(workload, inputs):
            latencies.append(latency)
            passed += bool(outcome.ok)
            if not outcome.ok and len(problems) < 5:
                problems.append(outcome.problem)
        index += workload.cycle
        cycles += 1
    while len(imports) < SETUP_SAMPLES:
        imports.append(import_seconds())
    latencies.sort()
    tail_s, tail_pct = tail(latencies)
    quarter = len(latencies) // 4
    metrics = {
        "setup_s": statistics.median(imports),
        "ops_per_s": passed / sum(latencies),
        "op_iqm_s": statistics.mean(latencies[quarter:len(latencies) - quarter]),
        "op_tail_s": tail_s,
        "pass_rate": passed / len(latencies),
    }
    record = {"ops": len(latencies), "cycles": cycles, "passed": passed, "op_p50_s": statistics.median(latencies),
              "fail_rate": 1.0 - passed / len(latencies), "tail_percentile": tail_pct,
              "wall_s": time.perf_counter() - start, "import_s": imports,
              "min_cycles": min_cycles}
    return metrics, record, problems


def trace(workload, seconds: float, deadline: float, spans_path: Path) -> tuple[dict, dict, list[str]]:
    """Alternate untraced and traced runs of the first cycle; per-layer metrics."""
    inputs = [workload.make_input(k) for k in range(workload.cycle)]
    workload.run(inputs[0])  # untimed warm-up op
    plain_walls, traced_walls, per_cycle, problems = [], [], [], []
    attempted = passed = 0
    start = time.perf_counter()
    while (not traced_walls or (len(traced_walls) < MIN_TRACE_PAIRS and time.perf_counter() < deadline)
           or time.perf_counter() - start < seconds):
        plain = run_cycle(workload, inputs)
        tracer = Tracer()
        traced = run_cycle(workload, inputs, tracer)
        plain_walls.append(sum(latency for latency, _ in plain))
        traced_walls.append(sum(latency for latency, _ in traced))
        for _, outcome in plain + traced:
            attempted += 1
            passed += bool(outcome.ok)
            if not outcome.ok and len(problems) < 5:
                problems.append(outcome.problem)
        own = self_times(tracer.spans)
        if own and min(own) < 0.0:
            problems.append(f"negative self time {min(own)!r}")
        layers = layer_metrics(tracer.spans)
        outcomes = [outcome for _, outcome in traced]
        layers["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
        layers["cli.rows_written"] = sum(o.rows_written for o in outcomes)
        layers["cli.unparsable_cells"] = sum(o.unparsable for o in outcomes)
        per_cycle.append(layers)
    spans_path.write_text(json.dumps(spans_to_json(tracer.spans)), encoding="utf-8")

    metrics = {}
    for name, first in per_cycle[0].items():
        values = [layers[name] for layers in per_cycle]
        if isinstance(first, int):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between identical cycles: {values}")
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    record = {"cycles": len(per_cycle), "ops_per_cycle": workload.cycle, "attempted": attempted,
              "passed": passed, "spans_per_cycle": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "wall_s": time.perf_counter() - start}
    return metrics, record, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not Path(combsync.__file__).resolve().is_relative_to(ROOT / "src"):
        parser.error(f"combsync was imported from {combsync.__file__}, not from {ROOT / 'src'}")

    sizes = FULL if args.size == "full" else TINY
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS_DIR / f"work-{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, sizes, workdir)
        if args.trace:
            metrics, record, problems = trace(workload, args.seconds, deadline, RUNS_DIR / f"{stem}-spans.json")
            attempted, passed = record["attempted"], record["passed"]
        else:
            metrics, record, problems = measure(workload, args.seconds, sizes.min_cycles, deadline)
            attempted, passed = record["ops"], record["passed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": passed == attempted and not problems,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": metrics,
        "record": {**record, "workload": args.workload, "size": args.size, "environment": environment(args.seed),
                   "problems": problems},
    }
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
