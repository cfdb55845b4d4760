"""combsync benchmark entry point.

    python3 perfbench/run.py --workload slope_table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a checkout and benchmarks the combsync sources in
its ``src`` directory.  Each workload runs in a fresh single-threaded
Python process (``worker.py``).  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics.  Every metric is printed by name and unit; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
both modes and ends with one JSON object whose metric names are
prefixed by the workload.  ``cli_artifacts`` runs too but is not in
``BENCHMARK.json`` or ``all``: it fails on a known CLI writer defect.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
#: Only guards against a hung worker: the worker starts no cycle after 120 s.
WORKER_TIMEOUT_S = 170
#: Workloads the worker runs that BENCHMARK.json does not list.  cli_artifacts
#: adds the noise and sync commands to cli_commands; their artifacts hold
#: ``np.float64(...)`` cells under numpy >= 2, so it reports ``correct: false``
#: until the CLI writer is fixed (see perfbench/README.md).
UNLISTED_WORKLOADS = ("cli_artifacts",)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: int, size: str, spec: dict) -> dict:
    env = child_env()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--size", size],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if set(metrics) != set(wanted):
        raise RuntimeError(f"{workload}: metrics {sorted(set(metrics) ^ set(wanted))} do not match BENCHMARK.json")
    result["metrics"] = {name: metrics[name] for name in wanted}
    return result


def report(workload: str, result: dict, units: dict) -> None:
    record = result["record"]
    tag = f"[{workload}]"
    for name, value in result["metrics"].items():
        print(f"{tag} {name} = {value!r} {units[name]}")
    print(f"{tag} fail_rate = {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    if "tail_percentile" in record:
        print(f"{tag} op_p50_s = {record['op_p50_s']!r} s (median op latency; not bounded, see perfbench/README.md)")
        print(f"{tag} op_tail_s is p{record['tail_percentile']:.2f} of {record['ops']} ops "
              f"in {record['cycles']} cycles")
        if record["cycles"] < record["min_cycles"]:
            print(f"{tag} note: the worker's deadline stopped the loop before {record['min_cycles']} cycles")
    for problem in record["problems"]:
        print(f"{tag} problem: {problem}")
    print(f"{tag} environment: {json.dumps(record['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="combsync benchmark")
    parser.add_argument("--workload", required=True, choices=names + list(UNLISTED_WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs only smoke-test the harness")
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs = [(w, t) for w in names for t in (0, 1)] if args.workload == "all" else [(args.workload, args.trace)]
    results = {}
    try:
        for workload, trace in runs:
            results[workload, trace] = result = run_workload(
                workload, args.seed, args.seconds, trace, args.size, spec)
            report(workload, result, units)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": {"value": value, "unit": units[name]}
                        for (w, _), r in results.items() for name, value in r["metrics"].items()},
        }
    else:
        (result,) = results.values()
        final = {key: result[key] for key in ("correct", "attempted", "failed")}
        final["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
