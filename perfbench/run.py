"""Benchmark of oppaccess: four closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of dp-solve, sim-greedy, sim-stateful, verify-suite, or ``all``
to run the four in turn.  The workload runs in processes of its own
(``worker.py``), built from this checkout's ``src``.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run instead.  The exit code is 0 when every
output passed its check and 1 otherwise; anything else (no library to
import, a crashed or timed-out workload process) exits 2 without a result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("dp-solve", "sim-greedy", "sim-stateful", "verify-suite")

#: An untraced run splits its timed section across this many worker
#: processes, one after the other, and takes medians across all their passes:
#: the same work runs up to 8% faster or slower in one process than in the
#: next, even after speed normalisation.
RUN_PROCESSES = 3
#: Set-up is measured in this many processes (the measuring ones included);
#: the median is reported.  Set-up times are not speed-normalised: they
#: depend on process start and file reads more than on CPU speed, and
#: scaling them by the probe made them spread more, not less.
SETUP_SAMPLES = 7
#: Wall-clock limit for one workload, its set-up processes included.
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(args, mode: str, seconds: float, work_dir: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{args.workload}: out of time before the {mode} process")
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace), "--scale", args.scale,
        "--mode", mode, "--work-dir", str(work_dir), "--spawned-at",
    ]
    cmd.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: {mode} process exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{args.workload}: {mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile_with_tail(values, beyond: int = 10):
    """(percentile, value): the highest percentile with at least ``beyond`` items
    above it.  With ``beyond`` items or fewer it is the maximum (100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1]
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def combine(runs: list, setups: list) -> dict:
    """End-to-end figures from the measuring processes' untraced passes."""
    passes = [p for run in runs for p in run["item_s"]]
    instance = runs[0]["instance"]
    latencies = [
        statistics.median(p[idx] for p in passes)
        for idx, is_instance in enumerate(instance)
        if is_instance
    ]
    tail_pct, tail = percentile_with_tail(latencies)
    samples = setups + runs
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "setup_samples": len(samples),
        "wall_s": statistics.median(sum(p) for p in passes),
        "wall_raw_s": statistics.median(s for run in runs for s in run["raw_pass_s"]),
        "pass_s": [sum(p) for p in passes],
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "instance_p50_ms": 1e3 * statistics.median(latencies),
        "instance_tail_ms": 1e3 * tail,
        "tail_percentile": tail_pct,
        "tail_items": len(latencies),
    }


def run_workload(args) -> dict:
    """Run one workload in its own processes and combine what they measured."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    processes = 1 if args.trace else RUN_PROCESSES
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - processes):
                setups.append(_spawn(args, "setup", 0.0, work_dir, deadline))
        runs = [
            _spawn(args, "run", args.seconds / processes, work_dir, deadline)
            for _ in range(processes)
        ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "failures": [m for run in runs for m in run["failures"]][:10],
        "items": len(runs[0]["instance"]),
        "passes": sum(len(run["item_s"]) for run in runs),
        "processes": processes,
    }
    if args.trace:
        result["per_layer"] = runs[0]["per_layer"]
        result["traced_passes"] = runs[0]["traced_passes"]
    else:
        result.update(combine(runs, setups))
    return result


def report(name: str, args, result: dict) -> dict:
    """Print the human-readable block; return the metrics for the JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}  seed={args.seed}  processes={result['processes']}  "
          f"passes={result['passes']}  items/pass={result['items']}")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    print(f"  {'failed_frac':<18} {failed / attempted:.4g} ratio  ({failed} of {attempted} items)")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
        print(f"  traced passes={result['traced_passes']}")
        for key, m in metrics.items():
            print(f"  {key:<30} {m['value']:.6g} {m['unit']}")
        return metrics
    metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(f"  {'setup_s':<18} {result['setup_s']:.4f} s  (median of {result['setup_samples']})")
    print(f"  {'wall_s':<18} {result['wall_s']:.4f} s  (median of {result['passes']} passes; "
          f"{result['wall_raw_s']:.4f} s raw)")
    print(f"  {'peak_rss_mb':<18} {result['peak_rss_mb']:.1f} MiB")
    print(f"  {'instance_p50_ms':<18} {result['instance_p50_ms']:.4f} ms")
    print(f"  {'instance_tail_ms':<18} {result['instance_tail_ms']:.4f} ms  "
          f"(p{result['tail_percentile']:.2f} of {result['tail_items']} items)")
    print(f"  {'pass times':<18} {' '.join(f'{x:.3f}' for x in result['pass_s'])} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25,
                        help="length of the timed section of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's input sizes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "oppaccess" / "__init__.py").is_file():
        print(f"no oppaccess sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            attempted += result["attempted"]
            failed += result["failed"]
            block = report(name, args, result)
            if args.workload == "all":
                block = {f"{name}.{k}": v for k, v in block.items()}
            metrics.update(block)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
