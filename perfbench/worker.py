"""One workload in its own process: set up, run the timed section, check outputs.

``run.py`` starts this script; it is not meant to be run by hand.  In
``--mode setup`` it stops once the inputs are built and reports only the
set-up time.  In ``--mode run`` it goes on to the timed section, checks the
outputs, and prints one JSON object with its raw measurements as the last
line of standard output; ``run.py`` combines those of several processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent

#: Item time between two speed probes within a pass.
PROBE_EVERY_S = 0.5


def import_library() -> None:
    """Import oppaccess from this checkout's ``src``, and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import oppaccess

    origin = Path(oppaccess.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"oppaccess was imported from {origin}, not from {src}")


def run_pass(items, tracer=None) -> list:
    """Run every item once, in order, with speed probes between them.

    Returns (raw seconds, speed-normalised seconds, output, error) per item.
    A probe runs before the first item, after the last, and in between
    whenever ``PROBE_EVERY_S`` of item time has passed; each item's time is
    scaled by the probes on either side of its stretch (see speed.py).
    """
    timed, probes, starts = [], [speed.probe()], [0]
    since_probe = 0.0
    for idx, item in enumerate(items):
        if since_probe >= PROBE_EVERY_S:
            probes.append(speed.probe())
            starts.append(idx)
            since_probe = 0.0
        if tracer is not None:
            tracer.begin_item(item.key)
        t0 = time.perf_counter()
        try:
            out, err = item.run(), None
        except Exception as exc:  # a raising item counts as failed; the loop goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_item()
        timed.append((dt, out, err))
        since_probe += dt
    probes.append(speed.probe())
    starts.append(len(items))
    records = []
    for seg in range(len(probes) - 1):
        scale = speed.factor(probes[seg], probes[seg + 1])
        for dt, out, err in timed[starts[seg]:starts[seg + 1]]:
            records.append((dt, dt * scale, out, err))
    return records


def timed_section(items, seconds: float, tracer=None) -> dict:
    """Repeat passes while the next one is expected to end within ``seconds``.

    Without a tracer every pass is untraced.  With one, untraced and traced
    passes alternate (at least one of each), so the tracing overhead is
    measured in the same process on the same inputs.
    """
    kinds = ["untraced", "traced"] if tracer is not None else ["untraced"]
    passes: dict = {kind: [] for kind in kinds}
    start = time.perf_counter()
    done = 0
    while True:
        kind = kinds[done % len(kinds)]
        traced = kind == "traced"
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            records = run_pass(items, tracer if traced else None)
            duration = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        passes[kind].append((duration, records))
        done += 1
        upcoming = passes[kinds[done % len(kinds)]]
        estimate = upcoming[-1][0] if upcoming else duration
        if done >= len(kinds) and time.perf_counter() - start + estimate > seconds:
            return passes


def check_outputs(items, passes: dict):
    """Check every execution of every item; returns (attempted, failed, messages).

    An execution fails if it raised, if its check rejects its output, or if
    its output differs from the item's first output (the inputs are the same
    in every pass, so the outputs must be too).
    """
    attempted = failed = 0
    messages = []
    for idx, item in enumerate(items):
        first = None
        for kind_passes in passes.values():
            for _, records in kind_passes:
                _, _, out, err = records[idx]
                attempted += 1
                if err is None:
                    try:
                        err = item.check(out)
                    except Exception as exc:  # a check that cannot run is a failure
                        err = f"check raised {type(exc).__name__}: {exc}"
                if err is None:
                    if first is None:
                        first = out
                    elif out != first:
                        err = f"output {out!r} differs from the first pass's {first!r}"
                if err is not None:
                    failed += 1
                    messages.append(f"{item.key}: {err}")
    return attempted, failed, messages


def _pass_seconds(records, column: int) -> float:
    return sum(record[column] for record in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    args = parser.parse_args(argv)

    import_library()
    import workloads

    items = workloads.build(args.workload, args.seed, args.scale, args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = timed_section(items, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, messages = check_outputs(items, passes)

    untraced = [records for _, records in passes["untraced"]]
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:10],
        "instance": [item.instance for item in items],
        # Speed-normalised seconds per item, one list per untraced pass.
        "item_s": [[record[1] for record in records] for records in untraced],
        "raw_pass_s": [_pass_seconds(records, 0) for records in untraced],
    }
    if tracer is not None:
        untraced_s = statistics.median(_pass_seconds(r, 1) for r in untraced)
        traced_s = statistics.median(_pass_seconds(r, 1) for _, r in passes["traced"])
        layers = tracer.layer_metrics(len(passes["traced"]))
        layers["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        result["per_layer"] = layers
        result["traced_passes"] = len(passes["traced"])
        spans_dir = ROOT / ".perfbench_runs"
        spans_dir.mkdir(exist_ok=True)
        tracer.write_spans(str(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
