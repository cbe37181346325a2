"""Time the single calls behind the ROADMAP's re-anchor figures.

    python3 perfbench/crosscheck.py

Prints medians of three calls, raw and speed-normalised (see speed.py):
greedy ``simulate`` at n=5, k=2, T=5 with 10^5 replications, the part of it
spent in ``sim._nature_uniforms`` (one Philox generator per replication),
and ``simulate`` with ``OptimalPolicy`` at 10^4 replications.  The README's
baseline section compares these with the ROADMAP.
"""

from __future__ import annotations

import statistics
import time

import speed
import worker

worker.import_library()

from oppaccess import model, policies, sim  # noqa: E402


def timed(fn, repeats=3):
    raw, norm = [], []
    for _ in range(repeats):
        before = speed.probe()
        t0 = time.perf_counter()
        fn()
        raw.append(time.perf_counter() - t0)
        norm.append(raw[-1] * speed.factor(before, speed.probe()))
    return statistics.median(raw), statistics.median(norm)


def main() -> None:
    m = model.TransitionModel(0.3, 0.8)
    horizon = model.HorizonSpec(5, 0.95)
    belief = model.BeliefVector((0.1, 0.3, 0.5, 0.7, 0.9))

    def config(reps):
        return sim.SimConfig(m, horizon, 5, 2, belief, reps, 7)

    rows = [
        ("simulate greedy, 10^5 replications",
         timed(lambda: sim.simulate(config(100_000), policies.GreedyPolicy(2)))),
        ("  of which _nature_uniforms",
         timed(lambda: sim._nature_uniforms(config(100_000)))),
        ("simulate optimal, 10^4 replications",
         timed(lambda: sim.simulate(config(10_000), policies.OptimalPolicy(m, horizon, 2)))),
    ]
    for label, (raw, norm) in rows:
        print(f"{label:<38} {raw:8.3f} s raw  {norm:8.3f} s normalised")


if __name__ == "__main__":
    main()
