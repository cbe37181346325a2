"""Speed normalisation for timings on a machine whose speed drifts.

On a shared machine the same work can take up to twice as long for stretches
of tens of seconds to minutes.  The benchmark therefore runs a short, fixed
probe next to the work it times and scales each timing by
``NOMINAL_PROBE_S / probe time``: a timing taken while the probe runs at its
nominal speed is reported unchanged, one taken while the machine runs at half
speed is halved.  The raw timings are printed alongside.

Different slowdowns hit different kinds of work differently, so the probe is
the geometric mean of three kinds: dictionary lookups and float arithmetic,
a small memoised recursion that builds and sorts short tuples, and small numpy
operations.  Over five minutes of 30-second windows, this kept the spread of
a DP solve, a batch simulation and a batch of verify checks between 1.6% and
2.7%, against 12-19% raw and 4-5% for the first kind alone.  None of the
probes keeps memory past its own run, so its speed does not depend on the
heap the timed work leaves behind.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's time on the machine the baseline was recorded on, at its fast
#: end (2 vCPU Xeon at 2.0 GHz; see README.md).  It only sets the scale.
NOMINAL_PROBE_S = 0.004

_TABLE = {(i, i + 1): float(i) for i in range(256)}
_KEYS = list(_TABLE)
_ARRAY = np.arange(64, dtype=float)


def _lookups() -> float:
    x = 0.0
    table, keys = _TABLE, _KEYS
    for i in range(30_000):
        x = x * 0.5 + table[keys[i & 255]]
    return x


def _recursion() -> float:
    memo: dict = {}

    def value(h, key):
        if h == 0:
            return key[0]
        hit = memo.get((h, key))
        if hit is not None:
            return hit
        child = tuple(sorted((key[1], key[0] * 0.5, key[2] + 0.25)))
        v = max(value(h - 1, child), key[2]) + 0.5 * value(h - 1, (key[2], key[0], key[1]))
        memo[(h, key)] = v
        return v

    total = 0.0
    for s in range(15):
        memo.clear()
        total += value(9, (0.1 * s, 0.2, 0.3))
    return total


def _numpy() -> float:
    total = 0.0
    for _ in range(1_000):
        total += float((_ARRAY * 0.5 + 1.0).sum())
    return total


def probe() -> float:
    """Geometric mean of the three probe kinds' times, each the faster of two runs."""
    product = 1.0
    for work in (_lookups, _recursion, _numpy):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - t0)
        product *= best
    return product ** (1.0 / 3.0)


def factor(probe_before: float, probe_after: float) -> float:
    """Scale for a timing taken between two probes."""
    return NOMINAL_PROBE_S / (0.5 * (probe_before + probe_after))
