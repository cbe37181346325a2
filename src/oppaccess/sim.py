"""Seeded Monte Carlo simulation of the hidden channels under any policy.

Randomness discipline: every replication r draws from its own counter-based
Philox substream keyed by (seed, stream_id, r), so a single replication can be
reproduced in isolation and results do not depend on execution order.  Nature
(initial states and transitions) and policy-internal randomness live on
disjoint streams, which makes common-random-numbers comparisons valid: two
policies evaluated on the same seed see identical channel sample paths.

The substreams of all replications are generated together in one vectorised
Philox4x64-10 pass.  Its key/counter layout is the one numpy's
``np.random.Philox(key=[seed, (stream_id << 48) + r])`` uses, so the draws, and
every seeded result computed from them earlier, reproduce exactly.

Every policy runs on one vectorised path that steps all replications together:
at each slot it asks the policy for an (R, k) action array
(``Policy.batch_actions``), reads the sensed states, and hands the
observations back through ``Policy.batch_observe``, which stateful policies
such as the ordered list use to update their per-replication state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .model import BeliefVector, HorizonSpec, TransitionModel
from .policies import Policy

TRACE_SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1
_STREAM_NATURE = 1
_STREAM_POLICY = 2


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce a simulation run.

    Hidden initial states are drawn per channel as Bernoulli(omega_i(1)) from
    the initial belief, which keeps simulated means consistent with the DP
    value of the same belief.
    """

    model: TransitionModel
    horizon: HorizonSpec
    n: int
    k: int
    initial_belief: BeliefVector
    replications: int
    seed: int
    record_traces: bool = False

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.initial_belief.n != self.n:
            raise ValueError("initial belief length must equal n")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    t: int
    states: Tuple[int, ...]
    action: Tuple[int, ...]
    observations: Tuple[int, ...]
    reward: int
    discounted_cum: float


@dataclass(frozen=True)
class RunRecord:
    replication: int
    steps: Tuple[StepRecord, ...]
    total: float


@dataclass(frozen=True)
class SimSummary:
    mean: float
    variance: float
    std_error: float
    replications: int
    totals: np.ndarray = field(repr=False)
    traces: Optional[Tuple[RunRecord, ...]] = None


@dataclass(frozen=True)
class PairedSummary:
    """Common-random-numbers comparison of two policies on shared sample paths."""

    mean_a: float
    mean_b: float
    mean_diff: float
    se_diff: float
    replications: int
    diffs: np.ndarray = field(repr=False)


# Philox4x64-10 (Salmon et al., SC'11) as numpy's ``np.random.Philox`` runs it.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_CHUNK_LANES = 4096


def _mulhilo(m: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _U32
    # Neither sum overflows: (2**32 - 1)**2 + (2**32 - 1) < 2**64.
    cross = m_hi * x_lo + ((m_lo * x_lo) >> _U32)
    carry = m_lo * x_hi + (cross & _LO32)
    hi = m_hi * x_hi + (cross >> _U32) + (carry >> _U32)
    return hi, x * np.uint64(m)


def _substream_uniforms(seed: int, stream_id: int, replications: int, count: int) -> np.ndarray:
    """(R, count) doubles; row r equals the first ``count`` draws of
    ``Generator(Philox(key=[seed, (stream_id << 48) + r])).random()``.

    All (replication, counter-block) lanes run through the rounds together, in
    chunks of about ``_CHUNK_LANES`` lanes to keep the temporaries small.
    Block j of a substream has counter (j + 1, 0, 0, 0), because numpy bumps
    the counter before its first block; each 64-bit word w becomes the double
    (w >> 11) * 2**-53, in C order.
    """
    blocks = -(-count // 4)
    rows = max(1, _CHUNK_LANES // blocks)
    # Round i runs with the key bumped i times; r is added to the second word per chunk.
    round_keys = [
        (
            np.uint64((seed + i * _PHILOX_W[0]) & _MASK64),
            np.uint64(((stream_id << 48) + i * _PHILOX_W[1]) & _MASK64),
        )
        for i in range(_PHILOX_ROUNDS)
    ]
    counter = np.arange(1, blocks + 1, dtype=np.uint64)
    out = np.empty((replications, count))
    for start in range(0, replications, rows):
        stop = min(start + rows, replications)
        reps = np.arange(start, stop, dtype=np.uint64)[:, None]
        x0 = np.broadcast_to(counter, (stop - start, blocks))
        x1 = x2 = x3 = np.zeros_like(x0)
        for k0, k1 in round_keys:
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ (reps + k1), lo0
        words = np.stack((x0, x1, x2, x3), axis=-1).reshape(stop - start, 4 * blocks)
        np.multiply(words[:, :count] >> np.uint64(11), 2.0**-53, out=out[start:stop])
    return out


def _nature_uniforms(config: SimConfig) -> np.ndarray:
    """(R, T, n) uniforms: row 0 draws initial states, row t drives t -> t+1."""
    R, T, n = config.replications, config.horizon.T, config.n
    return _substream_uniforms(config.seed, _STREAM_NATURE, R, T * n).reshape(R, T, n)


def _policy_uniforms(config: SimConfig) -> np.ndarray:
    return _substream_uniforms(config.seed, _STREAM_POLICY, config.replications, config.horizon.T)


def _summary(config: SimConfig, totals: np.ndarray, traces) -> SimSummary:
    mean = float(totals.mean())
    var = float(totals.var(ddof=1)) if len(totals) > 1 else 0.0
    se = float(np.sqrt(var / len(totals)))
    return SimSummary(mean, var, se, len(totals), totals, traces)


def _simulate_batch(config: SimConfig, policy: Policy, nat: np.ndarray, pol: np.ndarray):
    m, beta, T = config.model, config.horizon.beta, config.horizon.T
    R, n, k = config.replications, config.n, config.k
    omega0 = np.array(config.initial_belief.omega)
    states = (nat[:, 0, :] < omega0).astype(np.int8)
    beliefs = np.tile(omega0, (R, 1))
    totals = np.zeros(R)
    rows = np.arange(R)[:, None]
    disc = 1.0
    trace_steps = [] if config.record_traces else None
    for t in range(1, T + 1):
        acts = policy.batch_actions(beliefs, t, pol[:, t - 1])
        obs = states[rows, acts]
        policy.batch_observe(acts, obs)
        rewards = obs.sum(axis=1)
        totals += disc * rewards
        if trace_steps is not None:
            # Per-replication tuples, built once per step, are the records'
            # own fields: no second copy of the trace is alive at any point.
            trace_steps.append(
                (
                    t,
                    list(map(tuple, states.tolist())),
                    list(map(tuple, (acts + 1).tolist())),
                    list(map(tuple, obs.tolist())),
                    rewards.tolist(),
                    totals.tolist(),
                )
            )
        if t < T:
            # model.tau's arithmetic, clamp included, so beliefs stay bit-equal
            # to the scalar recursion's.
            np.clip(beliefs, 0.0, 1.0, out=beliefs)
            beliefs = beliefs * m.p11 + (1.0 - beliefs) * m.p01
            beliefs[rows, acts] = np.where(obs, m.p11, m.p01)
            p_good = np.where(states, m.p11, m.p01)
            states = (nat[:, t, :] < p_good).astype(np.int8)
        disc *= beta
    traces = None
    if trace_steps is not None:
        final = totals.tolist()
        traces = tuple(
            RunRecord(
                r,
                tuple(
                    StepRecord(t, st[r], acts[r], ob[r], rw[r], tot[r])
                    for (t, st, acts, ob, rw, tot) in trace_steps
                ),
                final[r],
            )
            for r in range(R)
        )
    return totals, traces


def simulate(config: SimConfig, policy: Policy) -> SimSummary:
    """Estimate a policy's expected discounted reward by seeded Monte Carlo.

    Identical (config, policy) inputs produce bit-identical output.
    """
    nat = _nature_uniforms(config)
    pol = _policy_uniforms(config) if getattr(policy, "uses_randomness", False) else np.zeros(
        (config.replications, config.horizon.T)
    )
    policy.reset(config.n, config.k, config.initial_belief.omega)
    totals, traces = _simulate_batch(config, policy, nat, pol)
    return _summary(config, totals, traces)


def common_random_numbers_compare(
    config: SimConfig, policy_a: Policy, policy_b: Policy
) -> PairedSummary:
    """Run both policies against identical channel sample paths and pair the totals."""
    sa = simulate(config, policy_a)
    sb = simulate(config, policy_b)
    diffs = sa.totals - sb.totals
    var = float(diffs.var(ddof=1)) if len(diffs) > 1 else 0.0
    se = float(np.sqrt(var / len(diffs)))
    return PairedSummary(sa.mean, sb.mean, float(diffs.mean()), se, len(diffs), diffs)


def write_traces(path: str, traces: Sequence[RunRecord]) -> None:
    """Write one JSON record per step: schema version, replication, t, hidden
    states, 1-based action indices, observation bits, realised reward."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w") as f:
        for run in traces:
            for s in run.steps:
                f.write(
                    encode(
                        {
                            "v": TRACE_SCHEMA_VERSION,
                            "rep": run.replication,
                            "t": s.t,
                            "states": list(s.states),
                            "action": list(s.action),
                            "obs": list(s.observations),
                            "reward": s.reward,
                        }
                    )
                    + "\n"
                )
