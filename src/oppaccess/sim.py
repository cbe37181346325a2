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
every seeded result computed from them earlier, reproduce exactly.  The first
round sees only the block counter, so its output is computed once per block in
Python integers.  The pass runs rounds 2-10 through chunks of lanes; each round
multiplies the two words it transforms as one stacked array, in place, over
buffers allocated once per chunk.  The chunk size trades numpy's per-call
overhead against peak memory.

Sensing does not move the hidden chains, so every policy run on one seed sees
the same channel paths: ``_hidden_paths`` keeps the last run's (T, R, n) int8
hidden states in ``dp._TABLES``, keyed on exactly the inputs they are drawn
from (seed, replications, T, n, p01, p11 and the initial belief), not on beta
or the policy.  ``common_random_numbers_compare`` is two ``simulate`` calls
whose totals are paired, so the second reads the paths the first drew.

Every policy runs on one vectorised path that steps all replications together:
at each slot it asks the policy for an (R, k) action array
(``Policy.batch_actions``), reads the sensed states from the paths, and hands
the observations back through ``Policy.batch_observe``, which stateful
policies such as the ordered list use to update their per-replication state;
then, for a policy that reads beliefs (``Policy.uses_beliefs``), it ages every
belief one step and sets the sensed channels' beliefs.  A policy that does not
is handed the initial belief rows at every step.  The sensed entries are read
and written by one flat take or put each, at the actions plus each
replication's row offset.
A traced run keeps each step's arrays as the four read-only columns of one
``Traces``, whose ``states`` is the paths array itself, and ``write_traces``
writes the JSONL from them, formatting each distinct step row's text once per
file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .dp import _TABLES, _check_addressable, _tau
from .model import BeliefVector, HorizonSpec, TransitionModel, _as_belief, _as_int
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
        n = _as_int(self.n, "n", 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", _as_int(self.k, "k", 1, n))
        object.__setattr__(self, "replications", _as_int(self.replications, "replications", 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        if _as_belief(self.initial_belief, "initial_belief").n != n:
            raise ValueError("initial belief length must equal n")


@dataclass(frozen=True, eq=False)
class Traces:
    """Every replication's sample path, kept as read-only per-step columns.

    Each array has shape (T, R) or (T, R, width): ``states`` holds the hidden
    channel states, ``actions`` the 1-based sensed channel indices,
    ``observations`` the sensed bits and ``rewards`` the slot rewards.
    """

    states: np.ndarray
    actions: np.ndarray
    observations: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.states, self.actions, self.observations, self.rewards):
            column.flags.writeable = False


@dataclass(frozen=True)
class SimSummary:
    mean: float
    variance: float
    std_error: float
    replications: int
    totals: np.ndarray = field(repr=False)
    traces: Optional[Traces] = None


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
# Word 0 is multiplied by M0 and word 2 by M1; row i of a stacked pair meets _M[i].
_M = np.array(_PHILOX_M, dtype=np.uint64).reshape(2, 1, 1)
_M_LO, _M_HI = _M & _LO32, _M >> _U32
_CHUNK_LANES = 8192
#: Trace lines formatted at a time by ``write_traces``.
_TRACE_BLOCK_LINES = 8192


def _substream_uniforms(seed: int, stream_id: int, replications: int, count: int) -> np.ndarray:
    """(R, count) doubles; row r equals the first ``count`` draws of
    ``Generator(Philox(key=[seed, (stream_id << 48) + r])).random()``.

    Block j of a substream has counter (j + 1, 0, 0, 0), because numpy bumps
    the counter before its first block; each 64-bit word w becomes the double
    (w >> 11) * 2**-53, in C order.  Round 1 meets only the counter's j + 1,
    so it leaves (k0, 0, hi_j ^ (r + k1), lo_j), where hi_j:lo_j = (j + 1) * M0
    is computed per block in Python integers.

    All (replication, counter-block) lanes run through rounds 2-10 together,
    in chunks of about ``_CHUNK_LANES`` lanes.  A chunk keeps words 0 and 2,
    the two a round multiplies, stacked as one (2, rows, blocks) array ``x``,
    and words 1 and 3 as another, ``y``.  Each round forms both 128-bit
    products from 32-bit halves in place, over buffers allocated once per
    chunk, so a round is about twenty numpy calls whatever the chunk size.
    Larger chunks spread that per-call cost over more lanes but hold more
    memory at once: 8192 lanes left peak RSS flat, 16384 raised it.  The
    round scratch is dropped before the output words are stacked, so it is
    not held twice.
    """
    _check_addressable(replications, count)
    blocks = -(-count // 4)
    rows = max(1, _CHUNK_LANES // blocks)
    # Round i runs with the key bumped i times; r is added to the second word per chunk.
    round_keys = [
        ((seed + i * _PHILOX_W[0]) & _MASK64, ((stream_id << 48) + i * _PHILOX_W[1]) & _MASK64)
        for i in range(_PHILOX_ROUNDS)
    ]
    (first_k0, first_k1), round_keys = round_keys[0], round_keys[1:]
    first = [(j + 1) * _PHILOX_M[0] for j in range(blocks)]
    first_hi = np.array([p >> 64 for p in first], dtype=np.uint64)
    first_lo = np.array([p & _MASK64 for p in first], dtype=np.uint64)
    out = np.empty((replications, count))
    for start in range(0, replications, rows):
        stop = min(start + rows, replications)
        reps = np.arange(start, stop, dtype=np.uint64)[:, None]
        shape = (2, stop - start, blocks)
        x = np.empty(shape, dtype=np.uint64)
        x[0] = first_k0
        np.bitwise_xor(reps + first_k1, first_hi, out=x[1])
        y = np.zeros(shape, dtype=np.uint64)
        y[1] = first_lo
        a, hi, lo = (np.empty(shape, dtype=np.uint64) for _ in range(3))
        for k0, k1 in round_keys:
            # hi:lo = x * M.  No sum overflows: (2**32 - 1)**2 + (2**32 - 1) < 2**64.
            # x_hi is taken twice rather than kept, to hold one buffer fewer.
            np.bitwise_and(x, _LO32, out=a)
            np.multiply(a, _M_LO, out=hi)
            hi >>= _U32
            a *= _M_HI
            a += hi  # cross = m_hi * x_lo + (m_lo * x_lo >> 32)
            np.bitwise_and(a, _LO32, out=lo)
            a >>= _U32
            np.right_shift(x, _U32, out=hi)
            hi *= _M_LO
            lo += hi  # carry = m_lo * x_hi + (cross & LO32)
            lo >>= _U32
            a += lo
            np.right_shift(x, _U32, out=hi)
            hi *= _M_HI
            hi += a
            np.multiply(x, _M, out=lo)
            # Words 0, 2 <- hi1 ^ x1 ^ k0, hi0 ^ x3 ^ (r + k1); words 1, 3 <- lo1, lo0.
            np.bitwise_xor(hi[::-1], y, out=x)
            x[0] ^= k0
            x[1] ^= reps + k1
            y, lo = lo[::-1], y
        del a, hi, lo
        words = np.stack((x[0], y[0], x[1], y[1]), axis=-1).reshape(stop - start, 4 * blocks)
        del x, y
        words >>= np.uint64(11)
        np.multiply(words[:, :count], 2.0**-53, out=out[start:stop])
    return out


def _nature_uniforms(config: SimConfig) -> np.ndarray:
    """(R, T, n) uniforms: row 0 draws initial states, row t drives t -> t+1."""
    R, T, n = config.replications, config.horizon.T, config.n
    return _substream_uniforms(config.seed, _STREAM_NATURE, R, T * n).reshape(R, T, n)


def _policy_uniforms(config: SimConfig) -> np.ndarray:
    return _substream_uniforms(config.seed, _STREAM_POLICY, config.replications, config.horizon.T)


def _path_key(config: SimConfig) -> tuple:
    """Exactly the inputs the hidden paths are drawn from."""
    m = config.model
    return (
        config.seed, config.replications, config.horizon.T, config.n,
        m.p01, m.p11, config.initial_belief.omega,
    )


def _hidden_paths(config: SimConfig) -> np.ndarray:
    """The read-only (T, R, n) int8 hidden channel states of every replication.

    Row 0 is Bernoulli(omega_i) from the nature uniforms' row 0; row t steps
    each channel with row t's uniforms, good with chance p11 from good and
    p01 from bad.  They are held in ``dp._TABLES``, with their ``_path_key``.
    """
    key = _path_key(config)
    held = _TABLES.get(("paths",), (None, None))
    if held[0] == key:
        return held[1]
    del held  # no reference may keep the held paths alive during the draw
    _TABLES.pop(("paths",), None)
    m, T = config.model, config.horizon.T
    nat = _nature_uniforms(config)
    paths = np.empty((T, config.replications, config.n), dtype=np.int8)
    paths[0] = nat[:, 0, :] < np.array(config.initial_belief.omega)
    for t in range(1, T):
        paths[t] = nat[:, t, :] < np.where(paths[t - 1], m.p11, m.p01)
    paths.flags.writeable = False
    _TABLES[("paths",)] = key, paths
    return paths


def _summary(totals: np.ndarray, traces=None) -> SimSummary:
    mean = float(totals.mean())
    var = float(totals.var(ddof=1)) if len(totals) > 1 else 0.0
    se = float(np.sqrt(var / len(totals)))
    return SimSummary(mean, var, se, len(totals), totals, traces)


def _simulate_batch(config: SimConfig, policy: Policy, paths: np.ndarray, pol: np.ndarray):
    m, beta, T = config.model, config.horizon.beta, config.horizon.T
    R, k = config.replications, config.k
    beliefs = np.tile(np.array(config.initial_belief.omega), (R, 1))
    totals = np.zeros(R)
    # Replication r's offset into a flattened (R, n) step: channel c is at offset[r] + c.
    offset = np.arange(0, R * config.n, config.n)[:, None]
    disc = 1.0
    columns = None
    if config.record_traces:
        columns = (
            np.empty((T, R, k), dtype=np.int64),
            np.empty((T, R, k), dtype=np.int8),
            np.empty((T, R), dtype=np.int64),
        )
    for t in range(1, T + 1):
        acts = policy.batch_actions(beliefs, t, pol[:, t - 1])
        at = acts + offset
        obs = paths[t - 1].take(at)
        policy.batch_observe(acts, obs)
        rewards = obs.sum(axis=1)
        totals += disc * rewards
        if columns is not None:
            for column, step in zip(columns, (acts + 1, obs, rewards)):
                column[t - 1] = step
        if t < T and policy.uses_beliefs:
            beliefs = _tau(m, beliefs)
            beliefs.put(at, np.where(obs, m.p11, m.p01))
        disc *= beta
    return totals, (Traces(paths, *columns) if columns is not None else None)


def simulate(config: SimConfig, policy: Policy) -> SimSummary:
    """Estimate a policy's expected discounted reward by seeded Monte Carlo.

    Identical (config, policy) inputs produce bit-identical output.  A policy
    that draws no randomness reads one read-only, zero-stride view of zeros,
    not an (R, T) array.
    """
    paths = _hidden_paths(config)
    if policy.uses_randomness:
        pol = _policy_uniforms(config)
    else:
        pol = np.broadcast_to(0.0, (config.replications, config.horizon.T))
    policy.reset(config.n, config.k, config.initial_belief.omega)
    return _summary(*_simulate_batch(config, policy, paths, pol))


def common_random_numbers_compare(
    config: SimConfig, policy_a: Policy, policy_b: Policy
) -> PairedSummary:
    """Run both policies against identical channel sample paths and pair the totals.

    The two runs are ``simulate`` calls, so each policy's totals are its own
    ``simulate`` totals bit for bit, and the second run reads the hidden paths
    the first one drew.
    """
    sa = simulate(config, policy_a)
    sb = simulate(config, policy_b)
    diff = _summary(sa.totals - sb.totals)
    return PairedSummary(
        sa.mean, sb.mean, diff.mean, diff.std_error, diff.replications, diff.totals
    )


def write_traces(path: str, traces: Traces) -> None:
    """Write one compact JSON record per step, replication by replication:
    schema version, replication, t, hidden states, 1-based action indices,
    observation bits, realised reward.

    The steps are gathered a block of replications at a time, as one (t,
    states, action, obs, reward) row each.  A row's text after the
    replication number is formatted once per file and kept in a table keyed
    on the row's values.  The table is emptied before it would pass
    ``_TRACE_BLOCK_LINES`` entries, so it holds about one block's text.
    """
    if not isinstance(traces, Traces):
        raise TypeError(f"write_traces needs a Traces, got {type(traces).__name__}")
    T, R, n = traces.states.shape
    k = traces.actions.shape[2]
    columns = (
        np.broadcast_to(np.arange(1, T + 1).reshape(T, 1, 1), (T, R, 1)),
        traces.states,
        traces.actions,
        traces.observations,
        traces.rewards.reshape(T, R, 1),
    )
    head = f'{{"v":{TRACE_SCHEMA_VERSION},"rep":'
    block = max(1, _TRACE_BLOCK_LINES // T)
    # The narrowest signed type for every entry (t <= T, action <= n), fixed
    # per file, so a row's bytes in it are the row's key in every block.
    dtype = np.min_scalar_type(-max(T, n))
    table: Dict[bytes, str] = {}
    with open(path, "w") as f:
        for start in range(0, R, block):
            stop = min(start + block, R)
            # One row per (replication, t), replication-major.
            rows = np.concatenate(
                [c[:, start:stop].swapaxes(0, 1).reshape((stop - start) * T, -1) for c in columns],
                axis=1,
                dtype=dtype,
            )
            keys = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel().tolist()
            # One row of each key the table lacks.
            fresh = {key: i for i, key in enumerate(keys) if key not in table}
            if len(table) + len(fresh) > _TRACE_BLOCK_LINES:
                table.clear()
                fresh = {key: i for i, key in enumerate(keys)}
            for key, row in zip(fresh, rows[list(fresh.values())].tolist()):
                table[key] = (
                    f',"t":{row[0]},"states":[{",".join(map(str, row[1 : n + 1]))}],'
                    f'"action":[{",".join(map(str, row[n + 1 : n + k + 1]))}],'
                    f'"obs":[{",".join(map(str, row[n + k + 1 : -1]))}],"reward":{row[-1]}}}\n'
                )
            tails = [table[key] for key in keys]
            del rows, keys, fresh
            # Each replication's T lines are prefix + prefix.join(its tails).
            prefixes = [head + str(r) for r in range(start, stop)]
            f.write("".join([p + p.join(tails[i * T : i * T + T]) for i, p in enumerate(prefixes)]))
            # The next block may empty the table; the tails must not keep its text alive.
            del tails
