"""Independent reference implementations used to cross-check the solvers.

Deliberately naive: no memoisation, no outcome grouping, no reordering
tricks.  Only usable at tiny sizes, which is the point -- they share no code
path with the package's recursions.  The exception is ``RecursiveVSolver``:
the memoised Bellman recursion that the level-graph V engine replaced, kept
as it was so the engine can be compared with it bit for bit.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from oppaccess import (
    ActionSet,
    BeliefVector,
    FiniteHorizonSolver,
    HorizonSpec,
    RunRecord,
    StepRecord,
    TransitionModel,
    tau,
)
from oppaccess.dp import (
    ResourceLimitError,
    SolveResult,
    _left_sum,
    _poisson_binomial,
    _selections,
)
from oppaccess.model import OBSERVED_BAD, OBSERVED_GOOD, _check_prob


@dataclass(frozen=True)
class OutcomeRealization:
    """Joint observation on a sensed subset: bits aligned with the sorted action."""

    bits: Tuple[int, ...]
    probability: float


def outcome_probability(beliefs_on_action: Sequence[float], bits: Sequence[int]) -> float:
    """Probability that the sensed channels realise the given 0/1 pattern."""
    if len(beliefs_on_action) != len(bits):
        raise ValueError(
            f"length mismatch: {len(beliefs_on_action)} beliefs vs {len(bits)} bits"
        )
    p = 1.0
    for w, b in zip(beliefs_on_action, bits):
        _check_prob(w, "belief")
        p *= w if b else (1.0 - w)
    return p


def enumerate_outcomes(belief: BeliefVector, action: ActionSet) -> Iterator[OutcomeRealization]:
    """All 2^k joint realisations of the sensed channels with their probabilities."""
    action.validate_for(belief.n)
    sensed = [belief.omega[i - 1] for i in action.indices]
    for bits in itertools.product((0, 1), repeat=len(sensed)):
        yield OutcomeRealization(bits, outcome_probability(sensed, bits))


def update_belief(
    belief: BeliefVector,
    action: ActionSet,
    outcome: OutcomeRealization,
    model: TransitionModel,
) -> BeliefVector:
    """Next-step belief: observed channels collapse to p11/p01, the rest propagate
    by tau; G/B provenance tags are reset on observation and aged otherwise."""
    action.validate_for(belief.n)
    if len(outcome.bits) != action.k:
        raise ValueError(
            f"outcome has {len(outcome.bits)} bits but action senses {action.k} channels"
        )
    bit_by_channel = dict(zip(action.indices, outcome.bits))
    values = []
    tags: Optional[list] = [] if belief.tags is not None else None
    for i, w in enumerate(belief.omega, start=1):
        if i in bit_by_channel:
            good = bit_by_channel[i]
            values.append(model.p11 if good else model.p01)
            if tags is not None:
                tags.append((OBSERVED_GOOD, 0) if good else (OBSERVED_BAD, 0))
        else:
            values.append(tau(w, model))
            if tags is not None:
                tag = belief.tags[i - 1]
                tags.append((tag[0], tag[1] + 1))
    return BeliefVector(tuple(values), tuple(tags) if tags is not None else None)


def immediate_reward(belief: BeliefVector, action: ActionSet) -> float:
    """One-step expected reward of sensing `action`: sum of the selected beliefs."""
    action.validate_for(belief.n)
    return sum(belief.omega[i - 1] for i in action.indices)


def _distinct_selections(
    entries: Sequence[Tuple[float, Tuple]], k: int
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(sel, complement) pairs of a sorted state, one per multiset of sensed entries.

    Equal entries are contiguous in a sorted state.  A selection is kept only
    if, within each run of equal entries, it takes the leftmost positions:
    that is the lexicographically first selection sensing its multiset.  A
    skipped selection has a Q-value bit-identical to the kept one's and
    reaches only the states the kept one reached first.
    """
    repeats = 0  # bit i set: entry i equals entry i-1
    for i in range(1, len(entries)):
        if entries[i] == entries[i - 1]:
            repeats |= 1 << i
    for sel, comp, mask in _selections(len(entries), k):
        if not (mask & repeats) >> 1 & ~mask:
            yield sel, comp


class RecursiveVSolver(FiniteHorizonSolver):
    """The memoised Bellman recursion that the level-graph V engine replaced.

    V is memoised on (h, sorted entries) and explored depth first; a state
    is counted against ``max_states`` the moment it is memoised, so a cap
    trips part-way through, with the states visited so far left in the
    memo.  W and the aged-entry table are the library's.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._v_memo: Dict[Tuple, float] = {}

    def _bump(self) -> None:
        if len(self._v_memo) + len(self._w_memo) > self.max_states:
            raise ResourceLimitError(
                f"memoised state count exceeded cap {self.max_states}"
            )

    def cache_stats(self) -> Dict[str, int]:
        return {"v_states": len(self._v_memo), "w_states": len(self._w_memo)}

    def _v(self, h: int, entries: Tuple[Tuple[float, Tuple], ...]) -> float:
        """Optimal value with h steps remaining after the current one; entries sorted."""
        key = (h, entries)
        hit = self._v_memo.get(key)
        if hit is not None:
            return hit
        k = self.k
        if h == 0:
            val = _left_sum(v for v, _ in entries[-k:])
        else:
            aged = self._aged(entries)
            val = max(
                self._q(h, entries, aged, sel, comp)
                for sel, comp in _distinct_selections(entries, k)
            )
        self._v_memo[key] = val
        self._bump()
        return val

    def _q(
        self,
        h: int,
        entries: Sequence[Tuple[float, Tuple]],
        aged: Sequence[Tuple[float, Tuple]],
        sel: Sequence[int],
        comp: Sequence[int],
    ) -> float:
        """Value of sensing positions `sel` now, then acting optimally.

        `aged` holds every entry one unobserved step on; `comp` lists the
        positions not in `sel`.  The updated belief depends on the outcome
        only through the number of good observations, so the 2^k outcome sum
        collapses to k+1 terms weighted by the Poisson-binomial law of the
        sensed beliefs.
        """
        sensed = [entries[i][0] for i in sel]
        imm = _left_sum(sensed)
        if h == 0 or self.horizon.beta == 0.0:
            return imm
        unsensed = [aged[i] for i in comp]
        total = 0.0
        for s, p in enumerate(_poisson_binomial(sensed)):
            if p == 0.0:
                continue
            child = sorted([self._bad] * (self.k - s) + unsensed + [self._good] * s)
            total += p * self._v(h - 1, tuple(child))
        return imm + self.horizon.beta * total

    def action_values(self, belief: BeliefVector, t: int) -> Dict[ActionSet, float]:
        """Q-value of every first action: immediate reward + discounted optimal continuation."""
        h = self._check_t(belief, t)
        entries = self._root_entries(belief)
        aged = self._aged(entries) if h > 0 and self.horizon.beta != 0.0 else ()
        return {
            ActionSet(tuple(i + 1 for i in sel)): self._q(h, entries, aged, sel, comp)
            for sel, comp, _ in _selections(belief.n, self.k)
        }

    def optimal_value(self, belief: BeliefVector, t: int, tol: float = 1e-9) -> SolveResult:
        """Optimal value from time t plus every action within `tol` of the maximum."""
        qs = self.action_values(belief, t)
        best = max(qs.values())
        actions = tuple(
            sorted((a for a, v in qs.items() if v >= best - tol), key=lambda a: a.indices)
        )
        return SolveResult(best, actions, self.cache_stats())

    def verify_cached_bellman(self) -> float:
        """Recompute every non-terminal memoised V entry from its children.

        State keys encode each entry as tau^m of a known base, so the belief
        values are reconstructible from the key alone.  Returns the largest
        absolute residual between the cached value and the recomputed
        right-hand side.
        """
        worst = 0.0
        for (h, entries), cached in list(self._v_memo.items()):
            if h == 0:
                continue
            rebuilt = tuple(sorted((self._key_value(kk), kk) for _, kk in entries))
            aged = self._aged(rebuilt)
            rhs = max(
                self._q(h, rebuilt, aged, sel, comp)
                for sel, comp, _ in _selections(len(rebuilt), self.k)
            )
            worst = max(worst, abs(cached - rhs))
        return worst


def brute_force_optimal(omega, t, model: TransitionModel, horizon: HorizonSpec, k: int):
    """Optimal value by exhaustive enumeration over actions and outcomes."""
    n = len(omega)
    best = None
    for action in itertools.combinations(range(n), k):
        imm = sum(omega[i] for i in action)
        if t == horizon.T or horizon.beta == 0.0:
            val = imm
        else:
            expect = 0.0
            for bits in itertools.product((0, 1), repeat=k):
                q = 1.0
                for i, b in zip(action, bits):
                    q *= omega[i] if b else (1.0 - omega[i])
                bit = dict(zip(action, bits))
                child = tuple(
                    (model.p11 if bit[i] else model.p01)
                    if i in bit
                    else omega[i] * model.p11 + (1.0 - omega[i]) * model.p01
                    for i in range(n)
                )
                expect += q * brute_force_optimal(child, t + 1, model, horizon, k)
            val = imm + horizon.beta * expect
        if best is None or val > best:
            best = val
    return best


def exact_policy_value(omega, t, model, horizon, k, policy_action):
    """Expected discounted reward of a deterministic Markov policy from time t.

    Every one of the 2^k joint outcomes is enumerated at every step (no
    outcome grouping, no reordering), memoised on the raw belief vector only
    so that criterion-sized instances stay fast.  Shares no code path with
    the W recursion, so the two cross-check each other.
    """
    memo = {}

    def rec(t, omega):
        key = (t, omega)
        if key in memo:
            return memo[key]
        action: ActionSet = policy_action(omega, t)
        sel = [i - 1 for i in action.indices]
        reward = _left_sum(omega[i] for i in sel)
        if t == horizon.T or horizon.beta == 0.0:
            val = reward
        else:
            expect = 0.0
            for bits in itertools.product((0, 1), repeat=k):
                q = 1.0
                for i, b in zip(sel, bits):
                    q *= omega[i] if b else (1.0 - omega[i])
                if q == 0.0:
                    continue
                bit = dict(zip(sel, bits))
                child = tuple(
                    (model.p11 if bit[i] else model.p01) if i in bit else tau(w, model)
                    for i, w in enumerate(omega)
                )
                expect += q * rec(t + 1, child)
            val = reward + horizon.beta * expect
        memo[key] = val
        return val

    return rec(t, tuple(omega))


def affine_swap_delta(solver, prefix, x, y, suffix, t):
    """Both sides of the pairwise-swap identity implied by W's per-variable affinity,
    through ``solver.w_value``:

    (W(..y,x..) - W(..x,y..),  (x - y) * [W(..0,1..) - W(..1,0..)]).
    """

    def w_of(a, b):
        return solver.w_value(BeliefVector(tuple(prefix) + (a, b) + tuple(suffix)), t)

    return w_of(y, x) - w_of(x, y), (x - y) * (w_of(0.0, 1.0) - w_of(1.0, 0.0))


def full_observation_value(omega, model: TransitionModel, horizon: HorizonSpec):
    """Closed form for k = n: channels decouple, so the value is the sum of
    discounted per-channel marginal probabilities of being good."""
    total = 0.0
    for step in range(horizon.T):
        marginals = 0.0
        for w in omega:
            m = w
            for _ in range(step):
                m = m * model.p11 + (1.0 - m) * model.p01
            marginals += m
        total += horizon.beta**step * marginals
    return total


def philox_substream_uniforms(seed, stream_id, replications, shape):
    """Per-replication uniforms drawn the slow, obvious way: one numpy Philox
    generator per replication r, keyed by [seed, (stream_id << 48) + r] mod 2**64."""
    mask = (1 << 64) - 1
    out = np.empty((replications,) + tuple(shape))
    for r in range(replications):
        key = np.array([seed & mask, ((stream_id << 48) + r) & mask], dtype=np.uint64)
        out[r] = np.random.Generator(np.random.Philox(key=key)).random(shape)
    return out


class LoopRun(NamedTuple):
    totals: np.ndarray
    traces: Optional[Tuple[RunRecord, ...]]


def simulate_loop(config, policy) -> LoopRun:
    """Per-replication reference simulator: one Python step at a time, through
    the scalar ``reset``/``action``/``observe`` policy interface, on the same
    Philox substreams (nature on stream 1, policy on stream 2) as ``simulate``."""
    m, beta, T = config.model, config.horizon.beta, config.horizon.T
    R, n, k = config.replications, config.n, config.k
    nat = philox_substream_uniforms(config.seed, 1, R, (T, n))
    pol = (
        philox_substream_uniforms(config.seed, 2, R, (T,))
        if getattr(policy, "uses_randomness", False)
        else np.zeros((R, T))
    )
    omega0 = config.initial_belief.omega
    totals = np.zeros(R)
    traces: Optional[list] = [] if config.record_traces else None
    for r in range(R):
        states = tuple(int(nat[r, 0, i] < omega0[i]) for i in range(n))
        beliefs = omega0
        policy.reset(n, k, omega0)
        total = 0.0
        disc = 1.0
        steps = [] if traces is not None else None
        for t in range(1, T + 1):
            if hasattr(policy, "set_uniform"):
                policy.set_uniform(pol[r, t - 1])
            action = policy.action(beliefs, t)
            obs = tuple(states[i - 1] for i in action.indices)
            reward = sum(obs)
            total += disc * reward
            policy.observe(action, obs)
            if steps is not None:
                steps.append(
                    StepRecord(t, states, action.indices, obs, reward, total)
                )
            if t < T:
                bit = dict(zip(action.indices, obs))
                beliefs = tuple(
                    (m.p11 if bit[i] else m.p01) if i in bit else tau(w, m)
                    for i, w in enumerate(beliefs, start=1)
                )
                states = tuple(
                    int(nat[r, t, i] < (m.p11 if states[i] else m.p01))
                    for i in range(n)
                )
            disc *= beta
        totals[r] = total
        if traces is not None:
            traces.append(RunRecord(r, tuple(steps), total))
    return LoopRun(totals, tuple(traces) if traces is not None else None)
