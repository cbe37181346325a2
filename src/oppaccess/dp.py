"""Exact finite-horizon solvers for the k-of-n channel selection problem.

Two recursions are implemented:

* ``optimal_value`` -- the Bellman recursion for the optimal value function
  V_t: maximise over all C(n, k) sensing sets of the one-step expected reward
  plus the discounted expected value of the updated belief.  Terminal value
  V_T is the best one-step reward (sum of the k largest beliefs).

* ``w_value`` -- the order-sensitive greedy-value recursion W_t^k: always
  sense the *last* k entries of the argument vector, then recurse on
  [p01-block, tau(unsensed entries in order), p11-block] where the block
  lengths are the number of bad/good observations.  Applied to an
  ascending-sorted vector this equals the expected discounted reward of the
  greedy policy.

Every reachable belief entry is tau^m applied to p01, p11, or one of the
root entries, so each entry is carried as a (value, key) pair whose key
(origin, age) identifies it exactly.  Both recursions are memoised on
(h, entries), so repeated states are recognised without float-equality
fragility; since channels are exchangeable, V's entries are sorted.

Each solver keeps one aged-entry table that maps an entry to the same entry
one unobserved step on, so tau runs once per distinct entry, and a V state
ages its n entries once for all C(n, k) selections.  Equal entries are
contiguous in a sorted state, and V evaluates only the first selection of
each sensed multiset: the others have bit-identical Q-values and reach only
states already memoised, so values, the state visit order and the memo sizes
are the same as with full enumeration.  ``action_values`` and
``verify_cached_bellman`` still enumerate every selection.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .model import (
    ActionSet,
    BeliefVector,
    HorizonSpec,
    OBSERVED_BAD,
    OBSERVED_GOOD,
    TransitionModel,
    tau,
    tau_iterate,
)


class ResourceLimitError(RuntimeError):
    """Raised when a solver's memo table would exceed its configured cap."""


# Internal state keys: ("B", m) = tau^m(p01); ("G", m) = tau^m(p11);
# ("V", base, m) = tau^m(base) for a root belief entry `base`.
_B0 = (OBSERVED_BAD, 0)
_G0 = (OBSERVED_GOOD, 0)


def _age_key(key: Tuple) -> Tuple:
    if key[0] == "V":
        return ("V", key[1], key[2] + 1)
    return (key[0], key[1] + 1)


def _poisson_binomial(values: Sequence[float]) -> List[float]:
    """P(sum of independent Bernoulli(values) = s) for s = 0..len(values)."""
    probs = [1.0]
    for w in values:
        nxt = [0.0] * (len(probs) + 1)
        for s, p in enumerate(probs):
            nxt[s] += p * (1.0 - w)
            nxt[s + 1] += p * w
        probs = nxt
    return probs


@functools.lru_cache(maxsize=None)
def _selections(n: int, k: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...]:
    """Every k-subset of positions 0..n-1 in lexicographic order.

    Each item is (selected positions, the other positions, bitmask of the
    selected positions).
    """
    out = []
    for sel in itertools.combinations(range(n), k):
        mask = sum(1 << i for i in sel)
        comp = tuple(i for i in range(n) if not mask >> i & 1)
        out.append((sel, comp, mask))
    return tuple(out)


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


@dataclass(frozen=True)
class SolveResult:
    """Value of a DP query plus every maximising first action."""

    value: float
    best_actions: Tuple[ActionSet, ...]
    cache_stats: Dict[str, int] = field(default_factory=dict, compare=False)


class FiniteHorizonSolver:
    """Memoising exact solver for a fixed (model, horizon, k).

    One instance owns private memo tables and is meant to be used from a
    single thread; independent instances can run concurrently.  The tables
    are shared across queries, so evaluating many beliefs or time indices
    against the same model is cheap.
    """

    def __init__(
        self,
        model: TransitionModel,
        horizon: HorizonSpec,
        k: int,
        max_states: int = 10_000_000,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.model = model
        self.horizon = horizon
        self.k = k
        self.max_states = max_states
        self._v_memo: Dict[Tuple, float] = {}
        self._w_memo: Dict[Tuple, float] = {}
        # Entry (value, key) -> the same entry one unobserved step on.
        self._aged_table: Dict[Tuple, Tuple] = {}
        self._bad = (model.p01, _B0)
        self._good = (model.p11, _G0)

    # -- shared plumbing ---------------------------------------------------

    def _check_t(self, belief: BeliefVector, t: int) -> int:
        if not (1 <= t <= self.horizon.T):
            raise ValueError(f"t={t} outside 1..{self.horizon.T}")
        if belief.n < self.k:
            raise ValueError(f"belief has {belief.n} channels but k={self.k}")
        return self.horizon.T - t  # remaining steps after the current one

    def _root_entries(self, belief: BeliefVector) -> List[Tuple[float, Tuple]]:
        """Entries as (value, key) pairs, reusing observation provenance when present."""
        entries = []
        for i, w in enumerate(belief.omega):
            tag = belief.tags[i] if belief.tags is not None else None
            if tag is not None and tag[0] in (OBSERVED_GOOD, OBSERVED_BAD):
                entries.append((w, (tag[0], tag[1])))
            else:
                entries.append((w, ("V", w, 0)))
        return entries

    def _bump(self) -> None:
        if len(self._v_memo) + len(self._w_memo) > self.max_states:
            raise ResourceLimitError(
                f"memoised state count exceeded cap {self.max_states}"
            )

    def _aged(self, entries: Sequence[Tuple[float, Tuple]]) -> List[Tuple[float, Tuple]]:
        """Every entry one unobserved step on, through the aged-entry table."""
        table = self._aged_table
        out = []
        for e in entries:
            aged = table.get(e)
            if aged is None:
                aged = table[e] = (tau(e[0], self.model), _age_key(e[1]))
            out.append(aged)
        return out

    def cache_stats(self) -> Dict[str, int]:
        return {"v_states": len(self._v_memo), "w_states": len(self._w_memo)}

    # -- optimal value -----------------------------------------------------

    def _v(self, h: int, entries: Tuple[Tuple[float, Tuple], ...]) -> float:
        """Optimal value with h steps remaining after the current one; entries sorted."""
        key = (h, entries)
        hit = self._v_memo.get(key)
        if hit is not None:
            return hit
        k = self.k
        if h == 0:
            val = sum(v for v, _ in entries[-k:])
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
        imm = sum(sensed)
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

    # -- greedy-value recursion -------------------------------------------

    def _w(self, h: int, entries: Tuple[Tuple[float, Tuple], ...]) -> float:
        """Order-sensitive recursion: sense the last k entries, reorder, recurse."""
        key = (h, entries)
        hit = self._w_memo.get(key)
        if hit is not None:
            return hit
        k = self.k
        reward = sum(v for v, _ in entries[-k:])
        if h == 0 or self.horizon.beta == 0.0:
            val = reward
        else:
            sensed = [v for v, _ in entries[-k:]]
            aged = self._aged(entries[:-k])
            total = 0.0
            for s, p in enumerate(_poisson_binomial(sensed)):
                if p == 0.0:
                    continue
                child = [self._bad] * (k - s) + aged + [self._good] * s
                total += p * self._w(h - 1, tuple(child))
            val = reward + self.horizon.beta * total
        self._w_memo[key] = val
        self._bump()
        return val

    def w_value(self, belief: BeliefVector, t: int) -> float:
        """W_t^k of the belief vector taken in its given (arbitrary) order."""
        h = self._check_t(belief, t)
        return self._w(h, tuple(self._root_entries(belief)))

    def greedy_value(self, belief: BeliefVector, t: int) -> float:
        """Expected discounted reward of the greedy policy: W on the sorted vector."""
        h = self._check_t(belief, t)
        entries = sorted(self._root_entries(belief))
        return self._w(h, tuple(entries))

    def affine_swap_delta(
        self,
        prefix: Sequence[float],
        x: float,
        y: float,
        suffix: Sequence[float],
        t: int,
    ) -> Tuple[float, float]:
        """Both sides of the pairwise-swap identity implied by W's per-variable affinity.

        Returns (W(..y,x..) - W(..x,y..),  (x - y) * [W(..0,1..) - W(..1,0..)]).
        """

        def w_of(a: float, b: float) -> float:
            vec = BeliefVector(tuple(prefix) + (a, b) + tuple(suffix))
            return self.w_value(vec, t)

        lhs = w_of(y, x) - w_of(x, y)
        rhs = (x - y) * (w_of(0.0, 1.0) - w_of(1.0, 0.0))
        return lhs, rhs

    # -- exact policy evaluation (independent of the W recursion) ----------

    def exact_policy_value(
        self,
        policy_action: Callable[[Tuple[float, ...], int], ActionSet],
        belief: BeliefVector,
        t: int,
    ) -> float:
        """Expected discounted reward of a deterministic Markov policy from time t.

        Evaluated by brute-force enumeration of all 2^k joint outcomes at every
        step (no outcome grouping, no reordering), memoised on the raw belief
        vector.  Deliberately a different code path from ``w_value`` so the two
        can cross-check each other.
        """
        h0 = self._check_t(belief, t)
        m, beta, k = self.model, self.horizon.beta, self.k
        memo: Dict[Tuple, float] = {}

        def rec(h: int, omega: Tuple[float, ...]) -> float:
            key = (h, omega)
            hit = memo.get(key)
            if hit is not None:
                return hit
            t_abs = self.horizon.T - h
            action = policy_action(omega, t_abs)
            reward = sum(omega[i - 1] for i in action.indices)
            if h == 0 or beta == 0.0:
                val = reward
            else:
                expect = 0.0
                for bits in itertools.product((0, 1), repeat=k):
                    q = 1.0
                    for i, b in zip(action.indices, bits):
                        q *= omega[i - 1] if b else (1.0 - omega[i - 1])
                    if q == 0.0:
                        continue
                    bit_by_channel = dict(zip(action.indices, bits))
                    child = tuple(
                        (m.p11 if bit_by_channel[i] else m.p01)
                        if i in bit_by_channel
                        else tau(w, m)
                        for i, w in enumerate(omega, start=1)
                    )
                    expect += q * rec(h - 1, child)
                val = reward + beta * expect
            memo[key] = val
            if len(memo) > self.max_states:
                raise ResourceLimitError(
                    f"policy-evaluation state count exceeded cap {self.max_states}"
                )
            return val

        return rec(h0, tuple(belief.omega))

    # -- post-hoc audit ----------------------------------------------------

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

    def _key_value(self, key: Tuple) -> float:
        if key[0] == OBSERVED_BAD:
            return tau_iterate(self.model.p01, self.model, key[1])
        if key[0] == OBSERVED_GOOD:
            return tau_iterate(self.model.p11, self.model, key[1])
        return tau_iterate(key[1], self.model, key[2])
