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

``w_table`` answers the verify suite's W checks (lemma 2, lemma 3A/3B and
affinity) for many vectors and every t at once.  W's state graph depends
only on (n, k, H = T-1): each entry of a reachable state is p01, p11 or a
root position, aged m steps.  The graph is built once per (n, k, H) and kept
as per-depth int32 arrays of sensed symbols and child indices, then evaluated
depth by depth with numpy over a (nodes x vectors) array; the root is node 0
of every depth, so one pass yields W_t for t = 1..T.  Its values are
float.hex-identical to ``w_value``, which stays the reference, and its node
count, summed over depths, counts against ``max_states``.  Every sum in this
module folds left to right from 0.0, so values do not depend on the Python
version.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .model import (
    ActionSet,
    BeliefVector,
    HorizonSpec,
    OBSERVED_BAD,
    OBSERVED_GOOD,
    PROB_TOL,
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


def _left_sum(values: Iterable) -> float | np.ndarray:
    """0.0 + v1 + v2 + ... in the given order, for floats or numpy arrays.

    The built-in ``sum`` compensates float rounding from Python 3.12 on, so
    its last bit depends on the interpreter version; this fold does not.
    """
    total = 0.0
    for v in values:
        total += v
    return total


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

    # -- greedy-value recursion -------------------------------------------

    def _w(self, h: int, entries: Tuple[Tuple[float, Tuple], ...]) -> float:
        """Order-sensitive recursion: sense the last k entries, reorder, recurse."""
        key = (h, entries)
        hit = self._w_memo.get(key)
        if hit is not None:
            return hit
        k = self.k
        reward = _left_sum(v for v, _ in entries[-k:])
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


# -- greedy-value recursion as a position-keyed state graph ---------------------
#
# W's state graph depends only on (n, k, H): every entry of a reachable state
# is a symbol "B aged m", "G aged m" or "root position i aged m", and the child
# for s good outcomes is [B0]*(k-s) + aged(unsensed) + [G0]*s.  Symbol
# b + m*(n+2) stands for base b aged m, with base 0 = p01, 1 = p11 and 2 + i =
# root position i, so aging a symbol adds n+2.


@dataclass(frozen=True)
class _WGraph:
    """Per-depth int32 arrays of the W state graph of one (n, k, H).

    Depth d holds every state reachable from the root in at most d steps and
    is evaluated with h = H - d steps remaining; node 0 of every depth is
    the root itself, so one pass answers W_t for t = 1..H+1.
    """

    sensed: Tuple[np.ndarray, ...]  # depth d: (k, N_d) symbols of the last k entries
    children: Tuple[np.ndarray, ...]  # depth d < H: (k+1, N_d) child at depth d+1, by s
    nodes: int


# (n, k, H) -> its graph.  Every graph is a pure function of its key, so the
# cache is shared by all callers; a build stopped by a cap is not stored.
_W_GRAPHS: Dict[Tuple[int, int, int], _WGraph] = {}


def _node_cap_error(max_states: int) -> ResourceLimitError:
    return ResourceLimitError(f"W state graph node count exceeded cap {max_states}")


def _w_graph(n: int, k: int, H: int, max_states: int) -> _WGraph:
    graph = _W_GRAPHS.get((n, k, H))
    if graph is None:
        graph = _W_GRAPHS[(n, k, H)] = _build_w_graph(n, k, H, max_states)
    if graph.nodes > max_states:
        raise _node_cap_error(max_states)
    return graph


def _build_w_graph(n: int, k: int, H: int, max_states: int) -> _WGraph:
    stride = n + 2
    root = tuple(range(2, n + 2))
    blocks = [((0,) * (k - s), (1,) * s) for s in range(k + 1)]
    level = [root]
    nodes = 1
    sensed, children = [], []
    for d in range(H + 1):
        sensed.append(np.array([node[n - k :] for node in level], dtype=np.int32).T.copy())
        if d == H:
            break
        index = {root: 0}
        rows = []
        for node in level:
            aged = tuple(sym + stride for sym in node[: n - k])
            row = []
            for bad, good in blocks:
                child = bad + aged + good
                i = index.get(child)
                if i is None:
                    i = index[child] = len(index)
                    nodes += 1
                    if nodes > max_states:
                        raise _node_cap_error(max_states)
                row.append(i)
            rows.append(row)
        children.append(np.array(rows, dtype=np.int32).T.copy())
        level = list(index)
    return _WGraph(tuple(sensed), tuple(children), nodes)


def w_table(
    model: TransitionModel,
    horizon: HorizonSpec,
    k: int,
    vectors: Sequence[Sequence[float]],
    max_states: int = 10_000_000,
) -> np.ndarray:
    """W_t^k of every vector (each taken in its given order) for every t.

    Returns a (T, len(vectors)) array whose row t-1 holds W_t.  Values are
    bit-identical to ``FiniteHorizonSolver.w_value``: sums fold left to
    right, tau is iterated one step at a time, and the outcome law and the
    continuation sum keep the recursion's operation order.  A zero-probability
    child is evaluated too; it adds an exact 0.0.  The graph's node count,
    summed over depths, counts against ``max_states``.
    """
    omega = np.array(vectors, dtype=float)
    if omega.ndim != 2 or omega.shape[0] == 0:
        raise ValueError("vectors must be a nonempty list of equal-length belief vectors")
    if not np.all((omega >= -PROB_TOL) & (omega <= 1.0 + PROB_TOL)):
        raise ValueError("belief entries must lie in [0, 1]")
    if k < 1 or omega.shape[1] < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={omega.shape[1]}")
    V, n = omega.shape
    H = horizon.T - 1
    graph = _w_graph(n, k, H, max_states)
    # values[m, b]: base b aged m, for every vector.
    values = np.empty((H + 1, n + 2, V))
    values[0, 0] = model.p01
    values[0, 1] = model.p11
    values[0, 2:] = omega.T
    for m in range(H):
        x = np.minimum(1.0, np.maximum(0.0, values[m]))
        values[m + 1] = x * model.p11 + (1.0 - x) * model.p01
    values = values.reshape(-1, V)
    out = np.empty((horizon.T, V))
    for d in range(H, -1, -1):
        sensed = values[graph.sensed[d]]
        reward = _left_sum(sensed)
        if d == H or horizon.beta == 0.0:
            w = reward
        else:
            total = _left_sum(_poisson_binomial_rows(sensed) * w[graph.children[d]])
            w = reward + horizon.beta * total
        out[d] = w[0]
    return out


def _poisson_binomial_rows(sensed: np.ndarray) -> np.ndarray:
    """``_poisson_binomial`` elementwise over axis 0 of `sensed`, in its operation order.

    Row s of the result holds P(s successes); each row is built as
    (0.0 + p[s-1]*w) + p[s]*(1.0 - w), as the scalar loop builds it.
    """
    probs = np.ones((1,) + sensed.shape[1:])
    for w in sensed:
        nxt = np.zeros((len(probs) + 1,) + sensed.shape[1:])
        nxt[1:] += probs * w
        nxt[:-1] += probs * (1.0 - w)
        probs = nxt
    return probs
