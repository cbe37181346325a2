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
(origin, age) identifies it exactly, and states are recognised without
float-equality fragility.  Each solver keeps one aged-entry table that maps an
entry to the same entry one unobserved step on, so tau runs once per distinct
entry.  W is memoised on (h, entries).

V is solved over a level graph, for a batch of root beliefs at one t at a
time (``FiniteHorizonSolver.action_value_table``).  Every entry a reachable
state can hold is ranked once by (value, key), so a state, sorted since
channels are exchangeable, is a row of small ints.  Level d holds the
distinct states reachable from the roots in d steps, found with one
``np.unique`` per level; backward induction then runs level by level with
numpy gathers in the scalar Bellman recursion's operation order, so the
Q-values are float.hex-identical to it.  Equal entries are contiguous in a
sorted state, and below the roots only the first selection of each sensed
multiset is expanded: the others have bit-identical Q-values and reach the
same states.  Zero-probability children are pruned, so a single root's node
count equals the recursion's memo size.  Nodes count against ``max_states``
before any value is computed.  A solver keeps the Q rows it answered, keyed
on (t, root entries), and the solved levels, which ``verify_cached_bellman``
audits.

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
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .model import (
    ActionSet,
    BeliefVector,
    HorizonSpec,
    OBSERVED_BAD,
    OBSERVED_GOOD,
    PROB_TOL,
    VALUE_TOL,
    TransitionModel,
    enumerate_actions,
    tau,
    tau_iterate,
)


class ResourceLimitError(RuntimeError):
    """Raised when a solver's state count (memo entries or graph nodes) would exceed its cap."""


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


@functools.lru_cache(maxsize=None)
def _selection_arrays(n: int, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_selections(n, k)`` as read-only arrays.

    Returns the selected positions (C, k), the other positions (C, n-k) and
    the bitmasks (C,).
    """
    sels = _selections(n, k)
    out = (
        np.array([sel for sel, _, _ in sels], dtype=np.intp).reshape(len(sels), k),
        np.array([comp for _, comp, _ in sels], dtype=np.intp).reshape(len(sels), n - k),
        np.array([mask for _, _, mask in sels], dtype=np.int64),
    )
    for a in out:
        a.setflags(write=False)
    return out


def _sensing_pairs(rows: np.ndarray, masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(state, selection) index pairs of sorted states, one per multiset of sensed entries.

    Equal entries are contiguous in a sorted state.  A selection is kept only
    if, within each run of equal entries, it takes the leftmost positions:
    that is the lexicographically first selection sensing its multiset.  A
    skipped selection has a Q-value bit-identical to the kept one's and
    reaches only the states the kept one reaches.  Pairs are grouped by
    state, selections in order.
    """
    shifts = np.arange(1, rows.shape[1], dtype=np.int64)
    # bit i set: entry i equals entry i-1
    repeats = ((rows[:, 1:] == rows[:, :-1]).astype(np.int64) << shifts).sum(axis=1)
    keep = (((masks & repeats[:, None]) >> 1) & ~masks) == 0
    return np.nonzero(keep)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _fold_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One int64 per row of ranks below `base`, ordered as the rows are lexicographically.

    Columns fold left to right in base `base`.  Whenever the next fold could
    overflow, the partial keys are first replaced by their dense ids, so the
    keys stay exact for any row length.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    top = 0  # the largest key possible so far
    for j in range(rows.shape[1]):
        if top * base + base - 1 > _INT64_MAX:
            uniq, key = np.unique(key, return_inverse=True)
            key = key.reshape(-1)
            top = len(uniq) - 1
        key = key * base + rows[:, j]
        top = top * base + base - 1
    return key


@dataclass(frozen=True)
class _VLevel:
    """One level of a solved V graph: its states as sorted rank rows, and their values."""

    h: int  # steps remaining after the current one
    rows: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class _VGraph:
    """The levels below the roots of one solved V graph, and what its ranks stand for."""

    entries: Tuple[Tuple[float, Tuple], ...]  # rank -> (value, key)
    levels: Tuple[_VLevel, ...]


@dataclass(frozen=True)
class SolveResult:
    """Value of a DP query plus every maximising first action."""

    value: float
    best_actions: Tuple[ActionSet, ...]
    cache_stats: Dict[str, int] = field(default_factory=dict, compare=False)


class FiniteHorizonSolver:
    """Exact solver for a fixed (model, horizon, k).

    One instance owns private tables (the aged entries, the W memo, the
    solved V levels and the V answers) and is meant to be used from a single
    thread; independent instances can run concurrently.  The tables are
    shared across queries, so asking again is free, and ``max_states`` caps
    V graph nodes plus W memo entries over all of an instance's queries.
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
        self._w_memo: Dict[Tuple, float] = {}
        # V: the level graphs solved so far, their node count, and the Q row
        # of every root answered, keyed on (t, root entries).
        self._v_graphs: List[_VGraph] = []
        self._v_nodes = 0
        self._answers: Dict[Tuple, np.ndarray] = {}
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
        if self._v_nodes + len(self._w_memo) > self.max_states:
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
        return {"v_states": self._v_nodes, "w_states": len(self._w_memo)}

    # -- optimal value -----------------------------------------------------

    def action_value_table(self, beliefs: Sequence[BeliefVector], t: int) -> np.ndarray:
        """Q-values of every first action for each belief, all at time t.

        Returns a (len(beliefs), C(n, k)) array whose columns follow the
        lexicographic order of the sensing sets (``model.enumerate_actions``).
        The beliefs not answered before are solved together over one level
        graph; the answers are kept, so asking again is free.
        """
        if not beliefs:
            raise ValueError("need at least one belief")
        if len({b.n for b in beliefs}) != 1:
            raise ValueError("beliefs must all have the same number of channels")
        h = self._check_t(beliefs[0], t)
        return self._q_table(h, [tuple(self._root_entries(b)) for b in beliefs])

    def action_values(self, belief: BeliefVector, t: int) -> Dict[ActionSet, float]:
        """Q-value of every first action: immediate reward + discounted optimal continuation."""
        row = self.action_value_table([belief], t)[0]
        return dict(zip(enumerate_actions(belief.n, self.k), row.tolist()))

    def optimal_value(self, belief: BeliefVector, t: int, tol: float = VALUE_TOL) -> SolveResult:
        """Optimal value from time t plus every action within `tol` of the maximum."""
        qs = self.action_values(belief, t)
        best = max(qs.values())
        actions = tuple(a for a, v in qs.items() if v >= best - tol)
        return SolveResult(best, actions, self.cache_stats())

    def _q_table(self, h: int, roots: Sequence[Tuple[Tuple[float, Tuple], ...]]) -> np.ndarray:
        """Q rows of root entry tuples with h steps remaining, through the answer cache."""
        t = self.horizon.T - h
        new = list(dict.fromkeys(r for r in roots if (t, r) not in self._answers))
        if new:
            for root, row in zip(new, self._solve_roots(h, new)):
                self._answers[(t, root)] = row
        return np.array([self._answers[(t, r)] for r in roots])

    def _solve_roots(self, h: int, roots: Sequence[Tuple[Tuple[float, Tuple], ...]]) -> np.ndarray:
        """Q-values of every selection at each root, by backward induction over a level graph.

        Level d of the graph holds the sorted states reachable from the roots
        in d steps, with h - d steps remaining.  At the roots every selection
        is evaluated, in the given entry order; below them only the leftmost
        selection of each sensed multiset (see ``_sensing_pairs``), and only
        the children of nonzero outcome probability.  Every (value, key) entry
        a state can hold is ranked once, so a state is a sorted row of ranks.
        The graph is complete, and counted against ``max_states``, before any
        value is computed; a graph stopped by the cap is not kept.
        """
        n, k, beta = len(roots[0]), self.k, self.horizon.beta
        sel_pos, comp_pos, masks = _selection_arrays(n, k)
        if h == 0 or beta == 0.0:
            values = np.array([[v for v, _ in root] for root in roots])
            return _left_sum(np.moveaxis(values[:, sel_pos], 2, 0))
        entries, vals, aged_rank, rows, bad, good = self._rank_entries(h, roots)
        nodes = 0
        expanded = []  # level d < h: (sensed ranks, child index by s, first pair of each state)
        levels = [rows]
        for d in range(h):
            if d == 0:
                state = np.repeat(np.arange(len(rows)), len(masks))
                sel = np.tile(np.arange(len(masks)), len(rows))
            else:
                state, sel = _sensing_pairs(rows, masks)
            sensed = rows[state[:, None], sel_pos[sel]]
            live = _poisson_binomial_rows(vals[sensed].T) != 0.0
            # A child is the aged unsensed entries plus k-s copies of p01 and s of
            # p11.  No aged entry is p01 or p11 itself, so a child is identified
            # by (its sorted aged part, s), and only new nodes need a full sort.
            aged = aged_rank[rows[state[:, None], comp_pos[sel]]]
            aged.sort(axis=1)
            _, first, part = np.unique(
                _fold_keys(aged, len(entries)), return_index=True, return_inverse=True
            )
            slot = part.reshape(1, -1) * (k + 1) + np.arange(k + 1).reshape(-1, 1)
            found = np.zeros(len(first) * (k + 1), dtype=bool)
            found[slot[live]] = True
            made = np.flatnonzero(found)
            nodes += len(made)
            if self._v_nodes + nodes + len(self._w_memo) > self.max_states:
                raise ResourceLimitError(
                    f"V state graph node count exceeded cap {self.max_states}"
                )
            ids = np.cumsum(found, dtype=np.int32) - 1
            child = np.where(live, ids[slot], 0)  # a pruned slot reads node 0, weight 0
            goods = (made % (k + 1)).reshape(-1, 1)
            rows = np.concatenate(
                [aged[first[made // (k + 1)]], np.where(np.arange(k) < k - goods, bad, good)],
                axis=1,
            ).astype(rows.dtype)
            rows.sort(axis=1)
            del aged, first, part, slot, found, made, ids
            starts = np.flatnonzero(np.diff(state, prepend=-1))
            expanded.append((sensed, child, starts))
            levels.append(rows)
        value = _left_sum(vals[rows[:, n - k :]].T)
        kept = [_VLevel(0, rows, value)]
        for d in range(h - 1, -1, -1):
            sensed, child, starts = expanded.pop()
            sensed = vals[sensed].T
            total = _left_sum(_poisson_binomial_rows(sensed) * value[child])
            q = _left_sum(sensed) + beta * total
            if d == 0:
                break
            value = np.maximum.reduceat(q, starts)
            kept.append(_VLevel(h - d, levels[d], value))
        self._v_graphs.append(_VGraph(tuple(entries), tuple(kept)))
        self._v_nodes += nodes
        return q.reshape(len(roots), len(masks))

    def _rank_entries(self, h: int, roots: Sequence[Tuple[Tuple[float, Tuple], ...]]):
        """Rank every entry a state below these roots can hold, in (value, key) order.

        Those are p01 and p11 aged up to h-1 steps and each root entry aged up
        to h steps.  Returns the ranked entries, their values, the rank of
        each entry one unobserved step on (-1 past the last age needed) and
        the roots as rows of ranks, then the ranks of p01 and p11 themselves.
        """
        found = {self._bad, self._good}
        observed = [self._bad, self._good]
        for _ in range(h - 1):
            observed = self._aged(observed)
            found.update(observed)
        chain = list({e for root in roots for e in root})
        found.update(chain)
        for _ in range(h):
            chain = self._aged(chain)
            found.update(chain)
        entries = sorted(found)
        rank = {e: i for i, e in enumerate(entries)}
        dtype = np.int16 if len(entries) <= np.iinfo(np.int16).max else np.int32
        table = self._aged_table
        aged_rank = np.array([rank.get(table.get(e), -1) for e in entries], dtype=dtype)
        if np.isin([rank[self._bad], rank[self._good]], aged_rank).any():
            raise ValueError(
                "an aged root entry equals p01 or p11 observed now: tag ages must be >= 0"
            )
        rows = np.array([[rank[e] for e in root] for root in roots], dtype=dtype)
        values = np.array([v for v, _ in entries])
        return entries, values, aged_rank, rows, rank[self._bad], rank[self._good]

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
        """Recompute every non-terminal kept V graph node from its children.

        State keys encode each entry as tau^m of a known base, so the belief
        values are reconstructible from the key alone.  Each node is rebuilt
        that way and its right-hand side taken over all C(n, k) selections,
        in scalar code, with the children's values read from the kept levels
        (a child missing from them is solved).  Returns the largest absolute
        residual between the kept value and the recomputed right-hand side.
        """
        states: Dict[Tuple, float] = {}
        for graph in list(self._v_graphs):
            for level in graph.levels:
                for row, v in zip(level.rows.tolist(), level.values.tolist()):
                    states[(level.h, tuple(graph.entries[r] for r in row))] = v
        worst = 0.0
        for (h, entries), cached in states.items():
            if h == 0:
                continue
            rebuilt = tuple(sorted((self._key_value(kk), kk) for _, kk in entries))
            aged = self._aged(rebuilt)
            rhs = max(
                self._audit_q(h, rebuilt, aged, sel, comp, states)
                for sel, comp, _ in _selections(len(rebuilt), self.k)
            )
            worst = max(worst, abs(cached - rhs))
        return worst

    def _audit_q(
        self,
        h: int,
        entries: Sequence[Tuple[float, Tuple]],
        aged: Sequence[Tuple[float, Tuple]],
        sel: Sequence[int],
        comp: Sequence[int],
        states: Dict[Tuple, float],
    ) -> float:
        """Q-value of sensing positions `sel` of a sorted state, children read from `states`.

        The updated belief depends on the outcome only through the number of
        good observations, so the 2^k outcome sum collapses to k+1 terms
        weighted by the Poisson-binomial law of the sensed beliefs.
        """
        sensed = [entries[i][0] for i in sel]
        unsensed = [aged[i] for i in comp]
        total = 0.0
        for s, p in enumerate(_poisson_binomial(sensed)):
            if p == 0.0:
                continue
            child = tuple(sorted([self._bad] * (self.k - s) + unsensed + [self._good] * s))
            v = states.get((h - 1, child))
            if v is None:
                v = float(self._q_table(h - 1, [child])[0].max())
            total += p * v
        return _left_sum(sensed) + self.horizon.beta * total

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
