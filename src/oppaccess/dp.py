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
  ascending-sorted vector (``greedy_value``) this is the value of the
  ordered list started in ascending order, which is the greedy policy's
  value when p11 >= p01 but not otherwise.

Every reachable belief entry is tau^m applied to p01, p11, or one of the
root entries, so V and W carry each entry as one integer symbol b + m*B,
base b aged m steps, into a table values[m, b] = tau^m(bases[b])
(``_aged_values``), and states are recognised without float-equality
fragility.  Bases 0 and 1 are p01 and p11, then V's distinct root values in
ascending order or W's root positions; aging a symbol adds B.

V is solved over a level graph, for a batch of root belief rows at one t at
a time (``FiniteHorizonSolver.action_value_table``).  Every entry a reachable
state can hold is ranked once by (value, base, age), so a state, sorted
since channels are exchangeable, is a row of small ints.  Level d holds the
distinct states reachable from the roots in d steps.  Both passes walk a
level in chunks of whole states of at most ``_CHUNK_PAIRS`` (state,
selection) pairs (``_pair_chunks``), so what a level sizes by its pairs is
held one chunk at a time.  A child is its parent's unsensed entries, aged,
plus the observed ones, so a chunk's pairs are grouped by their unsensed
multisets with one ``np.unique``, and only one row per group is aged and
sorted (``_child_parts``); one key fold over every chunk's aged rows numbers
the level's parts (``_number_parts``), in the order a pass over the whole
level gives.  From one pass to the other a solve holds each pair's sensed
ranks and part number, each state's start, and each level's child ids by
(part, s goods); both passes prune a child by the same outcome law.
Backward induction then runs level by level, chunk by chunk, with one
Bellman step (``_backup``) in the scalar recursion's operation order, so the
Q-values are float.hex-identical to it and do not depend on the chunk size.
Equal entries are contiguous in a sorted state, and below the roots only the
first selection of each sensed multiset is expanded: a selection is skipped
when it senses position q + 1 and not q of a state whose entries q and q + 1
are equal.  The skipped ones have bit-identical Q-values and reach the same
states.  The sensing sets come from one read-only (n, k) table in ``_TABLES``,
``_selection_arrays``.  Zero-probability children are pruned, so a single
root's node count equals the recursion's memo size.  A solver's V graph
nodes, summed over its queries, count against ``max_states`` before any
value is computed, and so does C(n, k), before any of a V, Q or audit
query's sensing sets is listed (``selection_count``).  A solver keeps the Q
rows it answered, keyed on (t, root belief), and every graph it solved, in
solve order.  An answer keeps a graph only when its root was solved alone;
a root of a batch, or one answered from a held level, keeps None, and the
greedy audit solves it once more on its own.  A later query's root that is a
state of a held graph's level with as many steps left is answered from that
level by one Bellman step, states matched by value; it builds no nodes and
counts none.  So an optimal policy, whose later beliefs are all states of
its first query's graph, solves each state once.

The same backward pass audits greedy at every state below the roots, from
the pass's own arrays: the regret of greedy's tied choices against the best
Q, and G, greedy's own value in every regime, which reads one pair per
state.  The regret is kept with each level and G with the states one step
below the roots, and ``greedy_audit`` finishes a root's audit from them.
One tie rule, ``_least_tied_q``, gives the least tied Q at the roots and
below: a selection whose reward is within ``TIE_TOL`` of the best ties.

W has one engine, ``w_table``, which evaluates many vectors for every t at
once; ``FiniteHorizonSolver.w_value`` and ``greedy_value`` read one row of
it.  W's state graph depends only on (n, k, H), where H is T - 1, or 0 when
beta = 0 and no child is read (``_w_depth``): each entry of a reachable
state is p01, p11 or a root position, aged m steps.  The graph is kept in
``_TABLES`` per (n, k, H) as int32 arrays: the sensed symbols of all depths
concatenated, and each depth's child indices.  Every reward and outcome law
is computed at once over a (nodes x vectors) array, and only the
continuation sum runs depth by depth; the root is node 0 of every depth, so
one pass yields W_t for t = 1..T, and with H = 0 every t reads the root's
reward.  Its values are float.hex-identical to the scalar memoised
recursion, and its node count, summed over depths, counts against
``max_states`` on its own (``w_graph_nodes``).  ``max_states`` is read,
by ``model._as_int``, wherever it enters: the solver, each W graph lookup
and ``selection_count``.  It is an integer >= 0, and 0 refuses every graph;
a bool, a float or a negative cap raises ValueError.  Every sum in this module
folds left to right from 0.0, so values do not depend on the Python version.
Every gather is a ``take`` on flat indices, each index built in place
(``_pair_entries`` reads a pair's entries so); advanced indexing is kept
only for boolean masks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ActionSet,
    BeliefVector,
    HorizonSpec,
    PROB_TOL,
    VALUE_TOL,
    TransitionModel,
    _as_belief,
    _as_int,
)
from .model import tau  # noqa: F401  (perfbench's tracer patches it here)


class ResourceLimitError(RuntimeError):
    """Raised when a state graph's node count, or C(n, k), would exceed its cap."""


#: The default ``max_states``: the cap on each state graph's node count and on C(n, k).
DEFAULT_MAX_STATES = 10_000_000


#: Selections whose one-step rewards differ by at most this much are tied,
#: so each of them is a greedy choice.
TIE_TOL = 1e-12


def _left_sum(values: Iterable) -> float | np.ndarray:
    """0.0 + v1 + v2 + ... in the given order, for floats or numpy arrays.

    The built-in ``sum`` compensates float rounding from Python 3.12 on, so
    its last bit depends on the interpreter version; this fold does not.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _backup(reward, law: np.ndarray, beta: float, nxt: np.ndarray, child: np.ndarray):
    """One Bellman step, reward + β·(0.0 + law[0]·nxt[child[0]] + ... + law[k]·nxt[child[k]]).

    `law[s]` is the chance of s good outcomes and `child[s]` the index into
    `nxt` of the belief they lead to, elementwise; the sum folds s in order.
    """
    return reward + beta * _left_sum(law * nxt.take(child, axis=0))


def _tau(model: TransitionModel, x: np.ndarray) -> np.ndarray:
    """``model.tau`` elementwise: clamp to [0, 1], then mix, so each entry is float.hex-equal."""
    x = np.minimum(1.0, np.maximum(0.0, x))
    return x * model.p11 + (1.0 - x) * model.p01


#: The most float64 entries that one numpy array can address.
_MAX_FLOATS = int(np.iinfo(np.intp).max) // 8


def _check_addressable(*shape: int) -> None:
    """Raise MemoryError, the failed allocation it is, for a float64 `shape` past numpy's limit."""
    if math.prod(shape) > _MAX_FLOATS:
        raise MemoryError(f"{shape} float64 array cannot be addressed")


def _aged_values(model: TransitionModel, bases: np.ndarray, H: int) -> np.ndarray:
    """values[m] = tau^m(bases) for m = 0..H, elementwise over any shape of `bases`.

    Each entry is float.hex-equal to ``model.tau_iterate``."""
    values = np.empty((H + 1,) + np.shape(bases))
    values[0] = bases
    for m in range(H):
        values[m + 1] = _tau(model, values[m])
    return values


def selection_count(n: int, k: int, max_states: int) -> int:
    """C(n, k), the number of sensing sets; raises ResourceLimitError over ``max_states``.

    Checked before any enumeration of the sets, whose lists and tables
    below are C(n, k) long.
    """
    count = math.comb(n, k)
    if count > _as_int(max_states, "max_states", 0):
        raise ResourceLimitError(f"C({n}, {k}) = {count} sensing sets exceed cap {max_states}")
    return count


def _membership(sel_pos: np.ndarray, n: int) -> np.ndarray:
    """(C, n) booleans: row c is True at the positions that selection c senses."""
    member = np.zeros((len(sel_pos), n), dtype=bool)
    member[np.arange(len(sel_pos))[:, None], sel_pos] = True
    return member


# All the process keeps between calls, keyed on the kind plus exactly the
# inputs each entry is computed from: ("sets", n, k) -> the sensing sets'
# (sel_pos, comp_pos), C(n, k)*n intp; ("W", n, k, H) -> W's graph; ("paths",)
# -> the last run's (path key, hidden paths), R*T*n int8.  Entries stay until
# ``_TABLES.clear()``.  A paths miss drops the held paths before it draws, so
# one set at most is held; a W build a cap stopped stays as a stub whose node
# count is a lower bound, tried again only under a larger cap.
_TABLES: Dict[tuple, object] = {}


def _selection_arrays(n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every k-subset of positions 0..n-1 in lexicographic order, as read-only arrays.

    Returns the selected positions (C, k) and the other positions (C, n-k),
    each row ascending: the one table of sensing sets that V, the greedy
    audit, lemma 2 and the policies read.
    """
    tables = _TABLES.get(("sets", n, k))
    if tables is None:
        count = math.comb(n, k)
        _check_addressable(count, n)  # the two tables hold count * n entries
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
        sel_pos = np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)
        comp_pos = np.nonzero(~_membership(sel_pos, n))[1].reshape(count, n - k)
        for a in (sel_pos, comp_pos):
            a.setflags(write=False)
        tables = _TABLES[("sets", n, k)] = sel_pos, comp_pos
    return tables


def enumerate_actions(n: int, k: int) -> list[ActionSet]:
    """All C(n, k) sensing sets in lexicographic order: ``_selection_arrays``, 1-based."""
    k = _as_int(k, "k", 1, _as_int(n, "n", 1))
    return [ActionSet(tuple(row)) for row in (_selection_arrays(n, k)[0] + 1).tolist()]


def _greedy_order(beliefs: np.ndarray) -> np.ndarray:
    """Positions by descending belief along the last axis, ties toward the lower index."""
    return np.argsort(-beliefs, axis=-1, kind="stable")


def _optimal_mask(qs: np.ndarray) -> np.ndarray:
    """The selections whose Q-value lies within ``VALUE_TOL`` of their row's maximum."""
    return qs >= qs.max(axis=-1, keepdims=True) - VALUE_TOL


def _sensing_pairs(rows: np.ndarray, sel_pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(state, selection) index pairs of sorted states, one per multiset of sensed entries.

    Equal entries are contiguous in a sorted state.  A selection is kept only
    if, within each run of equal entries, it takes the leftmost positions:
    it is dropped when, for some position q equal to q + 1 in the state, it
    senses q + 1 and not q.  That is the lexicographically first selection
    sensing its multiset.  A skipped selection has a Q-value bit-identical
    to the kept one's and reaches only the states the kept one reaches.
    Pairs are grouped by state, selections in order.
    """
    member = _membership(sel_pos, rows.shape[1])
    enters = member[:, 1:] & ~member[:, :-1]  # column q: senses q + 1 and not q
    equal = rows[:, 1:] == rows[:, :-1]  # column q: entry q equals entry q + 1
    drop = np.zeros((len(rows), len(sel_pos)), dtype=bool)
    for q in np.flatnonzero(enters.any(axis=0) & equal.any(axis=0)):
        drop |= equal[:, q, None] & enters[:, q]
    return np.nonzero(~drop)


def _pair_entries(
    rows: np.ndarray, state: np.ndarray, sel: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """Each (state, selection) pair's entries: row i is row state[i] of `rows` at pos[sel[i]].

    `pos` is one of ``_selection_arrays``' tables.  The entries are read by
    one flat take, its index built in place in the array ``pos.take`` returns.
    """
    at = pos.take(sel, axis=0)
    at += (state * rows.shape[1])[:, None]
    return rows.take(at)


#: The most (state, selection) pairs that one chunk of V's level passes holds,
#: unless one state has more; a level is walked chunk by chunk.
_CHUNK_PAIRS = 1 << 14


def _pair_chunks(
    rows: np.ndarray, sel_pos: np.ndarray, every: bool
) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
    """A level's (state, selection) pairs, in chunks of whole consecutive states.

    With `every`, as at the roots, each state is paired with every selection;
    otherwise only with those ``_sensing_pairs`` keeps.  A chunk holds at most
    ``_CHUNK_PAIRS`` pairs, or one state's pairs when they are more.  Pairs
    are found for a block of max(1, _CHUNK_PAIRS // C) states at a time, so
    no step sizes an array by the whole level.
    """
    step = max(1, _CHUNK_PAIRS // len(sel_pos))
    state = sel = np.empty(0, dtype=np.intp)
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        if every:
            s, c = np.nonzero(np.ones((len(block), len(sel_pos)), dtype=bool))
        else:
            s, c = _sensing_pairs(block, sel_pos)
        state, sel = np.concatenate([state, s + lo]), np.concatenate([sel, c])
        while len(state) > _CHUNK_PAIRS:
            # The states before the one holding pair _CHUNK_PAIRS, or the first alone.
            cut = np.searchsorted(state, state[_CHUNK_PAIRS]) or np.searchsorted(
                state, state[0], side="right"
            )
            yield state[:cut], sel[:cut]
            state, sel = state[cut:], sel[cut:]
    if len(state):
        yield state, sel


def _least_tied_q(
    q: np.ndarray, reward: np.ndarray, starts: Sequence[int], best: float | np.ndarray
) -> np.ndarray:
    """Per state, the least Q among its selections whose reward ties its best.

    Pairs are grouped by state, each group running from its entry of
    `starts` to the next; a reward within ``TIE_TOL`` of the state's `best`
    ties it.  The one tie rule of greedy's regret, at the roots and below.
    """
    starts = np.asarray(starts)
    tied = reward >= np.repeat(best - TIE_TOL, np.append(starts[1:], len(q)) - starts)
    return np.minimum.reduceat(np.where(tied, q, np.inf), starts)


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


def _groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ids of int64 keys, numbered in ascending key order, and one member per id.

    Returns each key's id and, for each id, the index of some key holding it.
    ``np.unique`` without ``return_index`` argsorts with its default quicksort
    rather than a stable mergesort, so which member stands for an id is not
    fixed; callers read only what all members share.
    """
    uniq, ids = np.unique(keys, return_inverse=True)
    member = np.empty(len(uniq), dtype=np.intp)
    member[ids] = np.arange(len(ids))
    return ids, member


def _child_parts(
    unsensed: np.ndarray, aged_rank: np.ndarray, base: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One sorted aged part per distinct unsensed multiset of a chunk's pairs, and each pair's.

    `unsensed` holds each (state, selection) pair's unsensed ranks, every
    row ascending, and `aged_rank` maps a rank below `base` to its rank one
    unobserved step on.  Equal rows are grouped, and only one row per group
    is aged and sorted.  Returns those rows, in the groups' key order, and
    for each pair the index of its group.  Aging maps distinct entries to
    distinct entries, so distinct groups keep distinct aged parts; it need
    not keep their order (it reverses it when p11 < p01), so
    ``_number_parts`` numbers them by their own keys.
    """
    group, member = _groups(_fold_keys(unsensed, base))
    aged = aged_rank.take(unsensed.take(member, axis=0))
    aged.sort(axis=1)
    return aged, group


def _number_parts(parts: Sequence[np.ndarray], base: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `parts` in lexicographic order, and each row's index there.

    `parts` are ``_child_parts``'s rows of a level's chunks, whose ranks lie
    below `base`; the index of row i of ``parts[j]`` is at sum(len(parts[:j])) + i.
    One key fold over all the rows numbers them, so each number is the one
    a single pass over the whole level gives: dense ids that ``_fold_keys``
    makes within one chunk could not be compared across chunks.
    """
    rows = np.concatenate(parts)
    number, member = _groups(_fold_keys(rows, base))
    return rows.take(member, axis=0), number


def _void_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque item, so whole rows sort and compare at once.

    Items order by their bytes, not by value; that order is only for
    ``np.searchsorted`` over items sorted the same way.
    """
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).reshape(-1)


@dataclass(frozen=True)
class _VLevel:
    """One level of a solved V graph: its states as sorted rank rows, their values,
    and greedy's regret at each (``GreedyAudit``)."""

    h: int  # steps remaining after the current one, at least 1
    rows: np.ndarray
    values: np.ndarray
    regret: np.ndarray


@dataclass(frozen=True, eq=False)
class _VGraph:
    """The levels between the roots and the last step of one solved V graph, and
    what its ranks stand for: rank r is base b aged m steps, for ``symbols[r]``
    = b + m * len(bases).  The bases are kept here, since a batch's answers
    keep no graph, so the answers do not tell a graph's roots.  A graph is
    hashed by identity, so a solver keys its held graphs' level indexes on
    the graph itself."""

    values: np.ndarray  # rank -> value
    symbols: np.ndarray  # rank -> b + m * len(bases)
    bases: np.ndarray  # p01, p11, then the roots' distinct values in ascending order
    levels: Tuple[_VLevel, ...]  # levels[j] has j + 1 steps left
    # Root i's selection c has its child for s good outcomes at level 1 in
    # column i * C(n, k) + c, row s; ``greedy`` is G at each level-1 state.
    root_children: np.ndarray
    greedy: np.ndarray


def _belief_rows(beliefs) -> np.ndarray:
    """A nonempty 2-D array, or equal-length float sequences, as float rows in [0, 1]."""
    omega = np.asarray(beliefs, dtype=float)
    if omega.ndim != 2 or omega.size == 0:
        raise ValueError("beliefs must be a nonempty list of equal-length belief vectors")
    if not (omega.min() >= -PROB_TOL and omega.max() <= 1.0 + PROB_TOL):  # NaN fails both
        raise ValueError("belief entries must lie in [0, 1]")
    return omega


@dataclass(frozen=True)
class GreedyAudit:
    """Greedy's own value from a root, and its worst regret in the root's V graph.

    The regret at a node is its largest Q minus the least Q among the
    selections whose one-step reward ties the node's best within
    ``TIE_TOL``, every Q taking V as the continuation: 0 where every greedy
    choice is optimal.  The graph is the root's own: every state reachable
    from it, and no other.  At the last step Q is the reward, so the regret
    there is at most ``TIE_TOL``; it is computed there only at a root.
    """

    value: float  # G: greedy's expected discounted reward, in every regime
    regret: float  # the largest regret over the graph's nodes
    t: int  # the time step of the node where it occurs
    omega: Tuple[float, ...]  # that node's belief (sorted, below the root)


@dataclass(frozen=True)
class SolveResult:
    """Value of a DP query plus every maximising first action."""

    value: float
    best_actions: Tuple[ActionSet, ...]
    cache_stats: Dict[str, int] = field(default_factory=dict, compare=False)


class FiniteHorizonSolver:
    """Exact solver for a fixed (model, horizon, k).

    One instance owns a private table of V answers and keeps every V graph
    it solved, whose levels carry the greedy audits; it is meant to be used
    from a single thread, and independent instances can run concurrently.
    The table is shared across queries, so asking again is free, and so are
    the graphs: a later query's root found in a held graph's level is
    answered from it, and builds no nodes and counts none.  ``max_states``
    caps the V graph nodes over all of an instance's queries, and, on its
    own, the node count of each W graph a query reads (see ``w_table``).
    """

    def __init__(
        self,
        model: TransitionModel,
        horizon: HorizonSpec,
        k: int,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        self.k = _as_int(k, "k", 1)
        self.model = model
        self.horizon = horizon
        self.max_states = _as_int(max_states, "max_states", 0)
        # W: the node count of the graph read for each belief length n.
        self._w_nodes: Dict[int, int] = {}
        # V: the node count of the level graphs solved so far; the Q row of
        # every root answered, keyed on (t, root belief), with the graph
        # solved for that root alone, or None; and every graph solved, in
        # solve order, each with the index of each of its levels searched so
        # far, keyed on h.
        self._v_nodes = 0
        self._answers: Dict[Tuple, Tuple[np.ndarray, Optional[_VGraph]]] = {}
        self._held: Dict[_VGraph, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {}

    # -- shared plumbing ---------------------------------------------------

    def _check_t(self, n: int, t: int) -> int:
        """Check a query of beliefs with n channels at time t; return its steps left."""
        if not (1 <= _as_int(t, "t") <= self.horizon.T):
            raise ValueError(f"t={t} outside 1..{self.horizon.T}")
        if n < self.k:
            raise ValueError(f"belief has {n} channels but k={self.k}")
        return self.horizon.T - t  # remaining steps after the current one

    def _check_v(self, n: int, t: int) -> int:
        """``_check_t`` for the queries that list the C(n, k) sensing sets."""
        h = self._check_t(n, t)
        selection_count(n, self.k, self.max_states)
        return h

    def cache_stats(self) -> Dict[str, int]:
        return {"v_states": self._v_nodes, "w_states": sum(self._w_nodes.values())}

    # -- optimal value -----------------------------------------------------

    def action_value_table(self, beliefs: Sequence[Sequence[float]], t: int) -> np.ndarray:
        """Q-values of every first action for each belief row, all at time t.

        `beliefs` are belief vectors as ``w_table`` takes them: a 2-D array,
        or equal-length float sequences, each entry in [0, 1].  Returns a
        (len(beliefs), C(n, k)) array whose columns follow the lexicographic
        order of the sensing sets (``enumerate_actions``).  The beliefs not
        answered before are solved together over one level graph; the
        answers are kept, so asking again is free.
        """
        omega = _belief_rows(beliefs)
        return self._q_table(self._check_v(omega.shape[1], t), list(map(tuple, omega.tolist())))

    def action_values(self, belief: BeliefVector, t: int) -> Dict[ActionSet, float]:
        """Q-value of every first action: immediate reward + discounted optimal continuation."""
        belief = _as_belief(belief, "belief")
        row = self.action_value_table([belief.omega], t)[0]
        return dict(zip(enumerate_actions(belief.n, self.k), row.tolist()))

    def optimal_value(self, belief: BeliefVector, t: int) -> SolveResult:
        """Optimal value from time t plus every action within VALUE_TOL of the maximum."""
        belief = _as_belief(belief, "belief")
        row = self.action_value_table([belief.omega], t)[0]
        picks = _selection_arrays(belief.n, self.k)[0][_optimal_mask(row)] + 1
        actions = tuple(ActionSet(tuple(a)) for a in picks.tolist())
        return SolveResult(float(row.max()), actions, self.cache_stats())

    def greedy_audit(self, belief: BeliefVector, t: int) -> GreedyAudit:
        """Greedy's own value from time t, and its worst regret in the belief's V graph.

        Answered from the same cache as the Q rows, so after ``optimal_value``
        or ``action_values`` on the belief it solves nothing.  A root whose
        answer keeps no graph of its own (its Q row came from a batch of
        several new beliefs or from a held level) is solved once more on its
        own, against ``max_states`` like any solve; that graph is kept with
        its answer and held with the others.
        """
        belief = _as_belief(belief, "belief")
        h = self._check_v(belief.n, t)
        root = tuple(belief.omega)
        self._q_table(h, [root])
        row, graph = self._answers[(t, root)]
        if graph is None and h and self.horizon.beta:  # h = 0 or beta = 0 needs no graph
            graph = self._solve_roots(h, [root])[1]
            self._answers[(t, root)] = (row, graph)
        omega, k = belief.omega, self.k
        sel_pos = _selection_arrays(belief.n, k)[0]
        rewards = _left_sum(np.array(omega).take(sel_pos).T)
        regret = float(row.max()) - float(_least_tied_q(row, rewards, [0], rewards.max())[0])
        # Greedy's set; G folds its sensed entries in ascending order, as W does.
        top = np.sort(_greedy_order(np.array(omega))[:k])
        sensed = sorted(omega[j] for j in top)
        value = _left_sum(sensed)
        if graph is None:
            return GreedyAudit(value, regret, t, omega)
        child = graph.root_children[:, int(np.flatnonzero((sel_pos == top).all(axis=1))[0])]
        law = _poisson_binomial_rows(np.array(sensed))
        value = float(_backup(value, law, self.horizon.beta, graph.greedy, child))
        # The root's own node, unless a node below it is worse: the largest
        # regret, then the shallowest level, then the first state.
        for level in reversed(graph.levels):
            j = int(level.regret.argmax())
            if level.regret[j] > regret:
                regret, t = float(level.regret[j]), self.horizon.T - level.h
                omega = tuple(graph.values.take(level.rows[j]).tolist())
        return GreedyAudit(value, regret, t, omega)

    def _q_table(self, h: int, roots: Sequence[Tuple[float, ...]]) -> np.ndarray:
        """Q rows of root beliefs with h steps remaining, through the answer cache.

        A new root that is a state of a held graph's level with h steps left
        is answered from that level by one Bellman step (``_held_rows``),
        which builds no node and counts none; the other new roots are solved
        together over one level graph (``_solve_roots``).  So a solver's first
        query never uses the held levels.  An answer keeps the graph only
        when its root was the one new root solved; otherwise it keeps None.
        """
        t = self.horizon.T - h
        new = list(dict.fromkeys(r for r in roots if (t, r) not in self._answers))
        if new and h and self._held:
            held = self._held_rows(h, new)
            for root, row in held.items():
                self._answers[(t, root)] = (row, None)
            new = [r for r in new if r not in held]
        if new:
            q, graph = self._solve_roots(h, new)
            graph = graph if len(new) == 1 else None
            for root, row in zip(new, q):
                self._answers[(t, root)] = (row, graph)
        return np.array([self._answers[(t, r)][0] for r in roots])

    def _held_rows(
        self, h: int, roots: Sequence[Tuple[float, ...]]
    ) -> Dict[Tuple[float, ...], np.ndarray]:
        """The Q rows of the roots that are states of a held graph's level with h >= 1 steps left.

        Graphs are searched in solve order.  A root's row is one Bellman step,
        taken as ``_solve_roots`` takes it at the roots: every selection in
        entry order, its reward, outcome law and ``_backup``.  Each live
        child's V is read from the same graph's level with h - 1 steps left,
        or, when h = 1, is the child's top-k reward.  V depends only on a
        state's values, so the row is float.hex-equal to a fresh solve's.  A
        root with a live child that the graph does not hold is left out.
        """
        out: Dict[Tuple[float, ...], np.ndarray] = {}
        n, k, beta = len(roots[0]), self.k, self.horizon.beta
        sel_pos, comp_pos = _selection_arrays(n, k)
        # Row s: p01 for the k - s bad outcomes, then p11 for the s good ones.
        bad = np.arange(k) < k - np.arange(k + 1)[:, None]
        observed = np.where(bad, self.model.p01, self.model.p11)
        for graph in self._held:
            rest = [r for r in roots if r not in out]
            if not rest or len(graph.levels) < h or graph.levels[0].rows.shape[1] != n:
                continue
            omega = np.array(rest)
            omega = omega[self._find(graph, h, np.sort(omega, axis=1)) >= 0]
            if not len(omega):
                continue
            q, answered = [], np.ones(len(omega), dtype=bool)
            for state, sel in _pair_chunks(omega, sel_pos, every=True):
                sensed = _pair_entries(omega, state, sel, sel_pos).T
                law = _poisson_binomial_rows(sensed)
                aged = _tau(self.model, _pair_entries(omega, state, sel, comp_pos))
                # Each pair's child for s goods, at [pair, s], its values ascending.
                children = np.empty((len(state), k + 1, n))
                children[:, :, : n - k], children[:, :, n - k :] = aged[:, None], observed
                children.sort(axis=2)
                if h == 1:
                    nxt = _left_sum(np.moveaxis(children[:, :, n - k :], 2, 0)).reshape(-1)
                    child = np.arange(len(nxt)).reshape(-1, k + 1).T
                else:
                    nxt = graph.levels[h - 2].values
                    child = self._find(graph, h - 1, children.reshape(-1, n)).reshape(-1, k + 1).T
                    answered[state[((child < 0) & (law != 0.0)).any(axis=0)]] = False
                    child = np.where(law != 0.0, child, 0)
                q.append(_backup(_left_sum(sensed), law, beta, nxt, child))
            q = np.concatenate(q).reshape(len(omega), len(sel_pos))
            for root, row, ok in zip(map(tuple, omega.tolist()), q, answered):
                if ok:
                    out[root] = row
        return out

    def _find(self, graph: _VGraph, h: int, states: np.ndarray) -> np.ndarray:
        """Each state's index in `graph`'s level with h steps left, or -1 where it has none.

        `states` are rows of values, each ascending.  A value's canonical
        rank is the first rank holding it: equal values held under different
        symbols have bit-identical V, so states are matched by value.  The
        level's states as canonical rank rows are sorted once per graph and
        level, and kept with the graph in ``_held``.
        """
        level, index = graph.levels[h - 1], self._held[graph]
        if h not in index:
            first = np.searchsorted(graph.values, graph.values).astype(level.rows.dtype)
            items = _void_rows(first.take(level.rows))
            order = np.argsort(items)
            index[h] = (items.take(order), order)
        items, order = index[h]
        ranks = np.minimum(np.searchsorted(graph.values, states), len(graph.values) - 1)
        held = (graph.values.take(ranks) == states).all(axis=1)
        query = _void_rows(ranks.astype(level.rows.dtype))
        at = np.minimum(np.searchsorted(items, query), len(items) - 1)
        return np.where(held & (items.take(at) == query), order.take(at), -1)

    def _solve_roots(
        self, h: int, roots: Sequence[Tuple[float, ...]]
    ) -> Tuple[np.ndarray, Optional[_VGraph]]:
        """Q-values of every selection at each root, by backward induction over a level graph.

        Level d of the graph holds the sorted states reachable from the roots
        in d steps, with h - d steps remaining.  At the roots every selection
        is evaluated, in the given entry order; below them only the leftmost
        selection of each sensed multiset (see ``_sensing_pairs``), and only
        the children of nonzero outcome probability.  A state is a sorted row
        of ranks, and each level is walked in chunks of whole states
        (``_pair_chunks``).  Forward, a chunk's pairs are grouped by their
        sorted unsensed rows, and one row per group is aged (``_child_parts``),
        so that work follows the distinct unsensed multisets, not the pairs;
        one numbering of every chunk's aged rows (``_number_parts``) gives each
        pair its part, and each slot (part, s goods) that a pair reaches with
        nonzero probability is a node of the next level.  Backward, each chunk
        recomputes its outcome law, which prunes as the forward one did, reads
        its children from the level's node ids by slot, and yields its pairs'
        Q and its states' values, regrets and G, concatenated in state order.
        So a level's temporaries follow a chunk; what is kept through the
        solve is each pair's sensed ranks and int32 part, each state's start,
        and each level's node ids by slot.
        The graph is complete, and counted against ``max_states``, before any
        value is computed; a graph stopped by the cap is not kept.

        The same pass audits greedy at every state below the roots: its
        regret (``GreedyAudit``), kept with each level, and its own value G,
        kept for the states one step below the roots.  Greedy's pair is a
        state's last kept pair, which senses its top k ranks; G is that
        pair's reward plus the discounted G of its children, and at the last
        step G is V.  Returns the Q rows, shape (len(roots), C(n, k)), and
        the kept graph (None when h = 0 or beta = 0, which need none).
        """
        n, k, beta = len(roots[0]), self.k, self.horizon.beta
        sel_pos, comp_pos = _selection_arrays(n, k)
        if h == 0 or beta == 0.0:
            return _left_sum(np.moveaxis(np.array(roots).take(sel_pos, axis=1), 2, 0)), None
        if self._v_nodes + h > self.max_states:
            # Each of the h levels below the roots holds a node, so the build
            # would trip the cap; this stops it before any level is sized.
            raise _node_cap_error(self.max_states, "V")
        vals, symbols, bases, aged_rank, rows, bad, good = self._rank_entries(h, roots)
        nodes = 0
        expanded = []  # level d < h: its chunks' (sensed ranks, parts, state starts), ids by slot
        levels = [rows]
        for d in range(h):
            chunks, lives, parts, count = [], [], [], 0
            for state, sel in _pair_chunks(rows, sel_pos, every=d == 0):
                sensed = _pair_entries(rows, state, sel, sel_pos)
                lives.append(_poisson_binomial_rows(vals.take(sensed).T) != 0.0)
                # No aged entry is p01 or p11 itself, so a child is its (sorted aged
                # part, s), and only new nodes need a full sort.  Below the roots
                # unsensed entries are sorted already; the roots keep their order.
                unsensed = _pair_entries(rows, state, sel, comp_pos)
                if d == 0:
                    unsensed.sort(axis=1)
                aged, part = _child_parts(unsensed, aged_rank, len(vals))
                # `part` indexes this chunk's aged rows, `count` rows into `parts`.
                chunks.append((sensed, part + count, np.flatnonzero(np.diff(state, prepend=-1))))
                parts.append(aged)
                count += len(aged)
            aged, number = _number_parts(parts, len(vals))
            # Slot part * (k+1) + s, the level's part with s goods, is a node when a
            # live pair reaches it; every pair has one, so int32 numbers the parts.
            found = np.zeros(len(aged) * (k + 1), dtype=bool)
            for i, (sensed, part, starts) in enumerate(chunks):
                part = number.take(part)
                found[(part * (k + 1) + np.arange(k + 1)[:, None])[lives[i]]] = True
                chunks[i] = (sensed, part.astype(np.int32), starts)
            del parts, lives
            made = np.flatnonzero(found)
            nodes += len(made)
            if self._v_nodes + nodes > self.max_states:
                raise _node_cap_error(self.max_states, "V")
            expanded.append((chunks, (np.cumsum(found, dtype=np.int32) - 1).reshape(-1, k + 1)))
            blocks = np.where(np.arange(k) < k - (made % (k + 1))[:, None], bad, good)
            made //= k + 1
            rows = np.concatenate([aged.take(made, axis=0), blocks], axis=1).astype(rows.dtype)
            rows.sort(axis=1)
            del aged, number, found, made, blocks
            levels.append(rows)
        value = _left_sum(vals.take(rows[:, n - k :]).T)
        greedy = value
        kept = []
        for d in range(h - 1, -1, -1):
            chunks, ids = expanded.pop()
            out = []  # per chunk: its Q and children, or its states' (value, regret, G)
            for sensed, part, starts in chunks:
                sensed = vals.take(sensed).T
                law = _poisson_binomial_rows(sensed)
                reward = _left_sum(sensed)
                # The forward pass's law bit for bit, so it prunes the same slots (to node 0).
                child = np.where(law != 0.0, ids.take(part, axis=0).T, 0)
                q = _backup(reward, law, beta, value, child)
                if d == 0:
                    out.append((q, child))
                    continue
                best_q = np.maximum.reduceat(q, starts)
                # Greedy's pair senses the top k ranks, so its reward is the best.
                last = np.append(starts[1:], len(q)) - 1
                best = reward.take(last)
                regret = best_q - _least_tied_q(q, reward, starts, best)
                g = _backup(best, law.take(last, axis=1), beta, greedy, child.take(last, axis=1))
                out.append((best_q, regret, g))
            if d == 0:
                q, child = (np.concatenate(a, axis=-1) for a in zip(*out))
                break
            value, regret, greedy = (np.concatenate(a) for a in zip(*out))
            kept.append(_VLevel(h - d, levels[d], value, regret))
        graph = _VGraph(vals, symbols, bases, tuple(kept), child, greedy)
        self._v_nodes += nodes
        self._held[graph] = {}
        return q.reshape(len(roots), len(sel_pos)), graph

    def _rank_entries(self, h: int, roots: Sequence[Tuple[float, ...]]):
        """Rank every entry a state below these roots can hold, in (value, base, age) order.

        The B bases are p01, p11 and the roots' distinct values, ascending.
        Symbol b + m * B, base b aged m, is kept up to m = h-1 for p01 and p11
        and m = h for the roots; equal values keep distinct ranks.  Returns the
        ranked values and symbols, the bases, each rank's rank one unobserved
        step on (-1 past the kept ages), the roots as rows of ranks, and the
        ranks of p01 and p11.
        """
        root_values = sorted({w for root in roots for w in root})
        base_of = {w: b for b, w in enumerate(root_values, 2)}
        bases = np.array([self.model.p01, self.model.p11, *root_values])
        B = len(bases)
        _check_addressable(h + 2, B)
        symbols = np.arange((h + 1) * B - 2)
        symbols[h * B :] += 2  # skips p01 and p11 aged h, which no state holds
        age, base = np.divmod(symbols, B)
        values = _aged_values(self.model, bases, h).reshape(-1).take(symbols)
        order = np.lexsort((age, base, values))
        symbols, values = symbols.take(order), values.take(order)
        dtype = np.int16 if len(symbols) <= np.iinfo(np.int16).max else np.int32
        rank = np.full((h + 2) * B, -1, dtype=dtype)  # symbol -> rank, -1 where not kept
        rank[symbols] = np.arange(len(symbols))
        rows = rank.take([[base_of[w] for w in root] for root in roots])
        return values, symbols, bases, rank.take(symbols + B), rows, rank[0], rank[1]

    # -- greedy value ------------------------------------------------------

    def _w_at(self, omega: Sequence[float], t: int) -> float:
        """W_t^k of `omega` in its given order: one entry of ``w_table``'s row t-1."""
        n = len(omega)
        value = w_table(self.model, self.horizon, self.k, [omega], self.max_states)[t - 1, 0]
        self._w_nodes[n] = w_graph_nodes(n, self.k, self.horizon, self.max_states)
        return float(value)

    def w_value(self, belief: BeliefVector, t: int) -> float:
        """W_t^k of the belief vector taken in its given (arbitrary) order."""
        belief = _as_belief(belief, "belief")
        self._check_t(belief.n, t)
        return self._w_at(belief.omega, t)

    def greedy_value(self, belief: BeliefVector, t: int) -> float:
        """W on the sorted vector: the ordered list's value, started in ascending order.

        That is the greedy policy's expected discounted reward when
        p11 >= p01, and not in general otherwise; ``greedy_audit(belief,
        t).value`` is greedy's value in every regime.
        """
        belief = _as_belief(belief, "belief")
        self._check_t(belief.n, t)
        return self._w_at(sorted(belief.omega), t)


# -- greedy-value recursion as a position-keyed state graph ---------------------
#
# W's state graph depends only on (n, k, H): its bases are p01, p11 and the
# root positions, so symbol b + m*(n+2) is p01 (b = 0), p11 (b = 1) or root
# position b - 2, aged m.  The child for s good outcomes is
# [p01]*(k-s) + aged(unsensed) + [p11]*s.


@dataclass(frozen=True)
class _WGraph:
    """The W state graph of one (n, k, H), its depths concatenated in int32 arrays.

    Depth d holds every state reachable from the root in at most d steps and
    is evaluated with h = H - d steps remaining; it is columns
    starts[d]:starts[d+1] of `sensed`.  Node 0 of every depth is the root
    itself, so one pass answers W_t for t = 1..H+1.
    """

    sensed: np.ndarray  # (k, starts[H+1]): symbols of the last k entries, depth by depth
    starts: Tuple[int, ...]  # depth d is columns starts[d]:starts[d+1]
    # depth d < H: (k+1, N_d) child at depth d+1, by s; None for a build the cap stopped
    children: Optional[Tuple[np.ndarray, ...]]
    nodes: int  # for a stopped build, a lower bound: the cap it exceeded plus one


def _node_cap_error(max_states: int, graph: str = "W") -> ResourceLimitError:
    return ResourceLimitError(f"{graph} state graph node count exceeded cap {max_states}")


def _w_graph(n: int, k: int, H: int, max_states: int) -> _WGraph:
    max_states = _as_int(max_states, "max_states", 0)
    graph = _TABLES.get(("W", n, k, H))
    if graph is None or graph.children is None and graph.nodes <= max_states:
        try:
            graph = _build_w_graph(n, k, H, max_states)
        except ResourceLimitError:
            graph = _WGraph(None, (), None, max_states + 1)
        _TABLES[("W", n, k, H)] = graph
    if graph.nodes > max_states:
        raise _node_cap_error(max_states)
    return graph


def _w_depth(horizon: HorizonSpec) -> int:
    """H, the depth of W's graph: T - 1, or 0 when beta = 0, where no child is read."""
    return 0 if horizon.beta == 0.0 else horizon.T - 1


def w_graph_nodes(n: int, k: int, horizon: HorizonSpec, max_states: int) -> int:
    """The W nodes that ``w_table`` reads for length-n vectors, checked against ``max_states``.

    That is every node of the (n, k, H) graph (``_w_depth``), built here if
    ``_TABLES`` does not hold it.  Raises ResourceLimitError over the cap.
    """
    return _w_graph(n, k, _w_depth(horizon), max_states).nodes


def _build_w_graph(n: int, k: int, H: int, max_states: int) -> _WGraph:
    if H + 1 > max_states:
        # Each depth below the root holds a new node, so the build would trip the cap.
        raise _node_cap_error(max_states)
    _check_addressable(H + 1, n + 2)  # the tau table every W evaluation reads
    stride = n + 2
    root = tuple(range(2, n + 2))
    blocks = [((0,) * (k - s), (1,) * s) for s in range(k + 1)]
    level = [root]
    nodes = 1
    sensed, starts, children = [], [0], []
    for d in range(H + 1):
        sensed.extend(node[n - k :] for node in level)
        starts.append(len(sensed))
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
    sensed = np.array(sensed, dtype=np.int32).T.copy()
    return _WGraph(sensed, tuple(starts), tuple(children), nodes)


def w_table(
    model: TransitionModel,
    horizon: HorizonSpec,
    k: int,
    vectors: Sequence[Sequence[float]],
    max_states: int = DEFAULT_MAX_STATES,
) -> np.ndarray:
    """W_t^k of every vector (each taken in its given order) for every t.

    Returns a (T, len(vectors)) array whose row t-1 holds W_t.  Values are
    bit-identical to the scalar memoised recursion: sums fold left to right,
    tau is iterated one step at a time, and the outcome law and the
    continuation sum keep the recursion's operation order.  A zero-probability
    child is evaluated too; it adds an exact 0.0.  The (n, k, H) graph's
    node count (``w_graph_nodes``), summed over depths, counts against
    ``max_states``; with H = 0 every row is the sum of the last k entries.
    """
    omega = _belief_rows(vectors)
    k = _as_int(k, "k", 1, omega.shape[1])
    V, n = omega.shape
    H = _w_depth(horizon)
    graph = _w_graph(n, k, H, max_states)
    _check_addressable(horizon.T, V)
    # Base b aged m, for every vector, is row b + m*(n+2).
    bases = np.empty((n + 2, V))
    bases[0], bases[1], bases[2:] = model.p01, model.p11, omega.T
    sensed = _aged_values(model, bases, H).reshape(-1, V).take(graph.sensed, axis=0)
    reward = _left_sum(sensed)
    starts = graph.starts
    out = np.empty((horizon.T, V))
    w = reward[starts[H] :]
    out[H:] = w[0]  # with H = 0 (beta = 0), every t reads the root's reward
    if H:
        law = _poisson_binomial_rows(sensed[:, : starts[H]])  # the last depth reads no child
    del sensed
    for d in range(H - 1, -1, -1):
        lo, hi = starts[d], starts[d + 1]
        w = _backup(reward[lo:hi], law[:, lo:hi], horizon.beta, w, graph.children[d])
        out[d] = w[0]
    return out


def _poisson_binomial_rows(sensed: np.ndarray) -> np.ndarray:
    """P(s successes) of independent Bernoulli trials, elementwise over axis 0 of `sensed`.

    Row s of the result holds P(s successes); each row is built as
    (0.0 + p[s-1]*w) + p[s]*(1.0 - w), as the scalar loop over the trials
    builds it, so a 1-D `sensed` gives the scalar law bit for bit.
    """
    probs = np.ones((1,) + sensed.shape[1:])
    for w in sensed:
        nxt = np.zeros((len(probs) + 1,) + sensed.shape[1:])
        nxt[1:] += probs * w
        nxt[:-1] += probs * (1.0 - w)
        probs = nxt
    return probs
