"""Independent reference implementations used to cross-check the solvers.

Deliberately naive: no memoisation, no outcome grouping, no reordering
tricks.  Only usable at tiny sizes, which is the point -- they share no code
path with the package's recursions.  The exceptions are ``RecursiveVSolver``,
the memoised Bellman and greedy-value recursions that the level-graph V
engine and ``dp.w_table`` replaced, and ``child_parts_per_pair``, the
per-pair child numbering that ``dp._child_parts`` replaced: kept as they
were so the engines can be compared with them bit for bit.
``RecursiveVSolver`` keys each entry as a (value, key) pair, with its own
aged-entry table, and also audits the engine's graphs: ``graph_entries``
rebuilds those pairs from a graph's integer symbols, and
``bellman_residual`` loads every level a ``FiniteHorizonSolver`` keeps into
its memo and recomputes each node from its children.
``GREEDY_LOSSES`` lists instances where greedy is strictly suboptimal,
checked against ``exact_policy_value``.

The loop simulator ``simulate_loop`` steps scalar twins of the library's
policies, one run at a time; they import nothing from ``oppaccess.policies``
and share no code with its batch forms.  It records each run as a
``RunRecord`` of ``StepRecord``s, which ``write_traces_json`` writes and
``columns`` turns into the four columns of a ``sim.Traces``.
"""

import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from oppaccess import (
    ActionSet,
    BeliefVector,
    FiniteHorizonSolver,
    HorizonSpec,
    TransitionModel,
    tau,
    tau_iterate,
)
from oppaccess.dp import ResourceLimitError, SolveResult, _fold_keys, _left_sum
from oppaccess.model import VALUE_TOL, _as_prob


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
        _as_prob(w, "belief")
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
    by tau."""
    action.validate_for(belief.n)
    if len(outcome.bits) != action.k:
        raise ValueError(
            f"outcome has {len(outcome.bits)} bits but action senses {action.k} channels"
        )
    bit_by_channel = dict(zip(action.indices, outcome.bits))
    values = []
    for i, w in enumerate(belief.omega, start=1):
        if i in bit_by_channel:
            values.append(model.p11 if bit_by_channel[i] else model.p01)
        else:
            values.append(tau(w, model))
    return BeliefVector(tuple(values))


def immediate_reward(belief: BeliefVector, action: ActionSet) -> float:
    """One-step expected reward of sensing `action`: sum of the selected beliefs."""
    action.validate_for(belief.n)
    return sum(belief.omega[i - 1] for i in action.indices)


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


_SUBSETS: Dict[Tuple[int, int], Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...]] = {}


def _subsets(n: int, k: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...]:
    """(sel, complement, mask) of every k-subset of 0..n-1, in lexicographic order.

    Listed here, not read from ``dp``'s table, so the oracles stay
    independent of it; the masks are Python ints, which do not overflow.
    """
    if (n, k) not in _SUBSETS:
        out = []
        for sel in itertools.combinations(range(n), k):
            mask = sum(1 << i for i in sel)
            out.append((sel, tuple(i for i in range(n) if not mask >> i & 1), mask))
        _SUBSETS[(n, k)] = tuple(out)
    return _SUBSETS[(n, k)]


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
    for sel, comp, mask in _subsets(len(entries), k):
        if not (mask & repeats) >> 1 & ~mask:
            yield sel, comp


def child_parts_per_pair(
    unsensed: np.ndarray, aged_rank: np.ndarray, base: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The V level build's children found pair by pair, as before ``dp._child_parts``.

    Every (state, selection) pair's unsensed ranks are aged, sorted and
    keyed, and one ``np.unique`` over all pairs numbers the distinct aged
    parts in lexicographic order.  Returns those parts and each pair's
    number.  The rows need not be sorted.
    """
    aged = aged_rank[unsensed]
    aged.sort(axis=1)
    _, first, part = np.unique(_fold_keys(aged, base), return_index=True, return_inverse=True)
    return aged[first], part


def _age_key(key: Tuple) -> Tuple:
    if key[0] == "V":
        return ("V", key[1], key[2] + 1)
    return (key[0], key[1] + 1)


class RecursiveVSolver(FiniteHorizonSolver):
    """The memoised Bellman recursion that the level-graph V engine replaced.

    V is memoised on (h, sorted entries) and explored depth first; a state
    is counted against ``max_states`` the moment it is memoised, so a cap
    trips part-way through, with the states visited so far left in the
    memo.  The greedy-value recursion W that ``dp.w_table`` replaced is kept
    the same way, memoised on (h, entries); V and W memo entries count
    against one cap together.

    An entry is a (value, key) pair whose key, ("B", m), ("G", m) or
    ("V", w, m) for a root entry w, is tau^m of p01, p11 or w; an aged-entry
    table maps an entry to the same entry one unobserved step on, so scalar
    ``tau`` runs once per distinct entry.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._v_memo: Dict[Tuple, float] = {}
        self._w_memo: Dict[Tuple, float] = {}
        self._aged_table: Dict[Tuple, Tuple] = {}
        self._bad = (self.model.p01, ("B", 0))
        self._good = (self.model.p11, ("G", 0))

    def _root_entries(self, belief: BeliefVector) -> List[Tuple[float, Tuple]]:
        """Entries as (value, key) pairs: each root entry w is ("V", w, 0)."""
        return [(w, ("V", w, 0)) for w in belief.omega]

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
        h = self._check_t(belief.n, t)
        entries = self._root_entries(belief)
        aged = self._aged(entries) if h > 0 and self.horizon.beta != 0.0 else ()
        return {
            ActionSet(tuple(i + 1 for i in sel)): self._q(h, entries, aged, sel, comp)
            for sel, comp, _ in _subsets(belief.n, self.k)
        }

    def optimal_value(self, belief: BeliefVector, t: int) -> SolveResult:
        """Optimal value from time t plus every action within VALUE_TOL of the maximum."""
        qs = self.action_values(belief, t)
        best = max(qs.values())
        actions = tuple(
            sorted((a for a, v in qs.items() if v >= best - VALUE_TOL), key=lambda a: a.indices)
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
                for sel, comp, _ in _subsets(len(rebuilt), self.k)
            )
            worst = max(worst, abs(cached - rhs))
        return worst

    def _key_value(self, key: Tuple) -> float:
        if key[0] == "B":
            return tau_iterate(self.model.p01, self.model, key[1])
        if key[0] == "G":
            return tau_iterate(self.model.p11, self.model, key[1])
        return tau_iterate(key[1], self.model, key[2])

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
        h = self._check_t(belief.n, t)
        return self._w(h, tuple(self._root_entries(belief)))

    def greedy_value(self, belief: BeliefVector, t: int) -> float:
        """Expected discounted reward of the greedy policy: W on the sorted vector."""
        h = self._check_t(belief.n, t)
        entries = sorted(self._root_entries(belief))
        return self._w(h, tuple(entries))


def v_graphs(solver: FiniteHorizonSolver) -> List:
    """Every V graph a solver keeps, in solve order: each graph it solved, batches included."""
    return list(solver._held)


def graph_entries(graph) -> List[Tuple[float, Tuple]]:
    """Each rank of a kept V graph as the recursion's (value, key) entry.

    Rebuilt from the graph's symbols and bases: symbol b + m*B is ("B", m)
    for b = 0, ("G", m) for b = 1 and ("V", bases[b], m) otherwise.
    """
    bases = graph.bases.tolist()
    out = []
    for value, symbol in zip(graph.values.tolist(), graph.symbols.tolist()):
        m, b = divmod(symbol, len(bases))
        key = ("B", m) if b == 0 else ("G", m) if b == 1 else ("V", bases[b], m)
        out.append((value, key))
    return out


def bellman_residual(solver: FiniteHorizonSolver) -> float:
    """The largest Bellman residual over every node of a solver's kept V graphs.

    Every kept level is loaded into a fresh ``RecursiveVSolver``'s memo,
    keyed as the recursion keys its states, and that solver's audit
    recomputes each node from its children in scalar code.  A child not in
    the memo, such as a state at the last step, is solved by the recursion.
    Answers read from held levels build no graph and add none.
    """
    ref = RecursiveVSolver(solver.model, solver.horizon, solver.k)
    for graph in v_graphs(solver):
        entries = graph_entries(graph)
        for level in graph.levels:
            for row, value in zip(level.rows.tolist(), level.values.tolist()):
                ref._v_memo[(level.h, tuple(entries[r] for r in row))] = value
    return ref.verify_cached_bellman()


# Negative-regime instances (n, k, beta = 1) where greedy loses, as
# (p01, p11, T, omega), each confirmed with ``exact_policy_value``.  In the
# first, greedy's first action is suboptimal (V - greedy = 0.0035107); in the
# second, only a node at t = 2 (V - greedy = 0.00033504); the third
# (V - greedy = 0.056008) has 15 such nodes below its root.
GREEDY_LOSSES = [
    (0.8642042158322776, 0.016322952904415877, 6,
     (0.8364063168229026, 0.8199228695810893, 0.9486247093009833, 0.8834619041015644)),
    (0.9415418655706292, 0.05928018655546663, 5,
     (0.04542590814757563, 0.8263348977270208, 0.15301920939127223, 0.17898289471867868)),
    (0.9922919302877053, 0.003301760590063452, 6,
     (0.9268044018334561, 0.7646359785600961, 0.928851564047273, 0.7952438281144091,
      0.9874475945100075)),
]


def all_greedy_actions(omega: Sequence[float], k: int, tol: float = 1e-12):
    """Every k-subset whose one-step expected reward ties the greedy maximum.

    The tie rule of ``dp.GreedyAudit``'s regret, written out over all C(n, k)
    subsets.
    """
    best = sum(sorted(omega, reverse=True)[:k])
    out = []
    for combo in itertools.combinations(range(len(omega)), k):
        if sum(omega[i] for i in combo) >= best - tol:
            out.append(ActionSet(tuple(i + 1 for i in combo)))
    return out


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


# -- scalar policies for the loop simulator ------------------------------------
#
# Each maps one run's belief tuple and time t (and its policy-stream uniform u)
# to an ActionSet; ``observe`` gets the bits aligned with the sorted action.


def ordered_list_step(order: Tuple[int, ...], k: int, bits: Sequence[int]) -> Tuple[int, ...]:
    """The list after sensing its last k entries (worst-first, 1-based channels).

    ``bits`` are the observations of those entries in list order: the channels
    observed bad move to the front, those observed good stay at the back, and
    the rest keep their relative order.
    """
    sensed = order[-k:]
    bad = tuple(c for c, b in zip(sensed, bits) if not b)
    good = tuple(c for c, b in zip(sensed, bits) if b)
    return bad + order[:-k] + good


class LoopPolicy:
    uses_randomness = False

    def reset(self, n: int, omega: Sequence[float]) -> None:
        pass

    def observe(self, action: ActionSet, bits: Sequence[int]) -> None:
        pass


class LoopGreedy(LoopPolicy):
    def __init__(self, k: int) -> None:
        self.k = k

    def action(self, omega, t, u) -> ActionSet:
        ranked = sorted(range(len(omega)), key=lambda i: (-omega[i], i))
        return ActionSet(tuple(i + 1 for i in ranked[: self.k]))


class LoopOptimal(LoopPolicy):
    """The first of the solver's maximisers, ``best_actions[0]``."""

    def __init__(self, model, horizon, k, max_states) -> None:
        self.solver = FiniteHorizonSolver(model, horizon, k, max_states)

    def action(self, omega, t, u) -> ActionSet:
        return self.solver.optimal_value(BeliefVector(tuple(omega)), t).best_actions[0]


class LoopOrderedList(LoopPolicy):
    def __init__(self, k: int, initial_order: Optional[Tuple[int, ...]]) -> None:
        self.k = k
        self.initial_order = initial_order

    def reset(self, n, omega) -> None:
        if self.initial_order is not None:
            self.order = tuple(self.initial_order)
        else:
            # Ascending belief, and on ties the lower channel nearer the end.
            self.order = tuple(sorted(range(1, n + 1), key=lambda c: (omega[c - 1], -c)))

    def action(self, omega, t, u) -> ActionSet:
        return ActionSet(self.order[-self.k :])

    def observe(self, action, bits) -> None:
        bit = dict(zip(action.indices, bits))
        self.order = ordered_list_step(self.order, self.k, [bit[c] for c in self.order[-self.k :]])


class LoopRoundRobin(LoopPolicy):
    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k

    def action(self, omega, t, u) -> ActionSet:
        return ActionSet(tuple(((t - 1) * self.k + j) % self.n + 1 for j in range(self.k)))


class LoopFixed(LoopPolicy):
    def __init__(self, indices: Sequence[int]) -> None:
        self.fixed = ActionSet(tuple(indices))

    def action(self, omega, t, u) -> ActionSet:
        return self.fixed


class LoopRandom(LoopPolicy):
    """Subset number floor(u * C(n, k)) of the k-subsets in lexicographic order."""

    uses_randomness = True

    def __init__(self, n: int, k: int) -> None:
        self.subsets = list(itertools.combinations(range(1, n + 1), k))

    def action(self, omega, t, u) -> ActionSet:
        return ActionSet(self.subsets[min(int(u * len(self.subsets)), len(self.subsets) - 1)])


# Library policy class name -> its scalar twin, built from the policy's
# constructor data.
_TWINS = {
    "GreedyPolicy": lambda p: LoopGreedy(p.k),
    "OptimalPolicy": lambda p: LoopOptimal(
        p.solver.model, p.solver.horizon, p.solver.k, p.solver.max_states
    ),
    "OrderedListPolicy": lambda p: LoopOrderedList(p.k, p.initial_order),
    "RoundRobinPolicy": lambda p: LoopRoundRobin(p.n, p.k),
    "FixedSetPolicy": lambda p: LoopFixed(p.action_set.indices),
    "UniformRandomPolicy": lambda p: LoopRandom(p.n, p.k),
}


class StepRecord(NamedTuple):
    t: int
    states: Tuple[int, ...]
    action: Tuple[int, ...]
    observations: Tuple[int, ...]
    reward: int


class RunRecord(NamedTuple):
    replication: int
    steps: Tuple[StepRecord, ...]
    total: float


class LoopRun(NamedTuple):
    totals: np.ndarray
    traces: Optional[Tuple[RunRecord, ...]]


def columns(runs) -> Tuple[np.ndarray, ...]:
    """The (states, actions, observations, rewards) columns of ``runs``, each
    of shape (T, R) or (T, R, width), as ``sim.Traces`` keeps them."""
    return tuple(
        np.array([[getattr(step, field) for step in run.steps] for run in runs]).swapaxes(0, 1)
        for field in ("states", "action", "observations", "reward")
    )


def simulate_loop(config, policy) -> LoopRun:
    """Per-replication reference simulator: one Python step at a time, through
    the scalar twin of the library policy `policy`, on the same Philox
    substreams (nature on stream 1, policy on stream 2) as ``simulate``."""
    policy = _TWINS[type(policy).__name__](policy)
    m, beta, T = config.model, config.horizon.beta, config.horizon.T
    R, n, k = config.replications, config.n, config.k
    nat = philox_substream_uniforms(config.seed, 1, R, (T, n))
    pol = (
        philox_substream_uniforms(config.seed, 2, R, (T,))
        if policy.uses_randomness
        else np.zeros((R, T))
    )
    omega0 = config.initial_belief.omega
    totals = np.zeros(R)
    traces: Optional[list] = [] if config.record_traces else None
    for r in range(R):
        states = tuple(int(nat[r, 0, i] < omega0[i]) for i in range(n))
        beliefs = omega0
        policy.reset(n, omega0)
        total = 0.0
        disc = 1.0
        steps = [] if traces is not None else None
        for t in range(1, T + 1):
            action = policy.action(beliefs, t, pol[r, t - 1])
            obs = tuple(states[i - 1] for i in action.indices)
            reward = sum(obs)
            total += disc * reward
            policy.observe(action, obs)
            if steps is not None:
                steps.append(StepRecord(t, states, action.indices, obs, reward))
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


def write_traces_json(path, runs) -> None:
    """Reference trace writer: one compact ``json`` encoding per step of each
    ``RunRecord``, the bytes that ``sim.write_traces`` must reproduce."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w") as f:
        for run in runs:
            for s in run.steps:
                f.write(
                    encode(
                        {
                            "v": 1,
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
