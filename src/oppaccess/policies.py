"""Channel-selection policies: greedy, DP-optimal, ordered-list, and baselines.

A policy maps (belief, t) to a set of k channels to sense.  All policies here
are deterministic given their construction arguments (the random baseline is
deterministic given the simulator's policy stream), so simulation runs are
reproducible.

Every policy has one interface, which serves all R replications of a
simulation at once: ``reset`` before a run, ``batch_actions(beliefs, t, u)``
returning an (R, k) array of sorted 0-based indices, and ``batch_observe(acts,
obs)`` feeding back the sensed bits, for the policies that keep per-run state.
The per-replication twins of these policies, which the loop simulator in
``tests/_oracles.py`` steps one run at a time, live there and share no code
with this module.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .model import ActionSet, HorizonSpec, TransitionModel, _as_int
from .dp import DEFAULT_MAX_STATES, FiniteHorizonSolver
from .dp import _greedy_order, _optimal_mask, _selection_arrays


def greedy_action(omega: Sequence[float], k: int) -> ActionSet:
    """Indices (1-based) of the k largest beliefs, ties broken toward lower index."""
    n = len(omega)
    k = _as_int(k, "k", 1, n)
    order = sorted(range(n), key=lambda i: (-omega[i], i))
    return ActionSet(tuple(i + 1 for i in order[:k]))


class Policy:
    """Base policy: override ``batch_actions``; hooks for per-run state.

    ``uses_beliefs = False`` says ``batch_actions`` reads only the row count of
    its beliefs: the simulator then skips the belief update and passes the
    initial belief rows at every step.
    """

    name = "policy"

    def reset(self, n: int, k: int, initial_omega: Sequence[float]) -> None:
        """Called once before each simulation run."""

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        """(R, k) sorted 0-based indices for beliefs (R, n) at time t; ``u`` (R,)
        carries per-replication policy-stream uniforms."""
        raise NotImplementedError(f"{type(self).__name__} does not implement batch_actions")

    def batch_observe(self, acts: np.ndarray, obs: np.ndarray) -> None:
        """Batch observation feedback: obs (R, k) aligned with acts (R, k)."""

    # Whether the policy consumes the policy-stream uniforms.
    uses_randomness = False
    # Whether batch_actions reads the entries of its beliefs.
    uses_beliefs = True


class GreedyPolicy(Policy):
    """Sense the k channels with the largest current beliefs."""

    name = "greedy"

    def __init__(self, k: int) -> None:
        self.k = _as_int(k, "k", 1)

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        return np.sort(_greedy_order(beliefs)[:, : self.k], axis=1)


class OptimalPolicy(Policy):
    """DP-optimal action at every step; shares one solver across calls."""

    name = "optimal"

    def __init__(
        self,
        model: TransitionModel,
        horizon: HorizonSpec,
        k: int,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        self.solver = FiniteHorizonSolver(model, horizon, k, max_states)

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        # One solver query per step, over the distinct belief rows; replications
        # share the answer.  The first sensing set within VALUE_TOL of the row
        # maximum is optimal_value(...).best_actions[0].
        uniq, inverse = _distinct_rows(beliefs)
        best = np.argmax(_optimal_mask(self.solver.action_value_table(uniq, t)), axis=1)
        # The Q columns follow the selections' lexicographic order.
        selected = _selection_arrays(beliefs.shape[1], self.solver.k)[0]
        return selected.take(best.take(inverse), axis=0)


def _distinct_rows(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, axis=0, return_inverse=True)`` for a 2-D float array, by one lexsort.

    Returns the distinct rows in lexicographic order and each row's index
    among them.
    """
    order = np.lexsort(a.T[::-1])
    ordered = a.take(order, axis=0)
    first = np.ones(len(a), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


class OrderedListPolicy(Policy):
    """Maintains an explicit channel ordering instead of sorting beliefs.

    Started from the ascending order of the initial belief this realises the
    greedy policy whenever p11 >= p01; from an arbitrary initial order its
    expected reward is what the order-sensitive W recursion computes.
    """

    name = "ordered-list"
    uses_beliefs = False

    def __init__(self, k: int, initial_order: Optional[Sequence[int]] = None) -> None:
        self.k = _as_int(k, "k", 1)
        if initial_order is not None:
            initial_order = tuple(_as_int(c, "initial_order entry") for c in initial_order)
        self.initial_order = initial_order
        self._order: Tuple[int, ...] = ()
        self._lists: Optional[np.ndarray] = None

    def reset(self, n: int, k: int, initial_omega: Sequence[float]) -> None:
        if self.initial_order is not None:
            if sorted(self.initial_order) != list(range(1, n + 1)):
                raise ValueError(
                    f"initial_order must be a permutation of 1..{n}: {self.initial_order}"
                )
            self._order = self.initial_order
        else:
            # Greedy's ranking reversed: among ties the lower index sits nearer the top (end).
            order = _greedy_order(np.array(initial_omega, dtype=float))[::-1]
            self._order = tuple((order + 1).tolist())

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        if t == 1:
            # One 0-based list per replication, worst-first, all from the reset order.
            self._lists = np.tile(np.array(self._order) - 1, (beliefs.shape[0], 1))
        return np.sort(self._lists[:, -self.k :], axis=1)

    def batch_observe(self, acts: np.ndarray, obs: np.ndarray) -> None:
        # Group per channel: 0 sensed bad (to the front), 1 unsensed, 2 sensed
        # good (to the back).  The stable sort keeps list order within a group.
        # Every array is read and written flat, at column + each row's offset.
        R, n = self._lists.shape
        offset = np.arange(0, R * n, n)[:, None]
        group = np.ones(R * n, dtype=np.int8)
        group.put(acts + offset, 2 * obs)
        order = np.argsort(group.take(self._lists + offset), axis=1, kind="stable")
        order += offset
        self._lists = self._lists.take(order)


class RoundRobinPolicy(Policy):
    """Cycle through the channels in blocks of k, ignoring beliefs."""

    name = "round-robin"
    uses_beliefs = False

    def __init__(self, n: int, k: int) -> None:
        self.n = _as_int(n, "n", 1)
        self.k = _as_int(k, "k", 1, self.n)

    # perfbench/workloads.py computes sim-greedy's exact round-robin reference from this.
    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        start = ((t - 1) * self.k) % self.n
        return ActionSet(tuple((start + j) % self.n + 1 for j in range(self.k)))

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        start = ((t - 1) * self.k) % self.n
        row = np.sort((start + np.arange(self.k)) % self.n)
        return np.tile(row, (beliefs.shape[0], 1))


class FixedSetPolicy(Policy):
    """Always sense the same fixed set of channels, named by them: ``fixed-1+2``."""

    uses_beliefs = False

    def __init__(self, indices: Sequence[int]) -> None:
        self.action_set = ActionSet(tuple(indices))
        self.name = "fixed-" + "+".join(map(str, self.action_set.indices))

    def reset(self, n: int, k: int, initial_omega: Sequence[float]) -> None:
        self.action_set.validate_for(n, k)

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        row = np.array(self.action_set.indices) - 1
        return np.tile(row, (beliefs.shape[0], 1))


class UniformRandomPolicy(Policy):
    """Uniformly random k-subset each step, driven by the policy uniform stream."""

    name = "random"
    uses_randomness = True
    uses_beliefs = False

    def __init__(self, n: int, k: int) -> None:
        self.n = _as_int(n, "n", 1)
        self.k = _as_int(k, "k", 1, self.n)
        # Row j holds the j-th k-subset's 0-based channels, in lexicographic order.
        self._table = _selection_arrays(self.n, self.k)[0]

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        count = len(self._table)
        return self._table.take(np.minimum((u * count).astype(int), count - 1), axis=0)
