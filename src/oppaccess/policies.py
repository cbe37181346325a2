"""Channel-selection policies: greedy, DP-optimal, ordered-list, and baselines.

A policy maps (belief, t) to a set of k channels to sense.  All policies here
are deterministic given their construction arguments (the random baseline is
deterministic given its seed), so simulation runs are reproducible.

Each policy has two forms that make the same choices.  The scalar form,
``action``/``observe``, serves one run at a time (exact policy evaluation in
``dp`` uses it).  The batch form serves all R replications of a simulation at
once: ``batch_actions(beliefs, t, u)`` returns an (R, k) array of 0-based
indices, and ``batch_observe(acts, obs)`` feeds back the sensed bits, for the
policies that keep per-run state.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    VALUE_TOL,
    ActionSet,
    BeliefVector,
    HorizonSpec,
    TransitionModel,
    enumerate_actions,
)
from .dp import FiniteHorizonSolver


def greedy_action(omega: Sequence[float], k: int) -> ActionSet:
    """Indices (1-based) of the k largest beliefs, ties broken toward lower index."""
    n = len(omega)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    order = sorted(range(n), key=lambda i: (-omega[i], i))
    return ActionSet(tuple(i + 1 for i in order[:k]))


def all_greedy_actions(omega: Sequence[float], k: int, tol: float = 1e-12) -> List[ActionSet]:
    """Every k-subset whose one-step expected reward ties the greedy maximum."""
    best = sum(sorted(omega, reverse=True)[:k])
    out = []
    for combo in itertools.combinations(range(len(omega)), k):
        if sum(omega[i] for i in combo) >= best - tol:
            out.append(ActionSet(tuple(i + 1 for i in combo)))
    return out


def optimal_action(
    belief: BeliefVector,
    t: int,
    model: TransitionModel,
    horizon: HorizonSpec,
    k: int,
    solver: Optional[FiniteHorizonSolver] = None,
    max_states: int = 10_000_000,
) -> ActionSet:
    """Lexicographically smallest maximiser of the DP action values."""
    if solver is None:
        solver = FiniteHorizonSolver(model, horizon, k, max_states)
    return solver.optimal_value(belief, t).best_actions[0]


def ordered_list_policy_step(
    list_state: Sequence[int],
    k: int,
    last_outcome: Optional[Sequence[int]] = None,
) -> Tuple[ActionSet, Tuple[int, ...]]:
    """One step of the ordered-list policy.

    ``list_state`` is a permutation of {1..n} ordered worst-first (the last k
    entries are the ones that were just sensed).  ``last_outcome`` gives the
    observed bits for those last k entries in list order; channels observed
    bad move to the front of the list, channels observed good stay at the
    back, and unobserved channels keep their relative order.  Returns the next
    action (the new last k entries as a set) and the updated list.
    """
    order = tuple(list_state)
    n = len(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"list_state must be a permutation of 1..{n}: {list_state}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if last_outcome is not None:
        if len(last_outcome) != k:
            raise ValueError(f"outcome must have {k} bits, got {len(last_outcome)}")
        sensed = order[-k:]
        bad = tuple(c for c, b in zip(sensed, last_outcome) if not b)
        good = tuple(c for c, b in zip(sensed, last_outcome) if b)
        order = bad + order[:-k] + good
    return ActionSet(order[-k:]), order


class Policy:
    """Base policy: override ``action`` and ``batch_actions``; hooks for per-run state."""

    name = "policy"

    def reset(self, n: int, k: int, initial_omega: Sequence[float]) -> None:
        """Called once before each simulation run."""

    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        raise NotImplementedError

    def observe(self, action: ActionSet, bits: Sequence[int]) -> None:
        """Observation feedback; bits aligned with the sorted action indices."""

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        """(R, k) sorted 0-based indices for beliefs (R, n) at time t; ``u`` (R,)
        carries per-replication policy-stream uniforms."""
        raise NotImplementedError(f"{type(self).__name__} does not implement batch_actions")

    def batch_observe(self, acts: np.ndarray, obs: np.ndarray) -> None:
        """Batch observation feedback: obs (R, k) aligned with acts (R, k)."""

    # Whether the policy consumes the policy-stream uniforms.
    uses_randomness = False


class GreedyPolicy(Policy):
    """Sense the k channels with the largest current beliefs."""

    name = "greedy"

    def __init__(self, k: int) -> None:
        self.k = k

    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        return greedy_action(omega, self.k)

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        # Stable argsort of the negated beliefs gives the lowest-index tie rule.
        order = np.argsort(-beliefs, axis=1, kind="stable")
        return np.sort(order[:, : self.k], axis=1)


class OptimalPolicy(Policy):
    """DP-optimal action at every step; shares one solver across calls."""

    name = "optimal"

    def __init__(
        self,
        model: TransitionModel,
        horizon: HorizonSpec,
        k: int,
        max_states: int = 10_000_000,
    ) -> None:
        self.solver = FiniteHorizonSolver(model, horizon, k, max_states)

    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        return self.solver.optimal_value(BeliefVector(tuple(omega)), t).best_actions[0]

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        # One solver query per step, over the distinct belief rows; replications
        # share the answer.  The first sensing set within VALUE_TOL of the row
        # maximum is optimal_value(...).best_actions[0].
        uniq, inverse = np.unique(beliefs, axis=0, return_inverse=True)
        rows = [BeliefVector(tuple(row)) for row in uniq.tolist()]
        qs = self.solver.action_value_table(rows, t)
        best = np.argmax(qs >= qs.max(axis=1, keepdims=True) - VALUE_TOL, axis=1)
        actions = enumerate_actions(beliefs.shape[1], self.solver.k)
        return np.array([a.indices for a in actions])[best[inverse.reshape(-1)]] - 1


class OrderedListPolicy(Policy):
    """Maintains an explicit channel ordering instead of sorting beliefs.

    Started from the ascending order of the initial belief this realises the
    greedy policy whenever p11 >= p01; from an arbitrary initial order its
    expected reward is what the order-sensitive W recursion computes.
    """

    name = "ordered-list"

    def __init__(self, k: int, initial_order: Optional[Sequence[int]] = None) -> None:
        self.k = k
        self.initial_order = tuple(initial_order) if initial_order is not None else None
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
            # Ascending by belief; among ties the lower index sits closer to the
            # top (end) of the list, matching greedy's tie rule.
            self._order = tuple(
                i + 1
                for i in sorted(range(n), key=lambda i: (initial_omega[i], -i))
            )

    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        act, self._order = ordered_list_policy_step(self._order, self.k, None)
        return act

    def observe(self, action: ActionSet, bits: Sequence[int]) -> None:
        bit_by_channel = dict(zip(action.indices, bits))
        list_bits = [bit_by_channel[c] for c in self._order[-self.k :]]
        _, self._order = ordered_list_policy_step(self._order, self.k, list_bits)

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        if t == 1:
            # One 0-based list per replication, worst-first, all from the reset order.
            self._lists = np.tile(np.array(self._order) - 1, (beliefs.shape[0], 1))
        return np.sort(self._lists[:, -self.k :], axis=1)

    def batch_observe(self, acts: np.ndarray, obs: np.ndarray) -> None:
        # Group per channel: 0 sensed bad (to the front), 1 unsensed, 2 sensed
        # good (to the back).  The stable sort keeps list order within a group.
        group = np.ones(self._lists.shape, dtype=np.int8)
        np.put_along_axis(group, acts, 2 * obs, axis=1)
        order = np.argsort(np.take_along_axis(group, self._lists, axis=1), axis=1, kind="stable")
        self._lists = np.take_along_axis(self._lists, order, axis=1)


class RoundRobinPolicy(Policy):
    """Cycle through the channels in blocks of k, ignoring beliefs."""

    name = "round-robin"

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k

    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        start = ((t - 1) * self.k) % self.n
        return ActionSet(tuple((start + j) % self.n + 1 for j in range(self.k)))

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        start = ((t - 1) * self.k) % self.n
        row = np.sort((start + np.arange(self.k)) % self.n)
        return np.tile(row, (beliefs.shape[0], 1))


class FixedSetPolicy(Policy):
    """Always sense the same fixed set of channels."""

    name = "fixed"

    def __init__(self, indices: Sequence[int]) -> None:
        self.action_set = ActionSet(tuple(indices))

    def reset(self, n: int, k: int, initial_omega: Sequence[float]) -> None:
        self.action_set.validate_for(n, k)

    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        return self.action_set

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        row = np.array(self.action_set.indices) - 1
        return np.tile(row, (beliefs.shape[0], 1))


class UniformRandomPolicy(Policy):
    """Uniformly random k-subset each step, driven by the policy uniform stream."""

    name = "random"
    uses_randomness = True

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k
        self._subsets = enumerate_actions(n, k)
        self._u: Optional[float] = None

    def set_uniform(self, u: float) -> None:
        """Per-step policy randomness, supplied by the simulator's policy stream."""
        self._u = u

    def action(self, omega: Tuple[float, ...], t: int) -> ActionSet:
        if self._u is None:
            raise RuntimeError("random policy needs a uniform; use it via the simulator")
        idx = min(int(self._u * len(self._subsets)), len(self._subsets) - 1)
        return self._subsets[idx]

    def batch_actions(self, beliefs: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
        idx = np.minimum((u * len(self._subsets)).astype(int), len(self._subsets) - 1)
        table = np.array([[i - 1 for i in a.indices] for a in self._subsets])
        return table[idx]
