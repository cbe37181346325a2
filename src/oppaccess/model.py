"""Two-state channel model, belief vectors, and one-step probabilistic primitives.

Channels are independent, statistically identical two-state Markov chains
("good" = 1, "bad" = 0) parametrised by the transition probabilities p01
(bad -> good) and p11 (good -> good).  The decision maker's information state
is the vector of per-channel probabilities of being good right now; this
module owns that representation, sensing sets, and belief propagation for
unobserved channels.

Channel indices are 1-based throughout the public API.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Absolute tolerance for probability-domain and probability-sum checks.
PROB_TOL = 1e-12

#: Absolute tolerance for value (expected reward) comparisons.
VALUE_TOL = 1e-9


def _check_prob(p: float, name: str) -> None:
    if not (-PROB_TOL <= p <= 1.0 + PROB_TOL):
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


def _as_int(value, name: str) -> int:
    """An integer input as a Python int (a numpy one would overflow the Philox key sums).

    A bool or a non-integer raises ValueError, when the object is built."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TransitionModel:
    """Markov law of a single channel: p01 = P(bad -> good), p11 = P(good -> good)."""

    p01: float
    p11: float

    def __post_init__(self) -> None:
        _check_prob(self.p01, "p01")
        _check_prob(self.p11, "p11")

    @property
    def positively_correlated(self) -> bool:
        """True iff p11 >= p01, the regime in which greedy is provably optimal."""
        return self.p11 >= self.p01

    def stationary_belief(self) -> float:
        """Fixed point of the propagation operator, p01 / (1 - p11 + p01).

        Raises ValueError for the degenerate deterministic chain
        p11 = 1, p01 = 0, where every belief is stationary.
        """
        denom = 1.0 - self.p11 + self.p01
        if denom == 0.0:
            raise ValueError(
                "stationary belief undefined for p11=1, p01=0 (every point is fixed)"
            )
        return self.p01 / denom


@dataclass(frozen=True)
class HorizonSpec:
    """Horizon length T >= 1 and discount factor beta in [0, 1] (beta = 1 allowed)."""

    T: int
    beta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", _as_int(self.T, "T"))
        if self.T < 1:
            raise ValueError(f"horizon T must be >= 1, got {self.T}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"discount beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class BeliefVector:
    """Information state: per-channel probability of being good."""

    omega: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.omega) < 1:
            raise ValueError("belief vector must have at least one entry")
        for i, w in enumerate(self.omega):
            _check_prob(w, f"omega[{i}]")

    @property
    def n(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class ActionSet:
    """A set of exactly k distinct 1-based channel indices to sense."""

    indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(self.indices))
        if len(set(idx)) != len(idx) or not idx:
            raise ValueError(f"action indices must be distinct and nonempty: {self.indices}")
        if idx[0] < 1:
            raise ValueError(f"channel indices are 1-based, got {self.indices}")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, n: int, k: Optional[int] = None) -> None:
        if self.indices[-1] > n:
            raise ValueError(f"action {self.indices} out of range for n={n}")
        if k is not None and len(self.indices) != k:
            raise ValueError(f"action {self.indices} does not have k={k} channels")

    @property
    def k(self) -> int:
        return len(self.indices)


def tau(omega: float, model: TransitionModel) -> float:
    """One-step belief propagation for an unobserved channel."""
    if not (-PROB_TOL <= omega <= 1.0 + PROB_TOL):
        raise ValueError(f"belief {omega!r} outside [0, 1]")
    omega = min(1.0, max(0.0, omega))
    return omega * model.p11 + (1.0 - omega) * model.p01


def tau_iterate(omega: float, model: TransitionModel, steps: int) -> float:
    """tau applied `steps` times; steps = 0 returns omega unchanged."""
    for _ in range(steps):
        omega = tau(omega, model)
    return omega
