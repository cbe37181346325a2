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

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Absolute tolerance for probability-domain and probability-sum checks.
PROB_TOL = 1e-12

#: Absolute tolerance for value (expected reward) comparisons.
VALUE_TOL = 1e-9


def _as_int(value, name: str, low: float = -math.inf, high: float = math.inf) -> int:
    """An integer input in [low, high] as a Python int (a numpy one would overflow the
    Philox key sums); a bool, a non-integer or one out of range raises ValueError."""
    if type(value) is not int:
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def _as_prob(value, name: str, tol: float = PROB_TOL) -> float:
    """A probability input in [-tol, 1 + tol] as a Python float; a bool, a non-number,
    NaN, a number past float range or one out of range raises ValueError."""
    try:
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError
            value = float(value)
        if -tol <= value <= 1.0 + tol:  # NaN fails
            return value
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def _as_belief(value, name: str) -> "BeliefVector":
    """A belief input, which must be a BeliefVector; anything else raises ValueError."""
    if not isinstance(value, BeliefVector):
        raise ValueError(f"{name} must be a BeliefVector, got {value!r}")
    return value


@dataclass(frozen=True)
class TransitionModel:
    """Markov law of a single channel: p01 = P(bad -> good), p11 = P(good -> good)."""

    p01: float
    p11: float

    # An __init__ of its own stores each field once: verify builds one per instance.
    def __init__(self, p01: float, p11: float) -> None:
        object.__setattr__(self, "p01", _as_prob(p01, "p01"))
        object.__setattr__(self, "p11", _as_prob(p11, "p11"))

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

    # Read in __init__, as TransitionModel is.
    def __init__(self, T: int, beta: float = 1.0) -> None:
        object.__setattr__(self, "T", _as_int(T, "T", 1))
        object.__setattr__(self, "beta", _as_prob(beta, "beta", 0.0))


@dataclass(frozen=True)
class BeliefVector:
    """Information state: per-channel probability of being good, held as a tuple of floats."""

    omega: Tuple[float, ...]

    def __post_init__(self) -> None:
        omega = tuple(_as_prob(w, f"omega[{i}]") for i, w in enumerate(self.omega))
        if not omega:
            raise ValueError("belief vector must have at least one entry")
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class ActionSet:
    """A set of exactly k distinct 1-based channel indices to sense."""

    indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(_as_int(i, "channel index", 1) for i in self.indices))
        if len(set(idx)) != len(idx) or not idx:
            raise ValueError(f"action indices must be distinct and nonempty: {self.indices}")
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
    omega = min(1.0, max(0.0, _as_prob(omega, "belief")))
    return omega * model.p11 + (1.0 - omega) * model.p01


def tau_iterate(omega: float, model: TransitionModel, steps: int) -> float:
    """tau applied `steps` times; steps = 0 returns omega unchanged."""
    for _ in range(_as_int(steps, "steps", 0)):
        omega = tau(omega, model)
    return omega
