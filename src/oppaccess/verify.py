"""Numerical verification harness for the greedy-optimality results.

Each check turns one of the proved statements into an executable property
over randomly sampled problem instances:

* greedy/optimal equivalence (value level and first-action level) when
  p11 >= p01,
* the cyclic-shift bound  1 + W(w2..wn, w1) >= W(w1..wn),
* the adjacent-swap inequality  W(..y,x..) >= W(..x,y..) for x >= y,
* the reduction from arbitrary first actions to sorted order,
* the per-variable affinity identity of W (any regime),
* an empirical scan of the negatively-correlated regime, where nothing is
  proved and findings are reported without interpretation.

Every instance is reproducible from (sampler seed, instance index); checks
return machine-readable violation reports.  The W-based checks (shift, swap,
reduction, affinity) evaluate all of an instance's vectors, for every t, in
one ``dp.w_table`` call; the theorem-1 check and the negative-regime scan use
``FiniteHorizonSolver``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import BeliefVector, HorizonSpec, TransitionModel, enumerate_actions, tau_iterate
from .dp import FiniteHorizonSolver, ResourceLimitError, w_table
from .policies import all_greedy_actions, greedy_action

VALUE_TOL = 1e-9
IDENTITY_TOL = 1e-12

#: Correlation regimes an InstanceSampler can draw models from.
REGIMES = ("positive", "negative", "boundary")


@dataclass(frozen=True)
class Instance:
    """A fully specified problem instance; reproducible from (seed, index)."""

    index: int
    n: int
    k: int
    T: int
    beta: float
    p01: float
    p11: float
    omega: Tuple[float, ...]

    @property
    def model(self) -> TransitionModel:
        return TransitionModel(self.p01, self.p11)

    @property
    def horizon(self) -> HorizonSpec:
        return HorizonSpec(self.T, self.beta)

    def solver(self, max_states: int = 10_000_000) -> FiniteHorizonSolver:
        return FiniteHorizonSolver(self.model, self.horizon, self.k, max_states)

    def w_table(
        self, vectors: Sequence[Sequence[float]], max_states: int = 10_000_000
    ) -> List[List[float]]:
        """W_t of every vector under this instance's model; row t-1 holds W_t."""
        return w_table(self.model, self.horizon, self.k, vectors, max_states).tolist()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ViolationReport:
    """One property failure (or per-instance solver error) with reproduction data."""

    property_id: str
    instance: Instance
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    gap: Optional[float] = None
    tolerance: Optional[float] = None
    detail: str = ""
    error: Optional[str] = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["instance"] = self.instance.to_dict()
        return d


@dataclass(frozen=True)
class InstanceSampler:
    """Random instance generator with a correlation-regime selector.

    Beliefs are drawn from a stratified mixture: uniform, sorted uniform,
    products of tau-iterates of p01/p11 (the reachable set), and
    boundary-heavy vectors with entries in {0, p01, stationary, p11, 1} --
    the strata the optimality proof's case analysis pivots on.
    """

    seed: int
    regime: str = "positive"  # positive | negative | boundary
    n_range: Tuple[int, int] = (2, 5)
    T_range: Tuple[int, int] = (1, 5)
    k_range: Optional[Tuple[int, int]] = None  # default: 1..n per instance
    sorted_beliefs: bool = False

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")

    def rng_for(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def _draw_model(self, rng: np.random.Generator) -> Tuple[float, float]:
        a, b = rng.random(), rng.random()
        lo, hi = min(a, b), max(a, b)
        if self.regime == "positive":
            return lo, hi  # p01 <= p11
        if self.regime == "negative":
            if lo == hi:
                hi = min(1.0, hi + 0.5 * (1.0 - hi) + 1e-3)
            return hi, lo  # p01 > p11
        return a, a  # boundary: iid channels

    def _draw_belief(self, rng: np.random.Generator, n: int, p01: float, p11: float):
        model = TransitionModel(p01, p11)
        stratum = rng.integers(4)
        if stratum == 0:
            omega = rng.random(n)
        elif stratum == 1:
            omega = np.sort(rng.random(n))
        elif stratum == 2:
            bases = [p01, p11]
            omega = np.array(
                [
                    tau_iterate(bases[rng.integers(2)], model, int(rng.integers(5)))
                    for _ in range(n)
                ]
            )
        else:
            try:
                star = model.stationary_belief()
            except ValueError:
                star = 0.5
            pool = [0.0, p01, star, p11, 1.0]
            omega = np.array([pool[rng.integers(len(pool))] for _ in range(n)])
        if self.sorted_beliefs:
            omega = np.sort(omega)
        return tuple(float(w) for w in omega)

    def instance(self, index: int) -> Instance:
        rng = self.rng_for(index)
        n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        if self.k_range is None:
            k = int(rng.integers(1, n + 1))
        else:
            lo, hi = min(self.k_range[0], n), min(self.k_range[1], n)
            k = int(rng.integers(lo, hi + 1))
        T = int(rng.integers(self.T_range[0], self.T_range[1] + 1))
        u = rng.random()
        beta = 0.0 if u < 0.15 else (1.0 if u < 0.3 else rng.random())
        p01, p11 = self._draw_model(rng)
        omega = self._draw_belief(rng, n, p01, p11)
        return Instance(index, n, k, T, beta, p01, p11, omega)

    def instances(self, count: int):
        for i in range(count):
            yield self.instance(i)


def _resource_report(property_id: str, inst: Instance, exc: Exception) -> ViolationReport:
    return ViolationReport(property_id, inst, error=f"{type(exc).__name__}: {exc}")


def _greedy_reachable_states(inst: Instance) -> Dict[int, set]:
    """t -> the beliefs reachable at time t from the initial belief under greedy play."""
    states = {1: {inst.omega}}
    model = inst.model
    for t in range(1, inst.T):
        nxt = set()
        for omega in states[t]:
            action = greedy_action(omega, inst.k)
            for bits in np.ndindex(*([2] * inst.k)):
                bit = dict(zip(action.indices, bits))
                child = tuple(
                    (model.p11 if bit[i] else model.p01)
                    if i in bit
                    else float(w * model.p11 + (1.0 - w) * model.p01)
                    for i, w in enumerate(omega, start=1)
                )
                nxt.add(child)
        states[t + 1] = nxt
    return states


def check_theorem1(
    sampler: InstanceSampler, count: int, max_states: int = 10_000_000
) -> List[ViolationReport]:
    """Greedy equals optimal in value, and the greedy set attains the DP max
    at every state reachable under greedy play (p11 >= p01)."""
    if sampler.regime == "negative":
        raise ValueError("theorem-1 check requires p11 >= p01 (positive or boundary regime)")
    out: List[ViolationReport] = []
    for inst in sampler.instances(count):
        try:
            solver = inst.solver(max_states)
            belief = BeliefVector(inst.omega)
            gv = solver.greedy_value(belief, 1)
            ov = solver.optimal_value(belief, 1).value
            if abs(gv - ov) > VALUE_TOL:
                out.append(
                    ViolationReport(
                        "theorem1/value", inst, gv, ov, abs(gv - ov), VALUE_TOL
                    )
                )
            actions = enumerate_actions(inst.n, inst.k)
            for t, omegas in _greedy_reachable_states(inst).items():
                omegas = list(omegas)
                table = solver.action_value_table([BeliefVector(o) for o in omegas], t)
                for omega, row in zip(omegas, table.tolist()):
                    qs = dict(zip(actions, row))
                    best = max(row)
                    for ga in all_greedy_actions(omega, inst.k):
                        if qs[ga] < best - VALUE_TOL:
                            out.append(
                                ViolationReport(
                                    "theorem1/action",
                                    inst,
                                    qs[ga],
                                    best,
                                    best - qs[ga],
                                    VALUE_TOL,
                                    detail=f"t={t} omega={omega} action={ga.indices}",
                                )
                            )
        except ResourceLimitError as exc:
            out.append(_resource_report("theorem1/resource", inst, exc))
    return out


def check_lemma3_A(
    sampler: InstanceSampler, count: int, max_states: int = 10_000_000
) -> List[ViolationReport]:
    """1 + W(w2..wn, w1) >= W(w1..wn) on ascending-sorted beliefs, all t."""
    out: List[ViolationReport] = []
    for inst in sampler.instances(count):
        omega = tuple(sorted(inst.omega))
        rotated = omega[1:] + omega[:1]
        try:
            table = inst.w_table([rotated, omega], max_states)
        except ResourceLimitError as exc:
            out.append(_resource_report("lemma3A/resource", inst, exc))
            continue
        for t, (w_rotated, rhs) in enumerate(table, start=1):
            lhs = 1.0 + w_rotated
            if lhs < rhs - VALUE_TOL:
                out.append(
                    ViolationReport(
                        "lemma3A", inst, lhs, rhs, rhs - lhs, VALUE_TOL,
                        detail=f"t={t}",
                    )
                )
    return out


def check_lemma3_B(
    sampler: InstanceSampler, count: int, max_states: int = 10_000_000
) -> List[ViolationReport]:
    """W(..y,x..) >= W(..x,y..) for x >= y at every position j and every t."""
    out: List[ViolationReport] = []
    for inst in sampler.instances(count):
        omega = tuple(sorted(inst.omega))
        rng = np.random.default_rng([sampler.seed, inst.index, 3])
        a, b = rng.random(), rng.random()
        x, y = max(a, b), min(a, b)
        vectors = []
        for j in range(inst.n - 1):
            vectors.append(omega[:j] + (y, x) + omega[j + 2 :])
            vectors.append(omega[:j] + (x, y) + omega[j + 2 :])
        try:
            table = inst.w_table(vectors, max_states)
        except ResourceLimitError as exc:
            out.append(_resource_report("lemma3B/resource", inst, exc))
            continue
        for j in range(inst.n - 1):
            for t, row in enumerate(table, start=1):
                lhs, rhs = row[2 * j], row[2 * j + 1]
                if lhs < rhs - VALUE_TOL:
                    out.append(
                        ViolationReport(
                            "lemma3B", inst, lhs, rhs, rhs - lhs, VALUE_TOL,
                            detail=f"t={t} j={j} x={x} y={y}",
                        )
                    )
    return out


def check_lemma2_reduction(
    sampler: InstanceSampler, count: int, max_states: int = 10_000_000
) -> List[ViolationReport]:
    """Any first action followed by list play is dominated by sorted order:
    W(complement-sorted, a) <= W(sorted), with equality for the greedy set."""
    out: List[ViolationReport] = []
    for inst in sampler.instances(count):
        omega = tuple(sorted(inst.omega))
        selections = list(itertools.combinations(range(inst.n), inst.k))
        vectors = [omega]
        for sel in selections:
            sel_set = set(sel)
            rest = tuple(omega[i] for i in range(inst.n) if i not in sel_set)
            vectors.append(rest + tuple(omega[i] for i in sel))
        try:
            table = inst.w_table(vectors, max_states)
        except ResourceLimitError as exc:
            out.append(_resource_report("lemma2/resource", inst, exc))
            continue
        for t, (rhs, *firsts) in enumerate(table, start=1):
            for sel, lhs in zip(selections, firsts):
                if lhs > rhs + VALUE_TOL:
                    out.append(
                        ViolationReport(
                            "lemma2", inst, lhs, rhs, lhs - rhs, VALUE_TOL,
                            detail=f"t={t} first_action={sel}",
                        )
                    )
    return out


def check_affinity(
    sampler: InstanceSampler, count: int, max_states: int = 10_000_000
) -> List[ViolationReport]:
    """Per-variable affinity of W: swap identity plus three-point collinearity.

    The swap identity W(..y,x..) - W(..x,y..) = (x - y) * [W(..0,1..) -
    W(..1,0..)] follows from W being affine in each entry.  Holds in every
    correlation regime; checked at tolerance 1e-12.
    """
    out: List[ViolationReport] = []
    for inst in sampler.instances(count):
        rng = np.random.default_rng([sampler.seed, inst.index, 5])
        omega = inst.omega
        t = int(rng.integers(1, inst.T + 1))
        vectors = []
        if inst.n >= 2:
            j = int(rng.integers(0, inst.n - 1))
            x, y = float(rng.random()), float(rng.random())
            for a, b in ((y, x), (x, y), (0.0, 1.0), (1.0, 0.0)):
                vectors.append(omega[:j] + (a, b) + omega[j + 2 :])
        # Three-point collinearity in a random coordinate.
        i = int(rng.integers(inst.n))
        v0, v1 = float(rng.random()), float(rng.random())
        for v in (v0, v1, 0.5 * (v0 + v1)):
            vectors.append(omega[:i] + (v,) + omega[i + 1 :])
        try:
            row = inst.w_table(vectors, max_states)[t - 1]
        except ResourceLimitError as exc:
            out.append(_resource_report("affinity/resource", inst, exc))
            continue
        if inst.n >= 2:
            w_yx, w_xy, w_01, w_10 = row[:4]
            lhs = w_yx - w_xy
            rhs = (x - y) * (w_01 - w_10)
            if abs(lhs - rhs) > IDENTITY_TOL:
                out.append(
                    ViolationReport(
                        "affinity/swap", inst, lhs, rhs, abs(lhs - rhs),
                        IDENTITY_TOL, detail=f"t={t} j={j} x={x} y={y}",
                    )
                )
        vals = row[-3:]
        resid = abs(vals[2] - 0.5 * (vals[0] + vals[1]))
        if resid > IDENTITY_TOL:
            out.append(
                ViolationReport(
                    "affinity/collinear", inst, vals[2],
                    0.5 * (vals[0] + vals[1]), resid, IDENTITY_TOL,
                    detail=f"t={t} coord={i} v0={v0} v1={v1}",
                )
            )
    return out


@dataclass(frozen=True)
class NegativeScanReport:
    """Empirical findings in the unproved p11 < p01 regime; no claim attached."""

    scanned: int
    findings: Tuple[ViolationReport, ...]
    errors: Tuple[ViolationReport, ...]

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "findings": [f.to_dict() for f in self.findings],
            "errors": [e.to_dict() for e in self.errors],
        }


def scan_negative_regime(
    sampler: InstanceSampler, count: int, max_states: int = 10_000_000
) -> NegativeScanReport:
    """Report instances where greedy is strictly suboptimal under p11 < p01."""
    if sampler.regime != "negative":
        raise ValueError("negative-regime scan requires the negative regime")
    findings: List[ViolationReport] = []
    errors: List[ViolationReport] = []
    for inst in sampler.instances(count):
        try:
            solver = inst.solver(max_states)
            belief = BeliefVector(inst.omega)
            gv = solver.greedy_value(belief, 1)
            ov = solver.optimal_value(belief, 1).value
            if gv < ov - VALUE_TOL:
                findings.append(
                    ViolationReport(
                        "negative-scan/gap", inst, gv, ov, ov - gv, VALUE_TOL
                    )
                )
        except ResourceLimitError as exc:
            errors.append(_resource_report("negative-scan/resource", inst, exc))
    return NegativeScanReport(count, tuple(findings), tuple(errors))


def violations_to_json(violations: Sequence[ViolationReport]) -> str:
    """One JSON record per violation, newline-delimited."""
    return "\n".join(json.dumps(v.to_dict(), sort_keys=True) for v in violations)


def summary_table(results: Dict[str, Sequence[ViolationReport]]) -> str:
    """Human-readable pass/fail table over named check results."""
    lines = [f"{'property':<24}{'violations':>12}  status"]
    for name, viols in results.items():
        real = [v for v in viols if v.error is None]
        errs = [v for v in viols if v.error is not None]
        status = "PASS" if not real else "FAIL"
        if errs:
            status += f" ({len(errs)} errors)"
        lines.append(f"{name:<24}{len(real):>12}  {status}")
    return "\n".join(lines)
