"""Numerical verification harness for the greedy-optimality results.

Each check turns one of the proved statements into an executable property
over randomly sampled problem instances:

* greedy/optimal equivalence when p11 >= p01: in value at the root, and in
  action at every node of the root's V graph,
* the cyclic-shift bound  1 + W(w2..wn, w1) >= W(w1..wn),
* the adjacent-swap inequality  W(..y,x..) >= W(..x,y..) for x >= y,
* the reduction from arbitrary first actions to sorted order,
* the per-variable affinity identity of W (any regime),
* an empirical scan of the negatively-correlated regime, where nothing is
  proved and findings are reported without interpretation.

Every instance is reproducible from (sampler seed, instance index); checks
return machine-readable violation reports.  Every check runs the same loop:
a per-instance body returns that instance's reports, and the reports are
concatenated in instance order.  The shift, swap and reduction statements are
about sorted vectors, so those three checks sort each instance's beliefs
themselves and report the sorted instance; a sampler's ``sorted_beliefs``
sorts through the same rule (``_sorted``) and matters only to the
theorem-1, affinity and negative-regime checks.  The
W-based checks (shift, swap, reduction) evaluate all of an instance's
vectors, for every t, in one ``dp.w_table`` call; the affinity check, which
needs one t, makes its call over the slots left from that t.  The theorem-1
check and the negative-regime scan make one V solve per instance with
``FiniteHorizonSolver``, whose greedy audit comes from the same solve:
greedy's regret at every node of the root's V graph (theorem 1, action
level) and greedy's own value (the scan).  The theorem-1 value check also
reads W on the sorted belief.

``max_states`` caps each state graph's node count: the W graph of an
instance's (n, k, H), where H is T-1, or 0 when beta = 0 and W reads no
child, and a solver's V graph.  The same cap bounds C(n, k), checked before
a V solve or the lemma-2 check lists the sensing sets.  An instance over a
cap, or one whose arrays numpy refuses to allocate (``MemoryError``), is
reported as one ``<property>/resource`` error in place of its body's
reports, and the run goes on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import VALUE_TOL, BeliefVector, HorizonSpec, TransitionModel, _as_int, tau_iterate
from .dp import (
    DEFAULT_MAX_STATES,
    FiniteHorizonSolver,
    ResourceLimitError,
    _INT64_MAX,
    _MAX_FLOATS,
    _check_addressable,
    _selection_arrays,
    selection_count,
    w_graph_nodes,
    w_table,
)
from .policies import greedy_action  # noqa: F401  (perfbench's tracer patches it here)

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

    def solver(self, max_states: int = DEFAULT_MAX_STATES) -> FiniteHorizonSolver:
        return FiniteHorizonSolver(self.model, self.horizon, self.k, max_states)

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

    Each range is (low, high), both drawn: integers with 1 <= low <= high <=
    2**63 - 1, and n_range's low end at most the float64 entries one array
    can address.  Any other range raises ValueError naming its field.  A
    drawn n past that limit raises MemoryError, the failed allocation it is;
    callers bound n (the CLI checks n_max against its cap before any draw).
    """

    seed: int
    regime: str = "positive"  # positive | negative | boundary
    n_range: Tuple[int, int] = (2, 5)
    T_range: Tuple[int, int] = (1, 5)
    k_range: Optional[Tuple[int, int]] = None  # default: 1..n per instance
    sorted_beliefs: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        for name in ("n_range", "T_range", "k_range"):
            bounds = getattr(self, name)
            if name == "k_range" and bounds is None:
                continue
            try:
                low, high = bounds
                low = _as_int(low, name, 1, _INT64_MAX)
                object.__setattr__(self, name, (low, _as_int(high, name, low, _INT64_MAX)))
            except (TypeError, ValueError):
                raise ValueError(
                    f"{name} must be two integers with 1 <= low <= high <= 2**63 - 1, got {bounds!r}"
                ) from None
        if self.n_range[0] > _MAX_FLOATS:
            raise ValueError(
                f"n_range draws at least {self.n_range[0]} belief entries, "
                f"more than one array can address ({_MAX_FLOATS})"
            )

    def rng_for(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _as_int(index, "index", 0)])

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
        return tuple(float(w) for w in omega)

    def instance(self, index: int) -> Instance:
        rng = self.rng_for(index)
        n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        _check_addressable(n)
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
        inst = Instance(index, n, k, T, beta, p01, p11, omega)
        return _sorted(inst) if self.sorted_beliefs else inst

    def instances(self, count: int) -> Iterator[Instance]:
        return map(self.instance, range(_as_int(count, "count", 0)))


def _reports(
    prop: str,
    instances: Iterable[Instance],
    body: Callable[[Instance], List[ViolationReport]],
) -> List[ViolationReport]:
    """`body`'s reports for each instance, concatenated in instance order.

    An instance over a cap, or whose arrays numpy cannot allocate, gets the
    single report ``<prop>/resource`` instead.
    """
    out: List[ViolationReport] = []
    for inst in instances:
        try:
            out += body(inst)
        except (ResourceLimitError, MemoryError) as exc:
            out.append(
                ViolationReport(f"{prop}/resource", inst, error=f"{type(exc).__name__}: {exc}")
            )
    return out


def _sorted(inst: Instance) -> Instance:
    """The instance with its beliefs sorted ascending."""
    omega = tuple(sorted(inst.omega))
    return inst if omega == inst.omega else replace(inst, omega=omega)


def check_theorem1(
    sampler: InstanceSampler, count: int, max_states: int = DEFAULT_MAX_STATES
) -> List[ViolationReport]:
    """Theorem 1 (p11 >= p01) from one V solve per instance.

    ``theorem1/value``: W on the sorted belief equals V at the root.
    ``theorem1/action``: at every node of the root's V graph, every greedy
    choice (each selection whose one-step reward ties the best within 1e-12)
    attains the largest Q within ``VALUE_TOL``.  The solver's greedy audit
    gives the worst node's regret, so an instance gets at most one report,
    at that node.
    """
    if sampler.regime == "negative":
        raise ValueError("theorem-1 check requires p11 >= p01 (positive or boundary regime)")

    def body(inst: Instance) -> List[ViolationReport]:
        out = []
        solver = inst.solver(max_states)
        belief = BeliefVector(inst.omega)
        gv = solver.greedy_value(belief, 1)
        ov = solver.optimal_value(belief, 1).value
        if abs(gv - ov) > VALUE_TOL:
            out.append(ViolationReport("theorem1/value", inst, gv, ov, abs(gv - ov), VALUE_TOL))
        audit = solver.greedy_audit(belief, 1)
        if audit.regret > VALUE_TOL:
            out.append(
                ViolationReport(
                    "theorem1/action",
                    inst,
                    gap=audit.regret,
                    tolerance=VALUE_TOL,
                    detail=f"t={audit.t} omega={audit.omega}",
                )
            )
        return out

    return _reports("theorem1", sampler.instances(count), body)


def check_lemma3_A(
    sampler: InstanceSampler, count: int, max_states: int = DEFAULT_MAX_STATES
) -> List[ViolationReport]:
    """1 + W(w2..wn, w1) >= W(w1..wn) on ascending-sorted beliefs, all t."""

    def body(inst: Instance) -> List[ViolationReport]:
        omega = inst.omega
        rotated = omega[1:] + omega[:1]
        table = w_table(inst.model, inst.horizon, inst.k, [rotated, omega], max_states)
        out = []
        for t, (w_rotated, rhs) in enumerate(table.tolist(), start=1):
            lhs = 1.0 + w_rotated
            if lhs < rhs - VALUE_TOL:
                out.append(
                    ViolationReport(
                        "lemma3A", inst, lhs, rhs, rhs - lhs, VALUE_TOL, detail=f"t={t}"
                    )
                )
        return out

    return _reports("lemma3A", map(_sorted, sampler.instances(count)), body)


def check_lemma3_B(
    sampler: InstanceSampler, count: int, max_states: int = DEFAULT_MAX_STATES
) -> List[ViolationReport]:
    """W(..y,x..) >= W(..x,y..) for x >= y at every position j and every t,
    on ascending-sorted beliefs."""

    def body(inst: Instance) -> List[ViolationReport]:
        if inst.n < 2:  # no adjacent pair: vacuous
            return []
        omega = inst.omega
        rng = np.random.default_rng([sampler.seed, inst.index, 3])
        a, b = rng.random(), rng.random()
        x, y = max(a, b), min(a, b)
        vectors = []
        for j in range(inst.n - 1):
            vectors.append(omega[:j] + (y, x) + omega[j + 2 :])
            vectors.append(omega[:j] + (x, y) + omega[j + 2 :])
        table = w_table(inst.model, inst.horizon, inst.k, vectors, max_states).tolist()
        out = []
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

    return _reports("lemma3B", map(_sorted, sampler.instances(count)), body)


def check_lemma2_reduction(
    sampler: InstanceSampler, count: int, max_states: int = DEFAULT_MAX_STATES
) -> List[ViolationReport]:
    """Any first action followed by list play is dominated by sorted order:
    W(complement-sorted, a) <= W(sorted), with equality for the greedy set."""

    def body(inst: Instance) -> List[ViolationReport]:
        # The caps apply before the C(n, k) + 1 vectors are built.
        w_graph_nodes(inst.n, inst.k, inst.horizon, max_states)
        selection_count(inst.n, inst.k, max_states)
        om = np.array(inst.omega)
        sel_pos, comp_pos = _selection_arrays(inst.n, inst.k)
        # Row 0 is the sorted vector; row 1 + c senses selection c first.
        vectors = np.concatenate(
            (om[None, :], np.concatenate((om[comp_pos], om[sel_pos]), axis=1))
        )
        table = w_table(inst.model, inst.horizon, inst.k, vectors, max_states)
        out = []
        for t, (rhs, *firsts) in enumerate(table.tolist(), start=1):
            for c, lhs in enumerate(firsts):
                if lhs > rhs + VALUE_TOL:
                    sel = tuple(sel_pos[c].tolist())
                    out.append(
                        ViolationReport(
                            "lemma2", inst, lhs, rhs, lhs - rhs, VALUE_TOL,
                            detail=f"t={t} first_action={sel}",
                        )
                    )
        return out

    return _reports("lemma2", map(_sorted, sampler.instances(count)), body)


def check_affinity(
    sampler: InstanceSampler, count: int, max_states: int = DEFAULT_MAX_STATES
) -> List[ViolationReport]:
    """Per-variable affinity of W: swap identity plus three-point collinearity.

    The swap identity W(..y,x..) - W(..x,y..) = (x - y) * [W(..0,1..) -
    W(..1,0..)] follows from W being affine in each entry.  Holds in every
    correlation regime; checked at tolerance 1e-12.
    """

    def body(inst: Instance) -> List[ViolationReport]:
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
        # The cap counts the whole (n, k, T) graph, as in the other W checks,
        # but W_t is the first row of the table over the T - t + 1 slots left.
        w_graph_nodes(inst.n, inst.k, inst.horizon, max_states)
        horizon = HorizonSpec(inst.T - t + 1, inst.beta)
        row = w_table(inst.model, horizon, inst.k, vectors, max_states)[0].tolist()
        out = []
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

    return _reports("affinity", sampler.instances(count), body)


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
    sampler: InstanceSampler, count: int, max_states: int = DEFAULT_MAX_STATES
) -> NegativeScanReport:
    """Report instances where greedy is strictly suboptimal under p11 < p01.

    A finding's lhs is greedy's own value (the solver's greedy audit), its
    rhs V, and its gap V minus that value.
    """
    if sampler.regime != "negative":
        raise ValueError("negative-regime scan requires the negative regime")
    count = _as_int(count, "count", 0)

    def body(inst: Instance) -> List[ViolationReport]:
        solver = inst.solver(max_states)
        belief = BeliefVector(inst.omega)
        ov = solver.optimal_value(belief, 1).value
        gv = solver.greedy_audit(belief, 1).value
        if gv < ov - VALUE_TOL:
            return [ViolationReport("negative-scan/gap", inst, gv, ov, ov - gv, VALUE_TOL)]
        return []

    reports = _reports("negative-scan", sampler.instances(count), body)
    return NegativeScanReport(
        count,
        tuple(r for r in reports if r.error is None),
        tuple(r for r in reports if r.error is not None),
    )


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
