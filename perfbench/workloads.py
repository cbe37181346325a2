"""The benchmark's four workloads, built from a seed.

A workload is a fixed list of items.  A pass runs every item once, in order,
each after the previous one finishes (a closed loop with one client); the
timed section repeats passes.  Every input an item hands to oppaccess is
drawn from the workload seed when the workload is built, and each item has a
check that judges its output against a reference computed after the timed
section.

Sizes are chosen so that one pass takes a few seconds at ``full`` scale and a
fraction of a second at ``tiny`` scale (used by the self-test).  The item
structure is the same at both scales.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, List, Optional

import numpy as np

from oppaccess import dp, model, policies, sim, verify

WORKLOADS = ("dp-solve", "sim-greedy", "sim-stateful", "verify-suite")

VALUE_TOL = 1e-9
SE_BAND = 4.0

P01, P11, BETA = 0.3, 0.8, 0.95


@dataclass
class Item:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not.

    ``check`` returns None for a correct output and a message otherwise.
    ``instance`` marks the items whose latencies feed the per-instance
    percentiles.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    instance: bool = True


def build(name: str, seed: int, scale: str, work_dir: str) -> List[Item]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if scale not in ("full", "tiny"):
        raise ValueError(f"unknown scale {scale!r}")
    rng = np.random.default_rng(seed % 2**64)
    tiny = scale == "tiny"
    if name == "dp-solve":
        return _dp_solve(rng, tiny)
    if name == "sim-greedy":
        return _sim_greedy(rng, tiny, work_dir)
    if name == "sim-stateful":
        return _sim_stateful(rng, tiny)
    return _verify_suite(rng, tiny, work_dir)


# -- references (computed after the timed section, on fresh solvers) --------


@lru_cache(maxsize=None)
def exact_value(p01, p11, T, beta, k, omega, which):
    """Exact optimal ("V") or greedy ("W") value of one instance from t=1."""
    solver = dp.FiniteHorizonSolver(model.TransitionModel(p01, p11), model.HorizonSpec(T, beta), k)
    belief = model.BeliefVector(omega)
    if which == "V":
        return solver.optimal_value(belief, 1).value
    return solver.greedy_value(belief, 1)


def open_loop_value(p01, p11, T, beta, omega, channel_weights):
    """Exact value of a policy whose choices ignore beliefs and observations.

    Sensing does not change the hidden chains, so channel i is good at slot t
    with probability tau^(t-1)(omega_i).  ``channel_weights(t)`` gives the
    expected number of times each channel is sensed at slot t.
    """
    m = model.TransitionModel(p01, p11)
    total = 0.0
    for t in range(1, T + 1):
        good = [model.tau_iterate(w, m, t - 1) for w in omega]
        total += beta ** (t - 1) * float(np.dot(channel_weights(t), good))
    return total


def _within_se(mean: float, se: float, ref: float) -> Optional[str]:
    if abs(mean - ref) <= SE_BAND * se + 1e-12:
        return None
    return f"mean {mean!r} is {abs(mean - ref) / max(se, 1e-300):.1f} SE from exact {ref!r}"


# -- dp-solve ------------------------------------------------------------------

# (n, k, T): deep cold V recursions at n 6-8, k 1-3, T 5-7.
_DP_LADDER = [
    (6, 1, 5), (6, 2, 5), (6, 3, 5), (6, 1, 7), (7, 1, 5), (7, 1, 6),
    (7, 2, 5), (8, 1, 5), (8, 1, 6), (8, 1, 7),
]
_DP_NEGATIVE = (6, 2, 5)
_DP_LADDER_TINY = [
    (3, 1, 2), (3, 2, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2), (4, 1, 3),
    (4, 2, 3), (5, 1, 2), (5, 2, 2), (5, 1, 3),
]
_DP_NEGATIVE_TINY = (4, 2, 3)


def _dp_solve(rng, tiny):
    ladder = _DP_LADDER_TINY if tiny else _DP_LADDER
    rungs = [(shape, P01, P11) for shape in ladder]
    rungs.append((_DP_NEGATIVE_TINY if tiny else _DP_NEGATIVE, P11, P01))
    items = []
    for (n, k, T), p01, p11 in rungs:
        omega = tuple(float(w) for w in rng.uniform(0.05, 0.95, n))
        positive = p11 >= p01

        def run(n=n, k=k, T=T, p01=p01, p11=p11, omega=omega):
            solver = dp.FiniteHorizonSolver(
                model.TransitionModel(p01, p11), model.HorizonSpec(T, BETA), k
            )
            belief = model.BeliefVector(omega)
            return solver.optimal_value(belief, 1).value, solver.greedy_value(belief, 1)

        def check(out, positive=positive):
            v, w = out
            if positive and abs(v - w) > VALUE_TOL:
                return f"V {v!r} != greedy W {w!r}"
            if not positive and v < w - VALUE_TOL:
                return f"V {v!r} < greedy W {w!r} in the negative regime"
            return None

        regime = "pos" if positive else "neg"
        items.append(Item(f"dp/{regime}/n{n}k{k}T{T}", run, check))
    return items


# -- sim-greedy ----------------------------------------------------------------

_SIM_CONFIGS = [(5, 2, 5), (4, 1, 6), (8, 3, 4)]


def _sim_config(n, k, T, omega, reps, seed, record=False):
    return sim.SimConfig(
        model.TransitionModel(P01, P11), model.HorizonSpec(T, BETA), n, k,
        model.BeliefVector(omega), reps, seed, record,
    )


def _sim_greedy(rng, tiny, work_dir):
    reps = 200 if tiny else 7_500
    trace_reps = 100 if tiny else 5_000
    items = []
    first = None
    for n, k, T in _SIM_CONFIGS:
        omega = tuple(float(w) for w in rng.uniform(0.05, 0.95, n))
        sim_seed = int(rng.integers(2**32))
        exact = (P01, P11, T, BETA, k, omega)
        if first is None:
            first = (n, k, T, omega, sim_seed)
        policy_makers = {
            "greedy": lambda n=n, k=k: policies.GreedyPolicy(k),
            "random": lambda n=n, k=k: policies.UniformRandomPolicy(n, k),
            "round-robin": lambda n=n, k=k: policies.RoundRobinPolicy(n, k),
        }
        for pname, make in policy_makers.items():

            def run(n=n, k=k, T=T, omega=omega, sim_seed=sim_seed, make=make):
                summary = sim.simulate(_sim_config(n, k, T, omega, reps, sim_seed), make())
                return summary.mean, summary.std_error

            def check(out, pname=pname, exact=exact, n=n):
                return _within_se(out[0], out[1], _sim_reference(pname, exact, n))

            items.append(Item(f"simulate/{pname}/n{n}k{k}T{T}", run, check))

    n, k, T, omega, sim_seed = first
    exact = (P01, P11, T, BETA, k, omega)

    def run_compare():
        paired = sim.common_random_numbers_compare(
            _sim_config(n, k, T, omega, reps, sim_seed),
            policies.GreedyPolicy(k),
            policies.RoundRobinPolicy(n, k),
        )
        return paired.mean_a, paired.mean_b, paired.mean_diff, paired.se_diff

    def check_compare(out):
        mean_a, mean_b, mean_diff, se_diff = out
        if abs(mean_diff - (mean_a - mean_b)) > 1e-12:
            return f"mean_diff {mean_diff!r} != mean_a - mean_b {mean_a - mean_b!r}"
        ref = _sim_reference("greedy", exact, n) - _sim_reference("round-robin", exact, n)
        return _within_se(mean_diff, se_diff, ref)

    items.append(Item(f"compare/greedy-vs-round-robin/n{n}k{k}T{T}", run_compare, check_compare))

    trace_path = os.path.join(work_dir, "traces_greedy.jsonl")

    def run_traced():
        summary = sim.simulate(
            _sim_config(n, k, T, omega, trace_reps, sim_seed, record=True),
            policies.GreedyPolicy(k),
        )
        sim.write_traces(trace_path, summary.traces)
        return summary.mean, summary.std_error, os.path.getsize(trace_path)

    def check_traced(out):
        with open(trace_path) as f:
            lines = f.readlines()
        if len(lines) != trace_reps * T:
            return f"trace file has {len(lines)} records, expected {trace_reps * T}"
        if set(json.loads(lines[0])) != {"v", "rep", "t", "states", "action", "obs", "reward"}:
            return f"unexpected trace record {lines[0]!r}"
        return _within_se(out[0], out[1], _sim_reference("greedy", exact, n))

    items.append(Item(f"traced/greedy/n{n}k{k}T{T}", run_traced, check_traced))
    return items


def _sim_reference(pname, exact, n):
    """Exact expected value of a sim-greedy policy on one config."""
    p01, p11, T, beta, k, omega = exact
    if pname == "greedy":
        return exact_value(*exact, "W")
    if pname == "random":
        return open_loop_value(p01, p11, T, beta, omega, lambda t: np.full(n, k / n))

    def round_robin(t):
        weights = np.zeros(n)
        idx = policies.RoundRobinPolicy(n, k).action(omega, t).indices
        weights[[i - 1 for i in idx]] = 1.0
        return weights

    return open_loop_value(p01, p11, T, beta, omega, round_robin)


# -- sim-stateful --------------------------------------------------------------

_STATEFUL_CONFIGS = [(5, 2, 5), (4, 1, 6), (6, 3, 4), (5, 1, 5), (6, 2, 4), (4, 2, 6)]
_STATEFUL_CONFIGS_TINY = [(3, 1, 3), (3, 2, 3), (4, 1, 2), (4, 2, 3), (3, 1, 4), (4, 2, 2)]


def _sim_stateful(rng, tiny):
    configs = _STATEFUL_CONFIGS_TINY if tiny else _STATEFUL_CONFIGS
    ol_reps = 100 if tiny else 3_000
    opt_reps = 30 if tiny else 300
    items = []
    for n, k, T in configs:
        omega = tuple(float(w) for w in rng.uniform(0.05, 0.95, n))
        sim_seed = int(rng.integers(2**32))
        exact = (P01, P11, T, BETA, k, omega)
        horizon = model.HorizonSpec(T, BETA)
        makers = {
            # Started from the ascending order of the initial belief, the
            # ordered list realises greedy when p11 >= p01, so its reference
            # is the greedy value.  Its totals are not compared with greedy's
            # array for array: for k >= 2 the two break ties differently.
            "ordered-list": (lambda k=k: policies.OrderedListPolicy(k), ol_reps, "W"),
            "optimal": (
                lambda k=k, horizon=horizon: policies.OptimalPolicy(
                    model.TransitionModel(P01, P11), horizon, k
                ),
                opt_reps,
                "V",
            ),
        }
        for pname, (make, reps, which) in makers.items():

            def run(n=n, k=k, T=T, omega=omega, sim_seed=sim_seed, make=make, reps=reps):
                summary = sim.simulate(_sim_config(n, k, T, omega, reps, sim_seed), make())
                return summary.mean, summary.std_error

            def check(out, exact=exact, which=which):
                return _within_se(out[0], out[1], exact_value(*exact, which))

            items.append(Item(f"simulate/{pname}/n{n}k{k}T{T}", run, check))
    return items


# -- verify-suite --------------------------------------------------------------

# The acceptance suite's ranges: the V-bound properties up to n=5, T=5; the
# W-bound properties up to n=8, T=8.  Every (n, k, T) in range is one item,
# except the costliest W corner (lemma2 loops over all C(n, k) first actions),
# which would make one pass several times longer and dominate its time.
_V_PROPS = ("theorem1", "negative-scan")
_SORTED_PROPS = ("lemma3A", "lemma3B", "lemma2")
#: Property id (as the CLI names it) -> public check function in oppaccess.verify.
VERIFY_FUNCTIONS = {
    "theorem1": "check_theorem1",
    "lemma3A": "check_lemma3_A",
    "lemma3B": "check_lemma3_B",
    "lemma2": "check_lemma2_reduction",
    "affinity": "check_affinity",
    "negative-scan": "scan_negative_regime",
}


def _verify_shapes(prop: str, tiny: bool):
    if tiny:
        n_max, t_max, nt_max = 3, 3, 6
    elif prop in _V_PROPS:
        n_max, t_max, nt_max = 5, 5, 10
    else:
        n_max, t_max, nt_max = 8, 8, 12 if prop == "lemma2" else 14
    return [
        (n, k, T)
        for n in range(2, n_max + 1)
        for k in range(1, n + 1)
        for T in range(1, t_max + 1)
        if n + T <= nt_max
    ]


def _verify_suite(rng, tiny, work_dir):
    items = []
    for prop, fn_name in VERIFY_FUNCTIONS.items():
        for n, k, T in _verify_shapes(prop, tiny):
            sampler = verify.InstanceSampler(
                seed=int(rng.integers(2**63)),
                regime="negative" if prop == "negative-scan" else "positive",
                n_range=(n, n),
                T_range=(T, T),
                k_range=(k, k),
                sorted_beliefs=prop in _SORTED_PROPS,
            )

            def run(fn_name=fn_name, sampler=sampler):
                result = getattr(verify, fn_name)(sampler, 1)
                if fn_name == "scan_negative_regime":
                    return result.scanned, len(result.findings), len(result.errors)
                errors = sum(1 for v in result if v.error is not None)
                return len(result) - errors, errors

            def check(out, prop=prop):
                if prop == "negative-scan":
                    scanned, _findings, errors = out
                    if scanned != 1 or errors:
                        return f"negative scan: scanned={scanned} errors={errors}"
                    return None
                violations, errors = out
                if violations or errors:
                    return f"{prop}: {violations} violations, {errors} resource errors"
                return None

            items.append(Item(f"verify/{prop}/n{n}k{k}T{T}", run, check))
    items.append(_cli_item(int(rng.integers(2**31)), tiny, work_dir))
    return items


_CLI_ARTIFACTS = ("results.csv", "violations.json", "negative_scan.json")


def _run_cli(config_path: str, out_dir: str):
    """One in-process ``oppaccess run``; returns (exit code, artifact digests)."""
    from oppaccess import cli

    args = ["run", config_path, "--out-dir", out_dir]
    with redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="oppaccess", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    digests = []
    for name in _CLI_ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    return code, tuple(digests)


def _cli_item(cli_seed: int, tiny: bool, work_dir: str) -> Item:
    import oppaccess.cli  # noqa: F401  (the CLI's import cost belongs to set-up)

    # README-style verify config, at a count that keeps it a small share of a pass.
    config = {
        "kind": "verify",
        "seed": cli_seed,
        "verify": {
            "properties": list(VERIFY_FUNCTIONS),
            "count": 3 if tiny else 10,
            "n_max": 3 if tiny else 4,
            "T_max": 3 if tiny else 4,
        },
    }
    config_path = os.path.join(work_dir, "verify.yaml")
    with open(config_path, "w") as f:
        json.dump(config, f)  # JSON is valid YAML
    out_dir = os.path.join(work_dir, "cli_out")
    reference = []

    def run():
        return _run_cli(config_path, out_dir)

    def check(out):
        code, digests = out
        if code != 0:
            return f"oppaccess run exited {code}"
        if not reference:
            reference.append(_run_cli(config_path, os.path.join(work_dir, "cli_rerun"))[1])
        if digests != reference[0]:
            return "CLI artifacts differ between two invocations with the same config"
        return None

    return Item("cli/run/verify", run, check, instance=False)
