"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy criteria (1-5) sample thousands of
instances; the whole suite targets a few minutes on a laptop.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from oppaccess import (
    BeliefVector,
    FiniteHorizonSolver,
    GreedyPolicy,
    HorizonSpec,
    InstanceSampler,
    SimConfig,
    TransitionModel,
    check_affinity,
    check_lemma2_reduction,
    check_lemma3_A,
    check_lemma3_B,
    check_theorem1,
    greedy_action,
    scan_negative_regime,
    simulate,
)
from oppaccess.cli import main as cli_main

from _oracles import exact_policy_value, full_observation_value

SEED = 20260823


def report(num: int, title: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{title}]: {status} {extra}".rstrip())


@pytest.fixture(scope="module")
def theorem1_violations():
    sampler = InstanceSampler(
        seed=SEED, regime="positive", n_range=(2, 5), T_range=(1, 5)
    )
    return check_theorem1(sampler, 500)


def test_criterion_1_theorem1_value_level(theorem1_violations):
    viols = [v for v in theorem1_violations if v.property_id == "theorem1/value"]
    errors = [v for v in theorem1_violations if v.error is not None]
    ok = not viols and not errors
    report(1, "theorem 1, value level, 500 instances", ok,
           f"violations={len(viols)} errors={len(errors)}")
    assert ok


def test_criterion_2_theorem1_action_level(theorem1_violations):
    viols = [v for v in theorem1_violations if v.property_id == "theorem1/action"]
    ok = not viols
    report(2, "theorem 1, action level: greedy's regret at every node of one V solve", ok,
           f"violations={len(viols)}")
    assert ok


def test_criterion_3_lemma3_inequalities():
    sampler = InstanceSampler(
        seed=SEED + 3, regime="positive", n_range=(2, 8), T_range=(1, 8),
        sorted_beliefs=True,
    )
    viols_a = check_lemma3_A(sampler, 10_000)
    viols_b = check_lemma3_B(sampler, 10_000)
    ok = not viols_a and not viols_b
    report(3, "cyclic-shift (A) and adjacent-swap (B) bounds, 10^4 vectors", ok,
           f"A_violations={len(viols_a)} B_violations={len(viols_b)}")
    assert ok


def test_criterion_4_lemma2_reduction():
    sampler = InstanceSampler(
        seed=SEED + 4, regime="positive", n_range=(2, 8), T_range=(1, 8),
        sorted_beliefs=True,
    )
    viols = check_lemma2_reduction(sampler, 1_000)
    ok = not viols
    report(4, "first-action reduction, 10^3 instances x all actions", ok,
           f"violations={len(viols)}")
    assert ok


def test_criterion_5_affinity_identity():
    pos = InstanceSampler(seed=SEED + 5, regime="positive", n_range=(2, 8), T_range=(1, 8))
    neg = InstanceSampler(seed=SEED + 6, regime="negative", n_range=(2, 8), T_range=(1, 8))
    viols = check_affinity(pos, 5_000) + check_affinity(neg, 5_000)
    ok = not viols
    report(5, "per-variable affinity + collinearity, 10^4 draws", ok,
           f"violations={len(viols)}")
    assert ok


def test_criterion_6_greedy_value_vs_exact_rollout():
    sampler = InstanceSampler(
        seed=SEED + 7, regime="positive", n_range=(2, 5), T_range=(1, 5)
    )
    worst = 0.0
    for inst in sampler.instances(100):
        solver = inst.solver()
        belief = BeliefVector(inst.omega)
        gv = solver.greedy_value(belief, 1)
        rollout = exact_policy_value(
            inst.omega, 1, inst.model, inst.horizon, inst.k,
            lambda w, t, k=inst.k: greedy_action(w, k),
        )
        worst = max(worst, abs(gv - rollout))
    ok = worst <= 1e-12
    report(6, "greedy-value recursion == exact greedy rollout, 100 instances", ok,
           f"worst_gap={worst:.2e}")
    assert ok


def test_criterion_7_simulation_matches_dp():
    cases = []
    # the hand-derived instance
    cases.append((TransitionModel(0.2, 0.8), HorizonSpec(2, 1.0), 2, 1, (0.5, 0.5)))
    rng = np.random.default_rng(SEED + 8)
    while len(cases) < 21:
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        a, b = sorted(rng.random(2))
        model = TransitionModel(float(a), float(b))
        horizon = HorizonSpec(int(rng.integers(1, 6)), float(rng.random()))
        omega = tuple(float(w) for w in rng.random(n))
        cases.append((model, horizon, n, k, omega))
    worst_sigma = 0.0
    hand_checked = False
    for i, (model, horizon, n, k, omega) in enumerate(cases):
        solver = FiniteHorizonSolver(model, horizon, k)
        analytic = solver.greedy_value(BeliefVector(omega), 1)
        if i == 0:
            assert analytic == pytest.approx(1.15, abs=1e-12)
            hand_checked = True
        cfg = SimConfig(model, horizon, n, k, BeliefVector(omega), 100_000, SEED + i)
        summary = simulate(cfg, GreedyPolicy(k))
        gap = abs(summary.mean - analytic)
        band = 3 * summary.std_error + 1e-12
        worst_sigma = max(worst_sigma, gap / band * 3 if band else 0.0)
        assert gap <= band, (i, model, horizon, omega, summary.mean, analytic)
    ok = hand_checked
    report(7, "simulated greedy mean within 3 SE of DP value, 21 instances", ok,
           f"worst={worst_sigma:.2f} sigma")
    assert ok


def test_criterion_8_select_all_closed_form():
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        model = TransitionModel(float(rng.random()), float(rng.random()))
        horizon = HorizonSpec(int(rng.integers(1, 7)), float(rng.random()))
        omega = tuple(float(w) for w in rng.random(n))
        solver = FiniteHorizonSolver(model, horizon, n)
        got = solver.optimal_value(BeliefVector(omega), 1).value
        want = full_observation_value(omega, model, horizon)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report(8, "k=n marginal-chain closed form, 50 instances", ok,
           f"worst_gap={worst:.2e}")
    assert ok


def test_criterion_9_byte_identical_artifacts(tmp_path):
    import yaml

    cfg = {
        "kind": "verify",
        "seed": 77,
        "verify": {
            "properties": ["theorem1", "lemma3A", "affinity", "negative-scan"],
            "count": 25,
            "n_max": 4,
            "T_max": 4,
        },
    }
    cfg_path = tmp_path / "verify.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    runner = CliRunner()
    contents = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = runner.invoke(cli_main, ["run", str(cfg_path), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        contents.append(
            {
                "results.csv": (out / "results.csv").read_bytes(),
                "violations.json": (out / "violations.json").read_bytes(),
                "negative_scan.json": (out / "negative_scan.json").read_bytes(),
            }
        )
    ok = contents[0] == contents[1]
    report(9, "byte-identical artifacts on rerun with same seed", ok)
    assert ok


def test_criterion_10_negative_regime_scan():
    sampler = InstanceSampler(
        seed=SEED + 10, regime="negative", n_range=(2, 5), T_range=(1, 5)
    )
    scan = scan_negative_regime(sampler, 200)
    serialised = json.dumps(scan.to_dict(), sort_keys=True)
    # A finding's gap is V minus greedy's own value, as the exact rollout gives it.
    real = [
        abs(f.gap - (f.rhs - exact_policy_value(
            f.instance.omega, 1, f.instance.model, f.instance.horizon, f.instance.k,
            lambda w, t, k=f.instance.k: greedy_action(w, k),
        ))) <= 1e-12
        for f in scan.findings
    ]
    ok = scan.scanned == 200 and not scan.errors and json.loads(serialised) and all(real)
    report(10, "negative-regime scan, 200 instances, well-formed report", bool(ok),
           f"findings={len(scan.findings)}")
    assert ok
