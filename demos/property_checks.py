"""Running the structural property checks programmatically.

The verifier samples random problem instances and tests, numerically and
exactly, the structural facts the greedy-optimality argument rests on:
value match with the DP optimum and greedy's zero regret at every belief the
DP reaches, the cyclic-shift and adjacent-swap bounds on the order-sensitive
value recursion, and per-entry affinity of that recursion.  It also scans the
negatively correlated regime, where greedy has no optimality guarantee, and
reports any instances where greedy's exact value falls short of the optimum.
"""

from oppaccess import (
    InstanceSampler,
    check_affinity,
    check_lemma3_A,
    check_lemma3_B,
    check_theorem1,
    scan_negative_regime,
    summary_table,
)

pos = InstanceSampler(seed=2026, regime="positive", n_range=(2, 4), T_range=(1, 4))
wide_pos = InstanceSampler(seed=2026, regime="positive", n_range=(2, 6), T_range=(1, 6))

results = {
    "greedy==optimal": check_theorem1(pos, 50),  # value, and regret at every node
    "cyclic-shift bound": check_lemma3_A(wide_pos, 200),
    "adjacent-swap bound": check_lemma3_B(wide_pos, 100),
    "affinity": check_affinity(pos, 200),
}
print(summary_table(results))

neg = InstanceSampler(seed=2026, regime="negative", n_range=(2, 4), T_range=(2, 4))
scan = scan_negative_regime(neg, 100)
print(f"\nnegative-regime scan: {scan.scanned} instances,"
      f" {len(scan.findings)} with greedy strictly suboptimal")
if scan.findings:
    worst = max(scan.findings, key=lambda f: f.gap)
    inst = worst.instance
    print(f"largest gap {worst.gap:.6f} (greedy {worst.lhs:.6f}, optimal {worst.rhs:.6f})"
          f" at n={inst.n}, k={inst.k}, T={inst.T}, p01={inst.p01:.3f}, p11={inst.p11:.3f}")
else:
    print("greedy's exact value matched the optimum on every instance scanned")
