import json

import pytest

from oppaccess import (
    InstanceSampler,
    check_affinity,
    check_lemma2_reduction,
    check_lemma3_A,
    check_lemma3_B,
    check_theorem1,
    scan_negative_regime,
    summary_table,
    violations_to_json,
)
from oppaccess import BeliefVector, FiniteHorizonSolver, dp, greedy_action, verify
from oppaccess.verify import Instance, ViolationReport

from _oracles import GREEDY_LOSSES, exact_policy_value


def sampler(regime="positive", seed=1234, **kw):
    return InstanceSampler(seed=seed, regime=regime, **kw)


class FixedSampler:
    """Yields the given instances, whatever the sampler's regime says."""

    seed = 0

    def __init__(self, regime, instances):
        self.regime = regime
        self._instances = instances

    def instances(self, count):
        return iter(self._instances[:count])


# The first two GREEDY_LOSSES as verify instances, with V - greedy rounded.
LOSSES = [
    (Instance(i, len(omega), 1, T, 1.0, p01, p11, omega), gap)
    for i, ((p01, p11, T, omega), gap) in enumerate(zip(GREEDY_LOSSES, (0.0035107, 0.00033504)))
]


def greedy_rollout(inst):
    return exact_policy_value(
        inst.omega, 1, inst.model, inst.horizon, inst.k, lambda w, t: greedy_action(w, inst.k)
    )


class TestSampler:
    def test_reproducible(self):
        s = sampler()
        assert s.instance(7) == s.instance(7)
        assert s.instance(7) != s.instance(8)

    def test_regimes(self):
        for inst in sampler("positive").instances(30):
            assert inst.p11 >= inst.p01
        for inst in sampler("negative").instances(30):
            assert inst.p11 < inst.p01
        for inst in sampler("boundary").instances(30):
            assert inst.p11 == inst.p01

    def test_bounds(self):
        for inst in sampler(n_range=(2, 4), T_range=(1, 3)).instances(50):
            assert 2 <= inst.n <= 4
            assert 1 <= inst.k <= inst.n
            assert 1 <= inst.T <= 3
            assert 0.0 <= inst.beta <= 1.0
            assert all(0.0 <= w <= 1.0 for w in inst.omega)

    def test_sorted_beliefs_flag(self):
        for inst in sampler(sorted_beliefs=True).instances(20):
            assert list(inst.omega) == sorted(inst.omega)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            InstanceSampler(seed=1, regime="sideways")

    # Each of these used to fail only at the first draw, in numpy: "low >=
    # high" for the first two, "array is too big" (or an endless list build)
    # for the third.
    def test_reversed_range_names_its_field(self):
        with pytest.raises(ValueError, match=r"n_range must be .*got \(5, 2\)"):
            InstanceSampler(seed=1, n_range=(5, 2))

    def test_empty_range_names_its_field(self):
        with pytest.raises(ValueError, match=r"n_range must be .*got \(0, 0\)"):
            InstanceSampler(seed=1, n_range=(0, 0))

    def test_unaddressable_n_names_its_field(self):
        with pytest.raises(ValueError, match="n_range draws at least 4611686018427387904"):
            InstanceSampler(seed=1, n_range=(2**62, 2**62))

    @pytest.mark.parametrize(
        "field, bounds",
        [
            ("T_range", (0, 3)), ("T_range", (2, 1)), ("T_range", (1, 2**63)),
            ("k_range", (0, 2)), ("k_range", (1,)),
            ("n_range", (2.0, 4)), ("n_range", (True, 4)), ("n_range", 4), ("n_range", (2, "x", 4)),
        ],
    )
    def test_other_malformed_ranges_name_their_field(self, field, bounds):
        with pytest.raises(ValueError, match=f"{field} must be"):
            InstanceSampler(seed=1, **{field: bounds})

    def test_a_range_reaching_past_the_limit_fails_at_the_draw(self):
        # The CLI passes (2, n_max) for any int64 n_max and checks n_max
        # against its cap before drawing; a drawn n past the limit is a
        # failed allocation, raised before any entry is drawn.
        s = InstanceSampler(seed=1, n_range=(2, 2**63 - 1))
        with pytest.raises(MemoryError):
            s.instance(0)


class TestChecks:
    def test_theorem1_positive_regime_clean(self):
        assert check_theorem1(sampler(n_range=(2, 4), T_range=(1, 4)), 40) == []

    def test_theorem1_requires_positive(self):
        with pytest.raises(ValueError):
            check_theorem1(sampler("negative"), 1)

    def test_theorem1_boundary_models_clean(self):
        # p11 == p01 makes all continuations action-independent
        s = InstanceSampler(seed=5, regime="boundary", n_range=(2, 4))
        assert all(i.p01 == i.p11 for i in s.instances(10))
        assert check_theorem1(s, 10) == []

    def test_lemma3_A_clean(self):
        s = sampler(sorted_beliefs=True, n_range=(2, 6), T_range=(1, 6))
        assert check_lemma3_A(s, 60) == []

    def test_lemma3_B_clean(self):
        s = sampler(sorted_beliefs=True, n_range=(2, 6), T_range=(1, 6))
        assert check_lemma3_B(s, 40) == []

    def test_lemma2_clean(self):
        s = sampler(sorted_beliefs=True, n_range=(2, 5), T_range=(1, 5))
        assert check_lemma2_reduction(s, 30) == []

    def test_lemma2_violation_names_its_first_action(self):
        # Strongly anticorrelated, so sensing positions 1 and 4 first, then
        # list play, beats sorted order at t = 1.  The detail prints the
        # selection as a tuple of Python ints, whatever numpy's repr.
        inst = Instance(0, 5, 2, 3, 1.0, 0.97, 0.01, (0.2, 0.41, 0.39, 0.98, 0.09))
        viols = check_lemma2_reduction(FixedSampler("negative", [inst]), 1)
        assert [(v.detail, v.lhs.hex(), v.rhs.hex()) for v in viols] == [
            ("t=1 first_action=(1, 4)", "0x1.17370483e13c0p+1", "0x1.1719a3f96820ep+1")
        ]

    def test_affinity_clean_both_regimes(self):
        assert check_affinity(sampler("positive"), 40) == []
        assert check_affinity(sampler("negative"), 40) == []

    def test_theorem1_one_v_solve_per_instance(self, monkeypatch):
        calls = []
        solve = FiniteHorizonSolver._solve_roots
        monkeypatch.setattr(
            FiniteHorizonSolver,
            "_solve_roots",
            lambda self, h, roots: calls.append(len(roots)) or solve(self, h, roots),
        )
        assert check_theorem1(sampler(n_range=(2, 5), T_range=(1, 5)), 30) == []
        assert calls == [1] * 30

    def test_theorem1_action_report_names_the_worst_node(self):
        # Run on negative-regime instances, where greedy loses: one action
        # report per instance, at the node of largest regret.
        insts = [inst for inst, _ in LOSSES]
        viols = check_theorem1(FixedSampler("positive", insts), 2)
        actions = [v for v in viols if v.property_id == "theorem1/action"]
        assert [v.instance for v in actions] == insts
        for v in actions:
            audit = v.instance.solver().greedy_audit(BeliefVector(v.instance.omega), 1)
            assert v.gap == audit.regret > 1e-9
            assert v.detail == f"t={audit.t} omega={audit.omega}"
        assert actions[0].detail.startswith("t=1 ") and actions[1].detail.startswith("t=2 ")

    def test_every_check_runs_at_n_1(self, monkeypatch):
        # n = 1 has no adjacent pair, so lemma 3B is vacuous there: it makes
        # no w_table call and reports nothing, like the other five checks.
        calls = []
        real = verify.w_table

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "w_table", recording)
        one = sampler(sorted_beliefs=True, n_range=(1, 1), T_range=(1, 5))
        for check in (check_theorem1, check_lemma3_A, check_lemma2_reduction, check_affinity):
            assert check(one, 20) == []
        assert calls
        del calls[:]
        assert check_lemma3_B(one, 20) == []
        assert calls == []
        report = scan_negative_regime(sampler("negative", n_range=(1, 1), T_range=(1, 5)), 20)
        assert (report.scanned, report.findings, report.errors) == (20, (), ())

    def test_resource_error_not_fatal(self):
        s = sampler(n_range=(4, 5), T_range=(5, 5))
        viols = check_theorem1(s, 3, max_states=5)
        assert viols
        assert all(v.error is not None for v in viols)

    @pytest.mark.parametrize(
        "check, prop",
        [
            (check_lemma3_A, "lemma3A"),
            (check_lemma3_B, "lemma3B"),
            (check_lemma2_reduction, "lemma2"),
            (check_affinity, "affinity"),
            (check_theorem1, "theorem1"),
            (scan_negative_regime, "negative-scan"),
        ],
        ids=["lemma3A", "lemma3B", "lemma2", "affinity", "theorem1", "negative-scan"],
    )
    def test_w_property_resource_error_one_per_instance(self, check, prop):
        # Every W state graph with n >= 4 and T = 5 has more than 5 nodes, and
        # so does the V graph of each of the scan's three instances.
        regime = "negative" if check is scan_negative_regime else "positive"
        s = sampler(regime, sorted_beliefs=True, n_range=(4, 5), T_range=(5, 5))
        viols = check(s, 3, max_states=5)
        if check is scan_negative_regime:
            assert viols.findings == ()
            viols = list(viols.errors)
        assert [v.property_id for v in viols] == [f"{prop}/resource"] * 3
        assert [v.instance.index for v in viols] == [0, 1, 2]
        assert all("exceeded cap 5" in v.error for v in viols)
        assert all(v.lhs is None and v.rhs is None for v in viols)

    @pytest.mark.parametrize(
        "check, regime",
        [
            (check_lemma3_A, "positive"),
            (check_lemma3_B, "negative"),
            (check_lemma2_reduction, "positive"),
        ],
        ids=["lemma3A", "lemma3B", "lemma2"],
    )
    def test_lemma_checks_sort_their_own_instances(self, check, regime):
        # Lemmas 3A, 3B and 2 are statements about sorted vectors, so each
        # check sorts an instance's beliefs and reports the sorted instance,
        # whatever the sampler draws.  The cap trips on some instances, and
        # lemma 3B is violated in the negative regime.
        kw = dict(n_range=(2, 6), T_range=(1, 6))
        reports = check(sampler(regime, **kw), 60, max_states=40)
        assert reports == check(sampler(regime, sorted_beliefs=True, **kw), 60, max_states=40)
        assert any(v.error is not None for v in reports)
        assert any(v.error is None for v in reports) == (check is check_lemma3_B)
        assert all(list(v.instance.omega) == sorted(v.instance.omega) for v in reports)

    def test_lemma2_cap_applies_before_any_vector_is_built(self, monkeypatch):
        # n 16-20 has up to C(20, 10) + 1 = 184,757 vectors per instance; one
        # over the cap is reported without building or evaluating them.
        def refuse(*args, **kwargs):
            raise AssertionError("w_table called for an instance over the cap")

        monkeypatch.setattr(verify, "w_table", refuse)
        s = sampler(sorted_beliefs=True, n_range=(16, 20), T_range=(3, 3))
        error = "ResourceLimitError: W state graph node count exceeded cap 5"
        assert check_lemma2_reduction(s, 4, max_states=5) == [
            ViolationReport("lemma2/resource", inst, error=error) for inst in s.instances(4)
        ]

    @pytest.mark.parametrize(
        "check, regime, prop",
        [(check_lemma2_reduction, "positive", "lemma2"), (check_lemma3_B, "negative", "lemma3B")],
        ids=["lemma2", "lemma3B"],
    )
    def test_memory_error_is_that_instances_resource_report(self, monkeypatch, check, regime, prop):
        # numpy raises MemoryError before it allocates, so the run goes on.
        # Instance 5's one w_table call fails; it gets one resource report in
        # place of its reports (two lemma3B violations), and every other
        # instance keeps its own.
        s = sampler(regime, n_range=(2, 6), T_range=(1, 6))
        want = check(s, 12)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 6:
                raise MemoryError("Unable to allocate 128. MiB")
            return dp.w_table(*args)

        monkeypatch.setattr(verify, "w_table", failing)
        got = check(s, 12)
        assert len(calls) == 12
        inst = verify._sorted(s.instance(5))
        error = "MemoryError: Unable to allocate 128. MiB"
        assert [v for v in got if v.instance.index == 5] == [
            ViolationReport(f"{prop}/resource", inst, error=error)
        ]
        assert [v for v in got if v.instance.index != 5] == [
            v for v in want if v.instance.index != 5
        ]
        assert (len(want) > 2) == (check is check_lemma3_B)

    def test_over_cap_w_shape_is_built_once(self, monkeypatch):
        # Five instances share one (n, k, T) whose W graph is over the cap.
        # The build stops at the cap once; the other four are refused from
        # the cache, which keeps the stopped build as a lower bound.
        builds = []
        build = dp._build_w_graph

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(dp, "_build_w_graph", counting)
        s = InstanceSampler(seed=4, n_range=(8, 8), T_range=(17, 17), k_range=(3, 3))
        reports = check_lemma3_A(s, 5, max_states=300_000)
        assert [v.property_id for v in reports] == ["lemma3A/resource"] * 5
        assert all(v.instance.beta != 0.0 for v in reports)
        assert builds == [(8, 3, 16, 300_000)]

    def test_beta0_instance_gets_no_resource_report_under_a_small_cap(self):
        # With beta = 0 W reads only its one-node graph, which fits the cap,
        # and C(4, 1) = 4 sensing sets fit the cap too.  The same
        # instance with beta > 0 has a W graph of more than 5 nodes.
        omega = (0.1, 0.35, 0.6, 0.85)
        zero = Instance(0, 4, 1, 5, 0.0, 0.3, 0.8, omega)
        some = Instance(0, 4, 1, 5, 0.9, 0.3, 0.8, omega)
        checks = [
            check_theorem1, check_lemma3_A, check_lemma3_B, check_lemma2_reduction,
            check_affinity,
        ]
        for check in checks:
            assert check(FixedSampler("positive", [zero]), 1, max_states=5) == []
            tripped = check(FixedSampler("positive", [some]), 1, max_states=5)
            assert [v.property_id.endswith("/resource") for v in tripped] == [True]
        negative = Instance(0, 4, 1, 5, 0.0, 0.8, 0.3, omega)
        report = scan_negative_regime(FixedSampler("negative", [negative]), 1, max_states=5)
        assert report.errors == ()

    def test_lemma2_caps_the_sensing_sets_before_listing_them(self, monkeypatch):
        # n = 35, k = 23, T = 2: the W graph has k + 2 = 25 nodes, far below
        # the cap, but C(35, 23) is about 8.3e8 sensing sets.
        def refuse(*args, **kwargs):
            raise AssertionError("sensing sets listed for an instance over the cap")

        monkeypatch.setattr(dp.itertools, "combinations", refuse)
        inst = Instance(0, 35, 23, 2, 0.9, 0.3, 0.8, tuple(i / 40 for i in range(35)))
        viols = check_lemma2_reduction(FixedSampler("positive", [inst]), 1, max_states=100_000)
        error = "ResourceLimitError: C(35, 23) = 834451800 sensing sets exceed cap 100000"
        assert viols == [ViolationReport("lemma2/resource", inst, error=error)]


class TestNegativeScan:
    def test_runs_and_reports(self):
        report = scan_negative_regime(sampler("negative", n_range=(2, 4)), 30)
        assert report.scanned == 30
        d = report.to_dict()
        json.dumps(d)  # must serialise
        assert set(d) == {"scanned", "findings", "errors"}

    def test_k_equals_n_no_findings(self):
        s = InstanceSampler(seed=2, regime="negative", n_range=(2, 3), k_range=(5, 5))
        # k_range clamps to n: every instance selects all channels
        report = scan_negative_regime(s, 15)
        assert report.findings == ()

    def test_one_step_no_findings(self):
        s = InstanceSampler(seed=3, regime="negative", T_range=(1, 1))
        report = scan_negative_regime(s, 15)
        assert report.findings == ()

    def test_requires_negative(self):
        with pytest.raises(ValueError):
            scan_negative_regime(sampler("positive"), 1)

    def test_reports_greedys_own_gap(self):
        report = scan_negative_regime(FixedSampler("negative", [i for i, _ in LOSSES]), 2)
        assert [f.instance for f in report.findings] == [inst for inst, _ in LOSSES]
        for finding, (inst, gap) in zip(report.findings, LOSSES):
            v = inst.solver().optimal_value(BeliefVector(inst.omega), 1).value
            assert finding.rhs == v
            assert finding.lhs == pytest.approx(greedy_rollout(inst), abs=1e-12)
            assert finding.gap == pytest.approx(v - greedy_rollout(inst), abs=1e-12)
            assert finding.gap == pytest.approx(gap, rel=1e-4)
            audit = inst.solver().greedy_audit(BeliefVector(inst.omega), 1)
            assert audit.regret > 1e-9
        # In the second, greedy's first action is optimal; it loses deeper.
        inst = LOSSES[1][0]
        solver = inst.solver()
        best = solver.optimal_value(BeliefVector(inst.omega), 1).best_actions
        assert greedy_action(inst.omega, 1) in best
        assert solver.greedy_audit(BeliefVector(inst.omega), 1).t == 2


class TestReporting:
    def test_violation_json_roundtrip(self):
        inst = Instance(0, 2, 1, 2, 1.0, 0.2, 0.8, (0.5, 0.5))
        v = ViolationReport("demo", inst, 1.0, 2.0, 1.0, 1e-9)
        text = violations_to_json([v])
        rec = json.loads(text)
        assert rec["property_id"] == "demo"
        assert rec["instance"]["omega"] == [0.5, 0.5]

    def test_summary_table(self):
        inst = Instance(0, 2, 1, 2, 1.0, 0.2, 0.8, (0.5, 0.5))
        table = summary_table(
            {
                "clean": [],
                "dirty": [ViolationReport("dirty", inst, 1.0, 2.0, 1.0, 1e-9)],
                "errored": [ViolationReport("errored", inst, error="cap")],
            }
        )
        assert "PASS" in table and "FAIL" in table and "errors" in table
