import hashlib
import json

import numpy as np
import pytest

from oppaccess import (
    BeliefVector,
    FiniteHorizonSolver,
    FixedSetPolicy,
    GreedyPolicy,
    HorizonSpec,
    OptimalPolicy,
    OrderedListPolicy,
    Policy,
    ResourceLimitError,
    RoundRobinPolicy,
    SimConfig,
    TransitionModel,
    UniformRandomPolicy,
    common_random_numbers_compare,
    simulate,
    write_traces,
)
from oppaccess.sim import _nature_uniforms, _policy_uniforms

from _oracles import philox_substream_uniforms, simulate_loop


def make_config(p01, p11, n, k, T, beta, omega, reps, seed, traces=False):
    return SimConfig(
        TransitionModel(p01, p11),
        HorizonSpec(T, beta),
        n,
        k,
        BeliefVector(tuple(omega)),
        reps,
        seed,
        traces,
    )


class TestDeterministicChains:
    def test_all_good_forever(self):
        beta = 0.9
        cfg = make_config(1.0, 1.0, 3, 2, 4, beta, (1.0, 1.0, 1.0), 50, 1)
        s = simulate(cfg, GreedyPolicy(2))
        expected = 2 * sum(beta**t for t in range(4))
        assert np.all(s.totals == pytest.approx(expected))
        assert s.std_error == pytest.approx(0.0, abs=1e-15)

    def test_all_bad_forever(self):
        cfg = make_config(0.0, 0.0, 2, 1, 3, 1.0, (0.0, 0.0), 50, 2)
        s = simulate(cfg, GreedyPolicy(1))
        assert np.all(s.totals == 0.0)


class TestStreamLayout:
    """The vectorised substreams match one numpy Philox generator per replication."""

    SEEDS = [0, 1, 2**63, 2**64 - 1, int(np.random.default_rng(2009).integers(2**63))]
    # (T, n) with T * n in {1, 3, 4, 5, 25, 32}: counts off a multiple of 4 included.
    SHAPES = [(1, 1), (3, 1), (2, 2), (5, 1), (5, 5), (4, 8)]

    @staticmethod
    def assert_matches_oracle(seed, T, n, reps):
        cfg = make_config(0.2, 0.8, n, 1, T, 1.0, (0.5,) * n, reps, seed)
        nature = philox_substream_uniforms(seed, 1, reps, (T, n))
        policy = philox_substream_uniforms(seed, 2, reps, (T,))
        assert np.array_equal(_nature_uniforms(cfg), nature)
        assert np.array_equal(_policy_uniforms(cfg), policy)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("T,n", SHAPES)
    @pytest.mark.parametrize("reps", [1, 7])
    def test_matches_per_replication_generators(self, seed, T, n, reps):
        self.assert_matches_oracle(seed, T, n, reps)

    @pytest.mark.parametrize("T,n", [(1, 1), (5, 5)])
    def test_matches_across_several_chunks(self, T, n):
        # A 4096-lane chunk holds 4096 replications at T * n = 1 and 585 at T * n = 25.
        self.assert_matches_oracle(2**64 - 1, T, n, 3 * 4096 + 5)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = make_config(0.2, 0.8, 3, 1, 4, 0.95, (0.5, 0.3, 0.7), 500, 42)
        a = simulate(cfg, GreedyPolicy(1))
        b = simulate(cfg, GreedyPolicy(1))
        assert np.array_equal(a.totals, b.totals)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_different_seed_differs(self):
        cfg1 = make_config(0.2, 0.8, 3, 1, 4, 0.95, (0.5, 0.3, 0.7), 500, 42)
        cfg2 = make_config(0.2, 0.8, 3, 1, 4, 0.95, (0.5, 0.3, 0.7), 500, 43)
        assert not np.array_equal(
            simulate(cfg1, GreedyPolicy(1)).totals,
            simulate(cfg2, GreedyPolicy(1)).totals,
        )

    def test_batch_and_loop_paths_agree(self):
        cfg = make_config(0.3, 0.7, 4, 2, 5, 0.9, (0.2, 0.5, 0.8, 0.4), 200, 7)
        batched = simulate(cfg, GreedyPolicy(2))
        looped = simulate_loop(cfg, GreedyPolicy(2))
        assert np.array_equal(batched.totals, looped.totals)

    def test_random_policy_seeded(self):
        cfg = make_config(0.3, 0.7, 4, 2, 5, 1.0, (0.5,) * 4, 300, 11)
        a = simulate(cfg, UniformRandomPolicy(4, 2))
        b = simulate(cfg, UniformRandomPolicy(4, 2))
        assert np.array_equal(a.totals, b.totals)


class TestConsistencyWithDP:
    def test_hand_instance_within_three_se(self):
        cfg = make_config(0.2, 0.8, 2, 1, 2, 1.0, (0.5, 0.5), 100_000, 9)
        s = simulate(cfg, GreedyPolicy(1))
        assert abs(s.mean - 1.15) <= 3 * s.std_error

    def test_random_instance_within_three_se(self):
        model = TransitionModel(0.25, 0.8)
        horizon = HorizonSpec(4, 0.9)
        omega = (0.3, 0.6, 0.85)
        solver = FiniteHorizonSolver(model, horizon, 2)
        analytic = solver.greedy_value(BeliefVector(omega), 1)
        cfg = SimConfig(model, horizon, 3, 2, BeliefVector(omega), 40_000, 13)
        s = simulate(cfg, GreedyPolicy(2))
        assert abs(s.mean - analytic) <= 3 * s.std_error


class TestCommonRandomNumbers:
    def test_identical_policies_zero_difference(self):
        cfg = make_config(0.3, 0.7, 3, 1, 4, 1.0, (0.5, 0.4, 0.6), 300, 21)
        paired = common_random_numbers_compare(cfg, GreedyPolicy(1), GreedyPolicy(1))
        assert np.all(paired.diffs == 0.0)
        assert paired.mean_diff == 0.0 and paired.se_diff == 0.0

    def test_forced_action_when_k_equals_n(self):
        cfg = make_config(0.3, 0.7, 2, 2, 3, 1.0, (0.5, 0.6), 200, 22)
        paired = common_random_numbers_compare(
            cfg, GreedyPolicy(2), FixedSetPolicy((1, 2))
        )
        assert np.all(paired.diffs == 0.0)

    def test_greedy_no_worse_than_fixed_positive_regime(self):
        cfg = make_config(0.2, 0.8, 4, 1, 5, 1.0, (0.9, 0.2, 0.5, 0.4), 20_000, 23)
        paired = common_random_numbers_compare(cfg, GreedyPolicy(1), FixedSetPolicy((2,)))
        assert paired.mean_diff >= -3 * paired.se_diff


class TestTracesAndRecords:
    def test_trace_contents(self):
        cfg = make_config(0.2, 0.8, 2, 1, 3, 1.0, (0.5, 0.5), 5, 31, traces=True)
        s = simulate(cfg, GreedyPolicy(1))
        assert s.traces is not None and len(s.traces) == 5
        for run in s.traces:
            assert len(run.steps) == 3
            for step in run.steps:
                assert step.reward == sum(step.observations)
                assert 0 <= step.reward <= 1
                # perfect sensing: observations match hidden states on sensed channels
                for idx, bit in zip(step.action, step.observations):
                    assert step.states[idx - 1] == bit
            assert run.total == pytest.approx(run.steps[-1].discounted_cum)

    def test_trace_export_schema(self, tmp_path):
        cfg = make_config(0.2, 0.8, 2, 1, 2, 1.0, (0.5, 0.5), 3, 32, traces=True)
        s = simulate(cfg, GreedyPolicy(1))
        path = tmp_path / "traces.jsonl"
        write_traces(str(path), s.traces)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3 * 2
        for line in lines:
            rec = json.loads(line)
            assert rec["v"] == 1
            assert set(rec) == {"v", "rep", "t", "states", "action", "obs", "reward"}

    def test_trace_export_bytes_pinned(self, tmp_path):
        cfg = SimConfig(
            TransitionModel(0.2, 0.8), HorizonSpec(3, 0.9), 3, 2,
            BeliefVector((0.5, 0.3, 0.7)), 4, 2024, True,
        )
        path = tmp_path / "traces.jsonl"
        write_traces(str(path), simulate(cfg, UniformRandomPolicy(3, 2)).traces)
        assert (
            hashlib.sha256(path.read_bytes()).hexdigest()
            == "c2889f0291e2a5b8e6404d818ec27c731ff626525a0947803fcab5d869cf2ee7"
        )

    def test_ordered_list_policy_runs_in_loop_path(self):
        cfg = make_config(0.2, 0.8, 3, 1, 4, 1.0, (0.3, 0.6, 0.9), 50, 33)
        greedy = simulate(cfg, GreedyPolicy(1))
        ordered = simulate_loop(cfg, OrderedListPolicy(1))
        # positive regime, ascending start: same policy, same sample paths
        assert np.array_equal(greedy.totals, ordered.totals)


REGIMES = {"positive": (0.2, 0.8), "negative": (0.8, 0.3), "boundary": (0.4, 0.4)}

POLICIES = {
    "ordered-list": lambda m, h, n, k: OrderedListPolicy(k),
    "ordered-list-custom": lambda m, h, n, k: OrderedListPolicy(k, (3, 1, 4, 2)),
    "optimal": lambda m, h, n, k: OptimalPolicy(m, h, k),
    "greedy": lambda m, h, n, k: GreedyPolicy(k),
    "round-robin": lambda m, h, n, k: RoundRobinPolicy(n, k),
    "fixed": lambda m, h, n, k: FixedSetPolicy(range(n - k + 1, n + 1)),
    "random": lambda m, h, n, k: UniformRandomPolicy(n, k),
}


class TestBatchAgainstLoopOracle:
    """Every built-in policy's batch form reproduces the per-replication loop."""

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_totals_and_traces_equal(self, name, k, regime):
        p01, p11 = REGIMES[regime]
        # Two equal initial beliefs exercise every tie rule at t = 1.
        cfg = make_config(p01, p11, 4, k, 4, 0.9, (0.6, 0.3, 0.6, 0.8), 40, 100 + k, traces=True)
        make = POLICIES[name]
        batched = simulate(cfg, make(cfg.model, cfg.horizon, 4, k))
        looped = simulate_loop(cfg, make(cfg.model, cfg.horizon, 4, k))
        assert np.array_equal(batched.totals, looped.totals)
        assert batched.traces == looped.traces

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_stationary_start_many_ties(self, regime):
        # All beliefs equal at every unobserved step: ties on every row.
        p01, p11 = REGIMES[regime]
        star = TransitionModel(p01, p11).stationary_belief()
        cfg = make_config(p01, p11, 4, 2, 5, 1.0, (star,) * 4, 60, 7, traces=True)
        for make in POLICIES.values():
            batched = simulate(cfg, make(cfg.model, cfg.horizon, 4, 2))
            looped = simulate_loop(cfg, make(cfg.model, cfg.horizon, 4, 2))
            assert np.array_equal(batched.totals, looped.totals)
            assert batched.traces == looped.traces

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_beliefs_just_above_one(self, k):
        # Probabilities may exceed 1 by up to model.PROB_TOL.  model.tau clamps
        # its input, and so must the batch update, or the optimal policy's
        # queries drift out of range after a few unobserved steps.
        p11 = 1.0 + 5e-13
        cfg = make_config(0.2, p11, 4, k, 4, 0.9, (p11, 0.3, p11, 0.8), 100, 5, traces=True)
        for name in ("optimal", "greedy", "ordered-list"):
            make = POLICIES[name]
            batched = simulate(cfg, make(cfg.model, cfg.horizon, 4, k))
            looped = simulate_loop(cfg, make(cfg.model, cfg.horizon, 4, k))
            assert np.array_equal(batched.totals, looped.totals)
            assert batched.traces == looped.traces

    def test_ordered_list_differs_from_greedy_in_negative_regime(self):
        # A guard against a vacuous comparison: the ordered list really does
        # reorder, so in the negative regime it is not greedy.
        cfg = make_config(0.8, 0.3, 4, 2, 5, 1.0, (0.6, 0.3, 0.6, 0.8), 200, 3)
        assert not np.array_equal(
            simulate(cfg, OrderedListPolicy(2)).totals, simulate(cfg, GreedyPolicy(2)).totals
        )

    def test_optimal_shares_one_query_per_distinct_belief(self):
        m, h = TransitionModel(0.8, 0.3), HorizonSpec(4, 0.9)
        cfg = SimConfig(m, h, 4, 2, BeliefVector((0.6, 0.3, 0.6, 0.8)), 500, 5)
        policy = OptimalPolicy(m, h, 2)
        calls = []
        query = policy.solver.action_value_table

        def recording(beliefs, t):
            calls.append((t, [b.omega for b in beliefs]))
            return query(beliefs, t)

        policy.solver.action_value_table = recording
        simulate(cfg, policy)
        # one batched query per step, each over distinct belief rows
        assert [t for t, _ in calls] == [1, 2, 3, 4]
        for _, rows in calls:
            assert len(rows) == len(set(rows))
        assert len(calls[0][1]) == 1 and 1 < len(calls[-1][1]) < 500

    def test_optimal_state_cap_trips_as_in_loop(self):
        m, h = TransitionModel(0.8, 0.3), HorizonSpec(4, 0.9)
        cfg = SimConfig(m, h, 4, 2, BeliefVector((0.6, 0.3, 0.6, 0.8)), 50, 5)
        for cap in (5, 10_000_000):
            outcomes = []
            for run in (simulate, simulate_loop):
                try:
                    outcomes.append(run(cfg, OptimalPolicy(m, h, 2, cap)).totals.tolist())
                except ResourceLimitError:
                    outcomes.append("cap")
            assert outcomes[0] == outcomes[1]
            assert (outcomes[0] == "cap") == (cap == 5)

    def test_ordered_list_rejects_bad_initial_order(self):
        cfg = make_config(0.2, 0.8, 4, 2, 3, 1.0, (0.5,) * 4, 10, 1)
        for order in [(1, 2, 3), (1, 2, 3, 3), (1, 2, 3, 5)]:
            with pytest.raises(ValueError, match="permutation"):
                simulate(cfg, OrderedListPolicy(2, order))

    def test_policy_without_batch_form_names_the_method(self):
        class ScalarOnly(Policy):
            def action(self, omega, t):
                return GreedyPolicy(1).action(omega, t)

        cfg = make_config(0.2, 0.8, 3, 1, 3, 1.0, (0.5,) * 3, 10, 1)
        with pytest.raises(NotImplementedError, match="batch_actions"):
            simulate(cfg, ScalarOnly())

    @pytest.mark.parametrize(
        "name,p01,p11,seed,digest",
        [
            ("ordered-list-custom", 0.7, 0.3, 2024,
             "8cbb166e386ff71959fdba3bf08e7affc02a51e63f75600c793b06b39ee79605"),
            ("ordered-list", 0.2, 0.8, 2024,
             "c76490e97b21a0ec5d4d03bb2565ed3514793d43ced92ddf42f8f4ac71806e48"),
            ("optimal", 0.7, 0.3, 2025,
             "465948079331dfd9704aa794645c27aa40a533ce10b9dc772ecb32822a9b9d98"),
        ],
    )
    def test_trace_export_bytes_pinned(self, tmp_path, name, p01, p11, seed, digest):
        # Digests of the traces written by the per-replication loop simulator
        # that these policies ran on before they had a batch form.
        cfg = make_config(p01, p11, 4, 2, 4, 0.9, (0.5, 0.3, 0.7, 0.6), 6, seed, traces=True)
        path = tmp_path / "traces.jsonl"
        write_traces(str(path), simulate(cfg, POLICIES[name](cfg.model, cfg.horizon, 4, 2)).traces)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            make_config(0.2, 0.8, 2, 3, 2, 1.0, (0.5, 0.5), 10, 1)

    def test_belief_length_mismatch(self):
        with pytest.raises(ValueError):
            make_config(0.2, 0.8, 3, 1, 2, 1.0, (0.5, 0.5), 10, 1)

    def test_replications_positive(self):
        with pytest.raises(ValueError):
            make_config(0.2, 0.8, 2, 1, 2, 1.0, (0.5, 0.5), 0, 1)
