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
    OrderedListPolicy,
    SimConfig,
    TransitionModel,
    UniformRandomPolicy,
    common_random_numbers_compare,
    simulate,
    write_traces,
)
from oppaccess.sim import _nature_uniforms, _policy_uniforms

from _oracles import philox_substream_uniforms


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

        class NoBatchGreedy(GreedyPolicy):
            supports_batch = False

        looped = simulate(cfg, NoBatchGreedy(2))
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
        ordered = simulate(cfg, OrderedListPolicy(1))
        # positive regime, ascending start: same policy, same sample paths
        assert np.array_equal(greedy.totals, ordered.totals)


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
