import hashlib
import json
import tracemalloc
from collections import Counter

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
    Traces,
    TransitionModel,
    UniformRandomPolicy,
    common_random_numbers_compare,
    simulate,
    write_traces,
)
from oppaccess import dp, sim
from oppaccess.dp import _fold_keys, _groups
from oppaccess.sim import _nature_uniforms, _policy_uniforms

from _oracles import (
    RunRecord,
    StepRecord,
    columns,
    philox_substream_uniforms,
    simulate_loop,
    write_traces_json,
)


def count_draws(monkeypatch):
    """A Counter of ``_substream_uniforms`` calls by stream id (1 nature, 2 policy)."""
    calls = Counter()
    real = sim._substream_uniforms
    monkeypatch.setattr(
        sim, "_substream_uniforms", lambda *args: calls.update([args[1]]) or real(*args)
    )
    return calls


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
        # Three chunks at T * n = 1, the last one 5 replications long; at
        # T * n = 25 a chunk holds _CHUNK_LANES // 7 replications.
        reps = 2 * sim._CHUNK_LANES + 5
        rows = sim._CHUNK_LANES // -(-T * n // 4)
        assert -(-reps // rows) >= 3 and reps % rows
        self.assert_matches_oracle(2**64 - 1, T, n, reps)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("stream_id", [0, 3, 2**16 - 1])
    def test_any_stream_id_across_three_chunks(self, seed, stream_id):
        # Round 1 is computed per block and folds the stream id and the
        # replication into word 2, so both reach past the two streams the
        # simulator draws from.  25 draws are 7 blocks per replication.
        rows = sim._CHUNK_LANES // 7
        reps = 2 * rows + 5
        got = sim._substream_uniforms(seed, stream_id, reps, 25)
        assert np.array_equal(got, philox_substream_uniforms(seed, stream_id, reps, (25,)))


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

    PAIRS = {
        "greedy-random": (lambda: GreedyPolicy(2), lambda: UniformRandomPolicy(4, 2)),
        "round-robin-random": (lambda: RoundRobinPolicy(4, 2), lambda: UniformRandomPolicy(4, 2)),
        "random-greedy": (lambda: UniformRandomPolicy(4, 2), lambda: GreedyPolicy(2)),
        "greedy-round-robin": (lambda: GreedyPolicy(2), lambda: RoundRobinPolicy(4, 2)),
    }

    @pytest.mark.parametrize("pair", PAIRS)
    def test_equals_two_simulate_calls(self, pair):
        make_a, make_b = self.PAIRS[pair]
        cfg = make_config(0.3, 0.7, 4, 2, 5, 0.9, (0.2, 0.5, 0.8, 0.4), 700, 41)
        paired = common_random_numbers_compare(cfg, make_a(), make_b())
        sa, sb = simulate(cfg, make_a()), simulate(cfg, make_b())
        assert paired.diffs.tobytes() == (sa.totals - sb.totals).tobytes()
        assert paired.mean_a.hex() == sa.mean.hex()
        assert paired.mean_b.hex() == sb.mean.hex()

    @pytest.mark.parametrize("pair,draws", [("greedy-random", 2), ("greedy-round-robin", 1)])
    def test_draws_each_stream_once(self, monkeypatch, pair, draws):
        calls = []
        real = sim._substream_uniforms
        monkeypatch.setattr(
            sim, "_substream_uniforms", lambda *args: calls.append(args) or real(*args)
        )
        make_a, make_b = self.PAIRS[pair]
        cfg = make_config(0.3, 0.7, 4, 2, 5, 0.9, (0.2, 0.5, 0.8, 0.4), 50, 42)
        common_random_numbers_compare(cfg, make_a(), make_b())
        assert len(calls) == draws

    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_the_loop_oracle(self, pair):
        make_a, make_b = self.PAIRS[pair]
        cfg = make_config(0.3, 0.7, 4, 2, 5, 0.9, (0.2, 0.5, 0.8, 0.4), 60, 43)
        paired = common_random_numbers_compare(cfg, make_a(), make_b())
        diffs = simulate_loop(cfg, make_a()).totals - simulate_loop(cfg, make_b()).totals
        assert paired.diffs.tobytes() == diffs.tobytes()

    @pytest.mark.parametrize("reps", [1, 700])
    def test_paired_statistics_pinned(self, reps):
        cfg = make_config(0.3, 0.7, 4, 2, 5, 0.9, (0.2, 0.5, 0.8, 0.4), reps, 41)
        a, b = GreedyPolicy(2), UniformRandomPolicy(4, 2)
        paired = common_random_numbers_compare(cfg, a, b)
        diffs = simulate(cfg, a).totals - simulate(cfg, b).totals
        se = float(np.sqrt(diffs.var(ddof=1) / reps)) if reps > 1 else 0.0
        assert paired.mean_diff.hex() == float(diffs.mean()).hex()
        assert paired.se_diff.hex() == se.hex()
        assert (se > 0) == (reps > 1)

    def test_greedy_no_worse_than_fixed_positive_regime(self):
        cfg = make_config(0.2, 0.8, 4, 1, 5, 1.0, (0.9, 0.2, 0.5, 0.4), 20_000, 23)
        paired = common_random_numbers_compare(cfg, GreedyPolicy(1), FixedSetPolicy((2,)))
        assert paired.mean_diff >= -3 * paired.se_diff


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


class TestTracesAndRecords:
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_trace_contents(self, name):
        n, k, T, R = 4, 2, 3, 25
        cfg = make_config(0.2, 0.8, n, k, T, 1.0, (0.5, 0.3, 0.5, 0.9), R, 31, traces=True)
        traces = simulate(cfg, POLICIES[name](cfg.model, cfg.horizon, n, k)).traces
        assert traces.states.shape == (T, R, n) and traces.rewards.shape == (T, R)
        assert np.array_equal(traces.rewards, traces.observations.sum(axis=2))
        # Perfect sensing: observations are the hidden states on the sensed channels.
        sensed = np.take_along_axis(traces.states, traces.actions - 1, axis=2)
        assert np.array_equal(traces.observations, sensed)
        # k distinct channels in 1..n, ascending.
        assert traces.actions.shape == (T, R, k)
        assert np.all(np.diff(traces.actions, axis=2) > 0)
        assert traces.actions.min() >= 1 and traces.actions.max() <= n

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
        assert_columns_equal(batched.traces, looped.traces)

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
            assert_columns_equal(batched.traces, looped.traces)

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
            assert_columns_equal(batched.traces, looped.traces)

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

        def recording(rows, t):
            calls.append((t, list(map(tuple, rows.tolist()))))
            return query(rows, t)

        policy.solver.action_value_table = recording
        simulate(cfg, policy)
        # one batched query per step, each over distinct belief rows
        assert [t for t, _ in calls] == [1, 2, 3, 4]
        for _, rows in calls:
            assert len(rows) == len(set(rows))
        assert len(calls[0][1]) == 1 and 1 < len(calls[-1][1]) < 500

    def test_optimal_builds_no_belief_vector(self, monkeypatch):
        # The distinct rows reach the solver as one array, checked once per query.
        m, h = TransitionModel(0.8, 0.3), HorizonSpec(4, 0.9)
        cfg = SimConfig(m, h, 4, 2, BeliefVector((0.6, 0.3, 0.6, 0.8)), 200, 5)
        policy = OptimalPolicy(m, h, 2)
        built = []
        monkeypatch.setattr(BeliefVector, "__post_init__", lambda self: built.append(self))
        got = simulate(cfg, policy)
        assert built == []
        assert got.totals.tobytes() == simulate_loop(cfg, OptimalPolicy(m, h, 2)).totals.tobytes()

    def test_optimal_state_cap_trips_as_in_loop(self):
        m, h = TransitionModel(0.8, 0.3), HorizonSpec(4, 0.9)
        belief = BeliefVector((0.6, 0.3, 0.6, 0.8))
        cfg = SimConfig(m, h, 4, 2, belief, 50, 5)
        # Later steps are answered from the first query's graph, so a cap
        # that graph fits runs the whole simulation.
        nodes = FiniteHorizonSolver(m, h, 2).optimal_value(belief, 1).cache_stats["v_states"]
        for cap in (5, nodes - 1, nodes, 10_000_000):
            outcomes = []
            for run in (simulate, simulate_loop):
                try:
                    outcomes.append(run(cfg, OptimalPolicy(m, h, 2, cap)).totals.tolist())
                except ResourceLimitError:
                    outcomes.append("cap")
            assert outcomes[0] == outcomes[1]
            assert (outcomes[0] == "cap") == (cap < nodes)

    def test_ordered_list_rejects_bad_initial_order(self):
        cfg = make_config(0.2, 0.8, 4, 2, 3, 1.0, (0.5,) * 4, 10, 1)
        for order in [(1, 2, 3), (1, 2, 3, 3), (1, 2, 3, 5)]:
            with pytest.raises(ValueError, match="permutation"):
                simulate(cfg, OrderedListPolicy(2, order))

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_ages_beliefs_only_for_policies_that_read_them(self, monkeypatch, name):
        calls = []
        real = sim._tau
        monkeypatch.setattr(sim, "_tau", lambda m, x: calls.append(x.shape) or real(m, x))
        cfg = make_config(0.3, 0.8, 4, 2, 5, 0.9, (0.5, 0.3, 0.7, 0.6), 30, 3)
        seen = []
        policy = POLICIES[name](cfg.model, cfg.horizon, 4, 2)
        batch_actions = policy.batch_actions
        policy.batch_actions = lambda b, t, u: seen.append(b.copy()) or batch_actions(b, t, u)
        simulate(cfg, policy)
        reads = name in ("greedy", "optimal")
        assert policy.uses_beliefs is reads
        assert calls == ([(30, 4)] * 4 if reads else [])
        assert len(seen) == 5
        if not reads:  # the initial belief rows at every step
            assert all((b == cfg.initial_belief.omega).all() for b in seen)

    def test_policy_updates_beliefs_by_default(self):
        class PlainGreedy(Policy):
            def __init__(self, k):
                self.k = k

            batch_actions = GreedyPolicy.batch_actions

        class BlindGreedy(PlainGreedy):
            uses_beliefs = False

        cfg = make_config(0.3, 0.8, 4, 2, 5, 0.9, (0.5, 0.3, 0.7, 0.6), 200, 3)
        want = simulate(cfg, GreedyPolicy(2)).totals
        assert simulate(cfg, PlainGreedy(2)).totals.tobytes() == want.tobytes()
        # Served the initial beliefs throughout, greedy senses other channels.
        assert simulate(cfg, BlindGreedy(2)).totals.tobytes() != want.tobytes()

    def test_policy_without_batch_form_names_the_method(self):
        class NoBatchForm(Policy):
            name = "no-batch-form"

        cfg = make_config(0.2, 0.8, 3, 1, 3, 1.0, (0.5,) * 3, 10, 1)
        with pytest.raises(NotImplementedError, match="NoBatchForm does not .* batch_actions"):
            simulate(cfg, NoBatchForm())

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


def assert_columns_equal(traces, runs):
    """``traces`` holds the loop oracle's records ``runs`` column for column."""
    got = (traces.states, traces.actions, traces.observations, traces.rewards)
    for column, expected in zip(got, columns(runs)):
        assert column.shape == expected.shape and np.array_equal(column, expected)


def assert_written_as_reference(tmp_path, traces, runs):
    """The column writer's bytes for ``traces`` equal the record-by-record
    reference writer's for the loop oracle's ``runs`` of the same paths."""
    assert_columns_equal(traces, runs)
    ours, ref = tmp_path / "columns.jsonl", tmp_path / "reference.jsonl"
    write_traces(str(ours), traces)
    write_traces_json(str(ref), runs)
    assert ours.read_bytes() == ref.read_bytes()


def assert_run_written_as_reference(tmp_path, cfg, make):
    """``simulate(cfg, make())`` writes the reference bytes of the loop's run."""
    assert_written_as_reference(
        tmp_path, simulate(cfg, make()).traces, simulate_loop(cfg, make()).traces
    )


class TestPolicyStreamWithoutRandomness:
    @pytest.mark.parametrize("name", ["greedy", "optimal", "ordered-list", "round-robin"])
    def test_one_zero_view_and_the_same_runs(self, name):
        # A policy that draws no randomness reads one read-only zero-stride
        # view of zeros, and runs as it did on an (R, T) zeros array.
        cfg = make_config(0.3, 0.8, 4, 2, 4, 0.9, (0.5, 0.3, 0.7, 0.6), 50, 3, traces=True)
        make = POLICIES[name]
        policy = make(cfg.model, cfg.horizon, 4, 2)
        seen = []
        batch_actions = policy.batch_actions
        policy.batch_actions = lambda beliefs, t, u: seen.append(u) or batch_actions(beliefs, t, u)
        got = simulate(cfg, policy)
        assert len(seen) == 4
        for u in seen:
            assert u.shape == (50,) and u.strides == (0,)
            assert not u.flags.writeable and not u.any()
        want = make(cfg.model, cfg.horizon, 4, 2)
        want.reset(4, 2, cfg.initial_belief.omega)
        totals, traces = sim._simulate_batch(cfg, want, sim._hidden_paths(cfg), np.zeros((50, 4)))
        assert got.totals.tobytes() == totals.tobytes()
        for a, b in zip(
            (got.traces.states, got.traces.actions, got.traces.observations, got.traces.rewards),
            (traces.states, traces.actions, traces.observations, traces.rewards),
        ):
            assert a.tobytes() == b.tobytes()


class TestTraceColumns:
    """``Traces`` and the column writer against the record-by-record reference."""

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_every_policy_writes_reference_bytes(self, tmp_path, name, k):
        cfg = make_config(0.8, 0.3, 4, k, 4, 0.9, (0.6, 0.3, 0.6, 0.8), 30, 11, traces=True)
        assert_run_written_as_reference(
            tmp_path, cfg, lambda: POLICIES[name](cfg.model, cfg.horizon, 4, k)
        )

    @pytest.mark.parametrize("reps,T", [(1, 4), (1, 1), (40, 1)])
    def test_one_replication_and_one_slot(self, tmp_path, reps, T):
        cfg = make_config(0.2, 0.8, 3, 2, T, 0.9, (0.5, 0.3, 0.7), reps, 5, traces=True)
        assert simulate(cfg, UniformRandomPolicy(3, 2)).traces.states.shape == (T, reps, 3)
        assert_run_written_as_reference(tmp_path, cfg, lambda: UniformRandomPolicy(3, 2))

    def test_many_writer_blocks(self, tmp_path, monkeypatch):
        cfg = make_config(0.2, 0.8, 3, 1, 3, 0.9, (0.5, 0.3, 0.7), 23, 6, traces=True)
        # Blocks of two replications, the last one short.
        monkeypatch.setattr(sim, "_TRACE_BLOCK_LINES", 7)
        assert_run_written_as_reference(tmp_path, cfg, lambda: GreedyPolicy(1))

    def test_more_replications_than_one_block(self, tmp_path):
        T = 4
        reps = sim._TRACE_BLOCK_LINES // T + 1000
        cfg = make_config(0.2, 0.8, 5, 2, T, 0.9, (0.1, 0.3, 0.5, 0.7, 0.9), reps, 8, traces=True)
        assert_run_written_as_reference(tmp_path, cfg, lambda: GreedyPolicy(2))

    def test_wide_rows_re_rank(self, tmp_path):
        # Rows of 1 + 70 + 3 + 3 + 1 entries below 71: no int64 code in base
        # 71 holds one, so the writer must key each row on all its entries.
        n = 70
        omega = tuple(np.random.default_rng(3).random(n))
        cfg = make_config(0.2, 0.8, n, 3, 3, 0.9, omega, 50, 9, traces=True)
        assert 71 ** 78 > np.iinfo(np.int64).max
        assert_run_written_as_reference(tmp_path, cfg, lambda: UniformRandomPolicy(n, 3))

    def test_rows_differing_only_in_the_first_channel(self, tmp_path):
        # Base 64 (the largest entry is action 63): a key folded to an int64
        # code that wraps would multiply the first channels by 64**11 = 0 mod
        # 2**64, and write both rows alike.
        states = np.zeros((1, 2, 63), dtype=np.int8)
        states[0, 1, 0] = 1
        traces = Traces(
            states,
            np.full((1, 2, 3), [61, 62, 63]),
            np.zeros((1, 2, 3), dtype=np.int8),
            np.zeros((1, 2), dtype=np.int64),
        )
        runs = tuple(
            RunRecord(r, (StepRecord(1, tuple(row), (61, 62, 63), (0, 0, 0), 0),), 0.0)
            for r, row in enumerate(states[0].tolist())
        )
        assert_written_as_reference(tmp_path, traces, runs)
        lines = (tmp_path / "columns.jsonl").read_text().splitlines()
        assert [json.loads(line)["states"][0] for line in lines] == [0, 1]

    # Traces that span several writer blocks: greedy at (n, k, T) = (5, 2, 5),
    # whose rows repeat often, and uniform random at (12, 3, 4), whose rows
    # almost never do.  The digests are of the bytes the writer wrote when it
    # formatted each block's distinct rows afresh.
    SPANNING = {
        "repeating": (
            (5, 2, 5, (0.1, 0.4, 0.5, 0.6, 0.9), 5000, 2801), lambda: GreedyPolicy(2),
            "9fbdb3df3a605bfb1f2a97847ec129071e7506891f03989a5b737dab4405269f",
        ),
        "distinct": (
            (12, 3, 4, tuple(np.linspace(0.05, 0.95, 12)), 2 * 2048 + 500, 2802),
            lambda: UniformRandomPolicy(12, 3),
            "2e4d2eb0da755e51f522ded24e10e5dabb0ac447cd20132126eb7d26f25de9bb",
        ),
    }

    def spanning_traces(self, name):
        (n, k, T, omega, reps, seed), make, _ = self.SPANNING[name]
        cfg = make_config(0.3, 0.8, n, k, T, 0.95, omega, reps, seed, traces=True)
        assert reps * T > 2 * sim._TRACE_BLOCK_LINES
        return simulate(cfg, make()).traces

    @pytest.mark.parametrize("block_lines", [None, 300])
    @pytest.mark.parametrize("name", list(SPANNING))
    def test_bytes_pinned_across_blocks(self, tmp_path, monkeypatch, name, block_lines):
        # 300 lines a block empties the table at almost every block.
        traces = self.spanning_traces(name)
        if block_lines is not None:
            monkeypatch.setattr(sim, "_TRACE_BLOCK_LINES", block_lines)
        path = tmp_path / "traces.jsonl"
        write_traces(str(path), traces)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SPANNING[name][2]

    @staticmethod
    def write_per_block(path, traces):
        """The writer that formatted each block's distinct rows afresh."""
        T, R, n = traces.states.shape
        k = traces.actions.shape[2]
        columns = (
            np.broadcast_to(np.arange(1, T + 1).reshape(T, 1, 1), (T, R, 1)),
            traces.states, traces.actions, traces.observations, traces.rewards.reshape(T, R, 1),
        )
        head = f'{{"v":{sim.TRACE_SCHEMA_VERSION},"rep":'
        block = max(1, sim._TRACE_BLOCK_LINES // T)
        with open(path, "w") as f:
            for start in range(0, R, block):
                stop = min(start + block, R)
                rows = np.concatenate(
                    [c[:, start:stop].swapaxes(0, 1).reshape((stop - start) * T, -1) for c in columns],
                    axis=1,
                )
                ids, member = _groups(_fold_keys(rows, int(rows.max()) + 1))
                tails = [
                    f',"t":{row[0]},"states":[{",".join(map(str, row[1 : n + 1]))}],'
                    f'"action":[{",".join(map(str, row[n + 1 : n + k + 1]))}],'
                    f'"obs":[{",".join(map(str, row[n + k + 1 : -1]))}],"reward":{row[-1]}}}\n'
                    for row in rows[member].tolist()
                ]
                f.write("".join([
                    head + str(r) + tails[i]
                    for r, rep_ids in zip(range(start, stop), ids.reshape(-1, T).tolist())
                    for i in rep_ids
                ]))

    def test_distinct_rows_peak_no_higher_than_per_block_formatting(self, tmp_path):
        # The table of row texts is emptied before it passes one block's
        # lines, so on rows that almost never repeat the writer holds about
        # one block's text, as the writer that formatted each block afresh
        # did.  Both peaks are measured here, on the same trace.
        traces = self.spanning_traces("distinct")
        peaks = []
        for write in (self.write_per_block, write_traces):
            path = tmp_path / "traces.jsonl"
            tracemalloc.start()
            try:
                write(str(path), traces)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SPANNING["distinct"][2]
        assert peaks[1] <= peaks[0]

    def test_columns_read_only(self):
        cfg = make_config(0.2, 0.8, 3, 2, 2, 0.9, (0.5, 0.3, 0.7), 4, 13, traces=True)
        traces = simulate(cfg, GreedyPolicy(2)).traces
        got = (traces.states, traces.actions, traces.observations, traces.rewards)
        assert [c.shape for c in got] == [(2, 4, 3), (2, 4, 2), (2, 4, 2), (2, 4)]
        for column in got:
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 1

    def test_writer_takes_only_traces(self, tmp_path):
        cfg = make_config(0.2, 0.8, 3, 2, 2, 0.9, (0.5, 0.3, 0.7), 4, 13, traces=True)
        runs = simulate_loop(cfg, GreedyPolicy(2)).traces
        with pytest.raises(TypeError, match="Traces"):
            write_traces(str(tmp_path / "t.jsonl"), runs)


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

    @pytest.mark.parametrize(
        "name,value",
        [("replications", 2.5), ("replications", 10.0), ("replications", True),
         ("replications", np.bool_(True)), ("seed", 1.5), ("seed", False), ("seed", "1")],
    )
    def test_replications_and_seed_are_integers(self, name, value):
        # Were they let through, simulate would fail deep inside with a TypeError.
        values = {"replications": 10, "seed": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_config(0.2, 0.8, 2, 1, 2, 1.0, (0.5, 0.5), values["replications"], values["seed"])

    def test_numpy_integers_held_as_ints(self):
        # Such as a count or seed drawn with rng.integers.
        cfg = make_config(0.2, 0.8, 2, 1, 2, 1.0, (0.5, 0.5), np.int64(10), np.uint32(2**32 - 1))
        assert type(cfg.replications) is int and type(cfg.seed) is int
        want = make_config(0.2, 0.8, 2, 1, 2, 1.0, (0.5, 0.5), 10, 2**32 - 1)
        got = simulate(cfg, GreedyPolicy(1))
        assert got.totals.tobytes() == simulate(want, GreedyPolicy(1)).totals.tobytes()

    @pytest.mark.parametrize("omega", [[0.2, 0.5, 0.9], np.array([0.2, 0.5, 0.9])], ids=["list", "array"])
    def test_belief_list_or_array_runs_as_the_tuple(self, omega):
        # Once kept as given, such a belief made simulate fail hashing the path key.
        runs = []
        for belief in (BeliefVector(omega), BeliefVector((0.2, 0.5, 0.9))):
            cfg = SimConfig(TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9), 3, 2, belief, 50, 3, True)
            runs.append(simulate(cfg, GreedyPolicy(2)))
        assert runs[0].totals.tobytes() == runs[1].totals.tobytes()
        assert runs[0].traces.states.tobytes() == runs[1].traces.states.tobytes()


class TestHiddenPathsSlot:
    """``dp._TABLES`` holds the last run's hidden paths, keyed on their inputs."""

    BASE = dict(p01=0.3, p11=0.7, n=4, k=2, T=5, beta=0.9, omega=(0.2, 0.5, 0.8, 0.4),
                reps=60, seed=44)
    REDRAWN = {
        "seed": dict(seed=45),
        "replications": dict(reps=61),
        "T": dict(T=4),
        "n": dict(n=5, omega=(0.2, 0.5, 0.8, 0.4, 0.6)),
        "p01": dict(p01=0.31),
        "p11": dict(p11=0.71),
        "one belief entry": dict(omega=(0.2, 0.5, 0.8, 0.41)),
    }
    KEPT = {"beta": dict(beta=0.5), "k": dict(k=3), "traces": dict(traces=True)}

    def config(self, **changes):
        return make_config(**dict(self.BASE, **changes))

    @pytest.mark.parametrize("change", list(REDRAWN) + list(KEPT))
    def test_exactly_the_path_inputs_key_it(self, monkeypatch, change):
        simulate(self.config(), GreedyPolicy(2))
        draws = count_draws(monkeypatch)
        cfg = self.config(**{**self.REDRAWN, **self.KEPT}[change])
        got = simulate(cfg, GreedyPolicy(2))
        assert draws == Counter({1: 1} if change in self.REDRAWN else {})
        assert got.totals.tobytes() == simulate_loop(cfg, GreedyPolicy(2)).totals.tobytes()

    def test_the_policy_does_not_key_it(self, monkeypatch):
        cfg = self.config()
        simulate(cfg, GreedyPolicy(2))
        draws = count_draws(monkeypatch)
        for policy in (UniformRandomPolicy(4, 2), RoundRobinPolicy(4, 2), OrderedListPolicy(2)):
            simulate(cfg, policy)
        assert draws == Counter({2: 1})

    def test_interleaved_runs_equal_fresh_ones_and_the_loop(self):
        a, b = self.config(traces=True), self.config(seed=46, traces=True)
        a_beta = self.config(beta=0.5, traces=True)
        order = (a, b, a, a_beta)
        runs = [simulate(cfg, UniformRandomPolicy(4, 2)) for cfg in order]
        # The last run read the paths the one before it drew.
        assert runs[3].traces.states is runs[2].traces.states
        for cfg, run in zip(order, runs):
            dp._TABLES.clear()
            fresh = simulate(cfg, UniformRandomPolicy(4, 2))
            looped = simulate_loop(cfg, UniformRandomPolicy(4, 2))
            assert run.totals.tobytes() == fresh.totals.tobytes() == looped.totals.tobytes()
            for x, y in zip(columns_of(run.traces), columns_of(fresh.traces)):
                assert x.tobytes() == y.tobytes()
            assert_columns_equal(run.traces, looped.traces)

    def test_paths_are_read_only_and_the_traced_states(self):
        cfg = self.config(traces=True)
        paths = sim._hidden_paths(cfg)
        assert paths.shape == (5, 60, 4) and paths.dtype == np.int8
        with pytest.raises(ValueError, match="read-only"):
            paths[0, 0, 0] = 1
        assert simulate(cfg, GreedyPolicy(2)).traces.states is paths
        key, held = dp._TABLES[("paths",)]
        assert key == sim._path_key(cfg) and held is paths

    def test_a_miss_frees_the_held_paths_before_it_draws(self):
        # Each config holds 20,000 * 5 * 5 = 500,000 bytes of paths, and draws
        # 4 MB of nature uniforms.  Were a's paths still held during b's draw,
        # b's peak after a would be theirs higher than b's from empty tables.
        a = make_config(0.3, 0.8, 5, 2, 5, 0.9, (0.1, 0.4, 0.5, 0.6, 0.9), 20_000, 1)
        b = make_config(0.3, 0.8, 5, 2, 5, 0.9, (0.1, 0.4, 0.5, 0.6, 0.9), 20_000, 2)

        def peak_of_b():
            tracemalloc.reset_peak()
            simulate(b, GreedyPolicy(2))
            return tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            simulate(a, GreedyPolicy(2))
            after_a = peak_of_b()
            dp._TABLES.clear()
            from_empty = peak_of_b()
        finally:
            tracemalloc.stop()
        assert after_a <= from_empty + 64 * 1024
        assert dp._TABLES[("paths",)][0] == sim._path_key(b)


def columns_of(traces):
    return (traces.states, traces.actions, traces.observations, traces.rewards)
