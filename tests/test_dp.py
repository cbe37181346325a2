import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oppaccess import (
    BeliefVector,
    FiniteHorizonSolver,
    HorizonSpec,
    OptimalPolicy,
    ResourceLimitError,
    SimConfig,
    TransitionModel,
    greedy_action,
    simulate,
    tau_iterate,
)
from oppaccess import dp, verify
from oppaccess.dp import w_table
from oppaccess.verify import (
    REGIMES,
    InstanceSampler,
    check_affinity,
    check_lemma2_reduction,
    check_lemma3_A,
    check_lemma3_B,
)

from _oracles import (
    RecursiveVSolver,
    _distinct_selections,
    _poisson_binomial,
    GREEDY_LOSSES,
    all_greedy_actions,
    bellman_residual,
    child_parts_per_pair,
    graph_entries,
    affine_swap_delta,
    brute_force_optimal,
    exact_policy_value,
    full_observation_value,
    v_graphs,
)

probs = st.floats(min_value=0.0, max_value=1.0)


def make_solver(p01, p11, T, beta, k, max_states=10_000_000):
    return FiniteHorizonSolver(TransitionModel(p01, p11), HorizonSpec(T, beta), k, max_states)


class TestOptimalValue:
    def test_terminal_is_top_k_sum(self):
        s = make_solver(0.2, 0.8, 1, 1.0, 1)
        res = s.optimal_value(BeliefVector((0.2, 0.7)), 1)
        assert res.value == pytest.approx(0.7)
        assert [a.indices for a in res.best_actions] == [(2,)]

    def test_hand_expanded_two_step(self):
        # exhaustive expansion: 0.5 + (0.5*0.8 + 0.5*0.5) = 1.15
        omega = (0.5, 0.5)
        model = TransitionModel(0.2, 0.8)
        horizon = HorizonSpec(2, 1.0)
        oracle = brute_force_optimal(omega, 1, model, horizon, 1)
        assert oracle == pytest.approx(1.15, abs=1e-15)
        s = FiniteHorizonSolver(model, horizon, 1)
        assert s.optimal_value(BeliefVector(omega), 1).value == pytest.approx(1.15, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n + 1))
        T = int(rng.integers(1, 4))
        model = TransitionModel(float(rng.random()), float(rng.random()))
        horizon = HorizonSpec(T, float(rng.random()))
        omega = tuple(float(w) for w in rng.random(n))
        oracle = brute_force_optimal(omega, 1, model, horizon, k)
        s = FiniteHorizonSolver(model, horizon, k)
        assert s.optimal_value(BeliefVector(omega), 1).value == pytest.approx(
            oracle, abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_select_all_closed_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 5))
        model = TransitionModel(float(rng.random()), float(rng.random()))
        horizon = HorizonSpec(int(rng.integers(1, 6)), float(rng.random()))
        omega = tuple(float(w) for w in rng.random(n))
        s = FiniteHorizonSolver(model, horizon, n)
        assert s.optimal_value(BeliefVector(omega), 1).value == pytest.approx(
            full_observation_value(omega, model, horizon), abs=1e-12
        )

    def test_monotone_horizon_undiscounted(self):
        s = make_solver(0.3, 0.7, 5, 1.0, 2)
        b = BeliefVector((0.1, 0.4, 0.6, 0.9))
        values = [s.optimal_value(b, t).value for t in range(1, 6)]
        for earlier, later in zip(values, values[1:]):
            assert earlier >= later - 1e-12

    def test_value_bounds(self):
        s = make_solver(0.3, 0.7, 4, 0.5, 2)
        v = s.optimal_value(BeliefVector((0.2, 0.5, 0.9)), 1).value
        assert 0.0 <= v <= 2 * (1 - 0.5**4) / (1 - 0.5)

    def test_best_actions_under_tie(self):
        s = make_solver(0.2, 0.8, 1, 1.0, 1)
        res = s.optimal_value(BeliefVector((0.5, 0.5)), 1)
        assert [a.indices for a in res.best_actions] == [(1,), (2,)]

    def test_bellman_cache_audit(self):
        s = make_solver(0.25, 0.75, 4, 0.9, 2)
        s.optimal_value(BeliefVector((0.1, 0.5, 0.8, 0.33)), 1)
        assert bellman_residual(s) <= 1e-12

    def test_resource_cap(self):
        s = make_solver(0.21, 0.77, 5, 1.0, 2, max_states=10)
        with pytest.raises(ResourceLimitError):
            s.optimal_value(BeliefVector((0.11, 0.52, 0.83, 0.4)), 1)

    def test_time_index_validation(self):
        s = make_solver(0.2, 0.8, 2, 1.0, 1)
        with pytest.raises(ValueError):
            s.optimal_value(BeliefVector((0.5,)), 3)
        with pytest.raises(ValueError):
            s.optimal_value(BeliefVector((0.5,)), 0)


class TestWValue:
    def test_terminal_sum_of_last_k(self):
        s = make_solver(0.2, 0.8, 1, 1.0, 2)
        assert s.w_value(BeliefVector((0.1, 0.4, 0.9)), 1) == pytest.approx(1.3)

    def test_greedy_value_sorts_first(self):
        s = make_solver(0.2, 0.8, 1, 1.0, 2)
        assert s.greedy_value(BeliefVector((0.9, 0.1, 0.4)), 1) == pytest.approx(1.3)

    def test_equals_optimal_when_single_action(self):
        # length-n vector with k = n: only one action exists
        s = make_solver(0.3, 0.9, 4, 0.8, 3)
        b = BeliefVector((0.2, 0.6, 0.9))
        for t in range(1, 5):
            assert s.w_value(b, t) == pytest.approx(
                s.optimal_value(b, t).value, abs=1e-12
            )

    def test_greedy_equals_optimal_two_step(self):
        s = make_solver(0.2, 0.8, 2, 1.0, 1)
        assert s.greedy_value(BeliefVector((0.5, 0.5)), 1) == pytest.approx(1.15, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_equals_optimal_positive_regime(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        a, b = sorted(rng.random(2))
        model = TransitionModel(float(a), float(b))
        horizon = HorizonSpec(int(rng.integers(1, 5)), float(rng.random()))
        omega = tuple(float(w) for w in rng.random(n))
        s = FiniteHorizonSolver(model, horizon, k)
        gv = s.greedy_value(BeliefVector(omega), 1)
        ov = s.optimal_value(BeliefVector(omega), 1).value
        assert gv == pytest.approx(ov, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_greedy_rollout(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        a, b = sorted(rng.random(2))
        model = TransitionModel(float(a), float(b))
        horizon = HorizonSpec(int(rng.integers(1, 5)), float(rng.random()))
        omega = tuple(float(w) for w in rng.random(n))
        s = FiniteHorizonSolver(model, horizon, k)
        rollout = exact_policy_value(
            omega, 1, model, horizon, k, lambda w, t: greedy_action(w, k)
        )
        assert s.greedy_value(BeliefVector(omega), 1) == pytest.approx(rollout, abs=1e-12)


class TestAffineSwap:
    def test_equal_arguments_zero(self):
        s = make_solver(0.2, 0.8, 3, 0.9, 1)
        lhs, rhs = affine_swap_delta(s, (0.3,), 0.4, 0.4, (0.7,), 1)
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_unit_swap_tautology(self):
        s = make_solver(0.2, 0.8, 3, 0.9, 2)
        lhs, rhs = affine_swap_delta(s, (0.3,), 1.0, 0.0, (0.7,), 1)
        assert lhs == pytest.approx(rhs, abs=1e-15)

    @given(
        prefix=st.lists(probs, min_size=0, max_size=2),
        x=probs,
        y=probs,
        suffix=st.lists(probs, min_size=0, max_size=2),
        p01=probs,
        p11=probs,
    )
    @settings(max_examples=40, deadline=None)
    def test_identity_random(self, prefix, x, y, suffix, p01, p11):
        s = FiniteHorizonSolver(TransitionModel(p01, p11), HorizonSpec(3, 0.95), 1)
        lhs, rhs = affine_swap_delta(s, tuple(prefix), x, y, tuple(suffix), 1)
        assert abs(lhs - rhs) <= 1e-12

    def test_three_point_collinearity(self):
        s = make_solver(0.15, 0.85, 4, 1.0, 2)
        base = (0.3, 0.6, 0.9)

        def w_at(v):
            return s.w_value(BeliefVector((v,) + base), 1)

        assert w_at(0.5) == pytest.approx(0.5 * (w_at(0.0) + w_at(1.0)), abs=1e-12)


class TestLeftToRightSums:
    def test_top_k_sum_folds_left_to_right(self):
        # 0.1 + 0.2 + 0.3 folded left to right; compensated summation (the
        # built-in sum from Python 3.12 on) gives 0x1.3333333333333p-1.
        want = "0x1.3333333333334p-1"
        s = make_solver(0.2, 0.8, 1, 1.0, 3)
        b = BeliefVector((0.1, 0.2, 0.3))
        assert s.optimal_value(b, 1).value.hex() == want
        assert s.w_value(b, 1).hex() == want
        assert RecursiveVSolver(s.model, s.horizon, 3).w_value(b, 1).hex() == want
        table = w_table(s.model, s.horizon, 3, [b.omega])
        assert float(table[0, 0]).hex() == want


class TestOutcomeLaw:
    def test_rows_of_one_vector_equal_the_scalar_law(self):
        # V's backward pass, G's root step and W all read dp's vectorised
        # law; on one vector it must be the scalar loop's law, to the bit,
        # exact 0.0 and 1.0 entries (zero-probability outcomes) included.
        rng = np.random.default_rng(18)
        for k in range(1, 7):
            for case in range(300):
                sensed = rng.random(k)
                if case % 3 == 0:
                    sensed[rng.integers(k)] = 0.0
                    sensed[rng.integers(k)] = 1.0
                elif case % 3 == 1:
                    sensed = rng.integers(0, 2, k).astype(float)
                got = dp._poisson_binomial_rows(sensed).tolist()
                want = _poisson_binomial(sensed.tolist())
                assert [p.hex() for p in got] == [p.hex() for p in want]


_W_CHECKS = (check_lemma3_A, check_lemma3_B, check_lemma2_reduction, check_affinity)


class TestWTable:
    """The position-keyed W graph against the memoised recursion, as float.hex."""

    def test_property_vector_sets_match_solver(self, monkeypatch):
        calls = []

        def recording_w_table(model, horizon, k, vectors, max_states):
            table = w_table(model, horizon, k, vectors, max_states)
            calls.append((model, horizon, k, vectors, table))
            return table

        monkeypatch.setattr(verify, "w_table", recording_w_table)
        for seed, regime in enumerate(REGIMES):
            for check in _W_CHECKS:
                sampler = InstanceSampler(
                    seed=600 + seed, regime=regime, n_range=(2, 8), T_range=(1, 8),
                    sorted_beliefs=check is not check_affinity,
                )
                check(sampler, 60)
        compared, mismatches = 0, []
        shapes, betas = set(), set()
        for model, horizon, k, vectors, table in calls:
            assert table.shape == (horizon.T, len(vectors))
            oracle = RecursiveVSolver(model, horizon, k)
            for t in range(1, horizon.T + 1):
                for vec, got in zip(vectors, table[t - 1].tolist()):
                    want = oracle.w_value(BeliefVector(vec), t)
                    compared += 1
                    if got.hex() != want.hex():
                        mismatches.append((model, horizon, k, vec, t, got.hex(), want.hex()))
            shapes.add((len(vectors[0]), k, horizon.T))
            betas.add(horizon.beta if horizon.beta in (0.0, 1.0) else "random")
        assert mismatches == []
        assert compared >= 20_000
        assert betas == {0.0, 1.0, "random"}
        assert {n for n, _, _ in shapes} == set(range(2, 9))
        assert {T for _, _, T in shapes} == set(range(1, 9))
        assert any(k == 1 for _, k, _ in shapes) and any(k == n for n, k, _ in shapes)
        assert {m.p01 < m.p11 for m, *_ in calls} == {True, False}
        assert any(m.p01 == m.p11 for m, *_ in calls)

    @pytest.mark.parametrize("cap", [10_000_000, 40, 5])
    def test_affinity_row_equals_the_whole_tables_row(self, monkeypatch, cap):
        # check_affinity evaluates W over the T - t + 1 slots left from its t.
        # Its values must equal row t - 1 of the whole (n, k, T) table, and the
        # cap must still count the whole graph, so the same instances report
        # affinity/resource.
        calls = []

        def recording_w_table(model, horizon, k, vectors, max_states):
            table = w_table(model, horizon, k, vectors, max_states)
            calls.append((horizon.T, vectors, table[0]))
            return table

        monkeypatch.setattr(verify, "w_table", recording_w_table)
        compared = short = tripped_total = 0
        for seed, regime in enumerate(REGIMES):
            sampler = InstanceSampler(
                seed=700 + seed, regime=regime, n_range=(2, 8), T_range=(1, 8),
                sorted_beliefs=False,
            )
            del calls[:]
            reports = check_affinity(sampler, 80, max_states=cap)
            tripped = [v.instance.index for v in reports if v.property_id == "affinity/resource"]
            assert all(v.property_id == "affinity/resource" for v in reports)
            # W reads only the root when beta = 0, so no such instance trips.
            assert all(v.instance.beta != 0.0 for v in reports)
            evaluated = []
            for inst in sampler.instances(80):
                try:
                    w_table(inst.model, inst.horizon, inst.k, [inst.omega], cap)
                    evaluated.append(inst)
                except ResourceLimitError:
                    assert inst.index in tripped
            assert len(tripped) + len(evaluated) == 80 == len(tripped) + len(calls)
            tripped_total += len(tripped)
            for inst, (slots_left, vectors, row) in zip(evaluated, calls):
                whole = w_table(inst.model, inst.horizon, inst.k, vectors)
                t = inst.T - slots_left + 1
                assert [x.hex() for x in row.tolist()] == [x.hex() for x in whole[t - 1].tolist()]
                compared += len(vectors)
                short += t > 1
        assert compared > 300 and short > 5
        assert (tripped_total > 80) == (cap < 10_000_000)

    def test_one_graph_per_shape_answers_every_t(self):
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(5, 0.9)
        # the last vector's first two entries are clamped by tau
        vectors = [
            (0.15, 0.62, 0.4, 0.88),
            (0.88, 0.4, 0.62, 0.15),
            (0.0, 1.0, 0.5, 0.5),
            (-1e-13, 1.0 + 1e-13, 0.5, 0.3),
        ]
        table = w_table(model, horizon, 2, vectors)
        oracle = RecursiveVSolver(model, horizon, 2)
        assert table.shape == (5, 4)
        for t in range(1, 6):
            for vec, got in zip(vectors, table[t - 1].tolist()):
                assert got.hex() == oracle.w_value(BeliefVector(vec), t).hex()

    def test_node_cap_while_building_and_when_cached(self, monkeypatch):
        model, horizon, k = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9), 2
        vectors = [(0.1, 0.5, 0.7, 0.9)]
        key = ("W", 4, k, 3)
        nodes = dp._w_graph(4, k, 3, 10_000).nodes
        assert nodes > 5
        builds = []
        build = dp._build_w_graph

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(dp, "_build_w_graph", counting)
        for cap in (5, nodes - 1):
            dp._TABLES.pop(key, None)
            del builds[:]
            for _ in range(2):
                with pytest.raises(ResourceLimitError):
                    w_table(model, horizon, k, vectors, max_states=cap)
            # a build stopped by the cap is not tried again under the same cap
            assert builds == [(4, k, 3, cap)]
        w_table(model, horizon, k, vectors, max_states=nodes)
        assert builds == [(4, k, 3, nodes - 1), (4, k, 3, nodes)]
        assert dp._TABLES[key].nodes == nodes
        with pytest.raises(ResourceLimitError):
            w_table(model, horizon, k, vectors, max_states=nodes - 1)

    def test_beta0_reads_no_graph(self):
        # W_t is the left-folded sum of the last k entries for every t.
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(6, 0.0)
        vectors = [(0.1, 0.5, 0.7, 0.9), (0.9, 0.7, 0.5, 0.1), (1.0 + 1e-13, 0.2, 0.3, -1e-13)]
        table = w_table(model, horizon, 3, vectors, max_states=1)
        assert ("W", 4, 3, 5) not in dp._TABLES
        oracle = RecursiveVSolver(model, horizon, 3)
        for t in range(1, 7):
            for vec, got in zip(vectors, table[t - 1].tolist()):
                assert got.hex() == dp._left_sum(vec[1:]).hex()
                assert got.hex() == oracle.w_value(BeliefVector(vec), t).hex()
        assert dp.w_graph_nodes(4, 3, horizon, 1) == 1
        nodes = dp._w_graph(4, 3, 5, 10_000).nodes
        assert dp.w_graph_nodes(4, 3, HorizonSpec(6, 0.5), 10_000) == nodes
        for beta in (0.0, 0.5):
            with pytest.raises(ResourceLimitError):
                w_table(model, HorizonSpec(6, beta), 3, vectors, max_states=0)

    def test_stacked_call_equals_each_vectors_own_call(self):
        # A vector's values do not depend on the others evaluated with it.
        rng = np.random.default_rng(1717)
        compared = 0
        for n in range(1, 9):
            for k, T in itertools.product(sorted({1, n}), range(1, 9)):
                for beta in (0.0, 1.0, float(rng.random())):
                    p01, p11 = rng.random(2)
                    model, horizon = TransitionModel(p01, p11), HorizonSpec(T, beta)
                    vectors = rng.random((4, n))
                    vectors[0, 0] = -1e-13
                    vectors[1, -1] = 1.0 + 1e-13
                    vectors[2, rng.integers(n)] = 1.0 + 1e-13
                    vectors[3, rng.integers(n)] = -1e-13
                    stacked = w_table(model, horizon, k, vectors.tolist())
                    for j, vec in enumerate(vectors.tolist()):
                        own = w_table(model, horizon, k, [vec])[:, 0]
                        assert [x.hex() for x in stacked[:, j].tolist()] == [
                            x.hex() for x in own.tolist()
                        ], (n, k, T, beta, vec)
                        compared += T
        assert compared > 5000

    @pytest.mark.parametrize(
        "key, nodes, depths",
        [
            ((8, 4, 3), 136, [1, 6, 31, 101]),
            ((8, 2, 5), 520, [1, 4, 13, 40, 121, 346]),
            ((6, 3, 5), 421, [1, 5, 21, 57, 121, 221]),
        ],
        ids=["n8-k4-H3", "n8-k2-H5", "n6-k3-H5"],
    )
    def test_graph_sizes_are_pinned(self, key, nodes, depths):
        # Every depth holds the root, which counts as one node.
        n, k, H = key
        graph = dp._build_w_graph(n, k, H, 10_000)
        assert graph.nodes == nodes == sum(depths) - H
        assert np.diff(graph.starts).tolist() == depths
        assert graph.sensed.shape == (k, sum(depths))
        assert [c.shape for c in graph.children] == [(k + 1, m) for m in depths[:-1]]
        horizon = HorizonSpec(H + 1, 0.9)
        assert dp.w_graph_nodes(n, k, horizon, graph.nodes) == graph.nodes
        with pytest.raises(ResourceLimitError):
            dp.w_graph_nodes(n, k, horizon, graph.nodes - 1)
        s = FiniteHorizonSolver(TransitionModel(0.3, 0.8), horizon, k)
        s.greedy_value(BeliefVector(tuple(np.linspace(0.1, 0.9, n))), 1)
        assert s.cache_stats()["w_states"] == graph.nodes

    def test_one_outcome_law_per_call(self, monkeypatch):
        # The law is computed once over every depth but the last, so a call
        # makes one _poisson_binomial_rows call, and none when T = 1 or
        # beta = 0, where no child is read.
        calls = []
        law = dp._poisson_binomial_rows

        def counting(sensed):
            calls.append(sensed.shape)
            return law(sensed)

        monkeypatch.setattr(dp, "_poisson_binomial_rows", counting)
        model, vectors = TransitionModel(0.3, 0.8), [(0.1, 0.5, 0.7, 0.9), (0.9, 0.7, 0.5, 0.1)]
        for T, beta in itertools.product(range(1, 9), (0.0, 0.9)):
            del calls[:]
            w_table(model, HorizonSpec(T, beta), 2, vectors)
            assert len(calls) == (T > 1 and beta != 0.0)
            if calls:
                graph = dp._TABLES[("W", 4, 2, T - 1)]
                assert calls[0] == (2, graph.starts[T - 1], len(vectors))
        # A T = 1 evaluation still counts, and caps, its one-node graph.
        s = FiniteHorizonSolver(model, HorizonSpec(1, 0.9), 2)
        s.w_value(BeliefVector(vectors[0]), 1)
        assert s.cache_stats()["w_states"] == 1
        with pytest.raises(ResourceLimitError):
            w_table(model, HorizonSpec(1, 0.9), 2, vectors, max_states=0)

    @pytest.mark.parametrize(
        "vectors, k",
        [([], 1), ([(0.1, 0.2), (0.3,)], 1), ([(0.1, 1.5)], 1), ([(0.1, 0.2)], 3), ([(0.1,)], 0)],
        ids=["empty", "ragged", "out-of-range", "k-above-n", "k-zero"],
    )
    def test_rejects_malformed_input(self, vectors, k):
        with pytest.raises(ValueError):
            w_table(TransitionModel(0.3, 0.8), HorizonSpec(2, 1.0), k, vectors)


class TestSolverWReadsTheTable:
    """``w_value``/``greedy_value`` read ``w_table``; the memoised recursion is the reference."""

    def test_values_match_the_recursion(self):
        compared = tied = 0
        betas = set()
        for seed, regime in enumerate(REGIMES):
            sampler = InstanceSampler(
                seed=800 + seed, regime=regime, n_range=(2, 8), T_range=(1, 8)
            )
            for inst in sampler.instances(100):
                rng = np.random.default_rng([800 + seed, inst.index])
                omega = list(inst.omega)
                # Some entries are p01 or p11 aged m steps, as observed entries are.
                for i in np.flatnonzero(rng.random(inst.n) < 0.4):
                    good, m = bool(rng.integers(2)), int(rng.integers(3))
                    omega[i] = tau_iterate(inst.p11 if good else inst.p01, inst.model, m)
                if rng.random() < 0.5:
                    i, j = rng.choice(inst.n, 2, replace=False)
                    omega[j] = omega[i]
                b = BeliefVector(tuple(omega))
                solver = inst.solver()
                oracle = RecursiveVSolver(inst.model, inst.horizon, inst.k)
                for t in range(1, inst.T + 1):
                    for method in ("w_value", "greedy_value"):
                        got = getattr(solver, method)(b, t)
                        want = getattr(oracle, method)(b, t)
                        assert got.hex() == want.hex(), (inst, b, t, method)
                        compared += 1
                # w_states counts the one graph every query read; with beta = 0
                # that is its root alone, and no graph is built
                key = ("W", inst.n, inst.k, inst.T - 1)
                nodes = 1 if inst.beta == 0.0 else dp._TABLES[key].nodes
                assert solver.cache_stats() == {"v_states": 0, "w_states": nodes}
                tied += len(set(omega)) < inst.n
                betas.add(inst.beta if inst.beta in (0.0, 1.0) else "random")
        assert compared > 2500 and tied > 150
        assert betas == {0.0, 1.0, "random"}

    def test_each_graph_is_capped_on_its_own(self):
        model, horizon, k = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9), 2
        b = BeliefVector((0.1, 0.5, 0.7, 0.9))
        w_nodes = dp._w_graph(4, k, 3, 10_000).nodes
        v_nodes = make_solver(0.3, 0.8, 4, 0.9, k).optimal_value(b, 1).cache_stats["v_states"]
        # V and W nodes are not summed: a cap that each graph fits runs both
        cap = max(v_nodes, w_nodes)
        s = FiniteHorizonSolver(model, horizon, k, max_states=cap)
        w = s.greedy_value(b, 1)
        assert s.optimal_value(b, 1).value == pytest.approx(w, abs=1e-9)
        assert s.cache_stats() == {"v_states": v_nodes, "w_states": w_nodes}
        # a second length adds its graph once, however often it is read
        s.w_value(BeliefVector((0.2, 0.6, 0.4)), 2)
        s.w_value(BeliefVector((0.6, 0.2, 0.4)), 1)
        assert s.cache_stats()["w_states"] == w_nodes + dp._w_graph(3, k, 3, 10_000).nodes
        for cap, query in [(w_nodes - 1, "greedy_value"), (v_nodes - 1, "optimal_value")]:
            s = FiniteHorizonSolver(model, horizon, k, max_states=cap)
            with pytest.raises(ResourceLimitError):
                getattr(s, query)(b, 1)


class TestSelectionCap:
    """C(n, k) counts against ``max_states`` before any sensing set is listed."""

    def test_selection_count(self):
        assert dp.selection_count(5, 2, 10) == 10
        with pytest.raises(ResourceLimitError, match=r"C\(5, 2\) = 10 sensing sets exceed cap 9"):
            dp.selection_count(5, 2, 9)

    def test_v_queries_trip_before_listing_and_w_queries_do_not(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sensing sets listed for a query over the cap")

        monkeypatch.setattr(dp.itertools, "combinations", refuse)
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(2, 0.9)
        s = FiniteHorizonSolver(model, horizon, 20, max_states=100_000)
        b = BeliefVector(tuple(i / 50 for i in range(40)))
        queries = [
            lambda: s.optimal_value(b, 1),
            lambda: s.action_values(b, 2),
            lambda: s.action_value_table([b.omega, b.omega], 1),
            lambda: s.greedy_audit(b, 1),
            lambda: OptimalPolicy(model, horizon, 20, 100_000).batch_actions(
                np.array([b.omega]), 1, np.zeros(1)
            ),
        ]
        for query in queries:
            with pytest.raises(ResourceLimitError, match="sensing sets exceed cap"):
                query()
        # W reads no sensing set: its graph here has k + 2 nodes.
        assert s.greedy_value(b, 1) == pytest.approx(s.w_value(b, 1))
        assert s.cache_stats() == {"v_states": 0, "w_states": 22}


# Outputs of the full-enumeration solver, before the aged-entry table, the
# duplicate-selection skip and the (h, entries) memo key, as float.hex.  Every
# instance is solved from t=1 on a fresh solver in this order: optimal_value,
# action_values, w_value, greedy_value.  Afterwards "stats" is the library
# solver's cache_stats() (V graph nodes; nodes of the W graph of (n, k, T-1), or
# its root alone when beta = 0)
# and "memo_stats" is RecursiveVSolver's (V and W memo entries).
_B1 = tau_iterate(0.3, TransitionModel(0.3, 0.8), 1)
PINNED_INSTANCES = {
    # name: (p01, p11, T, beta, k, omega)
    "pos-k1": (0.3, 0.8, 5, 0.9, 1, (0.15, 0.62, 0.4, 0.88, 0.27)),
    "pos-k2-beta1": (0.3, 0.8, 4, 1.0, 2, (0.15, 0.62, 0.4, 0.88, 0.27)),
    "pos-k3": (0.25, 0.7, 3, 0.95, 3, (0.5, 0.12, 0.73, 0.31, 0.94, 0.66)),
    "neg-k2": (0.8, 0.3, 4, 0.9, 2, (0.15, 0.62, 0.4, 0.88, 0.27)),
    "beta0-k2": (0.3, 0.8, 3, 0.0, 2, (0.15, 0.62, 0.4, 0.27)),
    # repeated entries, two of them p01 aged once and one equal to p11
    "repeated-k2": (0.3, 0.8, 4, 0.95, 2, (0.45, 0.45, _B1, _B1, 0.8, 0.45)),
}
PINNED_OUTPUTS = {
    "pos-k1": {
        "V": "0x1.9cf0bc1f71f37p+1",
        "W": "0x1.4b8c8c941c24fp+1",
        "G": "0x1.9cf0bc1f71f37p+1",
        "best": [(4,)],
        "stats": {"v_states": 680, "w_states": 53},
        "memo_stats": {"v_states": 680, "w_states": 60},
        "Q": {
            (1,): "0x1.3c5f72e4fe78ep+1",
            (2,): "0x1.7c9130e3aa6c4p+1",
            (3,): "0x1.5f013f0146f7bp+1",
            (4,): "0x1.9cf0bc1f71f37p+1",
            (5,): "0x1.4d0f2e7d6847bp+1",
        },
    },
    "pos-k2-beta1": {
        "V": "0x1.76c2ecced6da7p+2",
        "W": "0x1.5b0208e106320p+2",
        "G": "0x1.76c2ecced6da7p+2",
        "best": [(2, 4)],
        "stats": {"v_states": 501, "w_states": 52},
        "memo_stats": {"v_states": 501, "w_states": 56},
        "Q": {
            (1, 2): "0x1.48c5352312f8cp+2",
            (1, 3): "0x1.3af0ee8c22285p+2",
            (1, 4): "0x1.562a7dc7fb02bp+2",
            (1, 5): "0x1.313ff1618f63ap+2",
            (2, 3): "0x1.5a5f21d44052ap+2",
            (2, 4): "0x1.76c2ecced6da7p+2",
            (2, 5): "0x1.51d6601b48b0cp+2",
            (3, 4): "0x1.69545cf996899p+2",
            (3, 5): "0x1.43baa6dd7f15ap+2",
            (4, 5): "0x1.5fc45de7e7b06p+2",
        },
    },
    "pos-k3": {
        "V": "0x1.733270c4569abp+2",
        "W": "0x1.54dd3e2708296p+2",
        "G": "0x1.733270c4569acp+2",
        "best": [(3, 5, 6)],
        "stats": {"v_states": 368, "w_states": 25},
        "memo_stats": {"v_states": 368, "w_states": 38},
        "Q": {
            (1, 2, 3): "0x1.35a40d183cbc8p+2",
            (1, 2, 4): "0x1.19c7c8fe1d702p+2",
            (1, 2, 5): "0x1.40614e1386befp+2",
            (1, 2, 6): "0x1.3175c474f9d69p+2",
            (1, 3, 4): "0x1.42dbba58ae29ep+2",
            (1, 3, 5): "0x1.69941381f6df8p+2",
            (1, 3, 6): "0x1.592a5ff846e1bp+2",
            (1, 4, 5): "0x1.4e1da4e43d3b2p+2",
            (1, 4, 6): "0x1.3e7609c97cc31p+2",
            (1, 5, 6): "0x1.65777616094acp+2",
            (2, 3, 4): "0x1.284d477b1adcep+2",
            (2, 3, 5): "0x1.4e09e7482c6c5p+2",
            (2, 3, 6): "0x1.3f6a30ada2f15p+2",
            (2, 4, 5): "0x1.32a8d8ea4cdfdp+2",
            (2, 4, 6): "0x1.246f16c98e2f3p+2",
            (2, 5, 6): "0x1.4a721d4d02c4ap+2",
            (3, 4, 5): "0x1.5c5d037fe6eaep+2",
            (3, 4, 6): "0x1.4cfe5ad515ac6p+2",
            (3, 5, 6): "0x1.733270c4569abp+2",
            (4, 5, 6): "0x1.5893f939e32d2p+2",
        },
    },
    "neg-k2": {
        "V": "0x1.38be13626b39dp+2",
        "W": "0x1.a0f95328453c9p+1",
        "G": "0x1.c0c44afc6191fp+1",
        "best": [(2, 4)],
        "stats": {"v_states": 501, "w_states": 52},
        "memo_stats": {"v_states": 501, "w_states": 56},
        "Q": {
            (1, 2): "0x1.0bb64920c9525p+2",
            (1, 3): "0x1.fd8d119a40c4ep+1",
            (1, 4): "0x1.19f906f843f89p+2",
            (1, 5): "0x1.ebbd62b9fff1ep+1",
            (2, 3): "0x1.1d0895538ae82p+2",
            (2, 4): "0x1.38be13626b39dp+2",
            (2, 5): "0x1.14cd32a54316ep+2",
            (3, 4): "0x1.2c209dcafea01p+2",
            (3, 5): "0x1.0731fb35471c6p+2",
            (4, 5): "0x1.23819918e9c20p+2",
        },
    },
    "beta0-k2": {
        "V": "0x1.051eb851eb852p+0",
        "W": "0x1.570a3d70a3d71p-1",
        "G": "0x1.051eb851eb852p+0",
        "best": [(2, 3)],
        "stats": {"v_states": 0, "w_states": 1},
        "memo_stats": {"v_states": 0, "w_states": 2},
        "Q": {
            (1, 2): "0x1.8a3d70a3d70a4p-1",
            (1, 3): "0x1.199999999999ap-1",
            (1, 4): "0x1.ae147ae147ae2p-2",
            (2, 3): "0x1.051eb851eb852p+0",
            (2, 4): "0x1.c7ae147ae147bp-1",
            (3, 4): "0x1.570a3d70a3d71p-1",
        },
    },
    "repeated-k2": {
        "V": "0x1.49fe55627d294p+2",
        "W": "0x1.49fe55627d294p+2",
        "G": "0x1.49fe55627d294p+2",
        "best": [(1, 5), (2, 5), (3, 5), (4, 5), (5, 6)],
        "stats": {"v_states": 483, "w_states": 55},
        "memo_stats": {"v_states": 483, "w_states": 77},
        "Q": {
            (1, 2): "0x1.37706aacf74a8p+2",
            (1, 3): "0x1.37706aacf74a8p+2",
            (1, 4): "0x1.37706aacf74a8p+2",
            (1, 5): "0x1.49fe55627d294p+2",
            (1, 6): "0x1.37706aacf74a8p+2",
            (2, 3): "0x1.37706aacf74a8p+2",
            (2, 4): "0x1.37706aacf74a8p+2",
            (2, 5): "0x1.49fe55627d294p+2",
            (2, 6): "0x1.37706aacf74a8p+2",
            (3, 4): "0x1.37706aacf74a6p+2",
            (3, 5): "0x1.49fe55627d292p+2",
            (3, 6): "0x1.37706aacf74a8p+2",
            (4, 5): "0x1.49fe55627d292p+2",
            (4, 6): "0x1.37706aacf74a8p+2",
            (5, 6): "0x1.49fe55627d294p+2",
        },
    },
}


def _memo_digest(solver):
    """sha256 over the memoised V states as sorted repr((h, entry keys))."""
    states = sorted(
        repr((h, tuple(key for _, key in entries))) for h, entries in solver._v_memo
    )
    return hashlib.sha256("\n".join(states).encode()).hexdigest()


class TestPinnedOutputs:
    @staticmethod
    def _solve_pinned(solver_cls, name):
        p01, p11, T, beta, k, omega = PINNED_INSTANCES[name]
        want = PINNED_OUTPUTS[name]
        s = solver_cls(TransitionModel(p01, p11), HorizonSpec(T, beta), k)
        b = BeliefVector(omega)
        res = s.optimal_value(b, 1)
        qs = s.action_values(b, 1)
        assert res.value.hex() == want["V"]
        assert [a.indices for a in res.best_actions] == want["best"]
        assert {a.indices: q.hex() for a, q in qs.items()} == want["Q"]
        assert s.w_value(b, 1).hex() == want["W"]
        assert s.greedy_value(b, 1).hex() == want["G"]
        assert bellman_residual(s) <= 1e-12
        return s

    @pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
    def test_bit_identical(self, name):
        s = self._solve_pinned(FiniteHorizonSolver, name)
        assert s.cache_stats() == PINNED_OUTPUTS[name]["stats"]

    @pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
    def test_memo_oracle_bit_identical(self, name):
        # The recursions the graphs replaced give the same values; their
        # state counts are memo entries.
        s = self._solve_pinned(RecursiveVSolver, name)
        assert s.cache_stats() == PINNED_OUTPUTS[name]["memo_stats"]

    def test_resource_cap_trips_at_same_state(self):
        # The depth-first recursion, now the oracle, keeps its trip point and
        # the states it visited before the cap tripped.
        p01, p11, T, beta, k, omega = PINNED_INSTANCES["pos-k2-beta1"]
        model, horizon = TransitionModel(p01, p11), HorizonSpec(T, beta)
        b = BeliefVector(omega)
        # 501 V states in all: a cap of 501 suffices, 500 trips on the last one.
        RecursiveVSolver(model, horizon, k, max_states=501).optimal_value(b, 1)
        for cap, digest in [
            (500, "274e43a56239257a63b0863e694a2672aba05645114bfc764f995855df60348d"),
            (167, "c837e95907644940046a3a5b04051c13fcd48a640a2be065ad80808d2800a1a2"),
        ]:
            s = RecursiveVSolver(model, horizon, k, max_states=cap)
            with pytest.raises(ResourceLimitError):
                s.optimal_value(b, 1)
            assert s.cache_stats() == {"v_states": cap + 1, "w_states": 0}
            # the same states were visited before the cap tripped
            assert _memo_digest(s) == digest

    def test_graph_cap_trips_at_the_recursions_threshold(self):
        p01, p11, T, beta, k, omega = PINNED_INSTANCES["pos-k2-beta1"]
        b = BeliefVector(omega)
        s = make_solver(p01, p11, T, beta, k, max_states=501)
        s.optimal_value(b, 1)
        assert s.cache_stats() == {"v_states": 501, "w_states": 0}
        for cap in (500, 167):
            s = make_solver(p01, p11, T, beta, k, max_states=cap)
            with pytest.raises(ResourceLimitError):
                s.optimal_value(b, 1)
            # a graph stopped by the cap is not kept, and no answer is cached
            assert s.cache_stats() == {"v_states": 0, "w_states": 0}
            assert s._answers == {}
            assert bellman_residual(s) == 0.0
            with pytest.raises(ResourceLimitError):
                s.optimal_value(b, 1)


class TestDistinctSelections:
    @pytest.mark.parametrize("seed", range(40))
    def test_first_selection_of_each_key_multiset(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        # few distinct keys, so runs of equal entries are common
        keys = sorted(int(x) for x in rng.integers(0, 3, n))
        entries = tuple((0.1 * key, ("B", key)) for key in keys)
        want, seen = [], set()
        for sel in itertools.combinations(range(n), k):
            multiset = tuple(entries[i] for i in sel)
            if multiset not in seen:
                seen.add(multiset)
                want.append(sel)
        got = list(_distinct_selections(entries, k))
        assert [sel for sel, _ in got] == want
        for sel, comp in got:
            assert sorted(sel + comp) == list(range(n))

    # Seeds from 40 on draw n in 64..70, wider than an int64 bit pattern.
    @pytest.mark.parametrize(
        "seed", [*range(40), *(pytest.param(s, id=f"wide{s}") for s in range(40, 44))]
    )
    def test_graph_pairs_follow_the_leftmost_rule(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 8) if seed < 40 else rng.integers(64, 71))
        k = int(rng.integers(1, n + 1) if seed < 40 else rng.integers(1, 3))
        rows = np.sort(rng.integers(0, 3, (5, n)), axis=1).astype(np.int16)
        sel_pos, comp_pos = dp._selection_arrays(n, k)
        # The table against the oracle's own enumeration of the k-subsets.
        subsets = list(itertools.combinations(range(n), k))
        assert list(map(tuple, sel_pos.tolist())) == subsets
        for sel_row, comp_row in zip(sel_pos.tolist(), comp_pos.tolist()):
            assert sorted(sel_row + comp_row) == list(range(n))
        state, sel = dp._sensing_pairs(rows, sel_pos)
        for i, row in enumerate(rows.tolist()):
            entries = tuple((0.1 * key, ("B", key)) for key in row)
            want = [s for s, _ in _distinct_selections(entries, k)]
            assert [subsets[j] for j in sel[state == i]] == want


class TestEntryTable:
    """V's and W's entries: integer symbols into one table of tau-iterates."""

    REGIMES = [(0.3, 0.8), (0.8, 0.3), (0.4, 0.4)]

    @pytest.mark.parametrize("p01, p11", REGIMES)
    def test_aged_values_match_tau_iterate(self, p01, p11):
        # Any shape, and entries on and just outside the edges of [0, 1].
        model, H = TransitionModel(p01, p11), 6
        bases = np.array([
            [p01, p11, 0.0, 1.0],
            [-1e-13, 1.0 + 1e-13, 1e-13, 1.0 - 1e-13],
            [0.37, 0.5, 0.95, 0.05],
        ])
        got = dp._aged_values(model, bases, H)
        assert got.shape == (H + 1,) + bases.shape
        for m in range(H + 1):
            for idx in np.ndindex(bases.shape):
                want = tau_iterate(float(bases[idx]), model, m)
                assert float(got[(m,) + idx]).hex() == want.hex()

    @pytest.mark.parametrize("p01, p11", REGIMES)
    def test_ranks_follow_the_recursions_entry_order(self, p01, p11):
        # Roots that tie p01, p11 and each other, with 0.0, 1.0 and entries
        # 1e-13 outside [0, 1], solved as one batch over one graph.
        model, horizon, k = TransitionModel(p01, p11), HorizonSpec(4, 0.9), 2
        beliefs = [
            BeliefVector((p01, p11, 0.0, 1.0)),
            BeliefVector((p11, 0.5, 0.5, -1e-13)),
            BeliefVector((1.0 + 1e-13, p01, 1e-13, 0.5)),
        ]
        solver = FiniteHorizonSolver(model, horizon, k)
        solver.action_value_table([b.omega for b in beliefs], 1)
        (graph,) = v_graphs(solver)
        entries = graph_entries(graph)
        assert all(a < b for a, b in zip(entries, entries[1:]))
        oracle = RecursiveVSolver(model, horizon, k)
        held = set()
        for b in beliefs:
            oracle.action_values(b, 1)
            held.update(oracle._root_entries(b))
        held.update(e for _, state in oracle._v_memo for e in state)
        assert held <= set(entries)


def _rank_table(p01, p11, omega, h):
    """A V solve's rank table for one root: entry values, the aged-rank map,
    the ranks that age within the table, and the root as a row of ranks."""
    solver = make_solver(p01, p11, h + 1, 0.9, 1)
    vals, _, _, aged_rank, rows, _, _ = solver._rank_entries(h, [omega])
    return vals, aged_rank, np.flatnonzero(aged_rank >= 0), rows[0]


class TestChildParts:
    """``dp._child_parts`` per chunk, numbered by ``dp._number_parts``, against
    the per-pair numbering they replaced."""

    OMEGA = (0.15, 0.62, 0.4, 0.88, 0.27, 0.51)

    @staticmethod
    def _assert_matches(unsensed, aged_rank, given=None):
        # `given`: the rows as gathered, before the caller's sort
        base = len(aged_rank)
        want = child_parts_per_pair(unsensed if given is None else given, aged_rank, base)
        # the whole level as one chunk, then in chunks that split repeated rows
        for size in (len(unsensed), 7):
            parts, index, count = [], [], 0
            for lo in range(0, len(unsensed), size):
                aged, part = dp._child_parts(unsensed[lo : lo + size], aged_rank, base)
                parts.append(aged)
                index.append(part + count)
                count += len(aged)
            aged, number = dp._number_parts(parts, base)
            got = (aged, number[np.concatenate(index)])
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("p01, p11", [(0.3, 0.8), (0.8, 0.3), (0.4, 0.4)])
    def test_sorted_rows(self, p01, p11):
        vals, aged_rank, ageable, _ = _rank_table(p01, p11, self.OMEGA, 3)
        rng = np.random.default_rng(31)
        rows = np.sort(rng.choice(ageable, (3000, 4)), axis=1).astype(aged_rank.dtype)
        rows[2000:] = rows[rng.integers(0, 2000, 1000)]  # repeated multisets
        self._assert_matches(rows, aged_rank)
        if p11 < p01:
            # aging reverses the order of ranks, so the parts need renumbering
            assert np.any(np.diff(aged_rank[ageable]) < 0)
        elif p11 == p01:
            # every aged entry has the same value, p01; keys alone order them
            assert len(set(vals[aged_rank[ageable]].tolist())) == 1

    @pytest.mark.parametrize("p01, p11", [(0.3, 0.8), (0.8, 0.3), (0.4, 0.4)])
    def test_root_rows_in_their_given_order(self, p01, p11):
        # The roots keep their entry order, so the solver sorts their
        # unsensed rows before grouping them; repeated entries make some
        # distinct selections leave equal multisets.
        omega = (0.45, 0.62, 0.45, 0.2, 0.62, 0.45)
        _, aged_rank, _, root = _rank_table(p01, p11, omega, 2)
        sel_pos, comp_pos = dp._selection_arrays(len(omega), 2)
        given = root[comp_pos]
        assert not np.array_equal(given, np.sort(given, axis=1))
        rows = np.sort(given, axis=1)
        assert len(np.unique(rows, axis=0)) < len(rows)
        self._assert_matches(rows, aged_rank, given)

    def test_rows_wide_enough_to_redensify(self):
        omega = tuple(float(w) for w in np.random.default_rng(5).random(12))
        _, aged_rank, ageable, _ = _rank_table(0.8, 0.3, omega, 3)
        rng = np.random.default_rng(32)
        rows = np.sort(rng.choice(ageable, (2000, 12)), axis=1).astype(aged_rank.dtype)
        rows[1500:] = rows[:500]
        # a plain fold of 12 ranks in this base would not fit in an int64
        assert len(aged_rank) ** 12 > np.iinfo(np.int64).max
        self._assert_matches(rows, aged_rank)


def _sample_v_instance(rng, case):
    """A small instance for the V graph, varied by `case` over the edge cases."""
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, min(3, n) + 1))
    T = int(rng.integers(2, 5))
    p01, p11 = (float(x) for x in rng.random(2))
    if case % 4 == 1:
        p01, p11 = min(p01, p11), max(p01, p11)
    elif case % 4 == 2:
        p01, p11 = max(p01, p11), min(p01, p11)
    elif case % 4 == 3:
        p11 = p01
    beta = (0.0, 1.0, float(rng.random()))[case % 3]
    model = TransitionModel(p01, p11)
    omega = [float(x) for x in rng.random(n)]
    if case % 5 == 0:
        # exact 0.0 and 1.0 entries: some outcomes have probability 0
        omega[0], omega[-1] = 0.0, 1.0
    elif case % 5 == 1:
        omega[-1] = omega[0]  # tied roots
    elif case % 5 == 2:
        # roots equal to p11 aged once and to p01
        omega[0] = tau_iterate(p11, model, 1)
        omega[-1] = p01
        if n > 2:
            omega[1] = p01  # a tie between two entries equal to p01
    return model, HorizonSpec(T, beta), k, BeliefVector(tuple(omega))


class TestVGraph:
    """The level-graph V engine against the memoised recursion it replaced."""

    @pytest.mark.parametrize("seed", range(60))
    def test_q_values_and_state_count_match_recursion(self, seed):
        rng = np.random.default_rng(700 + seed)
        model, horizon, k, belief = _sample_v_instance(rng, seed)
        t = int(rng.integers(1, horizon.T + 1))
        graph = FiniteHorizonSolver(model, horizon, k)
        oracle = RecursiveVSolver(model, horizon, k)
        got = {a.indices: q.hex() for a, q in graph.action_values(belief, t).items()}
        want = {a.indices: q.hex() for a, q in oracle.action_values(belief, t).items()}
        assert got == want
        assert graph.cache_stats()["v_states"] == len(oracle._v_memo)
        assert bellman_residual(graph) <= 1e-12
        value = graph.optimal_value(belief, t).value
        assert value == pytest.approx(
            brute_force_optimal(belief.omega, t, model, horizon, k), abs=1e-10
        )

    def test_sampled_cases_cover_every_edge(self):
        models, betas, ks, pruned = set(), set(), set(), 0
        for seed in range(60):
            rng = np.random.default_rng(700 + seed)
            model, horizon, k, belief = _sample_v_instance(rng, seed)
            models.add((model.p11 > model.p01) - (model.p11 < model.p01))
            betas.add(horizon.beta if horizon.beta in (0.0, 1.0) else "random")
            ks.add(k)
            pruned += 0.0 in belief.omega and 1.0 in belief.omega
        assert models == {-1, 0, 1} and betas == {0.0, 1.0, "random"} and ks == {1, 2, 3}
        assert pruned >= 10

    def test_zero_probability_children_are_pruned(self):
        # sensing the 1.0 entry can never see it bad, so fewer states are reached
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9)
        sure = make_solver(0.3, 0.8, 4, 0.9, 1)
        sure.optimal_value(BeliefVector((0.2, 0.5, 1.0)), 1)
        oracle = RecursiveVSolver(model, horizon, 1)
        oracle.optimal_value(BeliefVector((0.2, 0.5, 1.0)), 1)
        unsure = make_solver(0.3, 0.8, 4, 0.9, 1)
        unsure.optimal_value(BeliefVector((0.2, 0.5, 0.99)), 1)
        assert sure.cache_stats() == oracle.cache_stats()
        assert sure.cache_stats()["v_states"] < unsure.cache_stats()["v_states"]

    def test_wide_state_keys_rerank_instead_of_overflowing(self):
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(3, 0.95)
        omega = tuple(float(w) for w in np.random.default_rng(5).random(12))
        graph = FiniteHorizonSolver(model, horizon, 1)
        oracle = RecursiveVSolver(model, horizon, 1)
        got = graph.action_values(BeliefVector(omega), 1)
        assert {a: q.hex() for a, q in got.items()} == {
            a: q.hex() for a, q in oracle.action_values(BeliefVector(omega), 1).items()
        }
        assert graph.cache_stats()["v_states"] == len(oracle._v_memo)
        # a plain base-E fold of 12 ranks would not fit in an int64
        assert len(v_graphs(graph)[0].values) ** 12 > np.iinfo(np.int64).max

    @pytest.mark.parametrize("n, k, T", [(70, 1, 3), (66, 2, 2)])
    def test_rows_wider_than_an_int64_bit_pattern_match_recursion(self, n, k, T):
        # n >= 64 positions, with runs of equal entries at the root and below.
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(T, 0.9)
        belief = BeliefVector(tuple(np.random.default_rng(n).integers(1, 10, n) / 10))
        graph = FiniteHorizonSolver(model, horizon, k)
        oracle = RecursiveVSolver(model, horizon, k)
        got = graph.action_value_table([belief.omega], 1)[0].tolist()
        want = oracle.action_values(belief, 1)
        assert [q.hex() for q in got] == [q.hex() for q in want.values()]
        assert graph.cache_stats()["v_states"] == len(oracle._v_memo)
        assert bellman_residual(graph) <= 1e-12
        audit = graph.greedy_audit(belief, 1)
        assert audit.value.hex() == graph.greedy_value(belief, 1).hex()
        assert audit.regret <= 1e-12

    def test_fold_keys_order_rows_lexicographically(self):
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 60, (400, 12)).astype(np.int16)
        rows[200:] = rows[:200]  # every row twice
        keys = dp._fold_keys(rows, 60)
        order = np.lexsort(rows.T[::-1])
        assert np.all(np.diff(keys[order]) >= 0)
        assert len(np.unique(keys)) == len(np.unique(rows, axis=0))

    def test_one_table_call_answers_many_roots(self):
        model, horizon, k = TransitionModel(0.7, 0.2), HorizonSpec(4, 0.9), 2
        beliefs = [
            BeliefVector((0.6, 0.3, 0.6, 0.8)),
            BeliefVector((0.1, 0.9, 0.5, 0.5)),
            BeliefVector((0.6, 0.3, 0.6, 0.8)),
            BeliefVector((0.0, 1.0, 0.25, 0.5)),
        ]
        solver = FiniteHorizonSolver(model, horizon, k)
        for t in (1, 2, 4):
            table = solver.action_value_table([b.omega for b in beliefs], t)
            assert table.shape == (4, 6)
            for b, row in zip(beliefs, table.tolist()):
                want = RecursiveVSolver(model, horizon, k).action_values(b, t)
                assert [q.hex() for q in row] == [q.hex() for q in want.values()]
        assert bellman_residual(solver) <= 1e-12

    def test_answers_are_cached_and_copied(self):
        solver = make_solver(0.3, 0.8, 4, 0.9, 2)
        b = BeliefVector((0.15, 0.62, 0.4, 0.88))
        first = solver.action_value_table([b.omega], 1)
        stats = solver.cache_stats()
        first[0, 0] = -1.0
        again = solver.action_value_table([b.omega, b.omega], 1)
        assert solver.cache_stats() == stats
        assert again[0, 0] != -1.0 and np.array_equal(again[0], again[1])

    def test_audit_flags_a_corrupted_value(self):
        # One kept node off by 0.01, and the same state off by 0.01 in the
        # recursion's memo: both audits report that gap.
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9)
        b = BeliefVector((0.31, 0.5, 0.7))
        graph, oracle = FiniteHorizonSolver(model, horizon, 1), RecursiveVSolver(model, horizon, 1)
        graph.optimal_value(b, 1)
        oracle.optimal_value(b, 1)
        (solved,) = v_graphs(graph)
        level = next(level for level in solved.levels if level.h == 2)
        level.values[0] += 0.01
        entries = graph_entries(solved)
        oracle._v_memo[(2, tuple(entries[r] for r in level.rows[0].tolist()))] += 0.01
        residual = bellman_residual(graph)
        assert residual == pytest.approx(0.01, abs=1e-12)
        assert residual == pytest.approx(oracle.verify_cached_bellman(), abs=1e-15)

    def test_rejects_bad_queries(self):
        solver = make_solver(0.3, 0.8, 3, 0.9, 1)
        # Empty, ragged, out of [0, 1], NaN or 1-D rows: refused before any solve.
        for rows in [], [(0.1, 0.2), (0.3,)], [(0.2, 1.7)], [(0.2, float("nan"))], [0.1, 0.2]:
            with pytest.raises(ValueError):
                solver.action_value_table(rows, 1)
        assert solver.cache_stats()["v_states"] == 0 and solver._answers == {}
        with pytest.raises(ValueError, match="outside 1..3"):
            solver.action_value_table([(0.1, 0.2)], 4)

    def test_rows_as_tuples(self):
        # A 2-D array and the same rows as tuples give the same Q rows, bit
        # for bit; n and t are checked.
        rows = [(0.15, 0.62, 0.4, 0.88), (0.3, 0.3, 0.7, 0.1)]
        table = make_solver(0.3, 0.8, 4, 0.9, 2).action_value_table(np.array(rows), 1)
        solver = make_solver(0.3, 0.8, 4, 0.9, 2)
        assert solver.action_value_table(rows, 1).tobytes() == table.tobytes()
        with pytest.raises(ValueError, match="outside 1..4"):
            solver.action_value_table(rows, 5)
        with pytest.raises(ValueError, match="1 channels but k=2"):
            solver.action_value_table([(0.5,)], 1)


def _audit_case(case):
    """A sampled V instance and a t; past the 48 sampled, one of GREEDY_LOSSES
    at t = 1, then a near tie: two beliefs 4e-13 apart, whose aged copies
    tie below the root with unequal Q."""
    if case == 48 + len(GREEDY_LOSSES):
        belief = BeliefVector((0.5, 0.5 + 4e-13, 0.2))
        return TransitionModel(0.3, 0.8), HorizonSpec(4, 1.0), 1, belief, 1
    if case >= 48:
        p01, p11, T, omega = GREEDY_LOSSES[case - 48]
        return TransitionModel(p01, p11), HorizonSpec(T, 1.0), 1, BeliefVector(omega), 1
    rng = np.random.default_rng(900 + case)
    model, horizon, k, belief = _sample_v_instance(rng, case)
    return model, horizon, k, belief, int(rng.integers(1, horizon.T + 1))


class TestGreedyAudit:
    """Greedy's regret at every node and its own value, from the V solve."""

    CASES = range(48 + len(GREEDY_LOSSES) + 1)

    def test_all_greedy_actions_ties(self):
        acts = all_greedy_actions((0.5, 0.5, 0.2), 1)
        assert [a.indices for a in acts] == [(1,), (2,)]

    def test_least_tied_q_is_each_groups_least_tied_q(self):
        # One (rewards, Q) group per state, checked against each group's
        # brute-force least Q among the rewards within TIE_TOL of its best.
        best = 0.75
        groups = [
            ([0.2, 0.5, best], [0.1, 0.05, 0.9]),  # a tie only at the last pair
            ([best, 0.5, best], [0.3, 0.05, 0.9]),  # a tie at a pair that is not the last
            # 0.5e-12 below the best ties it; 2e-12 below does not.
            ([best - 2e-12, best - 0.5e-12, best], [0.01, 0.2, 0.7]),
            ([best], [0.4]),
        ]

        def brute(rewards, qs):
            return min(q for r, q in zip(rewards, qs) if r >= max(rewards) - dp.TIE_TOL)

        assert [brute(*g) for g in groups] == [0.9, 0.3, 0.2, 0.4]
        starts = np.cumsum([0] + [len(r) for r, _ in groups[:-1]])
        reward = np.concatenate([r for r, _ in groups])
        q = np.concatenate([qs for _, qs in groups])
        least = dp._least_tied_q(q, reward, starts, np.array([max(r) for r, _ in groups]))
        assert least.tolist() == [brute(*g) for g in groups]
        # A single group, as at a root, whose best pair is not its last.
        rewards, qs = [0.3, best, 0.7, best - 0.5e-12], [0.1, 0.6, 0.05, 0.8]
        least = dp._least_tied_q(np.array(qs), np.array(rewards), [0], max(rewards))
        assert least.tolist() == [brute(rewards, qs)] == [0.6]

    @staticmethod
    def _oracle_regret(oracle, omega, t, k):
        qs = oracle.action_values(BeliefVector(omega), t)
        return max(qs.values()) - min(qs[a] for a in all_greedy_actions(omega, k))

    @pytest.mark.parametrize("case", CASES)
    def test_regret_matches_recursion_at_every_node(self, case):
        # _sample_v_instance cycles positive, negative and boundary models,
        # beta in {0, 1, random}, tied, p01- and p11-valued and 0/1 roots.
        model, horizon, k, belief, t = _audit_case(case)
        solver = FiniteHorizonSolver(model, horizon, k)
        solver.optimal_value(belief, t)
        audit = solver.greedy_audit(belief, t)
        oracle = RecursiveVSolver(model, horizon, k)
        nodes = [(self._oracle_regret(oracle, belief.omega, t, k), t, belief.omega)]
        for graph in v_graphs(solver):
            for level in graph.levels:
                u = horizon.T - level.h
                for row, got in zip(level.rows.tolist(), level.regret.tolist()):
                    omega = tuple(graph.values[row].tolist())
                    want = self._oracle_regret(oracle, omega, u, k)
                    assert got == pytest.approx(want, abs=1e-15)
                    nodes.append((want, u, omega))
        assert audit.regret == pytest.approx(max(r for r, _, _ in nodes), abs=1e-15)
        assert (audit.t, audit.omega) in [(u, w) for r, u, w in nodes if r == audit.regret]

    @pytest.mark.parametrize("case", CASES)
    def test_greedy_value_matches_exact_rollout(self, case):
        model, horizon, k, belief, t = _audit_case(case)
        solver = FiniteHorizonSolver(model, horizon, k)
        got = solver.greedy_audit(belief, t).value
        rollout = exact_policy_value(
            belief.omega, t, model, horizon, k, lambda w, u: greedy_action(w, k)
        )
        assert got == pytest.approx(rollout, abs=1e-12)
        if model.p11 > model.p01:
            # W on the sorted vector is greedy's value here, to the bit.
            assert got.hex() == solver.greedy_value(belief, t).hex()

    def test_cases_cover_every_regime_and_losses_below_the_root(self):
        regimes, losses = set(), []
        for case in self.CASES:
            model, horizon, k, belief, t = _audit_case(case)
            regimes.add((model.p11 > model.p01) - (model.p11 < model.p01))
            solver = FiniteHorizonSolver(model, horizon, k)
            solver.optimal_value(belief, t)
            losses.append(sum(
                int((level.regret > 1e-9).sum())
                for graph in v_graphs(solver)
                for level in graph.levels
            ))
        assert regimes == {-1, 0, 1}
        assert losses[48:] == [0, 1, 15, 0]

    def test_answered_from_the_q_row_cache(self):
        solver = make_solver(0.7, 0.2, 5, 0.9, 2)
        b = BeliefVector((0.15, 0.62, 0.4, 0.88))
        solver.optimal_value(b, 1)
        stats = solver.cache_stats()
        audit = solver.greedy_audit(b, 1)
        assert solver.cache_stats() == stats
        # the other order: the audit solves, the Q rows are then free
        other = make_solver(0.7, 0.2, 5, 0.9, 2)
        assert other.greedy_audit(b, 1) == audit
        other.action_values(b, 1)
        assert other.cache_stats() == stats

    def test_batched_roots_are_audited_in_their_own_graphs(self):
        # One batch solves both roots over one graph; the loss below
        # GREEDY_LOSSES[0] must not show in the other root's audit.
        p01, p11, T, omega = GREEDY_LOSSES[0]
        model, horizon = TransitionModel(p01, p11), HorizonSpec(T, 1.0)
        beliefs = [BeliefVector(omega), BeliefVector((0.1, 0.2, 0.3, 0.4))]
        solver = FiniteHorizonSolver(model, horizon, 1)
        solver.action_value_table([b.omega for b in beliefs], 1)
        audits = [solver.greedy_audit(b, 1) for b in beliefs]
        assert [a.regret > 1e-9 for a in audits] == [True, False]
        for b, audit in zip(beliefs, audits):
            assert audit == FiniteHorizonSolver(model, horizon, 1).greedy_audit(b, 1)
        # each root is solved on its own once, then answered from the cache
        stats = solver.cache_stats()
        assert [solver.greedy_audit(b, 1) for b in beliefs] == audits
        assert solver.cache_stats() == stats

    def test_positive_regime_greedy_value_is_w_on_the_sorted_vector(self):
        sampler = InstanceSampler(seed=31, regime="positive", n_range=(2, 6), T_range=(1, 6))
        for inst in sampler.instances(200):
            solver, b = inst.solver(), BeliefVector(inst.omega)
            assert solver.greedy_audit(b, 1).value.hex() == solver.greedy_value(b, 1).hex()


# Instances for V's chunked level passes: (p01, p11, T, beta, k, roots).  The
# pinned ones cover both regimes; then p11 = p01, a batch of unsorted roots
# with repeated entries, one root given twice, and rows of 13 unsensed ranks,
# whose keys ``_fold_keys`` re-densifies.  A root of five entries with k = 2
# has 10 pairs, more than a 7-pair chunk holds.
CHUNK_CASES = {
    **{name: (*case[:5], [case[5]]) for name, case in PINNED_INSTANCES.items()},
    "p11=p01": (0.4, 0.4, 4, 0.9, 2, [(0.15, 0.62, 0.4, 0.88, 0.27)]),
    "wide-rows": (0.8, 0.3, 3, 0.95, 1, [tuple(np.random.default_rng(5).random(14).tolist())]),
    "batch-repeated": (
        0.3, 0.8, 4, 0.95, 2,
        [(0.62, 0.15, 0.62, 0.4, 0.88), (0.4, 0.4, 0.9, 0.15, 0.4), (0.62, 0.15, 0.62, 0.4, 0.88)],
    ),
}


class TestChunkedLevels:
    """V's level passes walk chunks of whole states, and the chunk size changes nothing."""

    @staticmethod
    def _solve(case):
        p01, p11, T, beta, k, roots = CHUNK_CASES[case]
        solver = make_solver(p01, p11, T, beta, k)
        beliefs = [BeliefVector(r) for r in roots]
        q = [[x.hex() for x in row] for row in solver.action_value_table(roots, 1).tolist()]
        graph = next(iter(v_graphs(solver)), None)
        states = solver.cache_stats()["v_states"]
        audits = [
            (a.value.hex(), a.regret.hex(), a.t, a.omega)
            for a in (solver.greedy_audit(b, 1) for b in beliefs)
        ]
        # a batch's audits solve each root once more on its own
        return q, graph, (states, solver.cache_stats()["v_states"]), audits

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_chunk_size_changes_nothing(self, monkeypatch, case, chunk):
        q, graph, states, audits = self._solve(case)
        monkeypatch.setattr(dp, "_CHUNK_PAIRS", chunk)
        got_q, got_graph, got_states, got_audits = self._solve(case)
        assert got_q == q
        assert got_states == states
        assert got_audits == audits
        if graph is None:  # beta = 0 keeps no graph
            assert got_graph is None
            return
        assert [lv.h for lv in got_graph.levels] == [lv.h for lv in graph.levels]
        for got, want in zip(got_graph.levels, graph.levels):
            assert got.rows.dtype == want.rows.dtype and np.array_equal(got.rows, want.rows)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.regret.tobytes() == want.regret.tobytes()
        assert np.array_equal(got_graph.root_children, graph.root_children)
        assert got_graph.greedy.tobytes() == graph.greedy.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_chunks_are_whole_states_as_full_as_they_fit(self, monkeypatch, chunk):
        monkeypatch.setattr(dp, "_CHUNK_PAIRS", chunk)
        rows = np.sort(np.random.default_rng(11).integers(0, 3, (30, 5)), axis=1)
        sel_pos = dp._selection_arrays(5, 2)[0]
        for every, want in [
            (False, dp._sensing_pairs(rows, sel_pos)),
            (True, np.nonzero(np.ones((30, 10), dtype=bool))),
        ]:
            chunks = list(dp._pair_chunks(rows, sel_pos, every))
            assert np.array_equal(np.concatenate([s for s, _ in chunks]), want[0])
            assert np.array_equal(np.concatenate([c for _, c in chunks]), want[1])
            for (state, _), (nxt, _) in zip(chunks, chunks[1:]):
                assert state[-1] < nxt[0]  # no state is split
                # the next state would not have fit
                assert len(state) + np.count_nonzero(nxt == nxt[0]) > chunk
            for state, _ in chunks:
                assert len(state) <= chunk or state[0] == state[-1]
        # with every selection, each state has 10 pairs: more than 1 or 7 hold
        assert any(len(state) > chunk for state, _ in chunks) == (chunk < 10)


class TestPairGather:
    """``dp._pair_entries``, V's one flat-take gather of a pair's entries."""

    @staticmethod
    def _assert_gathers(rows, state, sel, pos):
        got = dp._pair_entries(rows, state, sel, pos)
        want = rows[state[:, None], pos[sel]]
        assert got.dtype == rows.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        width=st.integers(1, 70),
        states=st.integers(1, 40),
        pairs=st.integers(0, 300),
        wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_advanced_indexing(self, n, width, states, pairs, wide, seed):
        rng = np.random.default_rng(seed)
        dtype = np.int32 if wide else np.int16
        rows = rng.integers(np.iinfo(dtype).min, np.iinfo(dtype).max, (states, n), dtype=dtype)
        pos = rng.integers(0, n, (int(rng.integers(1, 50)), min(width, n)))
        state = np.sort(rng.integers(0, states, pairs))
        sel = rng.integers(0, len(pos), pairs)
        self._assert_gathers(rows, state, sel, pos)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    @pytest.mark.parametrize("n, k", [(8, 3), (70, 2)])
    def test_one_state_with_many_pairs_and_an_empty_chunk(self, dtype, n, k):
        rows = np.sort(np.random.default_rng(n).integers(0, 500, (5, n)), axis=1).astype(dtype)
        for pos in dp._selection_arrays(n, k):
            # the last state with every selection, as one chunk of its own
            sel = np.arange(len(pos))
            self._assert_gathers(rows, np.full(len(sel), 4), sel, pos)
            empty = np.empty(0, dtype=np.intp)
            self._assert_gathers(rows, empty, empty, pos)

    # The tracemalloc peak of one n = 8, k = 3, T = 6 solve on a fresh
    # solver, after a warm-up solve, when V gathered (state, selection) pairs
    # by two-dimensional advanced indexing; measured with numpy 2.4 on Python
    # 3.11.  The peak lies in ``_number_parts`` at the last level, not in a
    # gather, so the per-call bound below is what sees a gather's temporaries.
    PEAK_BEFORE_FLAT_TAKES = 15_438_788

    def test_solve_peak_pinned_and_each_gather_holds_one_index(self, monkeypatch):
        root = (0.212, 0.601, 0.986, 0.427, 0.335, 0.183, 0.678, 0.295)
        gathers, real = [], dp._pair_entries

        def spy(rows, state, sel, pos):
            # What one call allocates above the memory in use when it starts.
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(rows, state, sel, pos)
            gathers.append((tracemalloc.get_traced_memory()[1] - start, out.nbytes, state, pos))
            return out

        def solve():
            return make_solver(0.3, 0.8, 6, 0.95, 3)._solve_roots(5, [root])

        want = solve()[0]
        tracemalloc.start()
        try:
            q = solve()[0]
            peak = tracemalloc.get_traced_memory()[1]
            monkeypatch.setattr(dp, "_pair_entries", spy)
            spied = solve()[0]
        finally:
            tracemalloc.stop()
        assert q.tobytes() == spied.tobytes() == want.tobytes()
        assert peak <= self.PEAK_BEFORE_FLAT_TAKES * 1.01
        # The forward pass gathers every level's sensed and unsensed entries.
        assert len(gathers) >= 10
        for held, out, state, pos in gathers:
            # The output, one index of its shape, one row offset per pair and
            # the one ufunc buffer that adding the offsets in place may take:
            # a second index temporary would add len(state) * width * 8 bytes.
            index = len(state) * pos.shape[1] * np.dtype(np.intp).itemsize
            buffer = np.getbufsize() * np.dtype(np.intp).itemsize
            assert held <= out + index + state.nbytes + buffer + 4096


def record_held(solver):
    """A list that gathers (t, root, Q row) of each answer `solver` reads from a held level.

    It wraps the solver's ``_held_rows``, so it sees the answers of the
    queries made after this call, in the order they are given.
    """
    answers, held_rows = [], solver._held_rows

    def recording(h, roots):
        out = held_rows(h, roots)
        answers.extend((solver.horizon.T - h, root, row) for root, row in out.items())
        return out

    solver._held_rows = recording
    return answers


class TestHeldLevels:
    """A later query's roots that a held graph's level holds are answered from it."""

    CASES = range(60)

    @staticmethod
    def _simulate(case):
        # _sample_v_instance cycles positive, negative and boundary models,
        # beta in {0, 1, random}, k <= 3, tied, p01- and p11-valued and 0/1
        # roots; T of 3 to 5 gives each run held levels to read.
        rng = np.random.default_rng(1300 + case)
        model, horizon, k, belief = _sample_v_instance(rng, case)
        horizon = HorizonSpec(int(rng.integers(3, 6)), horizon.beta)
        policy = OptimalPolicy(model, horizon, k)
        held = record_held(policy.solver)
        simulate(SimConfig(model, horizon, belief.n, k, belief, 100, case), policy)
        return model, horizon, k, belief, policy.solver, held

    @pytest.mark.parametrize("case", CASES)
    def test_optimal_policy_solves_each_state_once_and_exactly(self, case):
        model, horizon, k, belief, solver, held = self._simulate(case)
        oracle = RecursiveVSolver(model, horizon, k)
        for t, root, row in held:
            want = oracle.action_values(BeliefVector(root), t).values()
            assert [q.hex() for q in row.tolist()] == [q.hex() for q in want], (t, root)
        # the t = 1 query solves the root's own graph; no later query adds a node
        first = FiniteHorizonSolver(model, horizon, k).optimal_value(belief, 1)
        assert solver.cache_stats()["v_states"] == first.cache_stats["v_states"]
        assert bellman_residual(solver) <= 1e-12

    def test_cases_cover_regimes_betas_ties_and_every_later_step(self):
        regimes, betas, ks, tied, held = set(), set(), set(), 0, 0
        for case in self.CASES:
            model, horizon, k, belief, solver, answers = self._simulate(case)
            regimes.add((model.p11 > model.p01) - (model.p11 < model.p01))
            betas.add(horizon.beta if horizon.beta in (0.0, 1.0) else "random")
            ks.add(k)
            tied += len(set(belief.omega)) < belief.n
            held += len(answers)
            if horizon.beta != 0.0:
                # every step but the first and the last reads the held graph
                assert {t for t, _, _ in answers} == set(range(2, horizon.T))
        assert regimes == {-1, 0, 1} and betas == {0.0, 1.0, "random"}
        assert ks == {1, 2, 3} and tied >= 10 and held > 300

    def test_a_batch_mixes_held_and_new_roots(self):
        model, horizon, k = TransitionModel(0.3, 0.8), HorizonSpec(5, 0.9), 2
        solver = FiniteHorizonSolver(model, horizon, k)
        solver.optimal_value(BeliefVector((0.15, 0.62, 0.4, 0.88)), 1)
        stats = solver.cache_stats()
        answers = record_held(solver)
        (graph,) = v_graphs(solver)
        level = next(level for level in graph.levels if level.h == 3)
        states = {tuple(graph.values[row].tolist()) for row in level.rows}
        state = graph.values[level.rows[len(level.rows) // 2]].tolist()
        # A held state with its entries reversed; one whose values the graph
        # holds, but not as a state of that level; and one with a value it
        # does not hold.
        held = tuple(state[::-1])
        near = next(
            root
            for root in (tuple(sorted(state[1:] + [v])) for v in graph.values.tolist())
            if root not in states
        )
        roots = [held, near, (0.11, 0.5, 0.52, 0.9)]
        table = solver.action_value_table(roots, 2)
        oracle = RecursiveVSolver(model, horizon, k)
        for root, row in zip(roots, table.tolist()):
            want = oracle.action_values(BeliefVector(root), 2).values()
            assert [q.hex() for q in row] == [q.hex() for q in want]
        assert [root for _, root, _ in answers] == [held]
        # only the other two are solved, together, as on a solver of their own
        alone = FiniteHorizonSolver(model, horizon, k)
        rest = alone.action_value_table(roots[1:], 2)
        assert np.array_equal(rest, table[1:])
        assert solver.cache_stats()["v_states"] == (
            stats["v_states"] + alone.cache_stats()["v_states"]
        )

    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk):
        def answers():
            solver = self._simulate(5)[4]
            return {key: row.tobytes() for key, (row, _) in solver._answers.items()}

        want = answers()
        monkeypatch.setattr(dp, "_CHUNK_PAIRS", chunk)
        assert answers() == want

    def test_holds_every_graph_it_solved(self):
        # Auditing each root of a batch solves it once more on its own; the
        # batch's graph stays held, and every graph held is audited.
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9)
        roots = [(0.1, 0.5, 0.7), (0.2, 0.4, 0.9), (0.6, 0.3, 0.6)]
        solver = FiniteHorizonSolver(model, horizon, 1)
        solver.action_value_table(roots, 1)
        batch = solver.cache_stats()["v_states"]
        (graph,) = v_graphs(solver)
        alone = 0
        for root in roots:
            solver.greedy_audit(BeliefVector(root), 1)
            fresh = FiniteHorizonSolver(model, horizon, 1).optimal_value(BeliefVector(root), 1)
            alone += fresh.cache_stats["v_states"]
        graphs = v_graphs(solver)
        assert len(graphs) == 4 and graphs[0] is graph
        assert bellman_residual(solver) <= 1e-12
        assert solver.cache_stats()["v_states"] == batch + alone

    def test_audit_of_a_held_answer_solves_its_root_alone(self):
        model, horizon, k, belief, solver, answers = self._simulate(5)
        assert len(answers) > 50
        for t, root, _ in answers[:: len(answers) // 10]:
            before = solver.cache_stats()["v_states"]
            got = solver.greedy_audit(BeliefVector(root), t)
            fresh = FiniteHorizonSolver(model, horizon, k)
            want = fresh.greedy_audit(BeliefVector(root), t)
            assert (got.value.hex(), got.regret.hex(), got.t, got.omega) == (
                want.value.hex(), want.regret.hex(), want.t, want.omega
            )
            # the root is solved once more, on its own, and then kept
            added = solver.cache_stats()["v_states"] - before
            assert added == fresh.cache_stats()["v_states"]
            assert solver._answers[(t, root)][1] is not None
            assert solver.greedy_audit(BeliefVector(root), t) == got
            assert solver.cache_stats()["v_states"] == before + added
        assert bellman_residual(solver) <= 1e-12
