import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oppaccess import (
    BeliefVector,
    FiniteHorizonSolver,
    HorizonSpec,
    ResourceLimitError,
    TransitionModel,
    greedy_action,
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
    affine_swap_delta,
    brute_force_optimal,
    exact_policy_value,
    full_observation_value,
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
        assert s.verify_cached_bellman() <= 1e-12

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
        table = w_table(s.model, s.horizon, 3, [b.omega])
        assert float(table[0, 0]).hex() == want


_W_CHECKS = (check_lemma3_A, check_lemma3_B, check_lemma2_reduction, check_affinity)


class TestWTable:
    """The position-keyed W graph against the recursion, as float.hex."""

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
            solver = FiniteHorizonSolver(model, horizon, k)
            for t in range(1, horizon.T + 1):
                for vec, got in zip(vectors, table[t - 1].tolist()):
                    want = solver.w_value(BeliefVector(vec), t)
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
        solver = FiniteHorizonSolver(model, horizon, 2)
        assert table.shape == (5, 4)
        for t in range(1, 6):
            for vec, got in zip(vectors, table[t - 1].tolist()):
                assert got.hex() == solver.w_value(BeliefVector(vec), t).hex()

    def test_node_cap_while_building_and_when_cached(self):
        model, horizon, k = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9), 2
        vectors = [(0.1, 0.5, 0.7, 0.9)]
        key = (4, k, 3)
        nodes = dp._w_graph(4, k, 3, 10_000).nodes
        assert nodes > 5
        for cap in (5, nodes - 1):
            dp._W_GRAPHS.pop(key, None)
            with pytest.raises(ResourceLimitError):
                w_table(model, horizon, k, vectors, max_states=cap)
            assert key not in dp._W_GRAPHS  # a build stopped by the cap is not kept
        w_table(model, horizon, k, vectors, max_states=nodes)
        assert dp._W_GRAPHS[key].nodes == nodes
        with pytest.raises(ResourceLimitError):
            w_table(model, horizon, k, vectors, max_states=nodes - 1)

    @pytest.mark.parametrize(
        "vectors, k",
        [([], 1), ([(0.1, 0.2), (0.3,)], 1), ([(0.1, 1.5)], 1), ([(0.1, 0.2)], 3), ([(0.1,)], 0)],
        ids=["empty", "ragged", "out-of-range", "k-above-n", "k-zero"],
    )
    def test_rejects_malformed_input(self, vectors, k):
        with pytest.raises(ValueError):
            w_table(TransitionModel(0.3, 0.8), HorizonSpec(2, 1.0), k, vectors)


# Outputs of the full-enumeration solver, before the aged-entry table, the
# duplicate-selection skip and the (h, entries) memo key, as float.hex.  Every
# instance is solved from t=1 on a fresh solver in this order: optimal_value,
# action_values, w_value, greedy_value; "stats" is cache_stats() afterwards.
_B1 = tau_iterate(0.3, TransitionModel(0.3, 0.8), 1)
PINNED_INSTANCES = {
    # name: (p01, p11, T, beta, k, omega, tags)
    "pos-k1": (0.3, 0.8, 5, 0.9, 1, (0.15, 0.62, 0.4, 0.88, 0.27), None),
    "pos-k2-beta1": (0.3, 0.8, 4, 1.0, 2, (0.15, 0.62, 0.4, 0.88, 0.27), None),
    "pos-k3": (0.25, 0.7, 3, 0.95, 3, (0.5, 0.12, 0.73, 0.31, 0.94, 0.66), None),
    "neg-k2": (0.8, 0.3, 4, 0.9, 2, (0.15, 0.62, 0.4, 0.88, 0.27), None),
    "beta0-k2": (0.3, 0.8, 3, 0.0, 2, (0.15, 0.62, 0.4, 0.27), None),
    "repeated-tagged-k2": (
        0.3, 0.8, 4, 0.95, 2,
        (0.45, 0.45, _B1, _B1, 0.8, 0.45),
        (("I", 1, 0), ("I", 2, 0), ("B", 1), ("B", 1), ("G", 0), None),
    ),
}
PINNED_OUTPUTS = {
    "pos-k1": {
        "V": "0x1.9cf0bc1f71f37p+1",
        "W": "0x1.4b8c8c941c24fp+1",
        "G": "0x1.9cf0bc1f71f37p+1",
        "best": [(4,)],
        "stats": {"v_states": 680, "w_states": 60},
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
        "stats": {"v_states": 501, "w_states": 56},
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
        "stats": {"v_states": 368, "w_states": 38},
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
        "stats": {"v_states": 501, "w_states": 56},
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
        "stats": {"v_states": 0, "w_states": 2},
        "Q": {
            (1, 2): "0x1.8a3d70a3d70a4p-1",
            (1, 3): "0x1.199999999999ap-1",
            (1, 4): "0x1.ae147ae147ae2p-2",
            (2, 3): "0x1.051eb851eb852p+0",
            (2, 4): "0x1.c7ae147ae147bp-1",
            (3, 4): "0x1.570a3d70a3d71p-1",
        },
    },
    "repeated-tagged-k2": {
        "V": "0x1.49fe55627d294p+2",
        "W": "0x1.49fe55627d294p+2",
        "G": "0x1.49fe55627d294p+2",
        "best": [(1, 5), (2, 5), (3, 5), (4, 5), (5, 6)],
        "stats": {"v_states": 483, "w_states": 77},
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
    @pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
    def test_bit_identical(self, name):
        p01, p11, T, beta, k, omega, tags = PINNED_INSTANCES[name]
        want = PINNED_OUTPUTS[name]
        s = make_solver(p01, p11, T, beta, k)
        b = BeliefVector(omega, tags)
        res = s.optimal_value(b, 1)
        qs = s.action_values(b, 1)
        assert res.value.hex() == want["V"]
        assert [a.indices for a in res.best_actions] == want["best"]
        assert {a.indices: q.hex() for a, q in qs.items()} == want["Q"]
        assert s.w_value(b, 1).hex() == want["W"]
        assert s.greedy_value(b, 1).hex() == want["G"]
        assert s.cache_stats() == want["stats"]
        assert s.verify_cached_bellman() <= 1e-12

    def test_resource_cap_trips_at_same_state(self):
        # The depth-first recursion, now the oracle, keeps its trip point and
        # the states it visited before the cap tripped.
        p01, p11, T, beta, k, omega, _ = PINNED_INSTANCES["pos-k2-beta1"]
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
        p01, p11, T, beta, k, omega, _ = PINNED_INSTANCES["pos-k2-beta1"]
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
            assert s._v_graphs == [] and s._answers == {}
            assert s.verify_cached_bellman() == 0.0
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

    @pytest.mark.parametrize("seed", range(40))
    def test_graph_pairs_follow_the_leftmost_rule(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        rows = np.sort(rng.integers(0, 3, (5, n)), axis=1).astype(np.int16)
        _, _, masks = dp._selection_arrays(n, k)
        state, sel = dp._sensing_pairs(rows, masks)
        selections = dp._selections(n, k)
        for i, row in enumerate(rows.tolist()):
            entries = tuple((0.1 * key, ("B", key)) for key in row)
            want = [s for s, _ in _distinct_selections(entries, k)]
            assert [selections[j][0] for j in sel[state == i]] == want


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
    tags = None
    if case % 5 == 0:
        # exact 0.0 and 1.0 entries: some outcomes have probability 0
        omega[0], omega[-1] = 0.0, 1.0
    elif case % 5 == 1:
        omega[-1] = omega[0]  # tied roots
    elif case % 5 == 2:
        # tagged roots, each value consistent with its tag
        tags = [None] * n
        tags[0] = ("G", 1)
        omega[0] = tau_iterate(p11, model, 1)
        tags[-1] = ("B", 0)
        omega[-1] = p01
        if n > 2:
            tags[1] = ("B", 0)
            omega[1] = p01  # a tie between tagged entries
        tags = tuple(tags)
    return model, HorizonSpec(T, beta), k, BeliefVector(tuple(omega), tags)


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
        assert graph.verify_cached_bellman() <= 1e-12
        if belief.tags is None:
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
        assert len(graph._v_graphs[0].entries) ** 12 > np.iinfo(np.int64).max

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
            table = solver.action_value_table(beliefs, t)
            assert table.shape == (4, 6)
            for b, row in zip(beliefs, table.tolist()):
                want = RecursiveVSolver(model, horizon, k).action_values(b, t)
                assert [q.hex() for q in row] == [q.hex() for q in want.values()]
        assert solver.verify_cached_bellman() <= 1e-12

    def test_answers_are_cached_and_copied(self):
        solver = make_solver(0.3, 0.8, 4, 0.9, 2)
        b = BeliefVector((0.15, 0.62, 0.4, 0.88))
        first = solver.action_value_table([b], 1)
        stats = solver.cache_stats()
        first[0, 0] = -1.0
        again = solver.action_value_table([b, b], 1)
        assert solver.cache_stats() == stats
        assert again[0, 0] != -1.0 and np.array_equal(again[0], again[1])

    def test_audit_flags_a_tag_inconsistent_with_its_value(self):
        # 0.31 tagged as p01 observed now (p01 = 0.3): the rebuilt states are
        # not in the graph, so the audit solves them and reports the gap.
        model, horizon = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9)
        b = BeliefVector((0.31, 0.5, 0.7), (("B", 0), None, None))
        graph, oracle = FiniteHorizonSolver(model, horizon, 1), RecursiveVSolver(model, horizon, 1)
        graph.optimal_value(b, 1)
        oracle.optimal_value(b, 1)
        residual = graph.verify_cached_bellman()
        assert residual > 1e-3
        assert residual == pytest.approx(oracle.verify_cached_bellman(), abs=1e-15)

    def test_rejects_bad_queries(self):
        solver = make_solver(0.3, 0.8, 3, 0.9, 1)
        with pytest.raises(ValueError):
            solver.action_value_table([], 1)
        with pytest.raises(ValueError):
            solver.action_value_table([BeliefVector((0.1, 0.2)), BeliefVector((0.3,))], 1)
        with pytest.raises(ValueError):
            solver.action_value_table([BeliefVector((0.1, 0.2))], 4)
        # tau(0.0) is p01 exactly, so this entry aged once is p01 observed now
        tagged = BeliefVector((0.0, 0.2), (("B", -1), None))
        with pytest.raises(ValueError, match="tag ages"):
            solver.action_value_table([tagged], 1)
