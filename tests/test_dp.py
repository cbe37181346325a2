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
from oppaccess.dp import _distinct_selections

from _oracles import brute_force_optimal, full_observation_value

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
        rollout = s.exact_policy_value(lambda w, t: greedy_action(w, k), BeliefVector(omega), 1)
        assert s.greedy_value(BeliefVector(omega), 1) == pytest.approx(rollout, abs=1e-12)


class TestAffineSwap:
    def test_equal_arguments_zero(self):
        s = make_solver(0.2, 0.8, 3, 0.9, 1)
        lhs, rhs = s.affine_swap_delta((0.3,), 0.4, 0.4, (0.7,), 1)
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_unit_swap_tautology(self):
        s = make_solver(0.2, 0.8, 3, 0.9, 2)
        lhs, rhs = s.affine_swap_delta((0.3,), 1.0, 0.0, (0.7,), 1)
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
        lhs, rhs = s.affine_swap_delta(tuple(prefix), x, y, tuple(suffix), 1)
        assert abs(lhs - rhs) <= 1e-12

    def test_three_point_collinearity(self):
        s = make_solver(0.15, 0.85, 4, 1.0, 2)
        base = (0.3, 0.6, 0.9)

        def w_at(v):
            return s.w_value(BeliefVector((v,) + base), 1)

        assert w_at(0.5) == pytest.approx(0.5 * (w_at(0.0) + w_at(1.0)), abs=1e-12)


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
        p01, p11, T, beta, k, omega, _ = PINNED_INSTANCES["pos-k2-beta1"]
        b = BeliefVector(omega)
        # 501 V states in all: a cap of 501 suffices, 500 trips on the last one.
        make_solver(p01, p11, T, beta, k, max_states=501).optimal_value(b, 1)
        for cap, digest in [
            (500, "274e43a56239257a63b0863e694a2672aba05645114bfc764f995855df60348d"),
            (167, "c837e95907644940046a3a5b04051c13fcd48a640a2be065ad80808d2800a1a2"),
        ]:
            s = make_solver(p01, p11, T, beta, k, max_states=cap)
            with pytest.raises(ResourceLimitError):
                s.optimal_value(b, 1)
            assert s.cache_stats() == {"v_states": cap + 1, "w_states": 0}
            # the same states were visited before the cap tripped
            assert _memo_digest(s) == digest


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
