import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oppaccess import (
    ActionSet,
    BeliefVector,
    FiniteHorizonSolver,
    FixedSetPolicy,
    GreedyPolicy,
    HorizonSpec,
    OptimalPolicy,
    OrderedListPolicy,
    RoundRobinPolicy,
    TransitionModel,
    UniformRandomPolicy,
    greedy_action,
    optimal_action,
    ordered_list_policy_step,
)

probs = st.floats(min_value=0.0, max_value=1.0)


class TestGreedyAction:
    def test_top_two(self):
        assert greedy_action((0.1, 0.9, 0.5), 2).indices == (2, 3)

    def test_tie_rule_lowest_index(self):
        assert greedy_action((0.4, 0.4, 0.4, 0.4), 2).indices == (1, 2)

    def test_single(self):
        assert greedy_action((0.3, 0.3, 0.7), 1).indices == (3,)

    @given(omega=st.lists(probs, min_size=1, max_size=6), data=st.data())
    def test_invariant_under_increasing_transform(self, omega, data):
        k = data.draw(st.integers(1, len(omega)))
        # increasing map: ordering-only dependence.  Guard against float
        # rounding collapsing distinct inputs (e.g. 1e-228/2 + 0.25 == 0.25),
        # which would make the map non-strict.
        transformed = [w / 2.0 + 0.25 for w in omega]
        assume(len(set(transformed)) == len(set(omega)))
        assert greedy_action(omega, k) == greedy_action(transformed, k)


class TestOptimalAction:
    def test_terminal_equals_greedy(self):
        model, horizon = TransitionModel(0.2, 0.8), HorizonSpec(3, 1.0)
        omega = (0.3, 0.8, 0.5)
        assert (
            optimal_action(BeliefVector(omega), 3, model, horizon, 2)
            == greedy_action(omega, 2)
        )

    def test_full_set_when_k_equals_n(self):
        model, horizon = TransitionModel(0.2, 0.8), HorizonSpec(2, 1.0)
        act = optimal_action(BeliefVector((0.3, 0.8)), 1, model, horizon, 2)
        assert act.indices == (1, 2)

    def test_value_matches_greedy_in_positive_regime(self):
        model, horizon = TransitionModel(0.25, 0.85), HorizonSpec(4, 0.9)
        solver = FiniteHorizonSolver(model, horizon, 2)
        omega = (0.15, 0.5, 0.92, 0.4)
        qs = solver.action_values(BeliefVector(omega), 1)
        assert qs[greedy_action(omega, 2)] == pytest.approx(max(qs.values()), abs=1e-9)


class TestOrderedListStep:
    def test_first_step_selects_list_top(self):
        action, order = ordered_list_policy_step((3, 1, 2), 2)
        assert action.indices == (1, 2)
        assert order == (3, 1, 2)

    def test_bad_goes_to_bottom_good_stays_on_top(self):
        # sensed (1, 2) in list order; 1 observed bad, 2 observed good
        action, order = ordered_list_policy_step((3, 1, 2), 2, last_outcome=(0, 1))
        assert order == (1, 3, 2)
        assert action.indices == (2, 3)

    def test_k_equals_n_order_irrelevant(self):
        action, _ = ordered_list_policy_step((2, 3, 1), 3)
        assert action.indices == (1, 2, 3)

    def test_good_channel_reselected(self):
        order = (2, 1)
        for _ in range(4):
            action, order = ordered_list_policy_step(order, 1, last_outcome=(1,))
            assert action.indices == (1,)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            ordered_list_policy_step((1, 1, 2), 1)


class TestOrderedListPolicy:
    def test_tracks_greedy_in_positive_regime(self):
        # identical action streams along every outcome realisation
        model = TransitionModel(0.2, 0.8)
        k, n = 2, 4
        rng = np.random.default_rng(5)
        for trial in range(30):
            omega = tuple(np.round(rng.random(n), 3))
            policy = OrderedListPolicy(k)
            policy.reset(n, k, omega)
            beliefs = omega
            for t in range(1, 5):
                act = policy.action(beliefs, t)
                assert act == greedy_action(beliefs, k)
                bits = tuple(int(rng.random() < beliefs[i - 1]) for i in act.indices)
                policy.observe(act, bits)
                bit = dict(zip(act.indices, bits))
                beliefs = tuple(
                    (model.p11 if bit[i] else model.p01)
                    if i in bit
                    else w * model.p11 + (1 - w) * model.p01
                    for i, w in enumerate(beliefs, start=1)
                )


class TestBaselines:
    def test_round_robin_blocks(self):
        p = RoundRobinPolicy(4, 2)
        assert p.action((0.5,) * 4, 1).indices == (1, 2)
        assert p.action((0.5,) * 4, 2).indices == (3, 4)
        assert p.action((0.5,) * 4, 3).indices == (1, 2)

    def test_fixed_set(self):
        p = FixedSetPolicy((1, 3))
        assert p.action((0.1, 0.9, 0.5), 7).indices == (1, 3)

    def test_fixed_set_reset_checks_n_and_k(self):
        FixedSetPolicy((1, 3)).reset(3, 2, (0.5,) * 3)
        with pytest.raises(ValueError):
            FixedSetPolicy((5,)).reset(3, 1, (0.5,) * 3)
        with pytest.raises(ValueError):
            FixedSetPolicy((1, 2)).reset(3, 1, (0.5,) * 3)

    def test_random_deterministic_given_uniform(self):
        p = UniformRandomPolicy(4, 2)
        p.set_uniform(0.17)
        a1 = p.action((0.5,) * 4, 1)
        p.set_uniform(0.17)
        assert p.action((0.5,) * 4, 1) == a1

    def test_random_requires_uniform(self):
        p = UniformRandomPolicy(3, 1)
        with pytest.raises(RuntimeError):
            p.action((0.5, 0.5, 0.5), 1)

    def test_batch_matches_single(self):
        beliefs = np.array([[0.1, 0.9, 0.5], [0.4, 0.4, 0.2]])
        g = GreedyPolicy(2)
        batch = g.batch_actions(beliefs, 1, np.zeros(2))
        for r in range(2):
            single = g.action(tuple(beliefs[r]), 1)
            assert tuple(batch[r] + 1) == single.indices


class TestOptimalPolicy:
    def test_shares_solver_and_is_deterministic(self):
        model, horizon = TransitionModel(0.3, 0.7), HorizonSpec(3, 1.0)
        p = OptimalPolicy(model, horizon, 1)
        omega = (0.5, 0.2)
        assert p.action(omega, 1) == p.action(omega, 1)
