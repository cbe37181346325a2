import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oppaccess import (
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
)

from oppaccess.policies import _distinct_rows

from _oracles import LoopRandom, LoopRoundRobin, ordered_list_step

probs = st.floats(min_value=0.0, max_value=1.0)


def one_based(acts):
    return [tuple(int(i) + 1 for i in row) for row in acts]


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
    """``OptimalPolicy.batch_actions`` picks ``optimal_value(...).best_actions[0]`` per row."""

    @staticmethod
    def first_best(model, horizon, k, rows, t):
        solver = FiniteHorizonSolver(model, horizon, k)
        return [
            solver.optimal_value(BeliefVector(tuple(r)), t).best_actions[0].indices for r in rows
        ]

    def test_terminal_equals_greedy(self):
        model, horizon = TransitionModel(0.2, 0.8), HorizonSpec(3, 1.0)
        rows = np.array([[0.3, 0.8, 0.5], [0.9, 0.1, 0.6], [0.3, 0.8, 0.5]])
        acts = OptimalPolicy(model, horizon, 2).batch_actions(rows, 3, np.zeros(3))
        assert one_based(acts) == [greedy_action(tuple(r), 2).indices for r in rows]
        assert one_based(acts) == self.first_best(model, horizon, 2, rows, 3)

    def test_full_set_when_k_equals_n(self):
        model, horizon = TransitionModel(0.2, 0.8), HorizonSpec(2, 1.0)
        rows = np.array([[0.3, 0.8], [0.5, 0.5]])
        acts = OptimalPolicy(model, horizon, 2).batch_actions(rows, 1, np.zeros(2))
        assert one_based(acts) == [(1, 2), (1, 2)]

    def test_value_matches_greedy_in_positive_regime(self):
        model, horizon = TransitionModel(0.25, 0.85), HorizonSpec(4, 0.9)
        solver = FiniteHorizonSolver(model, horizon, 2)
        omega = (0.15, 0.5, 0.92, 0.4)
        qs = solver.action_values(BeliefVector(omega), 1)
        assert qs[greedy_action(omega, 2)] == pytest.approx(max(qs.values()), abs=1e-9)

    @pytest.mark.parametrize("p01,p11", [(0.25, 0.85), (0.8, 0.3)])
    def test_rows_take_the_first_best_action(self, p01, p11):
        model, horizon = TransitionModel(p01, p11), HorizonSpec(4, 0.9)
        # Row 1 ties two channels; rows 0 and 3 are the same belief.
        rows = np.array(
            [
                [0.15, 0.5, 0.92, 0.4],
                [0.6, 0.3, 0.6, 0.8],
                [0.5, 0.5, 0.5, 0.5],
                [0.15, 0.5, 0.92, 0.4],
            ]
        )
        solver = FiniteHorizonSolver(model, horizon, 2)
        assert len(solver.optimal_value(BeliefVector((0.5,) * 4), 2).best_actions) > 1
        acts = OptimalPolicy(model, horizon, 2).batch_actions(rows, 2, np.zeros(4))
        assert one_based(acts) == self.first_best(model, horizon, 2, rows, 2)


class TestOrderedListStep:
    """The list step, through ``batch_observe`` on several rows and through the oracle."""

    @staticmethod
    def stepped(order, k, acts_obs):
        """Reset a list policy to `order`, then observe each (acts, obs) round;
        returns the next actions, 1-based."""
        policy = OrderedListPolicy(k, order)
        policy.reset(len(order), k, (0.5,) * len(order))
        rows = len(acts_obs[0][1]) if acts_obs else 1
        beliefs = np.full((rows, len(order)), 0.5)
        acts = policy.batch_actions(beliefs, 1, np.zeros(rows))
        for t, (expected, obs) in enumerate(acts_obs, start=2):
            assert one_based(acts) == expected
            policy.batch_observe(acts, np.array(obs, dtype=np.int8))
            acts = policy.batch_actions(beliefs, t, np.zeros(rows))
        return one_based(acts)

    def test_first_step_selects_list_top(self):
        assert self.stepped((3, 1, 2), 2, []) == [(1, 2)]
        assert ordered_list_step((3, 1, 2), 2, (1, 1)) == (3, 1, 2)

    def test_bad_goes_to_bottom_good_stays_on_top(self):
        # Sensed (1, 2), in list and in channel order.  Row 0: 1 bad, 2 good;
        # row 1: both good; row 2: both bad; row 3: 1 good, 2 bad.
        obs = [(0, 1), (1, 1), (0, 0), (1, 0)]
        nxt = self.stepped((3, 1, 2), 2, [([(1, 2)] * 4, obs)])
        assert nxt == [(2, 3), (1, 2), (2, 3), (1, 3)]
        assert ordered_list_step((3, 1, 2), 2, (0, 1)) == (1, 3, 2)
        assert ordered_list_step((3, 1, 2), 2, (1, 1)) == (3, 1, 2)
        assert ordered_list_step((3, 1, 2), 2, (0, 0)) == (1, 2, 3)
        assert ordered_list_step((3, 1, 2), 2, (1, 0)) == (2, 3, 1)

    def test_bits_follow_channel_order_in_batch_and_list_order_in_oracle(self):
        # List (4, 2, 3, 1): the sensed entries are 3 then 1 in list order.
        # Channel 1 (first in acts) bad, channel 3 good.
        nxt = self.stepped((4, 2, 3, 1), 2, [([(1, 3)], [(0, 1)])])
        assert ordered_list_step((4, 2, 3, 1), 2, (1, 0)) == (1, 4, 2, 3)
        assert nxt == [(2, 3)]

    def test_k_equals_n_order_irrelevant(self):
        obs = [(0, 1, 0), (1, 1, 1)]
        assert self.stepped((2, 3, 1), 3, [([(1, 2, 3)] * 2, obs)]) == [(1, 2, 3)] * 2
        assert sorted(ordered_list_step((2, 3, 1), 3, (0, 1, 0))) == [1, 2, 3]

    def test_good_channel_reselected(self):
        assert self.stepped((2, 1), 1, [([(1,)] * 3, [(1,)] * 3)] * 4) == [(1,)] * 3
        order = (2, 1)
        for _ in range(4):
            order = ordered_list_step(order, 1, (1,))
            assert order[-1:] == (1,)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            OrderedListPolicy(1, (1, 1, 2)).reset(3, 1, (0.5,) * 3)


class TestOrderedListPolicy:
    def test_tracks_greedy_in_positive_regime(self):
        # R rows stepped together, each with its own outcomes: along every
        # realisation the list senses a greedy set.  Where channels tie at
        # the k-th belief the list breaks the tie by list position and greedy
        # by index, so the sensed beliefs are compared, not the indices.
        model = TransitionModel(0.2, 0.8)
        k, n, R = 2, 4, 40
        rng = np.random.default_rng(5)
        greedy = GreedyPolicy(k)
        same = 0
        for trial in range(10):
            omega = tuple(np.round(rng.random(n), 3))
            policy = OrderedListPolicy(k)
            policy.reset(n, k, omega)
            beliefs = np.tile(omega, (R, 1))
            for t in range(1, 5):
                acts = policy.batch_actions(beliefs, t, np.zeros(R))
                sensed = np.take_along_axis(beliefs, acts, axis=1)
                top = greedy.batch_actions(beliefs, t, np.zeros(R))
                top_sensed = np.take_along_axis(beliefs, top, axis=1)
                assert np.array_equal(np.sort(sensed, axis=1), np.sort(top_sensed, axis=1))
                same += np.array_equal(acts, top)
                obs = (rng.random((R, k)) < sensed).astype(np.int8)
                policy.batch_observe(acts, obs)
                beliefs = beliefs * model.p11 + (1 - beliefs) * model.p01
                np.put_along_axis(beliefs, acts, np.where(obs, model.p11, model.p01), axis=1)
        assert same > 20  # most steps have no tie at the boundary


class TestBaselines:
    def test_round_robin_blocks(self):
        p, beliefs = RoundRobinPolicy(4, 2), np.full((2, 4), 0.5)
        want = [(1, 2), (3, 4), (1, 2)]
        blocks = [one_based(p.batch_actions(beliefs, t, np.zeros(2))) for t in (1, 2, 3)]
        assert blocks == [[block] * 2 for block in want]
        twin = LoopRoundRobin(4, 2)
        assert [twin.action((0.5,) * 4, t, 0.0).indices for t in (1, 2, 3)] == want
        # The scalar form perfbench computes its round-robin reference from.
        assert [p.action((0.5,) * 4, t).indices for t in (1, 2, 3)] == want
        # Blocks wrap around n.
        wrapped = RoundRobinPolicy(3, 2).batch_actions(np.zeros((1, 3)), 2, np.zeros(1))
        assert one_based(wrapped) == [(1, 3)]

    def test_fixed_set(self):
        p = FixedSetPolicy((3, 1))
        acts = p.batch_actions(np.array([[0.1, 0.9, 0.5]] * 2), 7, np.zeros(2))
        assert one_based(acts) == [(1, 3), (1, 3)]

    def test_fixed_set_reset_checks_n_and_k(self):
        FixedSetPolicy((1, 3)).reset(3, 2, (0.5,) * 3)
        with pytest.raises(ValueError):
            FixedSetPolicy((5,)).reset(3, 1, (0.5,) * 3)
        with pytest.raises(ValueError):
            FixedSetPolicy((1, 2)).reset(3, 1, (0.5,) * 3)

    def test_random_deterministic_given_uniform(self):
        # C(4, 2) = 6 subsets in lexicographic order; subset floor(6u), and u
        # = 1 reads the last.
        u = np.array([0.17, 0.0, 0.5, 0.99999, 1.0, 0.17])
        p = UniformRandomPolicy(4, 2)
        acts = one_based(p.batch_actions(np.full((6, 4), 0.5), 1, u))
        want = [(1, 3), (1, 2), (2, 3), (3, 4), (3, 4), (1, 3)]
        assert acts == want
        assert one_based(p.batch_actions(np.full((6, 4), 0.5), 2, u)) == want
        twin = LoopRandom(4, 2)
        assert [twin.action((0.5,) * 4, 1, x).indices for x in u.tolist()] == want

    def test_random_rejects_k_outside_one_to_n(self):
        for k in (0, 5):
            with pytest.raises(ValueError):
                UniformRandomPolicy(4, k)

    def test_random_table_past_numpys_size_limit(self):
        # C(66, 33) ~ 7.2e18 sets: their (C, 66) positions cannot be addressed.
        with pytest.raises(MemoryError, match=r"\(7219428434016265740, 66\) float64 array"):
            UniformRandomPolicy(66, 33)

    def test_batch_matches_single(self):
        beliefs = np.array([[0.1, 0.9, 0.5], [0.4, 0.4, 0.2]])
        g = GreedyPolicy(2)
        batch = g.batch_actions(beliefs, 1, np.zeros(2))
        for r in range(2):
            assert tuple(batch[r] + 1) == greedy_action(tuple(beliefs[r]), 2).indices

    def test_index_tables_keep_values_and_dtype(self):
        # The tables are a shared read-only cache; what a policy returns is
        # its own writable copy.
        rows = np.full((3, 5), 0.5)
        for policy, t in [
            (UniformRandomPolicy(5, 2), 1),
            (OptimalPolicy(TransitionModel(0.2, 0.8), HorizonSpec(2, 0.9), 2), 1),
        ]:
            acts = policy.batch_actions(rows, t, np.array([0.0, 0.4, 0.95]))
            assert acts.dtype == np.array([0]).dtype and acts.flags.writeable
            acts[0, 0] = 4
            again = policy.batch_actions(rows, t, np.array([0.0, 0.4, 0.95]))
            assert again[0, 0] == 0


class TestOptimalPolicy:
    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (50, 2), (300, 6)])
    def test_distinct_rows_are_numpys(self, shape):
        # Few values, so rows repeat and share prefixes; the first rows also
        # differ only in their last column.
        rng = np.random.default_rng(shape[0])
        rows = rng.choice([0.1, 0.3, 0.3 + 2**-54, 0.7], shape)
        rows[1::3] = rows[0]
        if shape[1] > 1 and shape[0] > 2:
            rows[2] = rows[0]
            rows[2, -1] = 0.9
        uniq, inverse = _distinct_rows(rows)
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert uniq.tobytes() == want.tobytes()
        assert inverse.tolist() == want_inverse.reshape(-1).tolist()

    def test_shares_solver_and_is_deterministic(self):
        model, horizon = TransitionModel(0.3, 0.7), HorizonSpec(3, 1.0)
        p = OptimalPolicy(model, horizon, 1)
        rows = np.array([[0.5, 0.2], [0.2, 0.5]])
        first = p.batch_actions(rows, 1, np.zeros(2))
        answered = dict(p.solver._answers)
        assert np.array_equal(first, p.batch_actions(rows, 1, np.zeros(2)))
        # the second query is answered from the shared solver's cache
        assert p.solver._answers.keys() == answered.keys()


def test_oracles_import_nothing_from_policies():
    # The loop simulator's scalar policies must stay independent of the batch
    # code: no import of the module, and no name it defines, even re-exported.
    tree = ast.parse((Path(__file__).parent / "_oracles.py").read_text())
    modules, names = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module)
            names.extend((node.module, alias.name) for alias in node.names)
    assert "oppaccess" in modules
    assert not [m for m in modules if m.startswith("oppaccess.policies")]
    for module, name in names:
        if module.startswith("oppaccess"):
            obj = getattr(importlib.import_module(module), name)
            assert getattr(obj, "__module__", None) != "oppaccess.policies", name
