import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oppaccess import (
    ActionSet,
    BeliefVector,
    HorizonSpec,
    TransitionModel,
    enumerate_actions,
    tau,
    tau_iterate,
)
from oppaccess.dp import (
    FiniteHorizonSolver,
    enumerate_actions,
    selection_count,
    w_graph_nodes,
    w_table,
)
from oppaccess.policies import (
    GreedyPolicy,
    OptimalPolicy,
    OrderedListPolicy,
    RoundRobinPolicy,
    UniformRandomPolicy,
    greedy_action,
)
from oppaccess.sim import SimConfig
from oppaccess.verify import InstanceSampler
from _oracles import (
    OutcomeRealization,
    enumerate_outcomes,
    immediate_reward,
    outcome_probability,
    update_belief,
)

probs = st.floats(min_value=0.0, max_value=1.0)


class TestTau:
    def test_endpoints(self):
        m = TransitionModel(0.3, 0.7)
        assert tau(0.0, m) == m.p01
        assert tau(1.0, m) == m.p11

    def test_symmetric_model_fixes_half(self):
        assert tau(0.5, TransitionModel(0.2, 0.8)) == pytest.approx(0.5, abs=1e-15)

    def test_direct_evaluation(self):
        # 0.5*0.9 + 0.5*0.3
        assert tau(0.5, TransitionModel(0.3, 0.9)) == pytest.approx(0.6, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tau(1.5, TransitionModel(0.3, 0.9))
        with pytest.raises(ValueError):
            tau(-0.1, TransitionModel(0.3, 0.9))

    @given(w1=probs, w2=probs, p01=probs, p11=probs)
    def test_monotone_when_positively_correlated(self, w1, w2, p01, p11):
        if p11 < p01:
            p01, p11 = p11, p01
        m = TransitionModel(p01, p11)
        if w1 >= w2:
            # allow 1 ulp of float noise in the affine evaluation
            assert tau(w1, m) >= tau(w2, m) - 1e-15
        assert min(p01, p11) - 1e-12 <= tau(w1, m) <= max(p01, p11) + 1e-12

    @given(w=probs, p01=probs, p11=probs)
    def test_fixed_point_attracts(self, w, p01, p11):
        m = TransitionModel(p01, p11)
        if 1.0 - p11 + p01 == 0.0:
            return
        star = m.stationary_belief()
        assert tau(star, m) == pytest.approx(star, abs=1e-12)
        if p11 >= p01:
            # contraction toward the fixed point, monotone from either side
            before = w
            for _ in range(5):
                after = tau(before, m)
                if before >= star:
                    assert star - 1e-12 <= after <= before + 1e-12
                else:
                    assert before - 1e-12 <= after <= star + 1e-12
                before = after

    def test_tau_iterate(self):
        m = TransitionModel(0.2, 0.8)
        assert tau_iterate(0.9, m, 0) == 0.9
        assert tau_iterate(0.9, m, 2) == tau(tau(0.9, m), m)


class TestOutcomeProbability:
    def test_product_formula(self):
        assert outcome_probability((0.5, 0.5), (1, 1)) == pytest.approx(0.25)

    def test_empty_product(self):
        assert outcome_probability((), ()) == 1.0

    def test_certain_outcome(self):
        assert outcome_probability((1.0, 0.0), (1, 0)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            outcome_probability((0.5,), (1, 0))

    @given(
        omega=st.lists(probs, min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_outcomes_sum_to_one(self, omega, k):
        k = min(k, len(omega))
        belief = BeliefVector(tuple(omega))
        action = ActionSet(tuple(range(1, k + 1)))
        total = sum(o.probability for o in enumerate_outcomes(belief, action))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestUpdateBelief:
    def test_observed_and_propagated(self):
        m = TransitionModel(0.2, 0.8)
        b = BeliefVector((0.5, 0.5))
        out = update_belief(b, ActionSet((1,)), OutcomeRealization((1,), 0.5), m)
        assert out.omega == (0.8, 0.5)

    def test_all_observed(self):
        m = TransitionModel(0.3, 0.9)
        b = BeliefVector((0.3, 0.9))
        out = update_belief(b, ActionSet((1, 2)), OutcomeRealization((0, 1), 1.0), m)
        assert out.omega == (m.p01, m.p11)

    def test_single_bad(self):
        m = TransitionModel(0.3, 0.9)
        out = update_belief(
            BeliefVector((0.6,)), ActionSet((1,)), OutcomeRealization((0,), 0.4), m
        )
        assert out.omega == (m.p01,)

    def test_misaligned_outcome(self):
        m = TransitionModel(0.3, 0.9)
        with pytest.raises(ValueError):
            update_belief(
                BeliefVector((0.5, 0.5)),
                ActionSet((1, 2)),
                OutcomeRealization((1,), 0.5),
                m,
            )

    @given(
        omega=st.lists(probs, min_size=2, max_size=5),
        p01=probs,
        p11=probs,
        data=st.data(),
    )
    def test_entries_stay_valid(self, omega, p01, p11, data):
        m = TransitionModel(p01, p11)
        belief = BeliefVector(tuple(omega))
        k = data.draw(st.integers(1, len(omega)))
        action = ActionSet(tuple(range(1, k + 1)))
        bits = tuple(data.draw(st.integers(0, 1)) for _ in range(k))
        out = update_belief(belief, action, OutcomeRealization(bits, 0.0), m)
        for i, w in enumerate(out.omega, start=1):
            assert 0.0 <= w <= 1.0
            if i <= k:
                assert w in (m.p01, m.p11)


class TestRewardAndActions:
    def test_immediate_reward(self):
        b = BeliefVector((0.2, 0.7))
        assert immediate_reward(b, ActionSet((2,))) == pytest.approx(0.7)
        assert immediate_reward(b, ActionSet((1, 2))) == pytest.approx(0.9)
        assert immediate_reward(BeliefVector((0.0, 0.0)), ActionSet((1, 2))) == 0.0

    def test_enumerate_actions(self):
        assert [a.indices for a in enumerate_actions(3, 2)] == [(1, 2), (1, 3), (2, 3)]
        assert [a.indices for a in enumerate_actions(2, 2)] == [(1, 2)]
        assert [a.indices for a in enumerate_actions(4, 1)] == [(1,), (2,), (3,), (4,)]

    def test_enumerate_actions_invalid(self):
        with pytest.raises(ValueError):
            enumerate_actions(2, 3)

    def test_enumerate_actions_past_numpys_size_limit(self):
        # C(66, 33) ~ 7.2e18 sets: their (C, 66) positions cannot be addressed.
        with pytest.raises(MemoryError, match=r"\(7219428434016265740, 66\) float64 array"):
            enumerate_actions(66, 33)

    def test_action_set_validation(self):
        with pytest.raises(ValueError):
            ActionSet((1, 1))
        with pytest.raises(ValueError):
            ActionSet((0, 1))
        with pytest.raises(ValueError):
            ActionSet((1, 2)).validate_for(n=2, k=1)


class TestModelTypes:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            TransitionModel(-0.1, 0.5)
        with pytest.raises(ValueError):
            TransitionModel(0.5, 1.1)

    def test_positively_correlated_flag(self):
        assert TransitionModel(0.2, 0.8).positively_correlated
        assert TransitionModel(0.5, 0.5).positively_correlated
        assert not TransitionModel(0.8, 0.2).positively_correlated

    def test_stationary_degenerate(self):
        with pytest.raises(ValueError):
            TransitionModel(0.0, 1.0).stationary_belief()

    def test_horizon_validation(self):
        from oppaccess import HorizonSpec

        with pytest.raises(ValueError):
            HorizonSpec(0)
        with pytest.raises(ValueError):
            HorizonSpec(3, 1.5)
        HorizonSpec(1, 0.0)
        HorizonSpec(1, 1.0)


_MODEL, _HORIZON, _BELIEF = TransitionModel(0.3, 0.8), HorizonSpec(2), BeliefVector((0.5, 0.5))

# Every numeric input of the library's constructors and entry points: how to
# build with it, and whether it is an integer or a probability.  Named
# "<where> <field>", each is read by model's one reader of its kind.
NUMERIC_INPUTS = {
    "T": (int, lambda v: HorizonSpec(v)),
    "solver k": (int, lambda v: FiniteHorizonSolver(_MODEL, _HORIZON, v)),
    "w_table k": (int, lambda v: w_table(_MODEL, _HORIZON, v, [_BELIEF.omega])),
    "n": (int, lambda v: SimConfig(_MODEL, _HORIZON, v, 1, _BELIEF, 10, 1)),
    "k": (int, lambda v: SimConfig(_MODEL, _HORIZON, 2, v, _BELIEF, 10, 1)),
    "sampler seed": (int, lambda v: InstanceSampler(seed=v)),
    "sampler n_range": (int, lambda v: InstanceSampler(1, n_range=(v, 3))),
    "sampler T_range": (int, lambda v: InstanceSampler(1, T_range=(1, v))),
    "sampler k_range": (int, lambda v: InstanceSampler(1, k_range=(v, v))),
    "sampler count": (int, lambda v: InstanceSampler(1).instances(v)),
    "tau_iterate steps": (int, lambda v: tau_iterate(0.5, _MODEL, v)),
    "sampler index": (int, lambda v: InstanceSampler(1).instance(v)),
    "optimal_value t": (int, lambda v: FiniteHorizonSolver(_MODEL, _HORIZON, 1).optimal_value(_BELIEF, v)),
    "w_value t": (int, lambda v: FiniteHorizonSolver(_MODEL, _HORIZON, 1).w_value(_BELIEF, v)),
    "solver max_states": (int, lambda v: FiniteHorizonSolver(_MODEL, _HORIZON, 1, v)),
    "w_table max_states": (int, lambda v: w_table(_MODEL, HorizonSpec(1), 1, [_BELIEF.omega], v)),
    "w_graph_nodes max_states": (int, lambda v: w_graph_nodes(2, 1, HorizonSpec(1), v)),
    "selection_count max_states": (int, lambda v: selection_count(2, 1, v)),
    "OptimalPolicy max_states": (int, lambda v: OptimalPolicy(_MODEL, _HORIZON, 1, v)),
    "GreedyPolicy k": (int, lambda v: GreedyPolicy(v)),
    "OrderedListPolicy k": (int, lambda v: OrderedListPolicy(v)),
    "OrderedListPolicy initial_order entry": (int, lambda v: OrderedListPolicy(1, (v, 1))),
    "RoundRobinPolicy n": (int, lambda v: RoundRobinPolicy(v, 1)),
    "RoundRobinPolicy k": (int, lambda v: RoundRobinPolicy(2, v)),
    "UniformRandomPolicy n": (int, lambda v: UniformRandomPolicy(v, 1)),
    "UniformRandomPolicy k": (int, lambda v: UniformRandomPolicy(2, v)),
    "greedy_action k": (int, lambda v: greedy_action(_BELIEF.omega, v)),
    "enumerate_actions n": (int, lambda v: enumerate_actions(v, 1)),
    "enumerate_actions k": (int, lambda v: enumerate_actions(2, v)),
    "ActionSet channel index": (int, lambda v: ActionSet((v, 1))),
    "p01": (float, lambda v: TransitionModel(v, 0.5)),
    "p11": (float, lambda v: TransitionModel(0.5, v)),
    "beta": (float, lambda v: HorizonSpec(2, v)),
    "BeliefVector omega[1]": (float, lambda v: BeliefVector((0.5, v))),
    "tau belief": (float, lambda v: tau(v, _MODEL)),
}


def _field_error(name):
    """ValueError whose message begins with the input's field."""
    return pytest.raises(ValueError, match=rf"^{re.escape(name.split(' ', 1)[-1])} must ")


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True), "2", None, "0.3", math.nan])
@pytest.mark.parametrize("name", list(NUMERIC_INPUTS))
def test_integer_inputs_are_read_at_construction(name, value):
    # Let through, each would fail later with a TypeError, run a bool as 1, or
    # keep a float where an integer is counted on.  2.5 and 2.0 are outside
    # [0, 1], so a probability refuses them too.
    kind, build = NUMERIC_INPUTS[name]
    with _field_error(name):
        build(value)
    build(np.int64(2) if kind is int else np.float64(0.5))  # numpy numbers are numbers


@pytest.mark.parametrize(
    "name", [name for name, (kind, _) in NUMERIC_INPUTS.items() if kind is float or "range" in name]
)
def test_numbers_past_float_or_int64_range_are_refused(name):
    with _field_error(name):
        NUMERIC_INPUTS[name][1](10**400)


@pytest.mark.parametrize(
    "name, value", [("T", 0), ("max_states", -1), ("channel index", 0), ("seed", -1)]
)
def test_integer_bounds_name_their_field(name, value):
    build = {
        "T": lambda v: HorizonSpec(v),
        "max_states": lambda v: FiniteHorizonSolver(_MODEL, _HORIZON, 1, v),
        "channel index": lambda v: ActionSet((v,)),
        "seed": lambda v: InstanceSampler(seed=v),  # numpy seeds no negative integer
    }[name]
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[{value + 1}, inf\], got {value}$"):
        build(value)


# Every belief argument of the library's entry points, each read by model's belief reader.
BELIEF_INPUTS = {
    "SimConfig initial_belief": lambda b: SimConfig(_MODEL, _HORIZON, 2, 1, b, 10, 1),
    "optimal_value belief": lambda b: FiniteHorizonSolver(_MODEL, _HORIZON, 1).optimal_value(b, 1),
    "action_values belief": lambda b: FiniteHorizonSolver(_MODEL, _HORIZON, 1).action_values(b, 1),
    "greedy_audit belief": lambda b: FiniteHorizonSolver(_MODEL, _HORIZON, 1).greedy_audit(b, 1),
    "w_value belief": lambda b: FiniteHorizonSolver(_MODEL, _HORIZON, 1).w_value(b, 1),
    "greedy_value belief": lambda b: FiniteHorizonSolver(_MODEL, _HORIZON, 1).greedy_value(b, 1),
}


@pytest.mark.parametrize(
    "value", [(0.5, 0.5), [0.5, 0.5], np.array([0.5, 0.5]), None], ids=["tuple", "list", "array", "None"]
)
@pytest.mark.parametrize("name", list(BELIEF_INPUTS))
def test_belief_inputs_must_be_belief_vectors(name, value):
    # Each used to end in an AttributeError on .n or .omega.
    with _field_error(name):
        BELIEF_INPUTS[name](value)
    BELIEF_INPUTS[name](_BELIEF)


def test_inputs_are_held_as_python_numbers():
    model = TransitionModel(np.float64(0.3), 1)
    horizon = HorizonSpec(np.int64(3), np.float32(0.5))
    belief = BeliefVector(np.array([0.2, 0.5]))
    held = (model.p01, model.p11, horizon.T, horizon.beta, *belief.omega)
    assert [type(x) for x in held] == [float, float, int, float, float, float]
    assert held == (0.3, 1.0, 3, 0.5, 0.2, 0.5)
    assert ActionSet([np.int64(2), 1]).indices == (1, 2)
    assert type(ActionSet([np.int64(2), 1]).indices[1]) is int
