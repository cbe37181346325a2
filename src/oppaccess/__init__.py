"""Finite-horizon opportunistic multichannel access: models, exact DP, policies,
Monte Carlo simulation, and a numerical verification harness."""

from .model import (
    ActionSet,
    BeliefVector,
    HorizonSpec,
    OutcomeRealization,
    TransitionModel,
    enumerate_actions,
    enumerate_outcomes,
    immediate_reward,
    outcome_probability,
    tau,
    tau_iterate,
    update_belief,
)
from .dp import FiniteHorizonSolver, ResourceLimitError, SolveResult
from .policies import (
    FixedSetPolicy,
    GreedyPolicy,
    OptimalPolicy,
    OrderedListPolicy,
    Policy,
    RoundRobinPolicy,
    UniformRandomPolicy,
    all_greedy_actions,
    greedy_action,
    optimal_action,
    ordered_list_policy_step,
)
from .sim import (
    PairedSummary,
    RunRecord,
    SimConfig,
    SimSummary,
    StepRecord,
    common_random_numbers_compare,
    simulate,
    write_traces,
)
from .verify import (
    Instance,
    InstanceSampler,
    NegativeScanReport,
    ViolationReport,
    check_affinity,
    check_lemma2_reduction,
    check_lemma3_A,
    check_lemma3_B,
    check_theorem1,
    scan_negative_regime,
    summary_table,
    violations_to_json,
)

__version__ = "0.1.0"
