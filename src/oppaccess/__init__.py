"""Finite-horizon opportunistic multichannel access: models, exact DP, policies,
Monte Carlo simulation, and a numerical verification harness."""

from .model import (
    ActionSet,
    BeliefVector,
    HorizonSpec,
    TransitionModel,
    tau,
    tau_iterate,
)
from .dp import FiniteHorizonSolver, ResourceLimitError, SolveResult, enumerate_actions
from .policies import (
    FixedSetPolicy,
    GreedyPolicy,
    OptimalPolicy,
    OrderedListPolicy,
    Policy,
    RoundRobinPolicy,
    UniformRandomPolicy,
    greedy_action,
)
from .sim import (
    PairedSummary,
    SimConfig,
    SimSummary,
    Traces,
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
