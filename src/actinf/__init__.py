"""Discrete-state active inference: belief updates by variational free
energy, policy selection by expected free energy, a hierarchical agent
loop over swappable world-model providers, and a seeded bench-assay
simulator for end-to-end episodes."""

from .agent import Agent, AgentConfig, EpisodeResult, Message, run_episode
from .dists import CategoricalDistribution, delta, normalize, uniform
from .errors import (
    DegenerateDistributionError,
    EngineError,
    ImpossibleObservationError,
    ModelValidationError,
    NoCandidateError,
    ProviderError,
    ReplayExhaustedError,
    ScenarioError,
    ShapeError,
)
from .inference import (
    VfeReport,
    bayes_update,
    compute_vfe,
    kl_divergence,
    surprise,
)
from .lab import (
    ActionSpec,
    EnvSpec,
    ExecutedAction,
    LabEnv,
    LabState,
    Observation,
    indicator_color,
)
from .model import (
    GenerativeModel,
    ObservationModel,
    Policy,
    PreferenceEntry,
    PreferenceModel,
    TransitionModel,
    ValidationReport,
    validate_model,
)
from .planning import (
    EfeBreakdown,
    Rollout,
    enumerate_policies,
    expected_free_energy,
    information_gain,
    pragmatic_value,
    rollout,
    select_policy,
)
from .providers import (
    RefinementSummary,
    RemoteProvider,
    ScriptedProvider,
    TabularProvider,
    WorldModelProvider,
    WorldModelQuery,
    WorldModelResponse,
    save_script,
)
from .scenario import Scenario, load_scenario, resolve_scenario, save_scenario
from .trace import (
    FreeEnergyLedger,
    LedgerRow,
    OpCounter,
    TraceEvent,
    build_ledger,
    emit_ledger,
    emit_trace,
    read_trace,
)

__version__ = "0.1.0"
