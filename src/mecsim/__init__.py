"""Service placement and base-station selection over discrete time slots.

Per slot, a discrete local search proposes where each user's service should
sit and which station serves it, or exact enumeration finds it on small
slots; an online threshold controller decides whether migrating is worth
the switching cost. Exact enumeration and an offline DP provide ground
truth on small instances.
"""

from .delays import (
    communication_delay,
    non_switching_delay,
    queuing_delay,
    switching_delay,
    total_delay,
)
from .errors import (
    DimensionMismatchError,
    EmptyCoverageError,
    InfeasibleError,
    NoInteriorPointError,
    NonPositiveCapacityError,
    OracleTooLargeError,
    OverloadedPointError,
    ParseError,
    RoundingFailedError,
    ScenarioError,
    UncoverableAreaError,
)
from .generator import GeneratorConfig, generate
from .model import (
    ControllerState,
    DelayBreakdown,
    FractionalDecision,
    Scenario,
    SlotDecision,
    decision_feasible,
    validate_scenario,
)
from .oracle import ENUMERATION_BUDGET, best_slot_decision, offline_optimal
from .optimizer import (
    DEFAULT_CONFIG,
    SolverConfig,
    SolverReport,
    objective_gradient,
    round_decision,
    solve_slot,
)
from .policy import Policy, SlotOutcome, initial_slot, run_policy, step
from .scenario_io import (
    SCHEMA_PATH,
    load_scenario,
    save_scenario,
    scenario_digest,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Scenario",
    "SlotDecision",
    "FractionalDecision",
    "DelayBreakdown",
    "ControllerState",
    "SlotOutcome",
    "Policy",
    "SolverConfig",
    "SolverReport",
    "GeneratorConfig",
    "validate_scenario",
    "decision_feasible",
    "switching_delay",
    "queuing_delay",
    "communication_delay",
    "non_switching_delay",
    "total_delay",
    "objective_gradient",
    "round_decision",
    "solve_slot",
    "initial_slot",
    "step",
    "run_policy",
    "best_slot_decision",
    "offline_optimal",
    "generate",
    "load_scenario",
    "save_scenario",
    "scenario_digest",
    "SCHEMA_PATH",
    "ENUMERATION_BUDGET",
    "DEFAULT_CONFIG",
    "ScenarioError",
    "ParseError",
    "DimensionMismatchError",
    "NonPositiveCapacityError",
    "EmptyCoverageError",
    "InfeasibleError",
    "NoInteriorPointError",
    "OverloadedPointError",
    "RoundingFailedError",
    "OracleTooLargeError",
    "UncoverableAreaError",
]
