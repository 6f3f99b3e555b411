"""reflexgrid: a three-layer toy model of reactive appliances on a grid.

Physical layer: a DC circuit whose load-bus voltage stands in for grid
frequency.  Information layer: what each appliance and the optional
central controller can see, expressed as polynomials of an algebra of
reflexive processes.  Regulatory layer: duty-cycling appliances that
postpone or advance their cycles in response to the sensed voltage.

The headline phenomenon: a fleet of identical appliances, each reacting
selfishly to the same signal, herds into a synchronization instability
that keeps the voltage outside its normative band; randomizing each
reaction with a small probability, or adding a central controller,
restores stability.
"""

from .agents import (
    Action,
    AgentConfig,
    AgentState,
    Band,
    Instruction,
    Plan,
    RuleKind,
    agent_step,
    controller_plan,
    desired_load,
)
from .algebra import (
    Atom,
    ExpressionError,
    Polynomial,
    Word,
    apply_awareness,
    atom,
    contains_word,
    equals,
    parse,
    reflection_depth,
)
from .awareness import (
    AwarenessDecl,
    Violation,
    derive_structure,
    rule_requirements,
    standard_declaration,
    validate_awareness,
)
from .circuit import Branch, CircuitConfig, CircuitSolution, solve, v_load_for_count
from .engine import (
    ControllerConfig,
    Disturbance,
    Metrics,
    Scenario,
    ShiftRecord,
    Trace,
    calibrate_nominal,
    compute_metrics,
    run,
    uniform_draws,
)
from .scenariofile import ScenarioBundle, ScenarioFileError, load_scenario, parse_scenario_text

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AgentConfig",
    "AgentState",
    "Atom",
    "AwarenessDecl",
    "Band",
    "Branch",
    "CircuitConfig",
    "CircuitSolution",
    "ControllerConfig",
    "Disturbance",
    "ExpressionError",
    "Instruction",
    "Metrics",
    "Plan",
    "Polynomial",
    "RuleKind",
    "Scenario",
    "ScenarioBundle",
    "ScenarioFileError",
    "ShiftRecord",
    "Trace",
    "Violation",
    "Word",
    "agent_step",
    "apply_awareness",
    "atom",
    "calibrate_nominal",
    "compute_metrics",
    "contains_word",
    "controller_plan",
    "derive_structure",
    "desired_load",
    "equals",
    "load_scenario",
    "parse",
    "parse_scenario_text",
    "reflection_depth",
    "rule_requirements",
    "run",
    "solve",
    "standard_declaration",
    "uniform_draws",
    "v_load_for_count",
    "validate_awareness",
]
