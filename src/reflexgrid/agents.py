"""Regulatory layer: appliance decision rules and the central planner.

Agents run duty cycles (``on_steps`` on, out of every ``period`` steps,
offset by ``phase``).  A reacting agent accumulates a phase ``shift``:
postponing (+1 per triggering step) holds its schedule back, advancing
(-1) pulls it forward.  The flexible load itself follows the shifted
schedule through a cycle machine: a run starts when the scheduled window
opens and then completes uninterrupted, so postponement defers upcoming
turn-ons while already-running cycles finish.  While the shift is
untouched, the machine is exactly the duty-cycle schedule.

The shift update rules are:

* ``PASSIVE``        never reacts.
* ``REACTIVE``       postpones below ``v_low``, advances above ``v_high``.
* ``PROBABILISTIC``  same triggers, each applied with probability ``p``.
* ``COMMANDED``      ignores the sensed voltage and obeys instructions.

A commanded appliance cedes connection timing to the planner: its cycle
machine free-runs on the unshifted schedule while instructions move a
connection override (postpone suppresses the flexible load, advance forces
it on, matched instructions cancel back to the schedule).  The shift still
counts accumulated instructions.

An agent's id is its index in ``Scenario.agents``, so equal agents may
share one ``AgentConfig``; the planner plans against ``Scenario.band``.

Shifts saturate at ``max_shift`` instead of erroring.  All functions are
pure; state is returned, never mutated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitConfig, v_load_for_count


class RuleKind(enum.Enum):
    PASSIVE = "passive"
    REACTIVE = "reactive"
    PROBABILISTIC = "probabilistic"
    COMMANDED = "commanded"


class Action(enum.Enum):
    POSTPONE = "postpone"
    ADVANCE = "advance"
    HOLD = "hold"


@dataclass(frozen=True)
class Band:
    """Normative voltage interval the regulation tries to hold."""

    v_low: float
    v_high: float

    def __post_init__(self):
        if not self.v_low < self.v_high:
            raise ValueError(f"band requires v_low < v_high, got [{self.v_low}, {self.v_high}]")

    def contains(self, v: float) -> bool:
        return self.v_low <= v <= self.v_high


@dataclass(frozen=True)
class AgentConfig:
    period: int
    on_steps: int
    phase: int
    rule: RuleKind
    v_low: float
    v_high: float
    p: float = 1.0
    max_shift: int | None = None  # defaults to one full period
    p_latch: bool = False  # draw once per out-of-band episode instead of per step

    def __post_init__(self):
        # schedules are int64 in the engine
        if not 1 <= self.period < 2**63:
            raise ValueError(f"period must be in [1, 2**63), got {self.period}")
        if not 1 <= self.on_steps < self.period:
            raise ValueError(f"on_steps must be in [1, period), got {self.on_steps}")
        if not 0 <= self.phase < self.period:
            raise ValueError(f"phase must be in [0, period), got {self.phase}")
        if not self.v_low < self.v_high:
            raise ValueError(f"thresholds require v_low < v_high, got [{self.v_low}, {self.v_high}]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"reaction probability must be in [0, 1], got {self.p}")
        if self.max_shift is None:
            object.__setattr__(self, "max_shift", self.period)
        elif not 0 <= self.max_shift < 2**63:
            raise ValueError(f"max_shift must be in [0, 2**63), got {self.max_shift}")


@dataclass(frozen=True)
class AgentState:
    """Per-agent mutable part, carried between steps by the engine.

    ``shift`` is the accumulated postponement in steps (positive = delayed).
    ``flex_connected``/``run_remaining`` are the cycle machine: whether the
    flexible load is running and for how many more steps.  ``override`` is
    the commanded connection mask (-1 suppressed, 0 natural, +1 forced on).
    ``latch_side``/``latch_react`` only matter for probabilistic agents in
    latched mode.
    """

    shift: int = 0
    pending: Action | None = None
    flex_connected: bool = False
    run_remaining: int = 0
    override: int = 0
    latch_side: int = 0  # 0 none, +1 low-voltage episode, -1 high-voltage episode
    latch_react: bool = False

    @staticmethod
    def initial(config: AgentConfig) -> "AgentState":
        # machine state as of the step before t=0, so that stepping at t=0
        # lands exactly on the passive schedule
        pos = (-1 - config.phase) % config.period
        connected = pos < config.on_steps
        return AgentState(
            flex_connected=connected,
            run_remaining=config.on_steps - pos if connected else 0,
        )


@dataclass(frozen=True)
class Instruction:
    agent_id: int
    action: Action


# action of each plan code; -1 indexes the last entry
_ACTION_OF_CODE = (Action.HOLD, Action.POSTPONE, Action.ADVANCE)


@dataclass(frozen=True, eq=False)
class Plan:
    """One controller decision per agent, as an int8 vector in agent-id
    order: +1 postpone, -1 advance, 0 hold.

    Iterating yields the equivalent ``Instruction`` per agent; the engine
    reads ``actions`` directly.
    """

    actions: np.ndarray

    def __iter__(self):
        for i, code in enumerate(self.actions.tolist()):
            yield Instruction(i, _ACTION_OF_CODE[code])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Plan):
            return NotImplemented
        return np.array_equal(self.actions, other.actions)


def desired_load(config: AgentConfig, state: AgentState, t: int) -> bool:
    """Scheduled duty-window membership at step ``t`` under the current shift."""
    if t < 0:
        raise ValueError(f"step index must be non-negative, got {t}")
    return (t - config.phase - state.shift) % config.period < config.on_steps


def _clamped(shift: int, delta: int, max_shift: int) -> int:
    return max(-max_shift, min(max_shift, shift + delta))


def _decide_shift(config: AgentConfig, state: AgentState, sensed_v: float, rng_draw: float) -> tuple[int, int, bool]:
    """Rule dispatch; returns (new shift, latch side, latch react)."""
    shift = state.shift
    if config.rule is RuleKind.PASSIVE:
        return shift, 0, False
    if config.rule is RuleKind.COMMANDED:
        if state.pending is Action.POSTPONE:
            shift = _clamped(shift, +1, config.max_shift)
        elif state.pending is Action.ADVANCE:
            shift = _clamped(shift, -1, config.max_shift)
        return shift, 0, False

    if sensed_v < config.v_low:
        side, delta = +1, +1
    elif sensed_v > config.v_high:
        side, delta = -1, -1
    else:
        return shift, 0, False

    if config.rule is RuleKind.REACTIVE:
        return _clamped(shift, delta, config.max_shift), 0, False

    # probabilistic
    if config.p_latch:
        react = state.latch_react if state.latch_side == side else rng_draw < config.p
        return (_clamped(shift, delta, config.max_shift) if react else shift), side, react
    return (_clamped(shift, delta, config.max_shift) if rng_draw < config.p else shift), 0, False


def agent_step(
    config: AgentConfig,
    state: AgentState,
    t: int,
    sensed_v: float,
    rng_draw: float,
) -> tuple[AgentState, bool]:
    """One step: apply the decision rule, then move the cycle machine.

    Returns the successor state and whether the flexible load is connected
    for this step.  ``rng_draw`` must be supplied for every rule (uniform in
    [0, 1)); deterministic rules ignore it, which keeps draw streams
    rule-independent.
    """
    shift, latch_side, latch_react = _decide_shift(config, state, sensed_v, rng_draw)

    commanded = config.rule is RuleKind.COMMANDED
    override = state.override
    if commanded:
        if state.pending is Action.POSTPONE:
            override = max(override - 1, -1)
        elif state.pending is Action.ADVANCE:
            override = min(override + 1, 1)
        # instructions steer the connection mask only; the schedule free-runs
        sweep = 1
        pos = (t - config.phase) % config.period
    else:
        # window sweep this step: 1 while holding, 0 while postponing
        # (schedule recedes in lockstep with time), 2 while advancing
        sweep = 1 - (shift - state.shift)
        pos = (t - config.phase - shift) % config.period

    connected = state.flex_connected
    run = state.run_remaining
    if connected:
        run -= 1
        if run <= 0:
            connected, run = False, 0
    if not connected and pos < sweep and pos < config.on_steps:
        # the window's opening edge was crossed this step: start a run that
        # completes at the scheduled window end
        connected = True
        run = config.on_steps - pos

    flex_on = (override > 0) if (commanded and override != 0) else connected
    new_state = AgentState(
        shift=shift,
        pending=None,
        flex_connected=connected,
        run_remaining=run,
        override=override,
        latch_side=latch_side,
        latch_react=latch_react,
    )
    return new_state, flex_on


def deposit_instruction(state: AgentState, action: Action) -> AgentState:
    """Queue a controller instruction; HOLD leaves no pending action."""
    return replace(state, pending=None if action is Action.HOLD else action)


def controller_plan(
    sensed_v: float,
    v_nominal: float,
    band: Band,
    config: CircuitConfig,
    v_source_now: float,
    flex_on: np.ndarray,
) -> Plan:
    """Plan one action per agent to steer the bus toward nominal.

    ``flex_on`` holds each agent's current flexible-load connection, in
    agent-id order.  Picks the connected-load count whose predicted bus
    voltage is closest to ``v_nominal`` (ties to the smaller count) and
    tells the excess lowest-id connected agents to postpone, or the
    lowest-id disconnected agents to advance.  If the predicted voltage at
    the current count is already inside the band, everyone holds.
    """
    if sensed_v <= 0:
        raise ValueError(f"sensed voltage must be positive, got {sensed_v}")
    if not config.is_homogeneous:
        raise ValueError("controller planning requires identical branches")
    n = config.n_branches
    flex_on = np.asarray(flex_on, dtype=bool)
    if flex_on.shape != (n,):
        raise ValueError(f"flex_on has shape {flex_on.shape} for {n} branches")
    n_on = int(np.count_nonzero(flex_on))
    actions = np.zeros(n, dtype=np.int8)

    if band.contains(v_load_for_count(config, v_source_now, n_on)):
        return Plan(actions)

    branch = config.branches[0]
    g_totals = n / branch.r_base + np.arange(n + 1) / branch.r_flex
    predicted = v_source_now / (1.0 + config.r_source * g_totals)
    # argmin takes the first minimum, which is the tie-break toward fewer loads
    n_target = int(np.argmin(np.abs(predicted - v_nominal)))

    # the running count of selectable agents picks the k lowest ids among them
    if n_target < n_on:
        actions[flex_on & (np.cumsum(flex_on) <= n_on - n_target)] = 1
    elif n_target > n_on:
        off = ~flex_on
        actions[off & (np.cumsum(off) <= n_target - n_on)] = -1
    return Plan(actions)
