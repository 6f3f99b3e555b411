"""Deterministic discrete-time simulation loop and stability metrics.

Each step of ``run``'s one loop: compute the source voltage from the
disturbance schedule, hand every agent the load-bus voltage recorded
``sensing_delay`` steps ago, let the controller (if any) plan this
step's instructions, advance every agent, then solve the circuit and record.
``run`` keeps only that per-step core; what runs once per run, per
free-run block patch, per dispatching step, per checkpoint or per copy is
a method of ``_Fleet`` (the cohorts' constants and state) or ``_Watch``
(the limit-cycle watch), each called from the loop.  A free-run block does
not loop over its own steps, because nearly every step of a probabilistic
fleet falls inside one and a second loop would repeat the sensing and
recording.  Agent randomness comes from one counter-based Philox stream
keyed by the scenario seed: step ``t`` reads entries [4t, 4t + N) of it,
agent id = position in the block.  Draws do not depend on evaluation order
or on which rules consume them, but neighbouring steps overlap: agent i at
step t + 1 reads the entry that agent i + 4 read at step t.

The agent update, ``_Fleet.react``, is a vectorized twin of
``agents.agent_step``; the test suite asserts step-for-step equality
between the two.  A quiet step, where no sensing agent is outside its
thresholds and no instruction is issued, skips rule dispatch: no shift
moves and only the cycle machine and the circuit advance.  Its draws are
fetched but not gathered to cohorts.

The circuit depends only on the cohort connection vector, and runs revisit
few of them, so each run memoizes the total conductance and the connected
count per vector (keyed on its bytes) in ``run``.  A miss computes them by
the same expressions, the pairwise sum of the same N values in agent
order, so a hit returns the bits the step would compute.  The memo is local
to the run and cleared when it would exceed ``_ENGINE_CACHE_BYTES``,
counting each entry as its key plus 256 bytes.  That byte budget also
bounds the free-run block rows and the limit-cycle watch's checkpoints
below.

The cycle machine (``_Fleet``'s nxt and run_end, stepped by
``_cycle_step``) keeps absolute steps instead of a window position: an
agent is connected at step t iff t < run_end, and its next window opens at
step nxt.  A shift move moves nxt by the same amount; a window that opens
(nxt <= t, one step late after an advance) while the agent is idle starts
a run to nxt + on_steps, and every opening moves nxt on by a period.  This
is the ``(t - phase - shift) % period < on_steps`` rule of ``agent_step``
with no per-step modulo.

Every int64 the cycle machine computes stays below horizon + 3 * period.
After step t a cohort's next window opens at nxt <= t + period + 1 (a move
shifts it by one step, and a window that opens moves it on by a period),
and its run ends at run_end < t + period.  A free-run block opened at t
computes nxt + period for every cohort and ends a run started by that
window at most on_steps later, below t + 3 * period; a patch's
``_move_in_block`` returns values inside the same bounds.  A shift moves at
most one step per step, so its magnitude stays below horizon + 1, and the
limit-cycle watch's room to the clip, max_shift minus a shift, below
horizon + max_shift + 1.  ``Scenario`` therefore requires horizon + 3 *
max(period) + max(max_shift) < 2**63, with the maxima taken over the
fleet's distinct ``AgentConfig`` objects.

A step is free when it moves no shift and issues no instruction: it is
quiet, or it triggers but no agent reacts (no draw hits).  On a free step
nothing but time reaches the cycle machine, so fleets with draws or a
controller (the others are left to the limit-cycle watch below) advance it
in free-run blocks, which ``run`` opens with ``_free_run_rows`` and closes
with ``_free_run_state``: from a free step t, the connection vectors of
steps [t, t + m) come from a few array operations on (nxt, run_end).  With
m below every period at most one window opens per cohort in the block, at
max(nxt, t), and it starts a run iff the current one has ended by then,
which is what stepping the machine m times decides.  So a cohort is
connected on the steps before its run_end and on at most one window, and
the block takes these bounds relative to t and clipped to [0, m]: clipping
changes no comparison with a step of the block, so the (m, k) comparisons
run on the narrowest unsigned type that holds m (one byte for m < 256)
instead of on int64 absolute steps.  Every step in the block still makes
its own trigger test, its draws call and, on a control step, its plan, in
step order.

A reacting step inside a block, one where only probabilistic cohorts move,
patches the block instead of closing it (``_Fleet.patch``).  The state
arrays hold each untouched cohort's state before the block's first step
blk_t.  A moving cohort is free-run to t, its window moved, and step t run
by the one-step machine, which opens a window one step late after an
advance.  That state, written back, is the state before t + 1 and has nxt
>= t + 1, so max(nxt, blk_t) = nxt and the closed form over the rest of
the block, at its close or at a later patch, treats the cohort exactly as
a machine that starts at t + 1; its column of the block is rewritten from
t on.  A block patches at most as many cohorts as it has steps, so that
patching costs a few scalar operations per step.  Any other step that is
not free closes the block and dispatches (``_Fleet.react``) with the
inputs already fetched, after the machine state is advanced by the steps
the block committed: reactive cohorts all move on every trigger and
commanded ones need their override, and those moves run across all cohorts
at once.  m starts at 1 (such a block is just the one-step machine),
doubles after a block that ran to its end, drops back to 1 after a stop,
and stays below every period and within the engine's cache bytes.

Passive and reactive agents with equal configurations and equal circuit
branches get equal inputs on every step, so they stay in equal states: the
engine keeps the state of each such cohort once and expands it to agent
order only where agents are summed, counted, planned for or recorded.  The
expanded conductances are the same N values in the same order, so the
result is bit-identical to simulating every agent.

Agents of a scenario file share their ``AgentConfig`` objects, so the work
before step 0 runs per distinct object, not per agent: ``_cohorts`` gives
each distinct config and branch object its value class and lumps agents by
one ``np.unique`` over their class pairs, and ``_Fleet`` reads each
per-cohort field once per distinct config and spreads it to the cohorts by
one index.  The remaining passes over the N agents (identities, class
lookups, the resistances) are C-level ``map`` calls.

A fleet without probabilistic agents or a controller is a deterministic
machine, and away from the ``max_shift`` clip it does not depend on
absolute time or on absolute shifts: windows and runs only matter relative
to t.  Between source-voltage changes ``_Watch`` therefore watches for the
state after a step, so reduced, to equal the state after an earlier step
t1.  The candidates for t1 are every power-of-two checkpoint since the last
restart, not only Brent's latest one, so a cycle that starts at mu is
found P steps after the first checkpoint taken inside it, near mu + P (as
with Nivasch's stack of earlier values); the full comparison runs only
when the step's voltage equals a checkpoint's.  The checkpoints hold at
most the engine's cache bytes, the oldest dropped first, so a fleet whose
keys do not fit keeps only the latest, as Brent does.  When the state after
t2 = t1 + P repeats it, every later step repeats the period (t1, t2] with
each cohort's shifts moved on by its drift over the period, so the watch
copies that period forward (the traces by ``_copy_periods``, the state and
shift record by ``_Fleet.copy``), whole periods up to the next
source-voltage change and to the horizon (where a partial last period is
copied too), and never so far that a drifting cohort's shifts would reach
the clip.  The copied floats are the ones the same steps would compute from
the same inputs, so the trace is bit-identical; the simulation then
resumes from the state advanced by the copied steps.  A controller fleet is
never copied, so the planner runs on every control step.

Recorded shifts are kept as a ``ShiftRecord``, built by ``_Fleet``: the
steps at which the cohort shift vector changes and the vector after each
change.  Only a dispatching step, a patch of a free-run block and a copied
period can move a shift, so only they append to it, and a step that leaves
every shift as it was appends nothing.  A copied period appends the
period's changes moved on by the copy's drift.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .agents import AgentConfig, Band, RuleKind, controller_plan
from .circuit import CircuitConfig, solve, v_load_for_count

# recorded shifts of at most this many (step, agent) entries: the record is
# small, but ``Trace.shifts`` materializes horizon x N int32 (256 MiB here)
# and the CSV's shift columns hold as many numbers
SHIFT_RECORDING_MAX_ENTRIES = 2**26
# bytes each of the engine's per-run caches may hold: the circuit memo,
# counting each entry as its k-byte key plus about 256 bytes of dict slot,
# bytes, tuple and float objects; a free-run block's (m, k) rows; and the
# limit-cycle watch's checkpoints
_ENGINE_CACHE_BYTES = 2**22


@dataclass(frozen=True)
class Disturbance:
    """Source-voltage sag of ``delta_v`` volts over steps [t_start, t_end)."""

    t_start: int
    t_end: int
    delta_v: float

    def __post_init__(self):
        if not 0 <= self.t_start <= self.t_end:
            raise ValueError(f"need 0 <= t_start <= t_end, got [{self.t_start}, {self.t_end})")
        if not math.isfinite(self.delta_v):
            raise ValueError(f"delta_v must be finite, got {self.delta_v}")


def _check_v_source_base(v_source_base: float) -> None:
    if not 0 <= v_source_base < math.inf:
        raise ValueError(f"v_source_base must be finite and non-negative, got {v_source_base}")


@dataclass(frozen=True)
class ControllerConfig:
    v_nominal: float
    control_interval: int = 1

    def __post_init__(self):
        # NaN, an infinity or a non-positive target is one the planner
        # cannot reach, and chasing it leaves every step outside the band
        if not 0 < self.v_nominal < math.inf:
            raise ValueError(f"v_nominal must be finite and positive, got {self.v_nominal}")
        if self.control_interval < 1:
            raise ValueError(f"control_interval must be positive, got {self.control_interval}")


@dataclass(frozen=True)
class Scenario:
    circuit: CircuitConfig
    v_source_base: float
    disturbance: Disturbance
    agents: tuple[AgentConfig, ...]
    band: Band
    horizon: int
    seed: int
    controller: ControllerConfig | None = None
    sensing_delay: int = 1
    record_shifts: bool = False  # keep the shifts in the trace, as a ShiftRecord

    def __post_init__(self):
        if not 1 <= self.horizon < 2**63:
            raise ValueError(f"horizon must be in [1, 2**63), got {self.horizon}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.sensing_delay < 1:
            raise ValueError(f"sensing_delay must be at least 1, got {self.sensing_delay}")
        _check_v_source_base(self.v_source_base)
        if self.disturbance.t_end > self.horizon:
            raise ValueError("disturbance must end within the horizon")
        # the circuit needs a non-negative source on every step, and the
        # planner a positive bus voltage
        d = self.disturbance
        v_min = v_max = self.v_source_base
        if d.t_start < d.t_end:
            v_min, v_max = sorted((v_min, v_min - d.delta_v))
        if v_min < 0 or (v_min == 0 and self.controller is not None):
            need = "positive with a controller" if self.controller is not None else "non-negative"
            raise ValueError(f"the source voltage falls to {v_min} V; it must stay {need}")
        if len(self.agents) != self.circuit.n_branches:
            raise ValueError(
                f"{len(self.agents)} agents for {self.circuit.n_branches} circuit branches"
            )
        # and the trace finite: the current is largest at the highest source
        # voltage with every flexible load connected, a bank of conductance
        # at most the circuit's g_max
        g_max = self.circuit.g_max
        i_max = v_max / (1.0 + self.circuit.r_source * g_max) * g_max
        if not i_max < math.inf:
            raise ValueError(f"the source current could reach {i_max} A at {v_max} V; it must stay finite")
        if self.controller is not None and not self.circuit.is_homogeneous:
            raise ValueError("a controller requires identical circuit branches")
        # the bound of the module docstring, over the fleet's distinct configs
        distinct = dict(zip(map(id, self.agents), self.agents)).values()
        reach = 3 * max((a.period for a in distinct), default=0) + max(
            (a.max_shift for a in distinct), default=0
        )
        if self.horizon + reach >= 2**63:
            raise ValueError(
                f"horizon + 3 * max(period) + max(max_shift) is {self.horizon + reach}; "
                "it must stay below 2**63"
            )
        entries = self.horizon * len(self.agents)
        if self.record_shifts and entries > SHIFT_RECORDING_MAX_ENTRIES:
            raise ValueError(
                f"recording shifts of {len(self.agents)} agents over {self.horizon} steps "
                f"takes {entries} entries, more than {SHIFT_RECORDING_MAX_ENTRIES}"
            )
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def n_agents(self) -> int:
        return len(self.agents)


@dataclass(frozen=True)
class ShiftRecord:
    """Every agent's shift at every step, stored as the rows that change.

    ``steps`` (int64, increasing, starting at 0) are the steps at which the
    shift vector changes, ``values`` (int32, (changes, k)) the vector from
    each of them on, one column per cohort, and ``cohort`` (N,) each agent's
    column.  Row t of the (horizon, N) shift matrix is
    ``values[i][cohort]`` for the last ``steps[i] <= t``.
    """

    steps: np.ndarray
    values: np.ndarray
    cohort: np.ndarray

    @staticmethod
    def from_matrix(shifts: np.ndarray) -> "ShiftRecord":
        """The record of a (horizon, N) shift matrix, one cohort per agent."""
        changed = np.ones(len(shifts), dtype=bool)
        changed[1:] = (shifts[1:] != shifts[:-1]).any(axis=1)
        values = np.asarray(shifts[changed], dtype=np.int32)
        return ShiftRecord(np.flatnonzero(changed), values, np.arange(shifts.shape[1]))

    def changes(self, start: int, stop: int) -> np.ndarray:
        """The index of the change in force at each of steps [start, stop)."""
        return np.searchsorted(self.steps, np.arange(start, stop), side="right") - 1

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) of the shift matrix, int32."""
        return self.values[:, self.cohort][self.changes(start, stop)]


@dataclass(frozen=True)
class Trace:
    """Per-step time series and, when recorded, the shifts as a ``ShiftRecord``.

    ``shifts`` materializes the record as an int32 (horizon, N) matrix on
    each read, or is None when no shifts were recorded.  That matrix, at
    most ``SHIFT_RECORDING_MAX_ENTRIES`` entries (256 MiB), is what the
    bound limits; the record itself holds one row per change.
    """

    v_source: np.ndarray
    v_load: np.ndarray
    i_total: np.ndarray
    n_flex_on: np.ndarray
    shift_record: ShiftRecord | None = None
    # (t1, P) of the last limit cycle the engine copied forward: the state
    # after step t1 + P equaled the state after step t1, shifts aside
    cycle: tuple[int, int] | None = None

    @property
    def horizon(self) -> int:
        return len(self.v_load)

    @property
    def shifts(self) -> np.ndarray | None:
        record = self.shift_record
        return None if record is None else record.rows(0, self.horizon)


@dataclass(frozen=True)
class Metrics:
    outside_band_fraction: float
    band_crossings: int
    max_overshoot: float
    max_undershoot: float
    settled: bool


# steps served by one cached chunk; a chunk holds 4 * (_CHUNK_STEPS - 1) + n
# doubles, and at most four chunks are kept
_CHUNK_STEPS = 1024


@lru_cache(maxsize=4)
def _stream_chunk(seed: int, first: int, n: int) -> np.ndarray:
    """Stream entries [4 * first, 4 * (first + _CHUNK_STEPS - 1) + n), read-only.

    ``numpy.random`` is imported here, so a run that makes no draws never
    loads it (numpy 2 does not import it with ``numpy``).
    """
    from numpy.random import Generator, Philox

    chunk = Generator(Philox(key=seed, counter=[first, 0, 0, 0])).random(4 * (_CHUNK_STEPS - 1) + n)
    chunk.flags.writeable = False
    return chunk


def uniform_draws(seed: int, t: int, n: int) -> np.ndarray:
    """The step-``t`` block of n uniforms in [0, 1); agent i takes entry i.

    This is ``Generator(Philox(key=seed, counter=[t, 0, 0, 0])).random(n)``.
    Philox yields four doubles per counter increment, so that block is
    entries [4t, 4t + n) of the seed's one stream, and it is returned as a
    read-only view of a cached chunk of that stream.
    """
    first = t - t % _CHUNK_STEPS
    offset = 4 * (t - first)
    return _stream_chunk(seed, first, n)[offset : offset + n]


def initial_sensed_voltage(scenario: Scenario) -> float:
    """Steady bus voltage at t=0 under every agent's passive schedule."""
    ids = list(map(id, scenario.agents))
    configs = dict(zip(ids, scenario.agents))
    # each distinct config's schedule is read once
    desired = {i: (0 - a.phase) % a.period < a.on_steps for i, a in configs.items()}
    flex_on = np.fromiter(map(desired.__getitem__, ids), bool, len(ids))
    return solve(scenario.circuit, source_voltage(scenario, 0), flex_on).v_load


def source_voltage(scenario: Scenario, t: int) -> float:
    d = scenario.disturbance
    if d.t_start <= t < d.t_end:
        return scenario.v_source_base - d.delta_v
    return scenario.v_source_base


def _cohorts(scenario: Scenario) -> tuple[list[AgentConfig], np.ndarray | slice, np.ndarray | slice]:
    """Split the fleet into cohorts of agents that follow one trajectory.

    Passive and reactive agents with equal schedules, shift bounds,
    thresholds and circuit branches receive the same inputs on every step,
    so they stay in the same state.  A probabilistic agent reads its own
    draw and a commanded agent is picked by id, so each is a cohort of its
    own, keyed on its index.  Returns each cohort's lowest-id member, the
    ids of those members and each agent's cohort index; both index objects
    are ``slice(None)`` when no cohort has two members.

    Python runs once per distinct ``AgentConfig`` and ``Branch`` object:
    each gets the number of its value class, so that equal but distinct
    objects still lump, and the agents are keyed by C-level lookups.
    """
    agents, branches = scenario.agents, scenario.circuit.branches
    n = len(agents)
    config_ids = list(map(id, agents))
    lumpable = (RuleKind.PASSIVE, RuleKind.REACTIVE)
    # each distinct config's value class, or -1 for a cohort of one agent
    classes: dict = {}
    config_class = {
        i: classes.setdefault(
            (a.rule, a.period, a.on_steps, a.phase, a.max_shift, a.v_low, a.v_high), len(classes)
        ) if a.rule in lumpable else -1
        for i, a in dict(zip(config_ids, agents)).items()
    }
    if not classes:
        return list(agents), slice(None), slice(None)
    branch_ids = list(map(id, branches))
    branch_classes: dict = {}
    branch_class = {
        i: branch_classes.setdefault(b, len(branch_classes))
        for i, b in dict(zip(branch_ids, branches)).items()
    }
    c = np.fromiter(map(config_class.__getitem__, config_ids), np.int64, n)
    b = np.fromiter(map(branch_class.__getitem__, branch_ids), np.int64, n)
    # agents of one config class on one branch class share a key; each
    # other agent's key is its own, past every shared one
    m = len(branch_classes)
    key = np.where(c < 0, len(classes) * m + np.arange(n), c * m + b)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if len(first) == n:
        return list(agents), slice(None), slice(None)
    # cohorts numbered in the order of their lowest ids
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    return list(map(agents.__getitem__, first.tolist())), first, rank[inverse]


def run(scenario: Scenario) -> Trace:
    """Simulate the scenario; two runs with equal inputs are bit-identical.

    One loop advances every step: it senses (plan, trigger, draws),
    classifies the step as quiet, free, a patch or a dispatch, closing and
    opening free-run blocks, picks the connection vector and solves the
    circuit.  What runs once per run, per patch, per dispatching step, per
    checkpoint or per copy lives in ``_Fleet`` and ``_Watch``.
    """
    n, horizon, delay, ctrl = scenario.n_agents, scenario.horizon, scenario.sensing_delay, scenario.controller
    f = _Fleet(scenario)
    # what the loop reads on most steps stays in locals: a free step costs
    # a few microseconds, of which an attribute lookup is a visible share
    k, first, cohort, period, on_steps = f.k, f.first, f.cohort, f.period, f.on_steps
    has_reactive, has_prob, has_cmd = f.has_reactive, f.has_prob, f.has_cmd
    reactive_mask, react_p, uniform_thresholds = f.reactive_mask, f.react_p, f.uniform_thresholds
    v_low0, v_high0, r_source = f.v_low0, f.v_high0, scenario.circuit.r_source

    d = scenario.disturbance
    v_base = scenario.v_source_base
    v_sag = v_base - d.delta_v  # source_voltage inside [t_start, t_end)
    trace_vs = np.full(horizon, v_base)
    trace_vs[d.t_start : d.t_end] = v_sag
    trace_v, trace_i, trace_n = np.empty(horizon), np.empty(horizon), np.empty(horizon, dtype=np.int64)
    v_init = initial_sensed_voltage(scenario)
    plan_at = 0 if ctrl is not None else horizon  # the next control step
    flex_on = f.run_end >= 0  # connected after step -1
    # (g_total, n_on) per cohort connection vector, cleared when full
    circuit_memo: dict[bytes, tuple[float, int]] = {}
    memo_entries = max(1, _ENGINE_CACHE_BYTES // (k + 256))
    # fleets without draws or a controller are left to the limit-cycle
    # watch; the others advance in free-run blocks
    watch = _Watch(f, scenario, (trace_v, trace_i, trace_n)) if not has_prob and ctrl is None else None
    # from a free step the connection vectors of the next ``block_len`` steps
    # are computed at once, and steps use them while they stay free or move
    # only probabilistic cohorts, whose columns ``_Fleet.patch`` rewrites.
    # ``block_len`` doubles after a block that ran to its end and restarts
    # at 1 after a stop; a block holds at most one window per cohort and at
    # most _ENGINE_CACHE_BYTES.
    max_block = min(int(period.min()) - 1, max(1, _ENGINE_CACHE_BYTES // k))
    block_len = 1
    rows = None  # the open block's vectors, one row per step from blk_t
    blk_t = blk_end = 0

    t = 0
    while t < horizon:
        vs = v_sag if d.t_start <= t < d.t_end else v_base
        sensed = trace_v[t - delay] if t >= delay else v_init

        # instructions are consumed within the step that planned them
        commands = None
        if t == plan_at:
            plan_at += ctrl.control_interval
            plan = controller_plan(
                sensed, ctrl.v_nominal, scenario.band, scenario.circuit, vs, flex_on[cohort]
            )
            # count_nonzero is one C call; ndarray.any() reduces through
            # numpy's Python-level wrapper, about 3x slower at N=1000
            if has_cmd and np.count_nonzero(plan.actions):
                commands = np.where(f.cmd_mask, plan.actions[first], 0)

        if uniform_thresholds:
            trigger = 1 if sensed < v_low0 else (-1 if sensed > v_high0 else 0)
            triggered = trigger != 0
        else:
            trigger = np.where(sensed < f.v_low, 1, np.where(sensed > f.v_high, -1, 0))
            triggered = bool(trigger.any())
        if has_prob:
            draws = uniform_draws(scenario.seed, t, n)
        quiet = not triggered and commands is None
        if not quiet:
            # agents that react to the trigger
            reacts = draws[first] < react_p if has_prob else reactive_mask

        # a free step moves no shift and issues no instruction; inside an
        # open block, a step that moves only probabilistic cohorts patches
        # their columns instead of closing it
        free, patch = quiet, False
        if watch is None:
            if not quiet and commands is None:
                movers = (reacts if uniform_thresholds else reacts & (trigger != 0)).nonzero()[0]
                free = movers.size == 0
                patch = (
                    not free and rows is not None and t < blk_end and movers.size <= patches_left
                    and not (has_reactive and reactive_mask[movers].any())
                )
                if patch:
                    patches_left -= movers.size
            if rows is not None and (t == blk_end or not (free or patch)):
                # close the block after its steps [blk_t, t)
                f.nxt, f.run_end = _free_run_state(blk_t, t - blk_t, f.nxt, f.run_end, on_steps, period)
                block_len = min(2 * block_len, max_block) if t == blk_end else 1
                rows = None
            if free and rows is None:
                if block_len == 1:
                    # a block of one step is the one-step machine, which is cheaper
                    block_len = min(2, max_block)
                else:
                    blk_t, blk_end = t, min(t + block_len, horizon)
                    patches_left = blk_end - t
                    rows = _free_run_rows(t, blk_end - t, f.nxt, f.run_end, on_steps, period)
                    if has_cmd:
                        rows &= f.allowed
                        rows |= f.forced
                    keys = rows.tobytes()  # row i is keys[i * k : (i + 1) * k]

        if patch:
            f.patch(t, movers, trigger, rows, t - blk_t)
            keys = rows.tobytes()
        elif not free:
            moved = f.react(t, trigger, reacts, commands)
            if watch is not None:
                watch.widen(moved)

        # --- cycle machine ---
        if rows is not None:
            i = t - blk_t
            flex_on = rows[i]
            key = keys[i * k : i * k + k]
        else:
            connected = _cycle_step(t, f.nxt, f.run_end, on_steps, period)
            flex_on = (connected & f.allowed) | f.forced if has_cmd else connected
            key = flex_on.tobytes()

        # --- physical layer ---
        solved = circuit_memo.get(key)
        if solved is None:
            if len(circuit_memo) >= memo_entries:
                circuit_memo.clear()
            g_total = float(np.where(flex_on, f.g_on, f.g_base)[cohort].sum())
            solved = circuit_memo[key] = (g_total, np.count_nonzero(flex_on[cohort]))
        g_total, n_on = solved
        v = vs / (1.0 + r_source * g_total)
        trace_v[t] = v
        trace_i[t] = v * g_total
        trace_n[t] = n_on

        if watch is not None and t >= delay - 1:
            t = watch.observe(t, v)
        t += 1

    return Trace(trace_vs, trace_v, trace_i, trace_n, f.shift_record(n), watch and watch.cycle)


class _Fleet:
    """The fleet as cohorts: each cohort's constants and the state of its
    cycle machine and shift, with the moves that change that state.

    The constants are read once per distinct config object and spread to
    the cohorts that share it; the ones a patch reads per cohort are also
    kept as Python lists, since indexing a list is cheaper than an array.
    """

    def __init__(self, scenario: Scenario):
        # state is kept per cohort; ``[cohort]`` expands a cohort array to
        # agent order and ``[first]`` collapses an agent array to cohorts
        cfgs, self.first, self.cohort = _cohorts(scenario)
        self.k = k = len(cfgs)
        distinct = list(dict(zip(map(id, cfgs), cfgs)).values())
        slot = dict(zip(map(id, distinct), range(len(distinct))))
        which = np.fromiter(map(slot.__getitem__, map(id, cfgs)), np.intp, k)

        def per_cohort(values: list, dtype=None) -> np.ndarray:
            return np.array(values, dtype=dtype)[which]

        self.period = period = per_cohort([a.period for a in distinct], np.int64)
        self.on_steps = on_steps = per_cohort([a.on_steps for a in distinct], np.int64)
        phase = per_cohort([a.phase for a in distinct], np.int64)
        self.max_shift = max_shift = per_cohort([a.max_shift for a in distinct], np.int64)
        self.min_shift = -max_shift
        prob = per_cohort([a.p for a in distinct])
        self.reactive_mask = reactive = per_cohort([a.rule is RuleKind.REACTIVE for a in distinct], bool)
        prob_mask = per_cohort([a.rule is RuleKind.PROBABILISTIC for a in distinct], bool)
        self.cmd_mask = per_cohort([a.rule is RuleKind.COMMANDED for a in distinct], bool)
        self.has_reactive, self.has_prob = bool(reactive.any()), bool(prob_mask.any())
        self.has_cmd = bool(self.cmd_mask.any())
        # a triggered cohort reacts iff its draw is below react_p: reactive
        # ones always (draws are below 1), probabilistic ones with p, the
        # others never
        self.react_p = np.where(reactive, 2.0, np.where(prob_mask, prob, 0.0))

        # agents that do not sense never trigger; when every sensing agent
        # has the same thresholds, the trigger is one int for the whole fleet
        senses = reactive | prob_mask
        self.v_low = np.where(senses, per_cohort([a.v_low for a in distinct]), -np.inf)
        self.v_high = np.where(senses, per_cohort([a.v_high for a in distinct]), np.inf)
        thresholds = set(zip(self.v_low[senses].tolist(), self.v_high[senses].tolist()))
        self.uniform_thresholds = len(thresholds) <= 1
        self.v_low0, self.v_high0 = thresholds.pop() if thresholds else (-np.inf, np.inf)

        # the elements equal circuit.solve's per-branch sums, and expanding
        # by cohort gives the N values in agent order, so the pairwise total
        # and the traces match the per-agent reference bit for bit
        g_base = scenario.circuit.base_conductances()
        self.g_on = (g_base + scenario.circuit.flex_conductances())[self.first]
        self.g_base = g_base[self.first]
        self.period_of, self.on_steps_of, self.max_shift_of = (a.tolist() for a in (period, on_steps, max_shift))

        # cycle machine in absolute steps: connected at t iff t < run_end, and
        # the next window (phase + shift + j * period; commanded schedules
        # keep shift 0) opens at nxt.  Initial values are the state after
        # step -1.
        self.shift = np.zeros(k, dtype=np.int64)
        self.nxt = phase
        self.run_end = on_steps - 1 - (-1 - phase) % period
        self.override = np.zeros(k, dtype=np.int64)  # commanded connection mask
        self.forced = np.zeros(k, dtype=bool)  # override > 0
        self.allowed = np.ones(k, dtype=bool)  # override >= 0
        # the shift record: steps at which the cohort shifts change, and the
        # shifts from each on; it starts with the shifts before step 0
        self.shift_steps = [0] if scenario.record_shifts else None
        self.shift_values = [np.zeros(k, dtype=np.int32)]

    def react(self, t, trigger, reacts, commands) -> np.ndarray:
        """Run the rules of dispatching step t (the vectorized twin of
        ``agents.agent_step``): applied moves, the override and the clip.
        Returns the shifts before the clip.

        ``reacts`` holds whether each cohort reacts to the trigger.
        """
        applied = np.where(reacts, trigger, 0)
        if commands is not None:
            applied = applied + commands
            # postpone (+1) suppresses the connection, advance forces it
            self.override = np.minimum(np.maximum(self.override - commands, -1), 1)
            self.forced, self.allowed = self.override > 0, self.override >= 0
        moved = self.shift + applied
        shift = np.minimum(np.maximum(moved, self.min_shift), self.max_shift)
        # a postponed window opens later, an advanced one earlier; an advance
        # may find the window opened one step ago
        moves = shift - self.shift
        self.nxt = self.nxt + (np.where(self.cmd_mask, 0, moves) if self.has_cmd else moves)
        self.shift = shift
        if self.shift_steps is not None:
            self._record(t, shift)
        return moved

    def patch(self, t, movers, trigger, rows, i) -> None:
        """Move the windows of ``movers``, probabilistic cohorts, at
        step t of an open free-run block, and rewrite their columns of
        ``rows[i:]``, the block's rows from t on."""
        shift, nxt, run_end, uniform = self.shift, self.nxt, self.run_end, self.uniform_thresholds
        period_of, on_steps_of, max_shift_of = self.period_of, self.on_steps_of, self.max_shift_of
        for j in movers.tolist():
            delta = trigger if uniform else int(trigger[j])
            new_shift = int(shift[j]) + delta
            if abs(new_shift) > max_shift_of[j]:
                continue  # a move of one step that the clip undoes
            shift[j] = new_shift
            nj, rj = _move_in_block(t, delta, int(nxt[j]), int(run_end[j]), on_steps_of[j], period_of[j])
            nxt[j], run_end[j] = nj, rj
            # column j of steps [t, blk_end), as _free_run_rows from t + 1
            w = nj if rj <= nj else nj + period_of[j]
            col = rows[i:, j]
            col[:] = False
            col[: max(rj - t, 0)] = True
            col[w - t : w - t + on_steps_of[j]] = True
        if self.shift_steps is not None:
            self._record(t, shift)

    def copy(self, t1, t2, steps, drift) -> None:
        """Advance the state by steps (t2, t2 + steps], copies of the period
        (t1, t2] that move the shifts by ``drift`` per whole period.

        The period's recorded changes stay changes in every copy, so only
        each copy's first step is compared with the row before it.
        """
        p_len = t2 - t1
        if self.shift_steps is not None:
            shift_steps, shift_values, stop = self.shift_steps, self.shift_values, t2 + 1 + steps
            lo, hi = bisect_right(shift_steps, t1 + 1), bisect_right(shift_steps, t2)
            start = shift_values[lo - 1]  # the shifts at step t1 + 1
            offsets = np.array(shift_steps[lo:hi], dtype=np.int64) - (t1 + 1)
            changes = np.array(shift_values[lo:hi], dtype=np.int32).reshape(hi - lo, self.k)
            for j, dst in enumerate(range(t2 + 1, stop, p_len), 1):
                move = (j * drift).astype(np.int32)
                self._record(dst, start + move)
                within = np.searchsorted(offsets, stop - dst)  # changes before the copy's end
                shift_steps.extend((offsets[:within] + dst).tolist())
                shift_values.extend(changes[:within] + move)
        self.nxt, self.run_end = self.nxt + steps, self.run_end + steps
        self.shift = self.shift + steps // p_len * drift

    def _record(self, t, shift) -> None:
        """Record ``shift`` as the shifts from step t on, unless it equals the
        last recorded shifts; a change at step 0 replaces the shifts before
        it.  Callers check that shifts are recorded."""
        steps, values = self.shift_steps, self.shift_values
        if not np.count_nonzero(shift != values[-1]):
            return
        if steps[-1] == t:
            values[-1] = shift.astype(np.int32)
        else:
            steps.append(t)
            values.append(shift.astype(np.int32))

    def shift_record(self, n) -> ShiftRecord | None:
        """The recorded shifts of the n agents, or None when not recorded."""
        if self.shift_steps is None:
            return None
        return ShiftRecord(
            np.array(self.shift_steps, dtype=np.int64),
            np.array(self.shift_values, dtype=np.int32).reshape(len(self.shift_steps), self.k),
            np.arange(n) if isinstance(self.cohort, slice) else self.cohort,
        )


class _Watch:
    """The limit-cycle watch of a fleet without draws or a controller.

    The state key after step t is checkpointed at powers of two since the
    last restart; every checkpoint is kept as [t, v, key, shift, lo, hi]
    and indexed by its voltage, and a step whose voltage equals a
    checkpoint's compares keys.  A checkpoint's lo/hi are each cohort's
    unclipped shift extremes from it to the latest checkpoint, and the live
    lo/hi go on from there.  The checkpoints hold at most
    _ENGINE_CACHE_BYTES, the oldest dropped first and the latest always
    kept.
    """

    def __init__(self, fleet: _Fleet, scenario: Scenario, traces: tuple):
        d = scenario.disturbance
        self.fleet, self.traces = fleet, traces  # (v_load, i_total, n_flex_on)
        self.delay, self.horizon = scenario.sensing_delay, scenario.horizon
        self.changes = (d.t_start, d.t_end) if d.t_start < d.t_end else ()  # source voltage steps
        # the checkpoints, oldest first, and by voltage, each list oldest first
        self.checkpoints, self.by_v = [], {}
        self.ck_t, self.power = -1, 0  # the latest checkpoint's step and power
        self.lo = self.hi = fleet.shift
        self.cycle = None  # (t1, P) of the last copied period

    def widen(self, moved) -> None:
        """Take a dispatching step's unclipped shifts into the live lo/hi."""
        self.lo = np.minimum(self.lo, moved)
        self.hi = np.maximum(self.hi, moved)

    def observe(self, t, v) -> int:
        """Watch the state after step t, whose load voltage is v; returns the
        last step done, which is past t when periods were copied."""
        match = self.by_v.get(v)
        if match is not None:
            state = _state_key(t, self.fleet.nxt, self.fleet.run_end, self.traces[0], self.delay)
            match = next((ck for ck in match if ck[2] == state), None)
            if match is not None:
                t += self._copy(t, *match)
                self.power = 0  # restart
        restart = self.power == 0 or t + 1 in self.changes
        if restart or t - self.ck_t == self.power:
            self._checkpoint(t, restart)
        return t

    def _copy(self, t, t1, _v, _key, ck_shift, ck_lo, ck_hi) -> int:
        """Copy the period (t1, t] forward; returns the steps copied.

        It copies up to the next source-voltage change, or to the horizon
        with a partial last period, and only whole periods whose shifts
        stay clear of the clip; a cohort without drift repeats its absolute
        state, clips included.
        """
        f = self.fleet
        lo, hi = np.minimum(ck_lo, self.lo), np.maximum(ck_hi, self.hi)
        p_len = t - t1
        drift = f.shift - ck_shift
        end = min([c for c in self.changes if c > t], default=self.horizon)
        steps = end - 1 - t
        copies = -(-steps // p_len) if end == self.horizon else steps // p_len
        moving = drift != 0
        if (((lo < f.min_shift) | (hi > f.max_shift)) & moving).any():
            copies = 0
        elif moving.any():
            room = np.where(drift > 0, f.max_shift - hi, lo - f.min_shift)
            copies = min(copies, int((room[moving] // np.abs(drift[moving])).min()))
        steps = min(steps, copies * p_len)
        if steps > 0:
            _copy_periods(*self.traces, t1, t, steps)
            f.copy(t1, t, steps, drift)
            self.cycle = (t1, p_len)
        return steps

    def _checkpoint(self, t, restart) -> None:
        """Checkpoint the state after step t, first dropping every earlier
        checkpoint on a restart."""
        if restart:
            self.checkpoints, self.by_v = [], {}
        f, checkpoints, by_v = self.fleet, self.checkpoints, self.by_v
        self.power = 1 if restart else 2 * self.power
        for ck in checkpoints:
            ck[4], ck[5] = np.minimum(ck[4], self.lo), np.maximum(ck[5], self.hi)
        self.ck_t, ck_v = t, float(self.traces[0][t])
        ck = [t, ck_v, _state_key(t, f.nxt, f.run_end, self.traces[0], self.delay), f.shift, f.shift, f.shift]
        checkpoints.append(ck)
        by_v.setdefault(ck_v, []).append(ck)
        ck_bytes = len(ck[2]) + 3 * f.shift.nbytes
        while len(checkpoints) * ck_bytes > _ENGINE_CACHE_BYTES and len(checkpoints) > 1:
            old = checkpoints.pop(0)
            same = by_v[old[1]]
            same.pop(0)  # the oldest checkpoint of its voltage
            if not same:
                del by_v[old[1]]
        self.lo = self.hi = f.shift


def _cycle_step(t, nxt, run_end, on_steps, period) -> np.ndarray:
    """Move the cycle machines through step t in place; returns which are
    connected.

    A window opening while idle (nxt <= t, one step late after an advance)
    starts a run that ends with the window; a window opening mid-run is
    skipped.  Every opening moves nxt on by a period.
    """
    opening = nxt <= t
    starting = opening & (run_end <= t)
    np.add(nxt, on_steps, out=run_end, where=starting)
    np.add(nxt, period, out=nxt, where=opening)
    return run_end > t


def _free_run_rows(t, m, nxt, run_end, on_steps, period) -> np.ndarray:
    """The (m, k) connection vectors of steps [t, t + m) of cycle machines
    that move no shift, from their state before step t.

    With nxt >= t - 1 and m < period, at most one window opens in the
    block, at step max(nxt, t).  It starts a run iff the current run has
    ended by then; otherwise it is skipped and the next opens after the
    block.  So a machine is connected at s iff s < run_end or w <= s <
    w + on_steps, where w is the window that starts a run (nxt + period,
    past the block, when none does).
    """
    w = np.where(run_end <= np.maximum(nxt, t), nxt, nxt + period)
    # both intervals relative to t and clipped to the block, which keeps
    # every comparison with a step in [0, m) and fits the narrowest type
    bounds = np.array((run_end, w, w + on_steps)) - t
    end, start, stop = np.minimum(np.maximum(bounds, 0), m).astype(np.min_scalar_type(m))
    steps = np.arange(m, dtype=end.dtype)[:, None]
    rows = steps < end
    rows |= (start <= steps) & (steps < stop)
    return rows


def _move_in_block(t, delta, nxt, run_end, on_steps, period) -> tuple[int, int]:
    """(nxt, run_end) after step t of one cycle machine whose window moves
    by ``delta`` at step t of a free-run block opened at blk_t <= t.

    The input is the machine's state before blk_t, which has nxt >= blk_t,
    or the state an earlier move in the block returned, which has nxt past
    that move's step.  So the block's steps [blk_t, t) open at most the
    window at nxt, as in ``_free_run_state`` with max(nxt, blk_t) = nxt;
    then the window moves, and step t runs as in ``_cycle_step``, which may
    open a window one step late after an advance.  The result has
    nxt >= t + 1, so the block's closed form treats it as a machine that
    starts at t + 1.
    """
    if nxt < t:
        if run_end <= nxt:
            run_end = nxt + on_steps
        nxt += period
    nxt += delta
    if nxt <= t:
        if run_end <= t:
            run_end = nxt + on_steps
        nxt += period
    return nxt, run_end


def _free_run_state(t, m, nxt, run_end, on_steps, period) -> tuple[np.ndarray, np.ndarray]:
    """(nxt, run_end) after steps [t, t + m) of ``_free_run_rows``."""
    opened = nxt < t + m
    starts = opened & (run_end <= np.maximum(nxt, t))
    return np.where(opened, nxt + period, nxt), np.where(starts, nxt + on_steps, run_end)


def _state_key(t, nxt, run_end, trace_v, delay) -> bytes:
    """Everything the steps after t read of a deterministic fleet's state,
    less absolute time and shifts, as bytes.

    Windows are kept relative to t, a run that has ended counts as 0 steps
    left however long ago it ended, and the voltages are the ones the next
    ``delay`` steps sense.  Without a controller no instruction is issued,
    so the override stays 0 and is left out.
    """
    return b"".join((
        (nxt - t).tobytes(),
        np.maximum(run_end - t, 0).tobytes(),
        trace_v[t + 1 - delay : t + 1].tobytes(),
    ))


def _copy_periods(trace_v, trace_i, trace_n, t1, t2, steps) -> None:
    """Fill steps (t2, t2 + steps] with the period (t1, t2], one copy at a time."""
    p_len = t2 - t1
    stop = t2 + 1 + steps
    for dst in range(t2 + 1, stop, p_len):
        w = min(p_len, stop - dst)
        for trace in (trace_v, trace_i, trace_n):
            trace[dst : dst + w] = trace[t1 + 1 : t1 + 1 + w]


def compute_metrics(trace: Trace, band: Band, window: tuple[int, int]) -> Metrics:
    """Stability statistics of ``v_load`` over [w_start, w_end).

    Band crossings count edge transitions between consecutive samples, per
    edge (a single-step jump across the whole band crosses both edges).
    ``settled`` checks the last 10% of the window.  A ``v_load`` that is
    not finite inside the window is refused, since it compares false with
    both band edges and would read as inside the band.
    """
    w_start, w_end = window
    if not 0 <= w_start < w_end <= trace.horizon:
        raise ValueError(f"window [{w_start}, {w_end}) invalid for horizon {trace.horizon}")
    v = trace.v_load[w_start:w_end]
    # the extremes are NaN or infinite iff some value is
    v_min, v_max = float(v.min()), float(v.max())
    if not (math.isfinite(v_min) and math.isfinite(v_max)):
        t = w_start + int(np.argmin(np.isfinite(v)))
        raise ValueError(f"v_load at step {t} is not finite: {float(v[t - w_start])!r}")
    below = v < band.v_low
    above = v > band.v_high
    outside = below | above
    crossings = int(np.count_nonzero(below[1:] != below[:-1])) + int(
        np.count_nonzero(above[1:] != above[:-1])
    )
    tail = max(1, (w_end - w_start) // 10)
    return Metrics(
        outside_band_fraction=float(outside.mean()),
        band_crossings=crossings,
        max_overshoot=max(0.0, v_max - band.v_high),
        max_undershoot=max(0.0, band.v_low - v_min),
        settled=bool(~outside[-tail:].any()),
    )


def calibrate_nominal(
    circuit: CircuitConfig,
    period: int,
    on_steps: int,
    v_source_base: float,
    band_ratio: float = 0.002,
) -> tuple[float, Band]:
    """Nominal bus voltage and band for a homogeneous fleet on one duty cycle.

    Nominal is the voltage with the duty-cycle-expected number of flexible
    loads connected; the band is nominal times (1 +/- band_ratio), the
    voltage analog of a narrow frequency tolerance around 50 Hz.
    """
    if not circuit.is_homogeneous:
        raise ValueError("calibration requires identical branches")
    _check_v_source_base(v_source_base)
    if not 1 <= on_steps < period:
        raise ValueError(f"need 1 <= on_steps < period, got on_steps {on_steps}, period {period}")
    expected_on = round(circuit.n_branches * on_steps / period)
    v_nominal = v_load_for_count(circuit, v_source_base, expected_on)
    band = Band(v_nominal * (1.0 - band_ratio), v_nominal * (1.0 + band_ratio))
    return v_nominal, band
