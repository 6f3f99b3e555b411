"""Decision rules, the cycle machine, and the central planner."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reflexgrid.agents import (
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
from reflexgrid.circuit import Branch, CircuitConfig, v_load_for_count


def cfg(rule=RuleKind.REACTIVE, period=10, on_steps=5, phase=0, v_low=9.0, v_high=9.2,
        p=1.0, max_shift=None):
    return AgentConfig(period, on_steps, phase, rule, v_low, v_high, p=p, max_shift=max_shift)


IN_BAND = 9.1
LOW = 8.5
HIGH = 9.7


class TestConfigBounds:
    @pytest.mark.parametrize("field", ["period", "on_steps", "phase", "max_shift"])
    def test_values_beyond_int64_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            cfg(**{field: 2**63})

    def test_largest_int64_values_accepted(self):
        a = cfg(period=2**63 - 1, on_steps=2**63 - 2, phase=2**63 - 2, max_shift=2**63 - 1)
        assert a.max_shift == 2**63 - 1


class TestDesiredLoad:
    def test_inside_window(self):
        assert desired_load(cfg(), AgentState(), 3) is True

    def test_outside_window(self):
        assert desired_load(cfg(), AgentState(), 7) is False

    def test_shift_delays_window(self):
        assert desired_load(cfg(), AgentState(shift=3), 7) is True  # (7-3) mod 10 = 4 < 5

    def test_negative_shift_uses_mathematical_modulo(self):
        # advanced window: (t - phase - shift) mod period stays non-negative
        assert desired_load(cfg(), AgentState(shift=-4), 0) is True  # 4 < 5
        assert desired_load(cfg(), AgentState(shift=-4), 1) is False  # 5
        assert desired_load(cfg(), AgentState(shift=-1), 8) is False  # 9
        assert desired_load(cfg(), AgentState(shift=-1), 9) is True  # 0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            desired_load(cfg(), AgentState(), -1)


class TestShiftUpdates:
    def test_reactive_postpones_below_band(self):
        state, _ = agent_step(cfg(), AgentState(), 0, LOW, 0.9)
        assert state.shift == 1

    def test_reactive_advances_above_band(self):
        state, _ = agent_step(cfg(), AgentState(shift=1), 0, HIGH, 0.9)
        assert state.shift == 0

    def test_reactive_holds_in_band(self):
        state, _ = agent_step(cfg(), AgentState(shift=2), 0, IN_BAND, 0.9)
        assert state.shift == 2

    def test_saturation_never_raises(self):
        state = AgentState(shift=0)
        c = cfg(max_shift=2)
        for _ in range(10):
            state, _ = agent_step(c, state, 0, LOW, 0.9)
        assert state.shift == 2
        for _ in range(10):
            state, _ = agent_step(c, state, 0, HIGH, 0.9)
        assert state.shift == -2

    def test_passive_never_shifts(self):
        state, _ = agent_step(cfg(RuleKind.PASSIVE), AgentState(), 0, LOW, 0.0)
        assert state.shift == 0

    def test_probabilistic_gates_on_draw(self):
        c = cfg(RuleKind.PROBABILISTIC, p=0.5)
        reacted, _ = agent_step(c, AgentState(), 0, LOW, 0.49)
        held, _ = agent_step(c, AgentState(), 0, LOW, 0.51)
        assert reacted.shift == 1
        assert held.shift == 0

    def test_probabilistic_p0_never_reacts(self):
        c = cfg(RuleKind.PROBABILISTIC, p=0.0)
        for draw in (0.0, 0.3, 0.999):
            state, _ = agent_step(c, AgentState(), 0, LOW, draw)
            assert state.shift == 0

    def test_probabilistic_p1_equals_reactive_stepwise(self):
        reactive = cfg(RuleKind.REACTIVE)
        prob = cfg(RuleKind.PROBABILISTIC, p=1.0)
        s_r, s_p = AgentState(), AgentState()
        sensed_seq = [LOW, LOW, IN_BAND, HIGH, LOW, HIGH, HIGH, IN_BAND]
        for t, sensed in enumerate(sensed_seq):
            s_r, on_r = agent_step(reactive, s_r, t, sensed, 0.42)
            s_p, on_p = agent_step(prob, s_p, t, sensed, 0.42)
            assert (s_p.shift, on_p) == (s_r.shift, on_r)

    def test_dead_band_neutrality(self):
        # an always-in-band signal makes every rule trace the passive cycle
        passive = cfg(RuleKind.PASSIVE)
        for kind in (RuleKind.REACTIVE, RuleKind.PROBABILISTIC):
            s_a, s_p = AgentState(), AgentState()
            for t in range(30):
                s_a, on_a = agent_step(cfg(kind, p=0.7), s_a, t, IN_BAND, 0.0)
                s_p, on_p = agent_step(passive, s_p, t, IN_BAND, 0.0)
                assert on_a == on_p
                assert s_a.shift == 0


class TestCycleMachine:
    def test_passive_follows_schedule_exactly(self):
        c = cfg(RuleKind.PASSIVE, period=10, on_steps=5, phase=3)
        state = AgentState.initial(c)
        for t in range(40):
            state, on = agent_step(c, state, t, IN_BAND, 0.0)
            assert on == desired_load(c, state, t)

    def test_postponing_defers_turn_on_but_completes_running_cycle(self):
        c = cfg(period=10, on_steps=5, phase=0, max_shift=100)
        state = AgentState.initial(c)
        # run to t=2: mid-window, connected
        for t in range(3):
            state, on = agent_step(c, state, t, IN_BAND, 0.0)
        assert on is True
        # sustained low voltage: the running cycle completes (2 more steps),
        # then the frozen window never re-opens
        on_seq = []
        for t in range(3, 15):
            state, on = agent_step(c, state, t, LOW, 0.0)
            on_seq.append(on)
        assert on_seq[:2] == [True, True]
        assert not any(on_seq[2:])

    def test_advancing_brings_turn_on_earlier(self):
        c = cfg(period=10, on_steps=5, phase=0, max_shift=100)
        state = AgentState.initial(c)
        for t in range(7):  # t=6: off (position 6)
            state, on = agent_step(c, state, t, IN_BAND, 0.0)
        assert on is False
        # sweeping at double speed reaches the next window start in 2 steps
        state, on = agent_step(c, state, 7, HIGH, 0.0)
        state, on2 = agent_step(c, state, 8, HIGH, 0.0)
        assert (on, on2) == (False, True)

    def test_started_run_covers_the_window(self):
        c = cfg(period=10, on_steps=5, phase=0, max_shift=100)
        state = AgentState.initial(c)
        state, on = agent_step(c, state, 0, IN_BAND, 0.0)
        assert on is True
        assert state.run_remaining == 5  # on for t=0..4, off at t=5


class TestCommanded:
    def test_instructions_move_shift_and_override(self):
        c = cfg(RuleKind.COMMANDED)
        state, on = agent_step(c, AgentState.initial(c), 0, LOW, 0.0, +1)
        assert state.shift == 1
        assert state.override == -1
        assert on is False  # suppressed despite the schedule wanting it on
        state, on = agent_step(c, state, 1, LOW, 0.0, -1)
        assert state.shift == 0
        assert state.override == 0
        assert on is True  # back on the natural schedule, run still going

    def test_advance_forces_connection_outside_window(self):
        c = cfg(RuleKind.COMMANDED)
        state = AgentState.initial(c)
        for t in range(7):
            state, on = agent_step(c, state, t, IN_BAND, 0.0)
        assert on is False
        state, on = agent_step(c, state, 7, IN_BAND, 0.0, -1)
        assert on is True
        assert state.override == 1

    def test_sensed_voltage_ignored(self):
        c = cfg(RuleKind.COMMANDED)
        state, _ = agent_step(c, AgentState(), 0, LOW, 0.0)
        assert state.shift == 0

    def test_command_moves_shift_on_its_own_step_only(self):
        c = cfg(RuleKind.COMMANDED)
        state, _ = agent_step(c, AgentState(), 0, IN_BAND, 0.0, +1)
        assert state.shift == 1
        after, _ = agent_step(c, state, 1, IN_BAND, 0.0)
        assert after.shift == state.shift


@pytest.mark.parametrize("command", [+1, -1])
@pytest.mark.parametrize("rule", [RuleKind.PASSIVE, RuleKind.REACTIVE, RuleKind.PROBABILISTIC])
def test_other_rules_ignore_the_command(rule, command):
    # every sensed side, a draw either side of p, and a run through windows
    c = cfg(rule, p=0.5, max_shift=3)
    state = AgentState.initial(c)
    for t, sensed in enumerate([LOW, IN_BAND, HIGH, LOW, LOW, LOW, LOW, HIGH] * 4):
        draw = 0.25 if t % 3 else 0.75
        commanded = agent_step(c, state, t, sensed, draw, command)
        state, on = agent_step(c, state, t, sensed, draw)
        assert commanded == (state, on)


def test_plan_is_not_equal_to_another_type():
    assert (Plan(np.zeros(2, np.int8)) == "x") is False


class TestControllerPlan:
    def setup_method(self):
        self.config = CircuitConfig.homogeneous(10, 0.08, 100.0, 50.0)
        self.v_nominal = v_load_for_count(self.config, 10.0, 5)
        self.band = Band(self.v_nominal * 0.998, self.v_nominal * 1.002)

    def test_in_band_prediction_holds_everyone(self):
        flex = np.array([True] * 5 + [False] * 5)
        plan = controller_plan(self.v_nominal, self.v_nominal, self.band, self.config, 10.0, flex)
        assert all(ins.action is Action.HOLD for ins in plan)
        assert [ins.agent_id for ins in plan] == list(range(10))

    def test_postpones_lowest_id_connected_agents(self):
        # sagged source: fewer loads should stay connected
        flex = np.array([True, False] * 5)
        v_source = 9.0
        plan = controller_plan(8.0, self.v_nominal, self.band, self.config, v_source, flex)
        # independent target search
        distances = [abs(v_load_for_count(self.config, v_source, k) - self.v_nominal) for k in range(11)]
        n_target = distances.index(min(distances))
        n_on = 5
        assert n_target < n_on
        postponed = [ins.agent_id for ins in plan if ins.action is Action.POSTPONE]
        expected = [i for i in range(10) if flex[i]][: n_on - n_target]
        assert postponed == expected
        assert not any(ins.action is Action.ADVANCE for ins in plan)

    def test_advances_lowest_id_disconnected_agents(self):
        flex = np.array([False] * 10)
        plan = controller_plan(9.0, self.v_nominal, self.band, self.config, 10.0, flex)
        advanced = [ins.agent_id for ins in plan if ins.action is Action.ADVANCE]
        assert advanced == list(range(len(advanced)))
        assert len(advanced) > 0

    def test_held_plan_is_a_fresh_array(self):
        # a shared zeros array would carry one plan's edits into the next
        flex = np.array([True] * 5 + [False] * 5)
        held = controller_plan(self.v_nominal, self.v_nominal, self.band, self.config, 10.0, flex)
        assert held.actions.dtype == np.int8 and held.actions.shape == (10,)
        assert not held.actions.any()
        held.actions[:] = 1
        again = controller_plan(self.v_nominal, self.v_nominal, self.band, self.config, 10.0, flex)
        assert again.actions is not held.actions
        assert again.actions.dtype == np.int8 and not again.actions.any()

    def test_deterministic(self):
        flex = np.array([True] * 3 + [False] * 7)
        a = controller_plan(8.0, self.v_nominal, self.band, self.config, 9.0, flex)
        b = controller_plan(8.0, self.v_nominal, self.band, self.config, 9.0, flex)
        assert a == b

    def test_heterogeneous_rejected(self):
        from reflexgrid.circuit import Branch, CircuitConfig as CC

        config = CC(1.0, (Branch(1.0, 1.0), Branch(2.0, 1.0)))
        with pytest.raises(ValueError):
            controller_plan(1.0, 0.5, Band(0.4, 0.6), config, 1.0, np.array([False, False]))

    def test_non_positive_sensed_rejected(self):
        with pytest.raises(ValueError):
            controller_plan(0.0, self.v_nominal, self.band, self.config, 10.0, np.array([False] * 10))

    def test_flex_length_must_match_circuit(self):
        with pytest.raises(ValueError):
            controller_plan(9.0, self.v_nominal, self.band, self.config, 10.0, np.array([False] * 9))

    def test_homogeneity_sees_the_last_branch(self):
        branches = (Branch(100.0, 50.0),) * 9 + (Branch(100.0, 50.5),)
        assert CircuitConfig(0.08, branches).is_homogeneous is False
        assert CircuitConfig(0.08, branches[:-1]).is_homogeneous is True


def scalar_plan(v_nominal, band, config, v_source, flex_on):
    """Oracle: the planner's rule spelled out per agent, with the k lowest
    connected (or disconnected) ids picked by list comprehension."""
    n = len(flex_on)
    n_on = sum(flex_on)
    actions = [Action.HOLD] * n
    if band.contains(v_load_for_count(config, v_source, n_on)):
        return actions
    distances = [abs(v_load_for_count(config, v_source, k) - v_nominal) for k in range(n + 1)]
    n_target = distances.index(min(distances))
    if n_target < n_on:
        for i in [i for i in range(n) if flex_on[i]][: n_on - n_target]:
            actions[i] = Action.POSTPONE
    elif n_target > n_on:
        for i in [i for i in range(n) if not flex_on[i]][: n_target - n_on]:
            actions[i] = Action.ADVANCE
    return actions


@st.composite
def plan_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    flex_on = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    v_source = draw(st.floats(min_value=9.0, max_value=11.0))
    return flex_on, v_source


@settings(max_examples=300, deadline=None)
@given(plan_inputs())
@example(([True] * 10, 10.0))  # all on: postpone
@example(([False] * 10, 10.0))  # all off: advance
@example(([True] * 5 + [False] * 5, 10.0))  # predicted in band: everyone holds
def test_array_plan_matches_scalar_oracle(inputs):
    flex_on, v_source = inputs
    n = len(flex_on)
    # branch resistances scale with n, so every fleet presents the same load
    config = CircuitConfig.homogeneous(n, 0.08, 10.0 * n, 5.0 * n)
    v_nominal = v_load_for_count(config, 10.0, n // 2)
    band = Band(v_nominal * 0.998, v_nominal * 1.002)

    plan = controller_plan(v_nominal, v_nominal, band, config, v_source, np.array(flex_on))

    assert plan.actions.dtype == np.int8
    assert [ins.agent_id for ins in plan] == list(range(n))
    assert [ins.action for ins in plan] == scalar_plan(v_nominal, band, config, v_source, flex_on)


class TestConfigValidation:
    def test_field_ranges(self):
        with pytest.raises(ValueError):
            cfg(period=0)
        with pytest.raises(ValueError):
            cfg(on_steps=0)
        with pytest.raises(ValueError):
            cfg(on_steps=10)  # must stay below period
        with pytest.raises(ValueError):
            cfg(phase=10)
        with pytest.raises(ValueError):
            cfg(v_low=9.5, v_high=9.0)
        with pytest.raises(ValueError):
            cfg(RuleKind.PROBABILISTIC, p=1.5)
        with pytest.raises(ValueError):
            cfg(max_shift=-1)

    def test_max_shift_defaults_to_period(self):
        assert cfg(period=42, on_steps=10, phase=0).max_shift == 42
