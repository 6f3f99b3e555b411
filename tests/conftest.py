"""Shared helpers: scenario builders and a per-agent reference engine.

The reference engine replays the exact step recipe with the public
single-agent functions (``agent_step``, ``solve``, ``controller_plan``),
one agent at a time in ascending id order.  The production engine is a
vectorized implementation of the same semantics; tests assert the two
produce identical traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from reflexgrid.agents import AgentConfig, AgentState, Band, RuleKind, agent_step, controller_plan
from reflexgrid.circuit import CircuitConfig, solve
from reflexgrid.engine import (
    ControllerConfig,
    Disturbance,
    Scenario,
    ShiftRecord,
    Trace,
    calibrate_nominal,
    initial_sensed_voltage,
    source_voltage,
    uniform_draws,
)


def build_scenario(
    rule=RuleKind.REACTIVE,
    n=20,
    period=20,
    on_steps=10,
    p=0.2,
    seed=7,
    r_source=0.08,
    r_base=100.0,
    r_flex=50.0,
    v_base=10.0,
    horizon=400,
    t_start=100,
    t_end=160,
    delta_v=0.3,
    ratio=0.002,
    max_shift=200,
    controller=False,
    control_interval=1,
    sensing_delay=3,
    phases=None,
    rules=None,
    record_shifts=True,
):
    """Small scenario in the same regime as the reference files."""
    circuit = CircuitConfig.homogeneous(n, r_source, r_base, r_flex)
    v_nominal, band = calibrate_nominal(circuit, period, on_steps, v_base, ratio)
    if phases is None:
        phases = [i % period for i in range(n)]
    if rules is None:
        rules = [rule] * n
    agents = tuple(
        AgentConfig(
            period,
            on_steps,
            phases[i],
            rules[i],
            band.v_low,
            band.v_high,
            p=p,
            max_shift=max_shift,
        )
        for i in range(n)
    )
    ctrl = ControllerConfig(v_nominal, control_interval) if controller else None
    return Scenario(
        circuit=circuit,
        v_source_base=v_base,
        disturbance=Disturbance(t_start, t_end, delta_v),
        agents=agents,
        band=band,
        horizon=horizon,
        seed=seed,
        controller=ctrl,
        sensing_delay=sensing_delay,
        record_shifts=record_shifts,
    )


def run_reference(scenario: Scenario) -> Trace:
    """Per-agent replay of the engine's step recipe; the slow twin."""
    n = scenario.n_agents
    states = [AgentState.initial(cfg) for cfg in scenario.agents]
    flex_on = [st.run_remaining > 0 for st in states]
    v_init = initial_sensed_voltage(scenario)
    delay = scenario.sensing_delay
    ctrl = scenario.controller

    v_source = np.empty(scenario.horizon)
    v_load = np.empty(scenario.horizon)
    i_total = np.empty(scenario.horizon)
    n_on = np.empty(scenario.horizon, dtype=np.int64)
    shifts = np.empty((scenario.horizon, n), dtype=np.int32)

    for t in range(scenario.horizon):
        vs = source_voltage(scenario, t)
        sensed = float(v_load[t - delay]) if t >= delay else v_init

        commands = [0] * n
        if ctrl is not None and t % ctrl.control_interval == 0:
            plan = controller_plan(sensed, ctrl.v_nominal, scenario.band, scenario.circuit, vs, flex_on)
            commands = plan.actions.tolist()

        draws = uniform_draws(scenario.seed, t, n)
        flex_on = []
        for i, cfg in enumerate(scenario.agents):
            states[i], on = agent_step(cfg, states[i], t, sensed, float(draws[i]), commands[i])
            flex_on.append(on)

        sol = solve(scenario.circuit, vs, flex_on)
        v_source[t] = vs
        v_load[t] = sol.v_load
        i_total[t] = sol.i_total
        n_on[t] = sum(flex_on)
        shifts[t] = [st.shift for st in states]

    return Trace(v_source, v_load, i_total, n_on, ShiftRecord.from_matrix(shifts))
