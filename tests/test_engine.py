"""Engine semantics: determinism, equivalence with the per-agent reference,
the control invariants behind the herding story, and metrics."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from numpy.random import Generator, Philox

import reflexgrid
from conftest import build_scenario, run_reference
from reflexgrid.agents import AgentConfig, Band, RuleKind, controller_plan
from reflexgrid.circuit import Branch, CircuitConfig, v_load_for_count
from reflexgrid.engine import (
    SHIFT_RECORDING_MAX_ENTRIES,
    Disturbance,
    Metrics,
    Scenario,
    Trace,
    _cohorts,
    _cycle_step,
    _free_run_rows,
    _free_run_state,
    _move_in_block,
    calibrate_nominal,
    compute_metrics,
    initial_sensed_voltage,
    run,
    uniform_draws,
)
from reflexgrid.scenariofile import load_scenario, parse_scenario_text

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def block_lengths(monkeypatch) -> list[int]:
    """The length of every free-run block that later runs open, in order."""
    import reflexgrid.engine

    lengths = []

    def recording(t, m, *args):
        lengths.append(m)
        return _free_run_rows(t, m, *args)

    monkeypatch.setattr(reflexgrid.engine, "_free_run_rows", recording)
    return lengths


def traces_equal(a: Trace, b: Trace) -> bool:
    return (
        np.array_equal(a.v_source, b.v_source)
        and np.array_equal(a.v_load, b.v_load)
        and np.array_equal(a.i_total, b.i_total)
        and np.array_equal(a.n_flex_on, b.n_flex_on)
    )


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        sc = build_scenario(RuleKind.PROBABILISTIC, p=0.3, seed=11)
        assert traces_equal(run(sc), run(sc))

    def test_reactive_trace_is_seed_invariant(self):
        a = run(build_scenario(RuleKind.REACTIVE, seed=1))
        b = run(build_scenario(RuleKind.REACTIVE, seed=12345))
        assert traces_equal(a, b)

    def test_probabilistic_trace_depends_on_seed(self):
        a = run(build_scenario(RuleKind.PROBABILISTIC, p=0.3, seed=1))
        b = run(build_scenario(RuleKind.PROBABILISTIC, p=0.3, seed=2))
        assert not traces_equal(a, b)

    def test_draw_free_run_never_loads_the_rng(self):
        # numpy 2 imports numpy.random only on use; numpy 1 imports it with
        # numpy, and then there is nothing to save
        code = (
            "import sys; import numpy; before = 'numpy.random' in sys.modules; "
            "from reflexgrid.engine import run; from reflexgrid.scenariofile import load_scenario; "
            "run(load_scenario(sys.argv[1]).scenario); "
            "assert before or 'numpy.random' not in sys.modules, 'numpy.random was loaded'"
        )
        src = os.path.dirname(os.path.dirname(reflexgrid.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code, str(SCENARIOS / "scenario_a.cfg")],
                       env=env, check=True)

    def test_draw_stream_is_counter_based(self):
        a = uniform_draws(9, 100, 50)
        b = uniform_draws(9, 100, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(uniform_draws(9, 101, 50), a)
        assert not np.array_equal(uniform_draws(8, 100, 50), a)

    @pytest.mark.parametrize("t", [0, 1023, 1024, 2047, 5000])
    @pytest.mark.parametrize("n", [1, 100, 10_000])
    def test_draws_are_the_fresh_generator_block(self, t, n):
        # across cached-chunk boundaries, and for blocks longer than a chunk
        fresh = Generator(Philox(key=9, counter=[t, 0, 0, 0])).random(n)
        assert np.array_equal(uniform_draws(9, t, n), fresh)

    def test_draws_cannot_be_changed_through_a_result(self):
        first = uniform_draws(4, 10, 20)
        with pytest.raises(ValueError):
            first[0] = 2.0
        fresh = Generator(Philox(key=4, counter=[10, 0, 0, 0])).random(20)
        assert np.array_equal(uniform_draws(4, 10, 20), fresh)

    @pytest.mark.parametrize("rule, calls", [(RuleKind.PROBABILISTIC, 150), (RuleKind.REACTIVE, 0)])
    def test_one_draw_call_per_step_of_a_probabilistic_fleet(self, monkeypatch, rule, calls):
        import reflexgrid.engine

        made = []

        def counting(seed, t, n):
            made.append(t)
            return uniform_draws(seed, t, n)

        monkeypatch.setattr(reflexgrid.engine, "uniform_draws", counting)
        run(build_scenario(rule, n=5, horizon=150, t_start=40, t_end=80))
        assert made == list(range(calls))

        # a long, mostly quiet fleet steps through free-run blocks
        made.clear()
        blocks = block_lengths(monkeypatch)
        run(build_scenario(rule, n=5, p=0.05, horizon=3000, t_start=40, t_end=80))
        assert made == list(range(3000 if calls else 0))
        assert max(blocks, default=0) == (19 if calls else 0)

    @pytest.mark.parametrize("interval", [1, 3])
    def test_one_plan_per_control_step_sees_the_previous_step(self, monkeypatch, interval):
        import reflexgrid.engine

        seen = []

        def recording(sensed, v_nominal, band, circuit, vs, flex_on):
            seen.append((sensed, np.count_nonzero(flex_on)))
            return controller_plan(sensed, v_nominal, band, circuit, vs, flex_on)

        monkeypatch.setattr(reflexgrid.engine, "controller_plan", recording)
        blocks = block_lengths(monkeypatch)
        sc = build_scenario(RuleKind.COMMANDED, n=20, horizon=1200, controller=True,
                            control_interval=interval, t_start=100, t_end=160)
        trace = run(sc)
        delay = sc.sensing_delay
        steps = range(0, sc.horizon, interval)
        assert [v for v, _ in seen] == [
            trace.v_load[t - delay] if t >= delay else initial_sensed_voltage(sc) for t in steps
        ]
        assert [on for _, on in seen[1:]] == [trace.n_flex_on[t - 1] for t in steps[1:]]
        assert max(blocks) == 19

    def test_seed_must_be_unsigned_64_bit(self):
        with pytest.raises(ValueError):
            build_scenario(seed=-1)
        with pytest.raises(ValueError):
            build_scenario(seed=2**64)


class TestRuleEquivalences:
    def test_p0_probabilistic_traces_the_passive_fleet(self):
        prob = run(build_scenario(RuleKind.PROBABILISTIC, p=0.0, seed=5))
        passive = run(build_scenario(RuleKind.PASSIVE, seed=5))
        assert traces_equal(prob, passive)

    def test_p1_probabilistic_traces_the_reactive_fleet(self):
        prob = run(build_scenario(RuleKind.PROBABILISTIC, p=1.0, seed=5))
        reactive = run(build_scenario(RuleKind.REACTIVE, seed=5))
        assert traces_equal(prob, reactive)
        assert np.array_equal(prob.shifts, reactive.shifts)


@st.composite
def small_fleets(draw):
    """Mixed fleets whose agents trigger on different steps, with or without
    a controller; thresholds move per agent so some steps trigger only some.
    Long horizons and rare hits give long free-run blocks, and some agents
    run a second period."""
    n = draw(st.integers(1, 8))
    periods = st.integers(2, 12) | st.integers(16, 40)
    period = draw(periods)
    horizon = draw(st.integers(20, 160) | st.integers(200, 400))
    t_start = draw(st.integers(0, horizon))
    sc = build_scenario(
        n=n,
        period=period,
        on_steps=draw(st.integers(1, period - 1)),
        phases=draw(st.lists(st.integers(0, period - 1), min_size=n, max_size=n)),
        rules=draw(st.lists(st.sampled_from(list(RuleKind)), min_size=n, max_size=n)),
        p=draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])),
        seed=draw(st.integers(0, 2**64 - 1)),
        horizon=horizon,
        t_start=t_start,
        t_end=draw(st.integers(t_start, horizon)),
        delta_v=draw(st.sampled_from([0.3, -0.3, 0.05])),
        max_shift=draw(st.integers(0, 4)),
        controller=draw(st.booleans()),
        control_interval=draw(st.integers(1, 3)),
        sensing_delay=draw(st.integers(1, 4)),
        record_shifts=True,
    )
    offsets = draw(st.lists(st.sampled_from([0.0, 0.0, -0.02, 0.02]), min_size=n, max_size=n))
    periods = draw(st.lists(st.sampled_from([period, draw(periods)]), min_size=n, max_size=n))
    agents = tuple(
        replace(a, v_low=a.v_low + d, v_high=a.v_high + d, **_with_period(a, q))
        for a, d, q in zip(sc.agents, offsets, periods)
    )
    return replace(sc, agents=agents)


def _with_period(agent: AgentConfig, period: int) -> dict:
    """Fields that move ``agent`` to another period, keeping its schedule valid."""
    return dict(period=period, on_steps=min(agent.on_steps, period - 1), phase=agent.phase % period)


class TestReferenceEquivalence:
    """The vectorized engine and the per-agent replay must agree exactly."""

    @pytest.mark.parametrize("rule", list(RuleKind))
    def test_uniform_fleet(self, rule):
        sc = build_scenario(rule, n=8, horizon=150, p=0.4, t_start=40, t_end=80,
                            controller=rule is RuleKind.COMMANDED)
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)

    def test_mixed_rules_with_controller(self):
        rules = [
            RuleKind.PASSIVE,
            RuleKind.REACTIVE,
            RuleKind.PROBABILISTIC,
            RuleKind.COMMANDED,
            RuleKind.PROBABILISTIC,
            RuleKind.COMMANDED,
        ]
        sc = build_scenario(n=6, horizon=200, p=0.5, rules=rules, controller=True,
                            control_interval=2, phases=[0, 3, 7, 11, 13, 19],
                            t_start=40, t_end=120)
        assert traces_equal(run(sc), run_reference(sc))

    def test_saturating_shifts(self):
        sc = build_scenario(RuleKind.REACTIVE, n=5, horizon=250, max_shift=3,
                            t_start=40, t_end=120)
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert int(np.abs(engine_trace.shifts).max()) <= 3

    def test_heterogeneous_thresholds(self):
        sc = build_scenario(RuleKind.REACTIVE, n=6, horizon=200, t_start=40, t_end=120)
        agents = list(sc.agents)
        agents[2] = replace(agents[2], v_low=agents[2].v_low - 0.01)  # less touchy
        sc = replace(sc, agents=tuple(agents))
        trace = run(sc)
        assert traces_equal(trace, run_reference(sc))
        assert np.array_equal(trace.shifts, run_reference(sc).shifts)

    @settings(max_examples=150, deadline=None)
    @given(small_fleets())
    def test_random_small_fleets(self, sc):
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)


@st.composite
def lumpable_fleets(draw):
    """Fleets of many copies of a few deterministic agents, drawn from a few
    phases, with singletons and near-copies that must not share a trajectory:
    probabilistic and commanded agents, and agents that differ
    from a copy only in thresholds, ``max_shift``, period or circuit branch."""
    n = draw(st.integers(6, 30))
    periods = st.integers(2, 10) | st.integers(16, 40)
    period = draw(periods)
    horizon = draw(st.integers(30, 120) | st.integers(200, 400))
    t_start = draw(st.sampled_from([0]) | st.integers(0, horizon))
    controller = draw(st.booleans())
    phase_pool = draw(st.lists(st.integers(0, period - 1), min_size=1, max_size=3))
    rule_pool = [RuleKind.REACTIVE] * 4 + [RuleKind.PASSIVE, RuleKind.PROBABILISTIC, RuleKind.COMMANDED]
    sc = build_scenario(
        n=n,
        period=period,
        on_steps=draw(st.sampled_from([1]) | st.integers(1, period - 1)),
        phases=draw(st.lists(st.sampled_from(phase_pool), min_size=n, max_size=n)),
        rules=draw(st.lists(st.sampled_from(rule_pool), min_size=n, max_size=n)),
        p=draw(st.sampled_from([0.05, 0.3, 0.7])),
        seed=draw(st.integers(0, 2**64 - 1)),
        horizon=horizon,
        t_start=t_start,
        t_end=draw(st.integers(t_start, horizon)),
        delta_v=draw(st.sampled_from([0.3, -0.3, 0.05])),
        controller=controller,
        control_interval=draw(st.integers(1, 3)),
        sensing_delay=draw(st.integers(1, 4)),
        record_shifts=True,
    )
    offsets = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.015]), min_size=n, max_size=n))
    max_shifts = draw(st.lists(st.sampled_from([1, 1, 3]), min_size=n, max_size=n))
    periods = draw(st.lists(st.sampled_from([period] * 3 + [draw(periods)]), min_size=n, max_size=n))
    agents = tuple(
        replace(a, v_low=a.v_low + d, v_high=a.v_high + d, max_shift=m, **_with_period(a, q))
        for a, d, m, q in zip(sc.agents, offsets, max_shifts, periods)
    )
    sc = replace(sc, agents=agents)
    if not controller:
        wide = Branch(100.0, 35.0)
        branches = tuple(
            wide if other else b
            for b, other in zip(sc.circuit.branches, draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        )
        sc = replace(sc, circuit=CircuitConfig(sc.circuit.r_source, branches))
    return sc


def per_agent_cohorts(sc: Scenario) -> tuple[list[int], list[int]]:
    """The cohorts' lowest ids and each agent's cohort, keyed agent by agent:
    the reference for ``_cohorts``."""
    index: dict = {}
    first: list[int] = []
    cohort: list[int] = []
    for i, (a, branch) in enumerate(zip(sc.agents, sc.circuit.branches)):
        if a.rule in (RuleKind.PASSIVE, RuleKind.REACTIVE):
            key = (a.rule, a.period, a.on_steps, a.phase, a.max_shift, a.v_low, a.v_high, branch)
        else:
            key = i
        k = index.setdefault(key, len(first))
        if k == len(first):
            first.append(i)
        cohort.append(k)
    return first, cohort


@st.composite
def shared_fleets(draw):
    """Fleets built from a few configs and branches the way a scenario file
    shares them: one object for many agents, equal but distinct objects,
    and overrides that differ in one field."""
    base = build_scenario(RuleKind.REACTIVE, n=1, period=8, on_steps=3)
    template = base.agents[0]
    changes = [
        {},
        {"phase": 3},
        {"rule": RuleKind.PASSIVE},
        {"rule": RuleKind.PROBABILISTIC},
        {"rule": RuleKind.COMMANDED},
        {"max_shift": 2},
        {"v_low": template.v_low - 0.01},
    ]
    # a pool entry is an object several agents share; equal entries are distinct objects
    pool = [replace(template, **change)
            for change in draw(st.lists(st.sampled_from(changes), min_size=1, max_size=5))]
    branch_pool = [Branch(100.0, r_flex)
                   for r_flex in draw(st.lists(st.sampled_from([50.0, 60.0]), min_size=1, max_size=3))]
    n = draw(st.integers(1, 40))
    agents = tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    branches = tuple(draw(st.lists(st.sampled_from(branch_pool), min_size=n, max_size=n)))
    return replace(base, agents=agents, circuit=CircuitConfig(base.circuit.r_source, branches))


class TestCohorts:
    """Copies of a deterministic agent are simulated once; the traces must
    stay those of the per-agent reference."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(lumpable_fleets(), shared_fleets()))
    def test_lumped_fleets_match_reference(self, sc):
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)

    def test_ten_copies_per_cohort(self):
        sc = build_scenario(RuleKind.REACTIVE, n=300, period=30, on_steps=15, horizon=300,
                            t_start=40, t_end=100, max_shift=40, record_shifts=True)
        reps, first, cohort = _cohorts(sc)
        assert len(reps) == 30
        assert np.array_equal(first, np.arange(30))
        assert np.array_equal(cohort, np.arange(300) % 30)
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)

    def test_what_keeps_agents_apart(self):
        sc = build_scenario(RuleKind.REACTIVE, n=8, period=4, on_steps=2, phases=[0] * 8)
        a = sc.agents
        agents = (
            a[0], a[1],  # copies
            replace(a[2], v_low=a[2].v_low - 0.01),
            replace(a[3], max_shift=3),
            replace(a[4], rule=RuleKind.PASSIVE),
            replace(a[5], rule=RuleKind.PROBABILISTIC),
            replace(a[6], rule=RuleKind.PROBABILISTIC),
            a[7],  # a copy on a different branch
        )
        branches = sc.circuit.branches[:-1] + (Branch(100.0, 60.0),)
        sc = replace(sc, agents=agents, circuit=CircuitConfig(sc.circuit.r_source, branches))
        reps, first, cohort = _cohorts(sc)
        assert np.array_equal(first, [0, 2, 3, 4, 5, 6, 7])
        assert np.array_equal(cohort, [0, 0, 1, 2, 3, 4, 5, 6])

    def test_no_copies_means_no_index(self):
        sc = build_scenario(RuleKind.REACTIVE, n=6, period=6, on_steps=3)
        reps, first, cohort = _cohorts(sc)
        assert reps == list(sc.agents)
        assert first == cohort == slice(None)

    @settings(max_examples=200, deadline=None)
    @given(shared_fleets())
    def test_cohorts_match_the_per_agent_keys(self, sc):
        reps, first, cohort = _cohorts(sc)
        ref_first, ref_cohort = per_agent_cohorts(sc)
        if len(ref_first) == sc.n_agents:
            assert first == cohort == slice(None)
            assert reps == list(sc.agents)
        else:
            assert first.tolist() == ref_first and cohort.tolist() == ref_cohort
            assert all(r is sc.agents[i] for r, i in zip(reps, ref_first, strict=True))


class TestCircuitMemo:
    """The circuit sum and count are memoized per connection vector; a memo
    that holds one entry misses and evicts on almost every step, and the
    traces must not change."""

    @pytest.mark.parametrize("name", ["b", "c"])
    def test_single_entry_memo_is_bit_identical(self, monkeypatch, name):
        import reflexgrid.engine

        sc = replace(load_scenario(SCENARIOS / f"scenario_{name}.cfg").scenario, record_shifts=True)
        full = run(sc)
        monkeypatch.setattr(reflexgrid.engine, "_ENGINE_CACHE_BYTES", 0)
        evicting = run(sc)
        assert traces_equal(evicting, full)
        assert np.array_equal(evicting.shifts, full.shifts)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_fleets(), lumpable_fleets()))
    def test_single_entry_memo_matches_reference(self, sc):
        import reflexgrid.engine

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reflexgrid.engine, "_ENGINE_CACHE_BYTES", 0)
            engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)


@st.composite
def free_machines(draw):
    """Cycle machines before step t: windows from one step late (nxt = t - 1,
    after an advance) to far postponed, runs that ended long ago, end inside
    a block or past it, ``on_steps`` of 1 or ``period - 1``, mixed periods."""
    k = draw(st.integers(1, 6))
    period = draw(st.lists(st.integers(2, 12), min_size=k, max_size=k))
    on_steps = [draw(st.sampled_from([1, p - 1]) | st.integers(1, p - 1)) for p in period]
    t = draw(st.integers(0, 40))
    nxt = [t - 1 + draw(st.sampled_from([0, 1]) | st.integers(0, 3 * p)) for p in period]
    run_end = [t + draw(st.integers(-2 * p, 2 * p)) for p in period]
    return t, *(np.array(a, dtype=np.int64) for a in (nxt, run_end, on_steps, period))


class TestFreeRunBlocks:
    """Steps that move no shift and issue no instruction run in blocks whose
    connection vectors come in closed form; they must be those of the
    one-step machine."""

    @settings(max_examples=300, deadline=None)
    @given(free_machines())
    @example((5, *(np.array([a]) for a in (4, 5, 2, 6))))  # late opening at an ended run
    @example((5, *(np.array([a]) for a in (4, 6, 2, 6))))  # late opening mid-run is skipped
    def test_closed_form_is_the_one_step_machine(self, machines):
        t, nxt, run_end, on_steps, period = machines
        stepped_nxt, stepped_end = nxt.copy(), run_end.copy()
        stepped = []
        for m in range(1, int(period.min())):
            stepped.append(_cycle_step(t + m - 1, stepped_nxt, stepped_end, on_steps, period))
            assert np.array_equal(_free_run_rows(t, m, nxt, run_end, on_steps, period), stepped)
            after = _free_run_state(t, m, nxt, run_end, on_steps, period)
            assert np.array_equal(after[0], stepped_nxt)
            assert np.array_equal(after[1], stepped_end)


@st.composite
def wide_blocks(draw):
    """A block of m steps, where m is one of the lengths at which the
    narrowest type that holds m changes, over cycle machines of period
    m + 1 before step t: windows from one step late to far postponed, runs
    that ended long ago, end inside the block or past it."""
    m = draw(st.sampled_from([255, 256, 65535, 65536]))
    k = draw(st.integers(1, 3))
    t = draw(st.integers(0, 2**40))
    on_steps = [draw(st.sampled_from([1, m]) | st.integers(1, m)) for _ in range(k)]
    nxt = [t - 1 + draw(st.sampled_from([0, 1, m]) | st.integers(0, 3 * m)) for _ in range(k)]
    run_end = [draw(st.sampled_from([0, t]) | st.integers(t - 3 * m, t + 2 * m)) for _ in range(k)]
    period = [m + 1] * k
    return m, t, *(np.array(a, dtype=np.int64) for a in (nxt, run_end, on_steps, period))


def _one(value):
    return np.array([value], dtype=np.int64)


class TestNarrowBlockRows:
    """A block compares its steps with bounds relative to its first step,
    clipped to [0, m], on the narrowest type that holds m; at the lengths
    where that type changes the rows must still be the one-step machine's."""

    @settings(max_examples=10, deadline=None)
    @given(wide_blocks())
    # a run that ended 2**40 steps ago, and a window that runs past the block
    @example((255, 2**40, _one(2**40 + 200), _one(0), _one(255), _one(256)))
    # a run that ends past the block, and the window it skips
    @example((256, 2**40, _one(2**40 + 3), _one(2**40 + 400), _one(200), _one(257)))
    @example((65536, 9, _one(65000), _one(8 - 2**40), _one(65536), _one(65537)))
    def test_block_bounds_fit_a_narrow_type(self, block):
        m, t, nxt, run_end, on_steps, period = block
        rows = _free_run_rows(t, m, nxt, run_end, on_steps, period)
        stepped = [_cycle_step(s, nxt, run_end, on_steps, period) for s in range(t, t + m)]
        assert rows.shape == (m, len(nxt))
        assert np.array_equal(rows, stepped)


def patched_fleet(period, on_steps, phases, p, seed, horizon, t_start, t_end, delta_v,
                  sensing_delay, offsets, max_shifts, periods=None, reactive_copies=0):
    """Probabilistic agents with per-agent thresholds, ``max_shift`` and
    periods, then ``reactive_copies`` copies of one reactive agent with
    ``max_shift`` 1, which form a cohort of several members."""
    n = len(phases)
    sc = build_scenario(
        n=n + reactive_copies,
        period=period,
        on_steps=on_steps,
        phases=list(phases) + [0] * reactive_copies,
        rules=[RuleKind.PROBABILISTIC] * n + [RuleKind.REACTIVE] * reactive_copies,
        p=p,
        seed=seed,
        horizon=horizon,
        t_start=t_start,
        t_end=t_end,
        delta_v=delta_v,
        sensing_delay=sensing_delay,
        max_shift=1,
        record_shifts=True,
    )
    periods = periods or [period] * n
    agents = tuple(
        replace(a, v_low=a.v_low + d, v_high=a.v_high + d, max_shift=m, **_with_period(a, q))
        for a, d, m, q in zip(sc.agents, offsets, max_shifts, periods)
    ) + sc.agents[n:]
    return replace(sc, agents=agents)


@st.composite
def patched_fleets(draw):
    """Fleets whose reacting steps fall inside open free-run blocks: frequent
    hits, short periods, ``max_shift`` of 0-3 so that moves clip, thresholds
    that let a trigger reach only some agents, and in some fleets a reactive
    cohort of several members, whose moves close the block instead."""
    n = draw(st.integers(1, 8))
    period = draw(st.integers(3, 12))
    horizon = draw(st.integers(40, 300))
    t_start = draw(st.integers(0, horizon))
    agent_ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    return patched_fleet(
        period=period,
        on_steps=draw(st.integers(1, period - 1)),
        phases=draw(agent_ints(0, period - 1)),
        p=draw(st.sampled_from([0.3, 0.7, 1.0])),
        seed=draw(st.integers(0, 2**64 - 1)),
        horizon=horizon,
        t_start=t_start,
        t_end=draw(st.integers(t_start, horizon)),
        delta_v=draw(st.sampled_from([0.3, -0.3, 0.05])),
        sensing_delay=draw(st.integers(1, 4)),
        offsets=draw(st.lists(st.sampled_from([0.0, 0.0, -0.02, 0.02]), min_size=n, max_size=n)),
        max_shifts=draw(agent_ints(0, 3)),
        periods=draw(st.lists(st.sampled_from([period, draw(st.integers(3, 12))]), min_size=n, max_size=n)),
        reactive_copies=draw(st.sampled_from([0, 0, 2, 3])),
    )


class TestPatchedBlocks:
    """A step that moves only plain probabilistic cohorts inside an open
    free-run block rewrites their columns of the block instead of closing
    it; traces and shifts must stay those of the per-agent reference."""

    @settings(max_examples=200, deadline=None)
    @given(patched_fleets())
    @example(patched_fleet(  # an advance leaves a window one step late as a run ends
        period=4, on_steps=3, phases=[0, 2, 0], p=0.3, seed=0, horizon=40, t_start=4,
        t_end=4, delta_v=0.3, sensing_delay=2, offsets=[0.0, -0.02, 0.0], max_shifts=[0, 2, 0],
    ))
    @example(patched_fleet(  # an advance makes a window open as the run ends
        period=10, on_steps=7, phases=[0, 0, 0, 0, 0, 3, 7, 0], p=0.3, seed=1, horizon=40,
        t_start=0, t_end=0, delta_v=0.3, sensing_delay=3, offsets=[0.0] * 8,
        max_shifts=[0] * 7 + [1], periods=[10] * 7 + [5],
    ))
    @example(patched_fleet(  # a clipped move patches nothing
        period=3, on_steps=1, phases=[0], p=0.3, seed=0, horizon=40, t_start=0,
        t_end=0, delta_v=0.3, sensing_delay=1, offsets=[-0.02], max_shifts=[0],
    ))
    def test_patched_blocks_match_reference(self, sc):
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)

    @settings(max_examples=300, deadline=None)
    @given(free_machines(), st.data())
    def test_a_move_in_a_block_is_the_one_step_machine(self, machines, data):
        # a block [t, end) whose machines move by delta at step s: the moved
        # state, read by the block's closed form from the stale t, must give
        # the rows and the close of the one-step machine
        t, nxt, run_end, on_steps, period = machines
        nxt = np.maximum(nxt, t)  # a machine before a block's first step
        end = t + int(period.min()) - 1
        s = data.draw(st.integers(t, end - 1))
        delta = data.draw(st.sampled_from([-1, 1]))
        stepped_nxt, stepped_end = nxt.copy(), run_end.copy()
        for u in range(t, s):
            _cycle_step(u, stepped_nxt, stepped_end, on_steps, period)
        stepped_nxt += delta
        stepped = [_cycle_step(u, stepped_nxt, stepped_end, on_steps, period) for u in range(s, end)]
        moved = np.array([
            _move_in_block(s, delta, *map(int, machine))
            for machine in zip(nxt, run_end, on_steps, period)
        ]).T
        assert np.array_equal(moved[1] > s, stepped[0])
        assert np.array_equal(_free_run_rows(s + 1, end - s - 1, *moved, on_steps, period),
                              np.array(stepped[1:]).reshape(-1, len(nxt)))
        closed = _free_run_state(t, end - t, *moved, on_steps, period)
        assert np.array_equal(closed[0], stepped_nxt)
        assert np.array_equal(closed[1], stepped_end)

    def test_reacting_steps_keep_blocks_open(self, monkeypatch):
        import reflexgrid.engine

        closes = []

        def counting(t, m, *args):
            closes.append(t)
            return _free_run_state(t, m, *args)

        monkeypatch.setattr(reflexgrid.engine, "_free_run_state", counting)
        # pairs of passive agents switch on every 5 steps and dip the bus
        # below the band for one step, so the p = 1 agent reacts on isolated
        # steps, several per 39-step block
        n = 17
        sc = build_scenario(n=n, period=40, on_steps=1, p=1.0,
                            rules=[RuleKind.PROBABILISTIC] + [RuleKind.PASSIVE] * (n - 1),
                            phases=[2] + [5 * (i // 2) for i in range(n - 1)], horizon=800,
                            t_start=0, t_end=0, delta_v=0.0, max_shift=1000, record_shifts=True)
        trace = run(sc)
        moved = np.diff(trace.shifts, axis=0, prepend=0).any(axis=1)
        assert len(closes) < np.count_nonzero(moved)


@st.composite
def cycling_fleets(draw):
    """Deterministic fleets (passive, reactive and commanded agents) over
    horizons of many duty periods, so the state repeats and the engine
    copies periods forward.  Small ``max_shift`` makes drifting copies run
    into the clip, and a disturbance that starts late arrives after a cycle
    has formed.  One fleet in four has a controller and is never copied."""
    n = draw(st.integers(1, 8))
    period = draw(st.integers(2, 8))
    horizon = draw(st.integers(80, 400))
    t_start = draw(st.integers(0, horizon) | st.integers(horizon // 2, horizon))
    rules = draw(st.lists(
        st.sampled_from([RuleKind.PASSIVE, RuleKind.REACTIVE, RuleKind.REACTIVE, RuleKind.COMMANDED]),
        min_size=n, max_size=n,
    ))
    sc = build_scenario(
        n=n,
        period=period,
        on_steps=draw(st.integers(1, period - 1)),
        phases=draw(st.lists(st.integers(0, period - 1), min_size=n, max_size=n)),
        rules=rules,
        horizon=horizon,
        t_start=t_start,
        t_end=draw(st.integers(t_start, min(horizon, t_start + 40))),
        delta_v=draw(st.sampled_from([0.3, -0.3, 0.05])),
        max_shift=draw(st.integers(0, 4)),
        controller=draw(st.sampled_from([False, False, False, True])),
        control_interval=draw(st.integers(1, 3)),
        sensing_delay=draw(st.integers(1, 4)),
        record_shifts=True,
    )
    offsets = draw(st.lists(st.sampled_from([0.0, 0.0, -0.02, 0.02]), min_size=n, max_size=n))
    max_shifts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    agents = tuple(
        replace(a, v_low=a.v_low + d, v_high=a.v_high + d, max_shift=m)
        for a, d, m in zip(sc.agents, offsets, max_shifts)
    )
    return replace(sc, agents=agents)


def herd_fleet() -> Scenario:
    """Acceptance 9's fleet: scenario A scaled to 1000 agents (100 cohorts)
    over 100 000 steps, shift recording off."""
    n = 1000
    circuit = CircuitConfig.homogeneous(n, 0.08, 1000.0, 500.0)
    _, band = calibrate_nominal(circuit, 100, 50, 10.0)
    agents = tuple(
        AgentConfig(100, 50, i % 100, RuleKind.REACTIVE, band.v_low, band.v_high, max_shift=1000)
        for i in range(n)
    )
    return Scenario(circuit, 10.0, Disturbance(1000, 1200, 0.3), agents, band, 100_000, 1,
                    sensing_delay=3, record_shifts=False)


def simulated_steps(monkeypatch) -> list[int]:
    """The step of every later ``_cycle_step`` call: the steps the one-step
    machine simulates instead of copying."""
    import reflexgrid.engine

    steps = []

    def counting(t, *args):
        steps.append(t)
        return _cycle_step(t, *args)

    monkeypatch.setattr(reflexgrid.engine, "_cycle_step", counting)
    return steps


class TestLimitCycles:
    """A deterministic fleet without a controller whose state repeats is
    copied forward a period at a time; the traces must stay those of the
    per-agent reference.  A controller fleet is simulated on every step."""

    @settings(max_examples=150, deadline=None)
    @given(cycling_fleets())
    @example(build_scenario(  # the copies stop short of the clip and the loop resumes
        n=1, period=5, on_steps=2, phases=[3], horizon=156, t_start=50, t_end=62,
        max_shift=2, sensing_delay=1, record_shifts=True,
    ))
    @example(build_scenario(  # matches the checkpoint at 91, not the latest at 99, with the
        # cohorts drifting by -2 and 7 steps of room: 3 copies stop short of the clip
        n=5, period=6, on_steps=2, phases=[5, 0, 0, 0, 0], horizon=146, t_start=82, t_end=85,
        max_shift=21, sensing_delay=4, record_shifts=True,
    ))
    def test_copied_periods_match_reference(self, sc):
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        event(f"copied a cycle: {engine_trace.cycle is not None}")
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)
        if sc.controller is not None:
            assert engine_trace.cycle is None

    @pytest.mark.parametrize("name, period", [("a", 1090), ("b", None), ("c", None)])
    def test_shipped_scenarios(self, name, period):
        trace = run(load_scenario(SCENARIOS / f"scenario_{name}.cfg").scenario)
        assert (trace.cycle and trace.cycle[1]) == period

    def test_shipped_a_is_found_one_period_after_its_first_checkpoint_in_the_cycle(self):
        # the herd's cycle starts at 1357; checkpoints since the restart at
        # the sag's end (1199) fall at 1199 + 2**j - 1, and 1454 is the
        # first one inside the cycle (Brent's single checkpoint waits for 3246)
        trace = run(load_scenario(SCENARIOS / "scenario_a.cfg").scenario)
        assert trace.cycle == (1454, 1090)

    def test_herd_simulates_until_one_period_past_the_checkpoint(self, monkeypatch):
        # a structural guard on acceptance 9: the repeat at 2544 ends the
        # simulation, and keeping only the latest checkpoint took 3637 steps
        steps = simulated_steps(monkeypatch)
        trace = run(herd_fleet())
        assert trace.cycle == (1454, 1090)
        assert len(steps) == 1745
        assert max(steps) == 1454 + 1090

    def test_one_checkpoint_budget_is_brents_detection(self, monkeypatch):
        import reflexgrid.engine

        every = run(herd_fleet())
        monkeypatch.setattr(reflexgrid.engine, "_ENGINE_CACHE_BYTES", 0)
        steps = simulated_steps(monkeypatch)
        latest = run(herd_fleet())
        assert latest.cycle == (3246, 1090)
        assert len(steps) == 3637
        assert traces_equal(latest, every)

    def test_no_cycle_without_a_repeat(self):
        # a horizon as long as the duty period: no state has repeated yet
        trace = run(build_scenario(RuleKind.REACTIVE, horizon=20, t_start=5, t_end=10))
        assert trace.cycle is None


# calls of each helper that advances time, per shipped scenario: the one-step
# machine, the copied periods, the draws, the planner, a free-run block's
# open and close, a patch's move of one cohort, and the rule dispatch
# ``_Fleet.react``.  B's row follows the draw layout: making the draws
# independent re-derives it, as it re-records B's digests.
ADVANCE_CALLS = {
    "a": {"_cycle_step": 1745, "_copy_periods": 2, "uniform_draws": 0, "controller_plan": 0,
          "_free_run_rows": 0, "_free_run_state": 0, "_move_in_block": 0, "_Fleet.react": 1353},
    "b": {"_cycle_step": 225, "_copy_periods": 0, "uniform_draws": 8000, "controller_plan": 0,
          "_free_run_rows": 108, "_free_run_state": 107, "_move_in_block": 2652, "_Fleet.react": 218},
    "c": {"_cycle_step": 22, "_copy_periods": 0, "uniform_draws": 0, "controller_plan": 8000,
          "_free_run_rows": 101, "_free_run_state": 100, "_move_in_block": 0, "_Fleet.react": 14},
}


@pytest.mark.parametrize("name", sorted(ADVANCE_CALLS))
def test_each_advance_path_does_its_pinned_work_on_the_shipped_scenarios(monkeypatch, name):
    # traces alone cannot tell a run that closes its blocks early, copies
    # less or dispatches a quiet step, from one that does not; these counts can
    import reflexgrid.engine

    calls = dict.fromkeys(ADVANCE_CALLS[name], 0)

    def counting(path, helper):
        def counted(*args):
            calls[path] += 1
            return helper(*args)

        return counted

    for path in calls:
        *outer, attr = path.split(".")
        # a method is patched on its class, so that every instance counts
        owner = getattr(reflexgrid.engine, outer[0]) if outer else reflexgrid.engine
        monkeypatch.setattr(owner, attr, counting(path, getattr(owner, attr)))
    run(load_scenario(SCENARIOS / f"scenario_{name}.cfg").scenario)
    assert calls == ADVANCE_CALLS[name]


class TestPassiveBehaviour:
    def test_periodic_with_lcm_of_periods(self):
        sc = build_scenario(RuleKind.PASSIVE, n=2, period=20, horizon=400,
                            t_start=0, t_end=0, delta_v=0.0, phases=[0, 5])
        # heterogeneous periods via direct construction
        agents = (
            AgentConfig(6, 3, 0, RuleKind.PASSIVE, sc.band.v_low, sc.band.v_high),
            AgentConfig(10, 4, 2, RuleKind.PASSIVE, sc.band.v_low, sc.band.v_high),
        )
        sc = Scenario(sc.circuit, sc.v_source_base, Disturbance(0, 0, 0.0), agents,
                      sc.band, 400, 0)
        trace = run(sc)
        lcm = math.lcm(6, 10)
        assert np.array_equal(trace.v_load[:-lcm], trace.v_load[lcm:])
        period_3 = trace.v_load[: 400 - 3]
        assert not np.array_equal(period_3, trace.v_load[3:])

    def test_null_reaction_control(self):
        # the disturbance depresses the voltage but passive agents return to
        # the pre-disturbance orbit immediately after it ends
        sc = build_scenario(RuleKind.PASSIVE, horizon=400, t_start=100, t_end=160)
        trace = run(sc)
        during = trace.v_load[100:160]
        assert during.max() < sc.band.v_low
        period = sc.agents[0].period
        post = trace.v_load[160 : 160 + period]
        pre = trace.v_load[160 - period : 160]  # same phase one period earlier... only if aligned
        # compare against the undisturbed run instead: exact orbit match
        calm = run(build_scenario(RuleKind.PASSIVE, horizon=400, t_start=0, t_end=0, delta_v=0.0))
        assert np.array_equal(trace.v_load[160:], calm.v_load[160:])
        assert np.array_equal(trace.n_flex_on[160:], calm.n_flex_on[160:])


class TestHerding:
    def test_reactive_shifts_identical_across_agents(self):
        sc = build_scenario(RuleKind.REACTIVE, horizon=600)
        trace = run(sc)
        assert (trace.shifts == trace.shifts[:, :1]).all()

    def test_reactive_fleet_oscillates_after_disturbance(self):
        sc = build_scenario(RuleKind.REACTIVE, n=100, period=100, on_steps=50,
                            horizon=3000, t_start=500, t_end=700, max_shift=1000)
        trace = run(sc)
        m = compute_metrics(trace, sc.band, (700, 3000))
        assert m.outside_band_fraction > 0.3
        assert m.band_crossings >= 10


class TestSensingDelay:
    def test_sensed_value_is_delayed_v_load(self):
        # with delay d, the first reaction to a sag at t_start appears at
        # t_start + d (agents see the pre-sag voltage until then)
        for delay in (1, 2, 4):
            sc = build_scenario(RuleKind.REACTIVE, horizon=200, t_start=50, t_end=120,
                                sensing_delay=delay)
            trace = run(sc)
            shifts = trace.shifts[:, 0]
            first_shift = int(np.argmax(shifts != 0))
            assert first_shift == 50 + delay

    def test_delay_must_be_positive(self):
        with pytest.raises(ValueError):
            build_scenario(sensing_delay=0)


class TestTraceConsistency:
    def test_v_load_resolvable_from_counts(self):
        sc = build_scenario(RuleKind.REACTIVE, horizon=300)
        trace = run(sc)
        for t in range(0, 300, 37):
            expected = v_load_for_count(sc.circuit, trace.v_source[t], int(trace.n_flex_on[t]))
            assert trace.v_load[t] == pytest.approx(expected, rel=1e-12)

    def test_kcl_kvl_on_recorded_steps(self):
        sc = build_scenario(RuleKind.PROBABILISTIC, p=0.4, horizon=300)
        trace = run(sc)
        residual = trace.v_source - (trace.i_total * sc.circuit.r_source + trace.v_load)
        assert np.max(np.abs(residual)) < 1e-9 * np.max(trace.v_source)

    def test_shift_recording_toggle(self):
        calm = dict(horizon=50, t_start=0, t_end=0, delta_v=0.0)
        assert run(build_scenario(record_shifts=False, **calm)).shifts is None
        assert run(build_scenario(record_shifts=True, **calm)).shifts is not None
        sc = build_scenario(**calm)
        default = Scenario(sc.circuit, sc.v_source_base, sc.disturbance, sc.agents, sc.band,
                           sc.horizon, sc.seed)
        assert default.record_shifts is False
        assert run(default).shifts is None

    def test_shift_record_over_the_entry_cap_is_rejected(self):
        n = 1024
        steps = SHIFT_RECORDING_MAX_ENTRIES // n
        calm = dict(n=n, period=4, on_steps=2, t_start=0, t_end=0, delta_v=0.0)
        assert build_scenario(horizon=steps, record_shifts=True, **calm).record_shifts
        with pytest.raises(ValueError, match="entries"):
            build_scenario(horizon=steps + 1, record_shifts=True, **calm)
        assert not build_scenario(horizon=steps + 1, record_shifts=False, **calm).record_shifts


class TestShiftRecord:
    """Recorded shifts are kept as the steps where they change and the cohort
    shifts after each change, never as a (horizon, N) matrix."""

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_record_holds_one_entry_per_change(self, name):
        sc = replace(load_scenario(SCENARIOS / f"scenario_{name}.cfg").scenario, record_shifts=True)
        trace = run(sc)
        record = trace.shift_record
        changed_rows = np.count_nonzero((trace.shifts[1:] != trace.shifts[:-1]).any(axis=1))
        assert record.steps[0] == 0
        assert len(record.steps) == 1 + changed_rows
        assert len(record.values) == len(record.steps)
        assert record.values.dtype == np.int32 and len(record.cohort) == sc.n_agents

    def test_controller_fleet_records_without_the_matrix(self):
        # scenario C scaled to 1000 appliances over 4000 steps, whose shift
        # matrix would be 4000 x 1000 int32 (15.3 MiB)
        text = (SCENARIOS / "scenario_c.cfg").read_text()
        for old, new in [("count = 100", "count = 1000"), ("r_base = 100.0", "r_base = 1000.0"),
                         ("r_flex = 50.0", "r_flex = 500.0"), ("horizon = 8000", "horizon = 4000")]:
            assert f"\n{old}\n" in text
            text = text.replace(f"\n{old}\n", f"\n{new}\n")
        sc = replace(parse_scenario_text(text).scenario, record_shifts=True)
        tracemalloc.start()
        try:
            trace = run(sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert trace.shift_record.values.shape[0] < 100
        assert trace.shifts.shape == (4000, 1000)


class TestScenarioValidation:
    def test_disturbance_must_fit_horizon(self):
        with pytest.raises(ValueError):
            build_scenario(horizon=100, t_start=50, t_end=150)

    def test_horizon_must_fit_int64(self):
        sc = build_scenario(n=3, horizon=200, t_start=0, t_end=0, record_shifts=False)
        with pytest.raises(ValueError, match="horizon"):
            replace(sc, horizon=2**63)
        # the largest horizon the joint bound admits with period 20 and max_shift 200
        largest = 2**63 - 1 - 3 * 20 - 200
        assert replace(sc, horizon=largest).horizon == largest  # built, never run
        with pytest.raises(ValueError, match=r"2\*\*63"):
            replace(sc, horizon=largest + 1)

    @pytest.mark.parametrize("rule", [RuleKind.REACTIVE, RuleKind.PROBABILISTIC, RuleKind.COMMANDED])
    def test_largest_period_the_bound_admits_runs_as_the_reference(self, rule):
        sc = build_scenario(rule, n=6, horizon=200, p=0.5, t_start=40, t_end=120,
                            controller=rule is RuleKind.COMMANDED)
        big = (2**63 - 1 - sc.horizon - 200) // 3
        # the longest run a period allows, a one-step run late in the cycle
        # and a half-period duty cycle
        schedules = [(big - 1, 0), (1, big - 2), (big // 2, big // 2)]
        agents = list(sc.agents)
        for i, (on_steps, phase) in enumerate(schedules):
            agents[i] = replace(agents[i], period=big, on_steps=on_steps, phase=phase)
        sc = replace(sc, agents=tuple(agents))
        engine_trace = run(sc)
        ref_trace = run_reference(sc)
        assert traces_equal(engine_trace, ref_trace)
        assert np.array_equal(engine_trace.shifts, ref_trace.shifts)
        agents[0] = replace(agents[0], period=big + 1)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            replace(sc, agents=tuple(agents))

    def test_agent_count_must_match_circuit(self):
        sc = build_scenario(n=3, horizon=200)
        with pytest.raises(ValueError):
            Scenario(sc.circuit, sc.v_source_base, sc.disturbance, sc.agents[:2], sc.band, 200, 0)

    def test_sag_must_leave_a_usable_source(self):
        with pytest.raises(ValueError, match="finite"):
            Disturbance(10, 20, math.nan)
        with pytest.raises(ValueError, match="finite"):
            Disturbance(10, 20, math.inf)
        with pytest.raises(ValueError, match="non-negative"):
            build_scenario(delta_v=10.5)
        # a sag to 0 V is a dead source: the circuit solves it, the planner cannot
        assert build_scenario(delta_v=10.0).disturbance.delta_v == 10.0
        with pytest.raises(ValueError, match="positive with a controller"):
            build_scenario(RuleKind.COMMANDED, controller=True, delta_v=10.0)
        # an empty sag applies no voltage
        build_scenario(RuleKind.COMMANDED, controller=True, t_start=5, t_end=5, delta_v=12.0)

    def test_current_must_stay_finite(self):
        # 1e308 V drives a current past the largest float through 100 agents'
        # bank with every flexible load on, though not with every one off
        with pytest.raises(ValueError, match="current could reach inf A at 1e[+]308 V"):
            build_scenario(n=100, horizon=200, delta_v=-1e308)
        sc = build_scenario(n=100, horizon=200)
        with pytest.raises(ValueError, match="current could reach inf A at 1e[+]308 V"):
            replace(sc, v_source_base=1e308)
        # a flexible load so small that its conductance overflows, on one
        # branch, is refused as such when the circuit is built
        with pytest.raises(ValueError, match="r_base and r_flex give 100 branches"):
            CircuitConfig(sc.circuit.r_source, sc.circuit.branches[:-1] + (Branch(100.0, 5e-324),))
        replace(sc, v_source_base=1e300)  # far from the largest float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -5.0, 0.0])
    def test_controller_target_must_be_finite_and_positive(self, value):
        sc = build_scenario(RuleKind.COMMANDED, n=3, horizon=200, controller=True)
        with pytest.raises(ValueError, match="v_nominal must be finite and positive"):
            replace(sc.controller, v_nominal=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_source_must_be_finite(self, value):
        sc = build_scenario(n=3, horizon=200)
        with pytest.raises(ValueError, match="v_source_base must be finite"):
            replace(sc, v_source_base=value)
        with pytest.raises(ValueError, match="r_source must be finite"):
            replace(sc.circuit, r_source=value)

    def test_controller_needs_identical_branches(self):
        sc = build_scenario(RuleKind.COMMANDED, n=3, horizon=200, controller=True)
        mixed = CircuitConfig(sc.circuit.r_source, sc.circuit.branches[:-1] + (Branch(100.0, 60.0),))
        with pytest.raises(ValueError, match="identical"):
            replace(sc, circuit=mixed)
        replace(sc, circuit=mixed, controller=None)  # fine without a controller


class TestComputeMetrics:
    def make_trace(self, v_loads):
        v = np.asarray(v_loads, dtype=float)
        ones = np.ones_like(v)
        return Trace(ones * 10.0, v, ones, np.zeros(len(v), dtype=np.int64))

    def test_constant_inside(self):
        trace = self.make_trace([9.1] * 100)
        m = compute_metrics(trace, Band(9.0, 9.2), (0, 100))
        assert m == Metrics(0.0, 0, 0.0, 0.0, True)

    def test_constant_below(self):
        trace = self.make_trace([8.5] * 100)
        m = compute_metrics(trace, Band(9.0, 9.2), (0, 100))
        assert m.outside_band_fraction == 1.0
        assert m.band_crossings == 0
        assert m.max_undershoot == pytest.approx(0.5)
        assert m.max_overshoot == 0.0
        assert m.settled is False

    def test_crossings_count_each_edge(self):
        band = Band(9.0, 9.2)
        # below -> inside -> above jumps: lower edge, then upper edge
        trace = self.make_trace([8.9, 9.1, 9.3, 9.1, 8.9])
        m = compute_metrics(trace, band, (0, 5))
        assert m.band_crossings == 4
        # a jump straight across the band crosses both edges
        trace = self.make_trace([8.9, 9.3])
        assert compute_metrics(trace, band, (0, 2)).band_crossings == 2

    def test_edge_values_count_as_inside(self):
        band = Band(9.0, 9.2)
        trace = self.make_trace([9.0, 9.2, 9.0])
        m = compute_metrics(trace, band, (0, 3))
        assert m.outside_band_fraction == 0.0
        assert m.band_crossings == 0

    def test_settled_uses_last_tenth(self):
        band = Band(9.0, 9.2)
        v = [8.0] * 90 + [9.1] * 10
        assert compute_metrics(self.make_trace(v), band, (0, 100)).settled is True
        v = [9.1] * 99 + [8.0]
        assert compute_metrics(self.make_trace(v), band, (0, 100)).settled is False

    def test_window_validation(self):
        trace = self.make_trace([9.1] * 10)
        with pytest.raises(ValueError):
            compute_metrics(trace, Band(9.0, 9.2), (5, 5))
        with pytest.raises(ValueError):
            compute_metrics(trace, Band(9.0, 9.2), (0, 11))
        with pytest.raises(ValueError):
            compute_metrics(trace, Band(9.0, 9.2), (-1, 5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [20, 50, 79])  # the window's first, a middle and its last step
    def test_non_finite_voltage_in_the_window_is_refused(self, value, step):
        # NaN compares false with both band edges, so it would read as inside
        v = np.full(100, 9.1)
        v[step] = value
        with pytest.raises(ValueError, match=f"^v_load at step {step} is not finite: {value!r}$"):
            compute_metrics(self.make_trace(v), Band(9.0, 9.2), (20, 80))

    @pytest.mark.parametrize("step", [0, 19, 80, 99])
    def test_non_finite_voltage_outside_the_window_changes_nothing(self, step):
        v = np.where(np.arange(100) % 7 == 0, 8.5, 9.1)
        clean = compute_metrics(self.make_trace(v), Band(9.0, 9.2), (20, 80))
        v[step] = np.nan
        assert compute_metrics(self.make_trace(v), Band(9.0, 9.2), (20, 80)) == clean


class TestCalibration:
    def test_nominal_is_duty_expected_count(self):
        circuit = CircuitConfig.homogeneous(100, 0.08, 100.0, 50.0)
        v_nominal, band = calibrate_nominal(circuit, 100, 50, 10.0)
        assert v_nominal == v_load_for_count(circuit, 10.0, 50)
        assert band.v_low == pytest.approx(v_nominal * 0.998, rel=1e-12)
        assert band.v_high == pytest.approx(v_nominal * 1.002, rel=1e-12)

    def test_rounding_to_nearest_count(self):
        circuit = CircuitConfig.homogeneous(10, 0.08, 100.0, 50.0)
        v_nominal, _ = calibrate_nominal(circuit, 3, 1, 10.0)
        assert v_nominal == v_load_for_count(circuit, 10.0, 3)

    def test_heterogeneous_circuit_rejected(self):
        circuit = CircuitConfig(0.08, (Branch(100.0, 50.0), Branch(100.0, 60.0)))
        with pytest.raises(ValueError, match="calibration requires identical branches"):
            calibrate_nominal(circuit, 10, 5, 10.0)

    @pytest.mark.parametrize("v_source_base", [math.nan, math.inf, -1.0])
    def test_unusable_source_voltage_rejected(self, v_source_base):
        # named here, not as the band that a NaN or negative nominal would give
        circuit = CircuitConfig.homogeneous(2, 0.08, 100.0, 50.0)
        with pytest.raises(ValueError, match="v_source_base must be finite and non-negative"):
            calibrate_nominal(circuit, 10, 5, v_source_base)

    @pytest.mark.parametrize("period, on_steps", [(0, 0), (0, 1), (10, 0), (10, 10), (10, 11)])
    def test_invalid_duty_cycle_rejected(self, period, on_steps):
        circuit = CircuitConfig.homogeneous(2, 0.08, 100.0, 50.0)
        with pytest.raises(ValueError, match="on_steps < period"):
            calibrate_nominal(circuit, period, on_steps, 10.0)
