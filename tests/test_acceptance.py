"""Acceptance suite: every release criterion, one test each.

Each test prints ``ACCEPTANCE <n> (<name>): PASS`` when it holds (run with
``pytest -s`` to see the lines); a failed assertion is the fail line.
Regression values were produced once by the frozen reference scenarios in
``scenarios/`` and are asserted exactly; the simulator is deterministic, so
any drift is a behaviour change, not noise.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reflexgrid.agents import AgentConfig, RuleKind
from reflexgrid.algebra import (
    UNIT,
    Atom,
    Polynomial,
    Word,
    equals,
    normalize,
    parse,
)
from reflexgrid.awareness import standard_declaration, validate_awareness
from reflexgrid.circuit import Branch, CircuitConfig, solve
from reflexgrid.cli import main
from reflexgrid.engine import Disturbance, Scenario, calibrate_nominal, compute_metrics, run
from reflexgrid.scenariofile import load_scenario
from test_circuit import nodal_oracle, rel_err

SCENARIOS = Path(__file__).parent.parent / "scenarios"

# Regression baselines recorded from the frozen reference scenarios (seed 1).
SCENARIO_A_FRACTION = 0.9439705882352941
SCENARIO_A_CROSSINGS = 498
SCENARIO_B_MEAN_FRACTION = 0.17672794117647062

EVAL_WINDOW = (1200, 8000)  # [t_end, horizon) of the reference scenarios


def _passive_variant(scenario: Scenario) -> Scenario:
    agents = tuple(replace(a, rule=RuleKind.PASSIVE) for a in scenario.agents)
    return replace(scenario, agents=agents)


def test_acceptance_1_algebra_fixtures():
    start = time.monotonic()
    # evolution of awareness, one observer at a time
    assert equals(parse("T * (1+x)"), parse("T + Tx"))
    assert equals(parse("(T + Tx) * (1+y)"), parse("T + Tx + (T + Tx)y"))
    assert equals(parse("T(1+x)(1+y)"), parse("T + Tx + Ty + Txy"))
    # indirect observation
    assert equals(parse("T + Tx + Ty + Tyz"), parse("T(1+x+y+yz)"))
    # four players, then images of images
    assert equals(parse("T(1+x+y+z+w+yx)"), parse("T + Tx + Ty + Tz + Tw + Tyx"))
    assert equals(
        parse("T(1+x+y+z+w+yx+yxy)"),
        parse("T + Tx + Ty + Tz + Tw + Tyx + Tyxy"),
    )
    # the three fleet structures, against hand-expanded word sets
    assert equals(parse("T(1 + a0 + a1 + a2)"), parse("T + Ta0 + Ta1 + Ta2"))
    assert equals(
        parse("T(1 + a0 + a1 + (a0+a1)a0 + (a0+a1)a1)"),
        parse("T + Ta0 + Ta1 + Ta0a0 + Ta1a0 + Ta0a1 + Ta1a1"),
    )
    assert equals(
        parse("T(1 + c + a0 + a1) + Tc(a0 + a1)"),
        parse("T + Tc + Ta0 + Ta1 + Tca0 + Tca1"),
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (algebra fixtures): PASS ({elapsed:.3f}s)")


def test_acceptance_2_algebra_laws():
    start = time.monotonic()
    rng = random.Random(20260809)
    alphabet = [Atom("T"), Atom("x"), Atom("y"), Atom("z"), Atom("a", 0), Atom("a", 1)]

    def random_word():
        return Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4))))

    def random_poly():
        return Polynomial.of(random_word() for _ in range(rng.randint(0, 8)))

    cases = 1000
    for _ in range(cases):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p + p == p
        assert (p * q) * r == p * (q * r)
        assert (p + q) * r == p * r + q * r
        assert r * (p + q) == r * p + r * q
        assert p * UNIT == p and UNIT * p == p
        assert p**0 == UNIT
        assert normalize(normalize(p)) == normalize(p)
        assert parse(str(p)) == p
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 (algebra laws, {cases} cases/law): PASS ({elapsed:.3f}s)")


def test_acceptance_3_circuit_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        res = np.exp(rng.uniform(np.log(0.1), np.log(100.0), size=(n, 2)))
        config = CircuitConfig(
            float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
            tuple(Branch(float(rb), float(rf)) for rb, rf in res),
        )
        vs = float(rng.uniform(1.0, 1000.0))
        loads = rng.random(n) < 0.5
        sol = solve(config, vs, loads)
        v, i, branch = nodal_oracle(config, vs, loads)
        worst = max(worst, rel_err(sol.v_load, v), rel_err(sol.i_total, i))
        for k in range(n):
            worst = max(worst, rel_err(sol.branch_currents[k], branch[k]))
        # conservation on every solve
        assert rel_err(sol.i_total, sum(sol.branch_currents)) <= 1e-9
        assert rel_err(vs, sol.i_total * config.r_source + sol.v_load) <= 1e-9
    assert worst <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 (circuit oracle, worst rel err {worst:.2e}): PASS ({elapsed:.3f}s)")


def test_acceptance_4_instability_reproduction():
    start = time.monotonic()
    scenario = replace(load_scenario(SCENARIOS / "scenario_a.cfg").scenario, record_shifts=True)
    window = (scenario.disturbance.t_end + scenario.sensing_delay, scenario.horizon)

    passive = compute_metrics(run(_passive_variant(scenario)), scenario.band, window)
    assert passive.outside_band_fraction == 0.0

    trace = run(scenario)
    metrics = compute_metrics(trace, scenario.band, window)
    assert metrics.outside_band_fraction >= 0.3
    assert metrics.band_crossings >= 10
    # herding: every agent carries the same shift at every step
    assert (trace.shifts == trace.shifts[:, :1]).all()
    # frozen regression baseline over [t_end, horizon)
    baseline = compute_metrics(trace, scenario.band, EVAL_WINDOW)
    assert baseline.outside_band_fraction == SCENARIO_A_FRACTION
    assert baseline.band_crossings == SCENARIO_A_CROSSINGS
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 4 (instability: passive {passive.outside_band_fraction:.3f}, "
        f"reactive {metrics.outside_band_fraction:.3f}/{metrics.band_crossings}): "
        f"PASS ({elapsed:.3f}s)"
    )


def test_acceptance_5_mitigation():
    start = time.monotonic()
    a = load_scenario(SCENARIOS / "scenario_a.cfg").scenario
    b = load_scenario(SCENARIOS / "scenario_b.cfg").scenario
    assert a.disturbance == b.disturbance
    frac_a = compute_metrics(run(a), a.band, EVAL_WINDOW).outside_band_fraction

    fractions = []
    for seed in range(20):
        trace = run(replace(b, seed=seed))
        fractions.append(compute_metrics(trace, b.band, EVAL_WINDOW).outside_band_fraction)
    mean_b = float(np.mean(fractions))
    assert mean_b <= 0.5 * frac_a
    assert mean_b == pytest.approx(SCENARIO_B_MEAN_FRACTION, rel=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 5 (mitigation: B mean {mean_b:.3f} vs A {frac_a:.3f}): "
        f"PASS ({elapsed:.3f}s)"
    )


def test_acceptance_6_controller_solution():
    start = time.monotonic()
    scenario = load_scenario(SCENARIOS / "scenario_c.cfg").scenario
    trace = run(scenario)
    t_end = scenario.disturbance.t_end
    outside = (trace.v_load < scenario.band.v_low) | (trace.v_load > scenario.band.v_high)
    reentry = next(
        (t for t in range(t_end, min(t_end + 51, scenario.horizon)) if not outside[t]), None
    )
    assert reentry is not None and reentry - t_end <= 50
    metrics = compute_metrics(trace, scenario.band, EVAL_WINDOW)
    assert metrics.settled is True
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 6 (controller: re-entry at t_end+{reentry - t_end}, settled): "
        f"PASS ({elapsed:.3f}s)"
    )


def test_acceptance_7_awareness_matrix():
    start = time.monotonic()
    n = 100
    wiring_a = standard_declaration(n)
    wiring_b = standard_declaration(n, peer_awareness=True)
    wiring_c = standard_declaration(n, controller=True)

    assert validate_awareness(wiring_a, [RuleKind.REACTIVE] * n) == []
    violations = validate_awareness(wiring_a, [RuleKind.PROBABILISTIC] * n)
    assert len(violations) == n * n
    per_agent = {i: 0 for i in range(n)}
    for v in violations:
        per_agent[v.agent_id] += 1
        assert len(v.missing.atoms) == 3  # a missing peer-image word
    assert all(count == n for count in per_agent.values())
    assert validate_awareness(wiring_b, [RuleKind.PROBABILISTIC] * n) == []
    assert validate_awareness(wiring_c, [RuleKind.COMMANDED] * n) == []
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 (awareness matrix, {n * n} violations where due): PASS ({elapsed:.3f}s)")


def test_acceptance_8_determinism(tmp_path):
    start = time.monotonic()
    a_cfg = str(SCENARIOS / "scenario_a.cfg")
    b_cfg = str(SCENARIOS / "scenario_b.cfg")

    first, second = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert main(["run", a_cfg, "--csv", str(first)]) == 0
    assert main(["run", a_cfg, "--csv", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    a_seed9 = tmp_path / "a_seed9.csv"
    assert main(["run", a_cfg, "--csv", str(a_seed9), "--seed", "9"]) == 0
    assert a_seed9.read_bytes() == first.read_bytes()  # no randomness consumed

    b1, b9 = tmp_path / "b1.csv", tmp_path / "b9.csv"
    assert main(["run", b_cfg, "--csv", str(b1)]) == 0
    assert main(["run", b_cfg, "--csv", str(b9), "--seed", "9"]) == 0
    assert b1.read_bytes() != b9.read_bytes()
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 8 (determinism and seed sensitivity): PASS ({elapsed:.3f}s)")


def test_acceptance_9_performance_floor():
    # scenario A scaled to 1000 agents (per-branch resistances scaled with N
    # so the fleet presents the same total load), shift recording off
    n, horizon = 1000, 100_000
    circuit = CircuitConfig.homogeneous(n, 0.08, 1000.0, 500.0)
    v_nominal, band = calibrate_nominal(circuit, 100, 50, 10.0)
    agents = tuple(
        AgentConfig(100, 50, i % 100, RuleKind.REACTIVE, band.v_low, band.v_high,
                    max_shift=1000)
        for i in range(n)
    )
    scenario = Scenario(
        circuit, 10.0, Disturbance(1000, 1200, 0.3), agents, band, horizon, 1,
        sensing_delay=3, record_shifts=False,
    )
    start = time.monotonic()
    trace = run(scenario)
    elapsed = time.monotonic() - start
    assert trace.horizon == horizon
    assert trace.shifts is None
    assert trace.cycle[1] == 1090 and trace.cycle[0] >= 1200  # the herd, after the sag
    assert elapsed <= 10.0
    print(f"\nACCEPTANCE 9 (1000 agents x 100k steps in {elapsed:.2f}s): PASS")
