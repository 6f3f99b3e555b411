"""Strict scenario-file parsing."""

import dataclasses
import re
import textwrap
from pathlib import Path

import pytest

from reflexgrid.agents import AgentConfig, RuleKind
from reflexgrid.scenariofile import (
    MAX_HORIZON,
    _AGENT_FIELDS,
    ScenarioFileError,
    load_scenario,
    parse_scenario_text,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"

MINIMAL = """\
[circuit]
r_source = 0.08
r_base = 100.0
r_flex = 50.0

[source]
v_base = 10.0

[agents]
count = 10
period = 10
on_steps = 5
rule = reactive

[run]
horizon = 100
seed = 7
"""


def test_minimal_scenario(
):
    bundle = parse_scenario_text(MINIMAL)
    sc = bundle.scenario
    assert sc.n_agents == 10
    assert sc.horizon == 100
    assert sc.seed == 7
    assert sc.sensing_delay == 1
    assert sc.disturbance.t_start == sc.disturbance.t_end == 0
    assert sc.controller is None
    assert all(a.rule is RuleKind.REACTIVE for a in sc.agents)
    assert [a.phase for a in sc.agents] == [i % 10 for i in range(10)]
    # agent thresholds default to the scenario band
    assert all(a.v_low == sc.band.v_low and a.v_high == sc.band.v_high for a in sc.agents)


@pytest.mark.parametrize(
    "bad, line, message",
    [
        pytest.param(MINIMAL.replace("period = 10", "perod = 10"), 11,
                     "unknown key 'perod' in section [agents]", id="perod"),
        # a probabilistic appliance draws once per triggering step; the file
        # format has no other mode
        pytest.param(MINIMAL.replace("rule = reactive", "rule = reactive\np_latch = true"), 14,
                     "unknown key 'p_latch' in section [agents]", id="p_latch-fleet"),
        pytest.param(MINIMAL + "\n[agent.3]\np_latch = true\n", 20,
                     "unknown key 'p_latch' in section [agent.3]", id="p_latch-agent"),
    ],
)
def test_unknown_key_reports_line_number(bad, line, message):
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(bad)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_unknown_section_rejected():
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(MINIMAL + "\n[market]\nprice = 3\n")
    assert "market" in str(exc.value)


def test_duplicate_key_rejected():
    text = MINIMAL + "\n[source]\nv_base = 11.0\n"
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(text)
    n = len(text.splitlines())
    assert exc.value.line == n
    assert str(exc.value) == f"line {n}: duplicate key 'v_base' in section [source]"


def test_missing_section_rejected():
    text = MINIMAL.replace("[source]\nv_base = 10.0\n", "")
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(text)
    assert str(exc.value) == "missing required section [source]"
    assert exc.value.line is None


MINIMAL_LINES = len(MINIMAL.splitlines())


@pytest.mark.parametrize(
    "text, message, line",
    [
        (MINIMAL.replace("[circuit]", "[circuit", 1), "malformed section header", 1),
        (MINIMAL + "\n[agent.x]\nperiod = 5\n", "bad agent id in section [agent.x]", MINIMAL_LINES + 2),
        ("r_source = 0.08\n" + MINIMAL, "key outside of any section", 1),
        (MINIMAL.replace("v_base = 10.0\n", ""), "missing required key 'v_base' in section [source]", None),
    ],
)
def test_structure_errors_name_their_line(text, message, line):
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_malformed_line_reports_position():
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(MINIMAL + "\n[band]\nratio\n")
    assert exc.value.line is not None


def test_bad_value_reports_line():
    bad = MINIMAL.replace("count = 10", "count = ten")
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(bad)
    assert exc.value.line == 10


def test_probabilistic_requires_p():
    bad = MINIMAL.replace("rule = reactive", "rule = probabilistic")
    with pytest.raises(ScenarioFileError) as exc:
        parse_scenario_text(bad)
    assert "'p'" in str(exc.value)


def test_probabilistic_with_p():
    text = MINIMAL.replace("rule = reactive", "rule = probabilistic\np = 0.25")
    bundle = parse_scenario_text(text)
    assert all(a.p == 0.25 for a in bundle.scenario.agents)


@pytest.mark.parametrize(
    "blocks, lowest",
    [
        ("\n[agent.0]\np = 0.5\n", 1),
        # a block without p after a fleet agent without it
        ("\n[agent.7]\nmax_shift = 3\n", 0),
        # a block without p before the fleet's lowest agent without it
        ("\n[agent.0]\np = 0.5\n[agent.1]\nmax_shift = 3\n", 1),
    ],
)
def test_missing_p_names_the_lowest_agent_without_it(blocks, lowest):
    text = MINIMAL.replace("rule = reactive", "rule = probabilistic") + blocks
    with pytest.raises(ScenarioFileError, match=f"^agent {lowest} has a probabilistic rule"):
        parse_scenario_text(text)


def test_p_in_every_agent_block_is_enough():
    blocks = "".join(f"\n[agent.{i}]\np = 0.{i}\n" for i in range(10))
    text = MINIMAL.replace("rule = reactive", "rule = probabilistic") + blocks
    agents = parse_scenario_text(text).scenario.agents
    assert [a.p for a in agents] == [i / 10 for i in range(10)]


def test_disturbance_and_band_sections():
    text = MINIMAL + textwrap.dedent(
        """
        [disturbance]
        t_start = 10
        t_end = 20
        delta_v = 0.5

        [band]
        ratio = 0.01
        """
    )
    sc = parse_scenario_text(text).scenario
    assert (sc.disturbance.t_start, sc.disturbance.t_end, sc.disturbance.delta_v) == (10, 20, 0.5)
    assert sc.band.v_high / sc.band.v_low == pytest.approx(1.01 / 0.99)


def test_explicit_band_overrides_calibration():
    text = MINIMAL + "\n[band]\nv_low = 9.0\nv_high = 9.5\n"
    sc = parse_scenario_text(text).scenario
    assert (sc.band.v_low, sc.band.v_high) == (9.0, 9.5)


def test_band_edges_must_come_together():
    with pytest.raises(ScenarioFileError):
        parse_scenario_text(MINIMAL + "\n[band]\nv_low = 9.0\n")


def test_band_ratio_and_edges_conflict():
    with pytest.raises(ScenarioFileError):
        parse_scenario_text(MINIMAL + "\n[band]\nratio = 0.01\nv_low = 9.0\nv_high = 9.5\n")


def test_controller_section():
    text = MINIMAL.replace("rule = reactive", "rule = commanded") + textwrap.dedent(
        """
        [controller]
        enabled = true
        control_interval = 5
        """
    )
    bundle = parse_scenario_text(text)
    ctrl = bundle.scenario.controller
    assert ctrl is not None
    assert ctrl.control_interval == 5
    # the planner steers toward a target inside the scenario's band
    assert bundle.scenario.band.contains(ctrl.v_nominal)
    # wiring gains the sensing controller and its channels
    assert bundle.awareness.controller_senses_root
    assert all(bundle.awareness.controller_channel)


def test_per_agent_overrides():
    text = MINIMAL + textwrap.dedent(
        """
        [agent.3]
        rule = passive
        phase = 7

        [agent.4]
        v_low = 1.0
        v_high = 2.0
        """
    )
    sc = parse_scenario_text(text).scenario
    assert sc.agents[3].rule is RuleKind.PASSIVE
    assert sc.agents[3].phase == 7
    assert (sc.agents[4].v_low, sc.agents[4].v_high) == (1.0, 2.0)
    assert sc.agents[2].rule is RuleKind.REACTIVE


# each AgentConfig field a file may set: its text, and the value it reaches
AGENT_FIELD_VALUES = {
    "period": ("20", 20),
    "on_steps": ("3", 3),
    "phase": ("7", 7),
    "rule": ("passive", RuleKind.PASSIVE),
    "p": ("0.25", 0.25),
    "max_shift": ("4", 4),
    "v_low": ("1.0", 1.0),
    "v_high": ("20.0", 20.0),
}


def test_agent_fields_are_the_agent_config_fields():
    fields = {f.name for f in dataclasses.fields(AgentConfig)}
    assert set(_AGENT_FIELDS) == fields == set(AGENT_FIELD_VALUES)


@pytest.mark.parametrize("key", AGENT_FIELD_VALUES)
def test_agent_field_override_reaches_one_agent(key):
    text, value = AGENT_FIELD_VALUES[key]
    base = parse_scenario_text(MINIMAL).scenario.agents
    agents = parse_scenario_text(MINIMAL + f"\n[agent.3]\n{key} = {text}\n").scenario.agents
    assert getattr(agents[3], key) == value != getattr(base[3], key)
    assert agents[:3] + agents[4:] == base[:3] + base[4:]


@pytest.mark.parametrize("key", [key for key in AGENT_FIELD_VALUES if key != "phase"])
def test_agent_field_in_fleet_reaches_every_agent(key):
    text, value = AGENT_FIELD_VALUES[key]
    line = f"{key} = {text}"
    if re.search(rf"^{key} = ", MINIMAL, re.M):
        fleet = re.sub(rf"^{key} = .*$", line, MINIMAL, flags=re.M)
    else:
        fleet = MINIMAL.replace("rule = reactive", f"rule = reactive\n{line}")
    agents = parse_scenario_text(fleet).scenario.agents
    assert all(getattr(a, key) == value for a in agents)


def test_phase_is_set_per_agent_only():
    with pytest.raises(ScenarioFileError, match="unknown key 'phase' in section \\[agents\\]"):
        parse_scenario_text(MINIMAL.replace("rule = reactive", "rule = reactive\nphase = 1"))


def test_fleet_agents_share_one_config_per_phase(monkeypatch):
    text = MINIMAL.replace("count = 10", "count = 1000").replace("period = 10", "period = 100")
    text += "\n[agent.5]\nrule = passive\n\n[agent.905]\nmax_shift = 7\n"
    post_init = AgentConfig.__post_init__
    calls = []

    def counting_post_init(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(AgentConfig, "__post_init__", counting_post_init)
    sc = parse_scenario_text(text).scenario
    monkeypatch.undo()
    # one config per fleet phase plus one per override block, not one per agent
    assert len(calls) <= 102
    assert sc.agents[105] is sc.agents[205] is sc.agents[805]
    assert sc.agents[5] is not sc.agents[105] and sc.agents[905] is not sc.agents[105]
    fleet = {"period": 100, "on_steps": 5, "rule": RuleKind.REACTIVE,
             "v_low": sc.band.v_low, "v_high": sc.band.v_high}
    overrides = {5: {"rule": RuleKind.PASSIVE}, 905: {"max_shift": 7}}
    for i in (0, 5, 99, 100, 105, 905, 999):
        expected = AgentConfig(**{"phase": i % 100, **fleet, **overrides.get(i, {})})
        assert sc.agents[i] == expected


def test_a_phase_whose_agents_all_have_blocks_gets_no_config(monkeypatch):
    text = MINIMAL.replace("count = 10", "count = 25")
    text += "".join(f"\n[agent.{i}]\nmax_shift = {i}\n" for i in (3, 13, 23, 7))
    post_init = AgentConfig.__post_init__
    calls = []

    def counting_post_init(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(AgentConfig, "__post_init__", counting_post_init)
    agents = parse_scenario_text(text).scenario.agents
    monkeypatch.undo()
    # nine phases and four blocks: phase 3 is used by blocked agents only
    assert len(calls) == 9 + 4
    assert [a.max_shift for a in agents[3::10]] == [3, 13, 23]
    # phase 7's config is built for agent 17, its lowest id without a block
    assert agents[7].max_shift == 7 and agents[17].max_shift == 10
    assert agents[5] is agents[15]
    assert [a.phase for a in agents] == [i % 10 for i in range(25)]


def test_horizon_bound():
    # the trace holds 32 bytes per step: 1 GiB at the bound, and the
    # benchmark's 100 000 steps fit
    assert 100_000 <= MAX_HORIZON and 32 * MAX_HORIZON <= 2**30
    # parsing allocates nothing per step, so the bound itself builds
    text = MINIMAL.replace("horizon = 100", f"horizon = {MAX_HORIZON}")
    assert parse_scenario_text(text).scenario.horizon == MAX_HORIZON
    message = rf"^horizon must be in \[1, {MAX_HORIZON}\], got {MAX_HORIZON + 1}$"
    with pytest.raises(ScenarioFileError, match=message):
        parse_scenario_text(MINIMAL.replace("horizon = 100", f"horizon = {MAX_HORIZON + 1}"))


def test_override_for_missing_agent_rejected():
    with pytest.raises(ScenarioFileError):
        parse_scenario_text(MINIMAL + "\n[agent.10]\nphase = 0\n")


def test_peer_awareness_values():
    full = MINIMAL.replace("rule = reactive", "rule = reactive\npeer_awareness = full")
    bundle = parse_scenario_text(full)
    assert all(len(p) == 10 for p in bundle.awareness.peer_images)
    none = MINIMAL.replace("rule = reactive", "rule = reactive\npeer_awareness = none")
    assert all(len(p) == 0 for p in parse_scenario_text(none).awareness.peer_images)
    with pytest.raises(ScenarioFileError):
        parse_scenario_text(MINIMAL.replace("rule = reactive", "rule = reactive\npeer_awareness = maybe"))


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n; alt comment\n" + MINIMAL.replace(
        "count = 10", "count = 10  # trailing"
    )
    assert parse_scenario_text(text).scenario.n_agents == 10


def test_scenario_invariant_errors_surface():
    bad = MINIMAL.replace("on_steps = 5", "on_steps = 10")
    with pytest.raises(ScenarioFileError):
        parse_scenario_text(bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
def test_source_voltage_is_named_before_calibration(value):
    with pytest.raises(ScenarioFileError, match="^v_source_base must be finite and non-negative"):
        parse_scenario_text(MINIMAL.replace("v_base = 10.0", f"v_base = {value}"))


def test_byte_order_mark_is_dropped(tmp_path):
    plain = SCENARIOS / "scenario_a.cfg"
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_scenario(path) == load_scenario(plain)


def test_byte_order_mark_keeps_decode_offsets_in_file_bytes(tmp_path):
    path = tmp_path / "bom.cfg"
    head = b"\xef\xbb\xbf[circuit]\n"
    path.write_bytes(head + b"# caf\xe9\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        load_scenario(path)
    assert exc.value.start == len(head) + 5


def test_reference_files_load():
    for name, rule in (
        ("scenario_a.cfg", RuleKind.REACTIVE),
        ("scenario_b.cfg", RuleKind.PROBABILISTIC),
        ("scenario_c.cfg", RuleKind.COMMANDED),
    ):
        bundle = parse_scenario_text((SCENARIOS / name).read_text())
        assert bundle.scenario.n_agents == 100
        assert all(a.rule is rule for a in bundle.scenario.agents)
