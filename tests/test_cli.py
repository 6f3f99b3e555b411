"""CLI surface: subcommands, exit codes, and output stability."""

import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reflexgrid.agents import RuleKind
from reflexgrid.awareness import validate_awareness
from reflexgrid.circuit import CircuitConfig
from reflexgrid.cli import _metrics_window, main
from reflexgrid.engine import SHIFT_RECORDING_MAX_ENTRIES, compute_metrics, run as run_engine
from reflexgrid.output import trace_to_csv
from reflexgrid.scenariofile import (
    _AGENT_FIELDS,
    _SCHEMA,
    MAX_AGENTS,
    MAX_HORIZON,
    ScenarioFileError,
    _parse_sections,
    _to_bool,
    _to_peer_awareness,
    _to_rule,
    parse_scenario_text,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"

SMALL = """\
[circuit]
r_source = 0.08
r_base = 100.0
r_flex = 50.0

[source]
v_base = 10.0

[disturbance]
t_start = 50
t_end = 80
delta_v = 0.3

[agents]
count = 10
period = 10
on_steps = 5
rule = {rule}
{extra}
[run]
horizon = 200
seed = 3
sensing_delay = 3
"""


@pytest.fixture
def small_scenario(tmp_path):
    def write(rule="reactive", extra=""):
        path = tmp_path / "scenario.cfg"
        path.write_text(SMALL.format(rule=rule, extra=extra))
        return str(path)

    return write


class TestRun:
    def test_happy_path_writes_csv(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["run", small_scenario(), "--csv", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 201  # header plus one row per step
        captured = capsys.readouterr()
        assert "outside_band_fraction:" in captured.out

    def test_svg_output(self, small_scenario, tmp_path):
        svg = tmp_path / "chart.svg"
        assert main(["run", small_scenario(), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_malformed_key_exits_1_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL.format(rule="reactive", extra="").replace("period", "perod"))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"line \d+", err)
        assert "perod" in err

    def test_missing_file_exits_1(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 1

    def test_awareness_warning_not_fatal_by_default(self, small_scenario, capsys):
        path = small_scenario(rule="probabilistic", extra="p = 0.1\n")
        assert main(["run", path]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "structure of awareness" in err

    def test_strict_awareness_exits_3(self, small_scenario, capsys):
        path = small_scenario(rule="probabilistic", extra="p = 0.1\n")
        assert main(["run", path, "--strict-awareness"]) == 3
        err = capsys.readouterr().err
        assert "requires Ta0a0" in err

    def test_strict_awareness_ok_with_full_peers(self, small_scenario, capsys):
        path = small_scenario(rule="probabilistic", extra="p = 0.1\npeer_awareness = full\n")
        assert main(["run", path, "--strict-awareness"]) == 0

    def test_byte_identical_reruns(self, small_scenario, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        path = small_scenario()
        assert main(["run", path, "--csv", str(a)]) == 0
        assert main(["run", path, "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # sha256 of the trace CSVs of the shipped scenarios.  B's draws are due to
    # change with ROADMAP item 1, which re-records its two digests here and
    # logs the change in CHANGES.md
    @pytest.mark.parametrize(
        "name,flags,sha256",
        [
            ("scenario_a.cfg", [], "5a02daa6f8cae1fc3d630acdc3c4acf7e650b5a29107983e3b34c4a3b1e47bd8"),
            ("scenario_a.cfg", ["--record-shifts"],
             "d5dcfdf0d2194f74a849df1c9dda039c89d8967e1ce73b2ec04dfe73c2a038a0"),
            ("scenario_c.cfg", [], "2ef1b55adbf72f4fdaf3149d196e2ee675c9ee13e34ee6435d464567e626e65c"),
            ("scenario_c.cfg", ["--record-shifts"],
             "a27a407f9690cc6dbbfd0a49f823b58fd41ac0bb67a449755e774fc6b2f7a199"),
            ("scenario_b.cfg", [], "04c662e75203f6f9d29c32a7548f275c6585085356b263059ae0ddc2620ac7af"),
            ("scenario_b.cfg", ["--record-shifts"],
             "8a83f8b70598d33477dffb43adc60b6fcabc3fad4507477a58c8eabe8fe8f034"),
        ],
    )
    def test_shipped_scenario_csv_digest(self, tmp_path, name, flags, sha256):
        out = tmp_path / "out.csv"
        assert main(["run", str(SCENARIOS / name), "--csv", str(out), *flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    # sha256 of the SVG charts of shipped A and C; the chart has no recorded
    # shifts, so --record-shifts writes the same bytes
    @pytest.mark.parametrize(
        "name,sha256",
        [
            ("scenario_a.cfg", "7895e8af90bf7e31df003d48f19010133775fa71840c2d7c707863618cd67928"),
            ("scenario_c.cfg", "3fe9e2783073f2f2315855599695cd3233cf66d5e3d4f197a5b86e21ee74eb1c"),
        ],
    )
    def test_shipped_scenario_svg_digest(self, tmp_path, name, sha256):
        for flags in ([], ["--record-shifts"]):
            out = tmp_path / "chart.svg"
            assert main(["run", str(SCENARIOS / name), "--svg", str(out), *flags]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_unwritable_output_exits_2_with_one_error_line(self, tmp_path, capsys):
        # the run succeeds and writing its CSV over a directory fails
        assert main(["run", str(SCENARIOS / "scenario_a.cfg"), "--csv", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_seed_override_changes_probabilistic_trace(self, small_scenario, tmp_path):
        path = small_scenario(rule="probabilistic", extra="p = 0.3\npeer_awareness = full\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", path, "--csv", str(a), "--seed", "1"]) == 0
        assert main(["run", path, "--csv", str(b), "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_override_exits_1(self, small_scenario, tmp_path, capsys, seed):
        out = tmp_path / "out.csv"
        assert main(["run", small_scenario(), "--csv", str(out), "--seed", str(seed)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_record_shifts_adds_columns(self, small_scenario, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["run", small_scenario(), "--csv", str(out), "--record-shifts"]) == 0
        assert "shift_9" in out.read_text().splitlines()[0]

    def test_record_shifts_from_file_adds_columns(self, tmp_path, capsys):
        code, header = {}, {}
        for setting in ("true", "false", "auto"):
            path = tmp_path / f"{setting}.cfg"
            path.write_text(SMALL.format(rule="reactive", extra="") + f"record_shifts = {setting}\n")
            out = tmp_path / f"{setting}.csv"
            code[setting] = main(["run", str(path), "--csv", str(out)])
            if out.exists():
                header[setting] = out.read_text().splitlines()[0]
        # the key takes a boolean only
        assert code == {"true": 0, "false": 0, "auto": 1}
        assert "not a boolean: 'auto'" in capsys.readouterr().err
        assert header["true"].endswith(",shift_9")
        assert header["false"] == "t,v_source,v_load,i_total,n_flex_on"
        assert "auto" not in header

    @pytest.mark.parametrize("how", ["flag", "file"])
    def test_shift_record_over_the_cap_exits_1(self, tmp_path, capsys, how):
        # 10 agents over this horizon would need more shift entries than allowed
        horizon = SHIFT_RECORDING_MAX_ENTRIES // 10 + 1
        text = SMALL.format(rule="reactive", extra="").replace("horizon = 200", f"horizon = {horizon}")
        path = tmp_path / "long.cfg"
        path.write_text(text + ("record_shifts = true\n" if how == "file" else ""))
        out = tmp_path / "out.csv"
        args = ["run", str(path), "--csv", str(out)] + (["--record-shifts"] if how == "flag" else [])
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_validate_ok(self, small_scenario, capsys):
        assert main(["validate", small_scenario()]) == 0
        assert "scenario ok" in capsys.readouterr().out

    def test_validate_strict_violations(self, small_scenario):
        path = small_scenario(rule="probabilistic", extra="p = 0.1\n")
        assert main(["validate", path, "--strict-awareness"]) == 3

    def test_validate_load_errors_exit_1(self, tmp_path, capsys):
        assert main(["validate", "/nonexistent/path.cfg"]) == 1
        assert capsys.readouterr().err == "error: scenario file not found: /nonexistent/path.cfg\n"
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL.format(rule="reactive", extra="").replace("period", "perod"))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: line \d+: unknown key 'perod' in section \[agents\]\n", err)


# edits of shipped A that command appliances without a [controller], and
# the agents whose instruction word Tc<agent> is then missing
COMMANDED_WITHOUT_CONTROLLER = [
    ("sensing_delay = 3", "sensing_delay = 3\n[agent.3]\nrule = commanded", [3]),
    ("rule = reactive", "rule = commanded", range(100)),
]


class TestCommandedWithoutController:
    """A commanded appliance with no controller to command it is an
    awareness violation like any other: a warning, not a traceback."""

    @staticmethod
    def edited_a(tmp_path, old, new):
        text = (SCENARIOS / "scenario_a.cfg").read_text()
        assert old in text
        path = tmp_path / "commanded.cfg"
        path.write_text(text.replace(old, new))
        return str(path)

    @staticmethod
    def warnings(agents):
        return "".join(
            f"warning: agent {i}: rule commanded requires Tca{i} not present in structure of awareness\n"
            for i in agents
        )

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("old, new, agents", COMMANDED_WITHOUT_CONTROLLER)
    def test_warns_and_exits_0(self, tmp_path, capsys, command, old, new, agents):
        assert main([command, self.edited_a(tmp_path, old, new)]) == 0
        assert capsys.readouterr().err == self.warnings(agents)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("old, new, agents", COMMANDED_WITHOUT_CONTROLLER)
    def test_strict_awareness_exits_3(self, tmp_path, capsys, command, old, new, agents):
        path = self.edited_a(tmp_path, old, new)
        assert main([command, path, "--strict-awareness"]) == 3
        assert capsys.readouterr().err == self.warnings(agents) + (
            f"error: {len(agents)} awareness violation(s) in strict mode\n"
        )


class TestUnreadableFiles:
    """A path that names a directory, or a file that is not UTF-8, exits 1
    with one error line instead of a traceback."""

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_scenario_directory_exits_1(self, capsys, command):
        assert main([command, str(SCENARIOS)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read scenario file {SCENARIOS}: Is a directory\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_utf8_scenario_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.cfg"
        path.write_bytes((SCENARIOS / "scenario_a.cfg").read_bytes() + "# caf\xe9\n".encode("latin-1"))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario file {path} is not UTF-8: ")
        assert err.count("\n") == 1

    def test_trace_directory_exits_1(self, capsys):
        assert main(["metrics", str(SCENARIOS), "--v-low", "8.0", "--v-high", "9.0"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read trace file {SCENARIOS}: Is a directory\n"

    def test_non_utf8_trace_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,v_source,v_load,i_total,n_flex_on\n0,\xe9,1,1,1\n")
        assert main(["metrics", str(path), "--v-low", "8.0", "--v-high", "9.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_trace_names_its_offset_in_the_file(self, tmp_path, capsys):
        # past the text decoder's first chunk, so a chunk offset would differ
        head = b"t,v_source,v_load,i_total,n_flex_on\n" + b"".join(
            b"%d,10.0,9.0,1.0,0\n" % t for t in range(2000)
        )
        path = tmp_path / "latin1.csv"
        path.write_bytes(head + b"2000,\xe9,1,1,1\n")
        assert main(["metrics", str(path), "--v-low", "8.0", "--v-high", "9.0"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: trace file {path} is not UTF-8: "
                       f"invalid continuation byte at byte {len(head) + 5}\n")

    def test_byte_order_mark_is_not_counted_out_of_the_offset(self, tmp_path, capsys):
        head = b"\xef\xbb\xbft,v_source,v_load,i_total,n_flex_on\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(head + b"0,\xe9,1,1,1\n")
        assert main(["metrics", str(path), "--v-low", "8.0", "--v-high", "9.0"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: trace file {path} is not UTF-8: "
                       f"invalid continuation byte at byte {len(head) + 2}\n")

    def test_byte_order_mark_scenario_validates_like_the_plain_file(self, tmp_path, capsys):
        plain = SCENARIOS / "scenario_a.cfg"
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["validate", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize(
        "header, row",
        [("", "99999999999999999999"), (",shift_0", "0,99999999999")],
    )
    def test_out_of_range_trace_integer_exits_1(self, tmp_path, capsys, header, row):
        path = tmp_path / "wide.csv"
        path.write_text(f"t,v_source,v_load,i_total,n_flex_on{header}\n0,1.0,1.0,1.0,{row}\n")
        assert main(["metrics", str(path), "--v-low", "8.0", "--v-high", "9.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 1: ") and err.count("\n") == 1


# resistances so small that the fleet's conductance overflows a float
TINY_RESISTANCE_EDITS = [
    ("r_base = 100.0", "r_base = 5e-324"),
    ("r_base = 100.0", "r_base = 1e-308"),
    ("r_flex = 50.0", "r_flex = 5e-324"),
    ("r_flex = 50.0", "r_flex = 5e-307"),
]
# edits to shipped scenario B that each make it invalid
INVALID_B_EDITS = [
    *TINY_RESISTANCE_EDITS,
    ("r_source = 0.08", "r_source = -0.08"),
    ("r_flex = 50.0", "r_flex = 0"),
    ("r_base = 100.0", "r_base = -1"),
    ("t_start = 1000", "t_start = 1300"),  # after t_end
    ("max_shift = 1000", "max_shift = 99999999999999999999"),
    ("period = 100", "period = 99999999999999999999"),
    ("period = 100", "period = 0"),
    # periods whose windows would step past int64 while the fleet runs
    ("period = 100", "period = 9223372036854775807"),
    ("sensing_delay = 3", "sensing_delay = 3\n[agent.3]\nperiod = 9223372036854775806"),
    ("on_steps = 50", "on_steps = 0"),
    ("on_steps = 50", "on_steps = 100"),
    ("horizon = 8000", "horizon = 99999999999999999999"),
    # a trace of four 8-byte values per step that no machine could hold
    ("horizon = 8000", "horizon = 10000000000000"),
    ("horizon = 8000", f"horizon = {MAX_HORIZON + 1}"),
    ("delta_v = 0.3", "delta_v = nan"),  # NaN voltages would compare as in band
    ("delta_v = 0.3", "delta_v = 10.5"),  # a negative source
    ("r_source = 0.08", "r_source = inf"),
    # an open branch would draw no current and leave the fleet nothing to move
    ("r_flex = 50.0", "r_flex = inf"),
    ("r_base = 100.0", "r_base = inf"),
    # a source voltage that calibration cannot use
    ("v_base = 10.0", "v_base = nan"),
    ("v_base = 10.0", "v_base = inf"),
    # a source that could drive a current past the largest float
    ("v_base = 10.0", "v_base = 1e308"),
    ("delta_v = 0.3", "delta_v = -1e308"),  # a surge, not a sag
]
INVALID_C_EDITS = [
    # a sag to 0 V leaves the planner no positive bus voltage to act on
    ("delta_v = 0.3", "delta_v = 10.0"),
    # a target the planner cannot reach would leave every step outside the band
    ("control_interval = 1", "control_interval = 1\nv_nominal = nan"),
    ("control_interval = 1", "control_interval = 1\nv_nominal = inf"),
    ("control_interval = 1", "control_interval = 1\nv_nominal = -5"),
]


class TestInvalidScenarios:
    """A scenario that cannot be built exits 1 with one error line, before
    anything runs."""

    @staticmethod
    def exits_1(tmp_path, capsys, command, shipped, old, new, band="ratio = 0.002"):
        """The error line of ``command`` on the shipped scenario so edited,
        with its band set by ``band``."""
        text = (SCENARIOS / shipped).read_text()
        assert old in text and "ratio = 0.002" in text
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(old, new).replace("ratio = 0.002", band))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("old, new", INVALID_B_EDITS)
    def test_invalid_edit_of_b_exits_1(self, tmp_path, capsys, command, old, new):
        self.exits_1(tmp_path, capsys, command, "scenario_b.cfg", old, new)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("old, new", INVALID_C_EDITS)
    def test_invalid_edit_of_c_exits_1(self, tmp_path, capsys, command, old, new):
        self.exits_1(tmp_path, capsys, command, "scenario_c.cfg", old, new)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("band", ["ratio = 0.002", "v_low = 8.6\nv_high = 8.64"])
    @pytest.mark.parametrize("old, new", TINY_RESISTANCE_EDITS)
    def test_tiny_resistance_is_named(self, tmp_path, capsys, command, band, old, new):
        # the circuit is checked before calibration, so explicit edges do
        # not turn this into an error about the band
        err = self.exits_1(tmp_path, capsys, command, "scenario_a.cfg", old, new, band)
        assert err == (
            "error: r_base and r_flex give 100 branches a conductance of up to inf S; "
            "it must stay finite\n"
        )

    @pytest.mark.parametrize("band", ["ratio = 0.002", "v_low = 8.6\nv_high = 8.64"])
    def test_largest_finite_conductance_runs(self, tmp_path, capsys, band):
        # 100 branches of 1/1e-306 S: G = 1e308, still a float
        text = (SCENARIOS / "scenario_a.cfg").read_text()
        path = tmp_path / "tiny.cfg"
        path.write_text(text.replace("r_flex = 50.0", "r_flex = 1e-306").replace("ratio = 0.002", band))
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.fixture
    def no_circuit(self, monkeypatch):
        """Make building the circuit an error: a fleet must be bounded before
        its circuit, and then its agents, are built."""

        def homogeneous(*args, **kwargs):
            raise AssertionError("CircuitConfig.homogeneous called")

        monkeypatch.setattr(CircuitConfig, "homogeneous", homogeneous)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("count", [10**20, MAX_AGENTS + 1])
    def test_oversized_fleet_exits_1_before_building(self, tmp_path, capsys, no_circuit,
                                                     command, count):
        text = (SCENARIOS / "scenario_b.cfg").read_text()
        path = tmp_path / "big.cfg"
        path.write_text(text.replace("count = 100", f"count = {count}"))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: agent count must be in [1, {MAX_AGENTS}], got {count}\n"

    def test_largest_fleet_reaches_the_circuit(self, tmp_path, no_circuit):
        text = (SCENARIOS / "scenario_b.cfg").read_text()
        path = tmp_path / "big.cfg"
        path.write_text(text.replace("count = 100", f"count = {MAX_AGENTS}"))
        with pytest.raises(AssertionError, match="homogeneous called"):
            main(["validate", str(path)])


# values each scenario-file converter is tried with: the edges of its
# domain, text it cannot convert, and a few values a fleet can run with
EDGE_VALUES = {
    int: ["0", "1", "2", "3", "50", "100", "1000", "-1", "1.5", str(2**31), str(2**62),
          str(2**63 - 1), str(-(2**63 - 1)), str(2**63), str(10**20)],
    float: ["0", "-1", "0.01", "0.3", "0.5", "1", "10.0", "100.0", "5e-324", "1e308", "-1e308",
            "inf", "-inf", "nan", "x"],
    _to_bool: ["true", "false", "2"],
    _to_rule: [rule.value for rule in RuleKind] + ["selfish"],
    _to_peer_awareness: ["none", "full", "some"],
    str: ["uniform", "random"],
}
AGENT_IDS = ["0", "3", "99", "100", "-1", str(2**63)]
# what one generated scenario may run: the agent-steps of its trace, and the
# N(N + 1) words that validation checks for a probabilistic fleet
MAX_AGENT_STEPS = 10**6
MAX_AWARENESS_WORDS = 10**5


def _shipped_sections(name):
    sections, blocks = _parse_sections((SCENARIOS / name).read_text())
    assert not blocks
    return {section: {key: value for key, (value, _) in raw.items()} for section, raw in sections.items()}


def _as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


@st.composite
def edited_scenarios(draw):
    """Shipped A, B or C with one to three keys of the schema set to edge
    values, and half the time an [agent.<id>] block of one to three fields."""
    sections = _shipped_sections(draw(st.sampled_from(["scenario_a.cfg", "scenario_b.cfg", "scenario_c.cfg"])))
    keys = [(name, key) for name, spec in _SCHEMA.items() for key in spec]
    for name, key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        sections.setdefault(name, {})[key] = draw(st.sampled_from(EDGE_VALUES[_SCHEMA[name][key][0]]))
    if draw(st.booleans()):
        fields = draw(st.lists(st.sampled_from(list(_AGENT_FIELDS)), min_size=1, max_size=3, unique=True))
        sections[f"agent.{draw(st.sampled_from(AGENT_IDS))}"] = {
            key: draw(st.sampled_from(EDGE_VALUES[_AGENT_FIELDS[key][0]])) for key in fields
        }
    # a fleet and horizon that the parser accepts are cut to the run budget
    fleet, run = sections["agents"], sections["run"]
    count, horizon = _as_int(fleet["count"]), _as_int(run["horizon"])
    if count is not None and 1 <= count <= MAX_AGENTS:
        count = min(count, (math.isqrt(4 * MAX_AWARENESS_WORDS + 1) - 1) // 2)
        fleet["count"] = str(count)
        if horizon is not None and 1 <= horizon <= MAX_HORIZON:
            run["horizon"] = str(min(horizon, MAX_AGENT_STEPS // count))
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in raw.items())
        for name, raw in sections.items()
    )


def _with_invalid_edits(test):
    for name, edits in (("scenario_b.cfg", INVALID_B_EDITS), ("scenario_c.cfg", INVALID_C_EDITS)):
        text = (SCENARIOS / name).read_text()
        for old, new in edits:
            test = example(text.replace(old, new))(test)
    return test


class TestEditedScenarios:
    """What builds, runs: every edit of a shipped scenario is rejected when
    it is parsed, or goes through the whole pipeline without an error."""

    @_with_invalid_edits
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(edited_scenarios())
    def test_is_rejected_or_runs(self, text):
        try:
            bundle = parse_scenario_text(text)
        except ScenarioFileError:
            return
        # validated, run to a finite trace, scored and written as the CLI does
        validate_awareness(bundle.awareness, bundle.rules)
        scenario = bundle.scenario
        trace = run_engine(scenario)
        assert trace.horizon == scenario.horizon
        assert all(np.isfinite(column).all() for column in (trace.v_source, trace.v_load, trace.i_total))
        assert ((trace.n_flex_on >= 0) & (trace.n_flex_on <= scenario.n_agents)).all()
        compute_metrics(trace, scenario.band, _metrics_window(scenario))
        trace_to_csv(trace, include_shifts=scenario.record_shifts)


class TestAlgebra:
    def test_eval(self, capsys):
        assert main(["algebra", "eval", "T(1+x)(1+y)"]) == 0
        assert capsys.readouterr().out.strip() == "T + Tx + Ty + Txy"

    def test_eval_power_postulate(self, capsys):
        assert main(["algebra", "eval", "(x+y)^0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_equals(self, capsys):
        assert main(["algebra", "equals", "T(1+x+y+yz)", "T+Tx+Ty+Tyz"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["algebra", "equals", "xy", "yx"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_awareness_mode(self, capsys):
        assert main(["algebra", "awareness", "T", "x"]) == 0
        assert capsys.readouterr().out.strip() == "T + Tx"
        assert main(["algebra", "awareness", "T+Tx", "y"]) == 0
        assert capsys.readouterr().out.strip() == "T + Tx + Ty + Txy"

    def test_parse_error_exits_1(self, capsys):
        assert main(["algebra", "eval", "T(1+x"]) == 1
        assert "position" in capsys.readouterr().err

    def test_deep_nesting_exits_1_with_one_line(self, capsys):
        assert main(["algebra", "eval", "(" * 2000 + "T" + ")" * 2000]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: expression nested too deeply \(at position \d+\)\n", err)

    def test_bad_observer_atom_exits_1(self, capsys):
        assert main(["algebra", "awareness", "T", "not-an-atom"]) == 1


class TestMetrics:
    def test_round_trip_with_run_summary(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out.csv"
        path = small_scenario()
        assert main(["run", path, "--csv", str(out)]) == 0
        run_summary = capsys.readouterr().out
        band_line = [l for l in run_summary.splitlines() if l.startswith("band:")][0]
        low, high = re.findall(r"[0-9.]+(?:e-?\d+)?", band_line)
        window = re.findall(r"\d+", [l for l in run_summary.splitlines() if l.startswith("window:")][0])
        assert (
            main(
                ["metrics", str(out), "--v-low", low, "--v-high", high,
                 "--window", window[0], window[1]]
            )
            == 0
        )
        assert capsys.readouterr().out == run_summary

    def test_window_beyond_horizon_exits_1(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["run", small_scenario(), "--csv", str(out)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(out), "--v-low", "8.0", "--v-high", "9.0",
                     "--window", "0", "9999"]) == 1

    def test_malformed_csv_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n1,2,3\n")
        assert main(["metrics", str(bad), "--v-low", "8.0", "--v-high", "9.0"]) == 1

    def test_missing_file_exits_1(self):
        assert main(["metrics", "/nope.csv", "--v-low", "8.0", "--v-high", "9.0"]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty CSV file"),
            ("t,v_source,v_load,i_total,n_flex_on,shift_1\n0,1.0,1.0,1.0,0,0\n",
             "bad shift column name 'shift_1'"),
        ],
        ids=["empty", "misnumbered_shift"],
    )
    def test_bad_csv_exits_1_with_its_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["metrics", str(path), "--v-low", "8.0", "--v-high", "9.0"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_finite_voltage_exits_1_naming_its_step(self, tmp_path, capsys):
        # a NaN bus voltage would otherwise read as inside the band and settled
        path = tmp_path / "nan.csv"
        path.write_text("t,v_source,v_load,i_total,n_flex_on\n0,1.0,1.0,1.0,0\n1,1.0,nan,1.0,0\n")
        assert main(["metrics", str(path), "--v-low", "0.5", "--v-high", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: v_load at step 1 is not finite: nan\n"
        assert captured.out == ""

    @pytest.mark.parametrize("t_end, window", [(80, (80, 200)), (200, (0, 200))])
    def test_window_follows_the_sag_or_is_the_whole_run(self, t_end, window):
        # a sag that ends at the horizon leaves no recovery, so the whole run is scored
        text = SMALL.format(rule="reactive", extra="").replace("t_end = 80", f"t_end = {t_end}")
        assert _metrics_window(parse_scenario_text(text).scenario) == window


class TestUsage:
    def test_no_command_is_parse_error(self):
        assert main([]) == 1

    def test_unknown_command_is_parse_error(self):
        assert main(["frobnicate"]) == 1

    def test_reference_scenarios_validate(self):
        for name in ("scenario_a.cfg", "scenario_b.cfg", "scenario_c.cfg"):
            assert main(["validate", str(SCENARIOS / name)]) == 0
