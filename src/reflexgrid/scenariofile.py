"""Scenario text format: ``key = value`` lines under ``[section]`` headers.

Sections: ``[circuit]``, ``[source]``, ``[disturbance]``, ``[agents]``,
``[controller]``, ``[band]``, ``[run]``, plus optional per-agent override
blocks ``[agent.<id>]``.  Parsing is strict: unknown sections or keys are
errors, with line numbers.  ``#`` and ``;`` start comments.

The ``[agents]`` section is a homogeneous shorthand (one fleet sharing
parameters, phases spread uniformly); per-agent blocks override single
agents.  The band may be given explicitly or as a ratio around the
calibrated nominal voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .agents import AgentConfig, Band, RuleKind
from .awareness import AwarenessDecl, standard_declaration
from .circuit import CircuitConfig
from .engine import ControllerConfig, Disturbance, Scenario, calibrate_nominal


class ScenarioFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class ScenarioBundle:
    """A runnable scenario plus the information-layer wiring it declares."""

    scenario: Scenario
    awareness: AwarenessDecl
    rules: tuple[RuleKind, ...]


_SECTION_KEYS = {
    "circuit": {"r_source", "r_base", "r_flex"},
    "source": {"v_base"},
    "disturbance": {"t_start", "t_end", "delta_v"},
    "agents": {
        "count",
        "period",
        "on_steps",
        "phase_spread",
        "rule",
        "p",
        "p_latch",
        "max_shift",
        "v_low",
        "v_high",
        "peer_awareness",
    },
    "controller": {"enabled", "control_interval", "v_nominal"},
    "band": {"ratio", "v_low", "v_high"},
    "run": {"horizon", "seed", "sensing_delay", "record_shifts"},
}
_AGENT_OVERRIDE_KEYS = {
    "period",
    "on_steps",
    "phase",
    "rule",
    "p",
    "p_latch",
    "max_shift",
    "v_low",
    "v_high",
}
_REQUIRED_SECTIONS = ("circuit", "source", "agents", "run")
# the largest fleet a scenario file may declare: building one takes about
# 1.4 s and 110 MiB on a 2-vCPU VM, and every agent is built before a run
MAX_AGENTS = 100_000


def _parse_sections(text: str) -> tuple[dict, dict]:
    """Raw sections: {name: {key: (value, line)}}, plus per-agent blocks."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    agent_blocks: dict[int, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioFileError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name.startswith("agent."):
                try:
                    agent_id = int(name.split(".", 1)[1])
                except ValueError:
                    raise ScenarioFileError(f"bad agent id in section [{name}]", lineno)
                current = agent_blocks.setdefault(agent_id, {})
                current_name = name
            elif name in _SECTION_KEYS:
                current = sections.setdefault(name, {})
                current_name = name
            else:
                raise ScenarioFileError(f"unknown section [{name}]", lineno)
            continue
        if "=" not in line:
            raise ScenarioFileError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioFileError("key outside of any section", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        allowed = (
            _AGENT_OVERRIDE_KEYS if current_name.startswith("agent.") else _SECTION_KEYS[current_name]
        )
        if key not in allowed:
            raise ScenarioFileError(f"unknown key {key!r} in section [{current_name}]", lineno)
        if key in current:
            raise ScenarioFileError(f"duplicate key {key!r} in section [{current_name}]", lineno)
        current[key] = (value, lineno)
    return sections, agent_blocks


def _get(section: dict, key: str, convert, default=None, required=False, section_name=""):
    if key not in section:
        if required:
            raise ScenarioFileError(f"missing required key {key!r} in section [{section_name}]")
        return default
    value, lineno = section[key]
    try:
        return convert(value)
    except ScenarioFileError:
        raise
    except ValueError as exc:
        raise ScenarioFileError(f"bad value for {key!r}: {exc}", lineno)


def _to_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _to_rule(value: str) -> RuleKind:
    try:
        return RuleKind(value.lower())
    except ValueError:
        raise ValueError(f"unknown rule {value!r} (expected one of "
                         f"{', '.join(r.value for r in RuleKind)})")


def _to_peer_awareness(value: str) -> bool:
    lowered = value.lower()
    if lowered == "full":
        return True
    if lowered == "none":
        return False
    raise ValueError(f"peer_awareness must be 'none' or 'full', got {value!r}")


def parse_scenario_text(text: str) -> ScenarioBundle:
    sections, agent_blocks = _parse_sections(text)
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ScenarioFileError(f"missing required section [{name}]")

    circ_sec = sections["circuit"]
    r_source = _get(circ_sec, "r_source", float, required=True, section_name="circuit")
    r_base = _get(circ_sec, "r_base", float, required=True, section_name="circuit")
    r_flex = _get(circ_sec, "r_flex", float, required=True, section_name="circuit")

    v_base = _get(sections["source"], "v_base", float, required=True, section_name="source")

    dist_sec = sections.get("disturbance", {})
    t_start = _get(dist_sec, "t_start", int, default=0)
    t_end = _get(dist_sec, "t_end", int, default=0)
    delta_v = _get(dist_sec, "delta_v", float, default=0.0)

    ag = sections["agents"]
    count = _get(ag, "count", int, required=True, section_name="agents")
    if not 1 <= count <= MAX_AGENTS:
        raise ScenarioFileError(f"agent count must be in [1, {MAX_AGENTS}], got {count}")
    period = _get(ag, "period", int, required=True, section_name="agents")
    on_steps = _get(ag, "on_steps", int, required=True, section_name="agents")
    phase_spread = _get(ag, "phase_spread", str, default="uniform")
    if phase_spread != "uniform":
        raise ScenarioFileError(f"unsupported phase_spread {phase_spread!r} (only 'uniform')")
    fleet_rule = _get(ag, "rule", _to_rule, required=True, section_name="agents")
    fleet_p = _get(ag, "p", float, default=None)
    fleet_latch = _get(ag, "p_latch", _to_bool, default=False)
    fleet_max_shift = _get(ag, "max_shift", int, default=None)
    fleet_v_low = _get(ag, "v_low", float, default=None)
    fleet_v_high = _get(ag, "v_high", float, default=None)
    peer_awareness = _get(ag, "peer_awareness", _to_peer_awareness, default=False)

    ctrl_sec = sections.get("controller", {})
    ctrl_enabled = _get(ctrl_sec, "enabled", _to_bool, default=False)
    control_interval = _get(ctrl_sec, "control_interval", int, default=1)
    ctrl_v_nominal = _get(ctrl_sec, "v_nominal", float, default=None)

    run_sec = sections["run"]
    horizon = _get(run_sec, "horizon", int, required=True, section_name="run")
    seed = _get(run_sec, "seed", int, required=True, section_name="run")
    sensing_delay = _get(run_sec, "sensing_delay", int, default=1)
    record_shifts = _get(run_sec, "record_shifts", _to_bool, default=False)

    # band: explicit edges, or a ratio around the calibrated nominal
    band_sec = sections.get("band", {})
    explicit_low = _get(band_sec, "v_low", float, default=None)
    explicit_high = _get(band_sec, "v_high", float, default=None)
    ratio = _get(band_sec, "ratio", float, default=None)
    if (explicit_low is None) != (explicit_high is None):
        raise ScenarioFileError("band v_low and v_high must be given together")
    if explicit_low is not None and ratio is not None:
        raise ScenarioFileError("give either an explicit band or a ratio, not both")

    try:
        circuit = CircuitConfig.homogeneous(count, r_source, r_base, r_flex)
        v_nominal, calibrated = calibrate_nominal(
            circuit, period, on_steps, v_base, band_ratio=ratio if ratio is not None else 0.002
        )
        band = Band(explicit_low, explicit_high) if explicit_low is not None else calibrated
    except ValueError as exc:
        raise ScenarioFileError(str(exc))

    def build_agent(i: int) -> AgentConfig:
        block = agent_blocks.get(i, {})
        rule = _get(block, "rule", _to_rule, default=fleet_rule)
        p = _get(block, "p", float, default=fleet_p)
        if rule is RuleKind.PROBABILISTIC and p is None:
            raise ScenarioFileError(
                f"agent {i} has a probabilistic rule but no reaction probability 'p'"
            )
        return AgentConfig(
            agent_id=i,
            period=_get(block, "period", int, default=period),
            on_steps=_get(block, "on_steps", int, default=on_steps),
            phase=_get(block, "phase", int, default=i % period),
            rule=rule,
            v_low=_get(block, "v_low", float, default=fleet_v_low if fleet_v_low is not None else band.v_low),
            v_high=_get(block, "v_high", float, default=fleet_v_high if fleet_v_high is not None else band.v_high),
            p=p if p is not None else 1.0,
            max_shift=_get(block, "max_shift", int, default=fleet_max_shift),
            p_latch=_get(block, "p_latch", _to_bool, default=fleet_latch),
        )

    for agent_id in agent_blocks:
        if not 0 <= agent_id < count:
            raise ScenarioFileError(f"override block for agent {agent_id} outside 0..{count - 1}")

    try:
        disturbance = Disturbance(t_start, t_end, delta_v)
        agent_configs = tuple(build_agent(i) for i in range(count))
        controller = (
            ControllerConfig(
                v_nominal=ctrl_v_nominal if ctrl_v_nominal is not None else v_nominal,
                band=band,
                control_interval=control_interval,
            )
            if ctrl_enabled
            else None
        )
        scenario = Scenario(
            circuit=circuit,
            v_source_base=v_base,
            disturbance=disturbance,
            agents=agent_configs,
            band=band,
            horizon=horizon,
            seed=seed,
            controller=controller,
            sensing_delay=sensing_delay,
            record_shifts=record_shifts,
        )
    except ValueError as exc:
        raise ScenarioFileError(str(exc))

    decl = standard_declaration(count, peer_awareness=peer_awareness, controller=ctrl_enabled)
    return ScenarioBundle(scenario, decl, tuple(a.rule for a in agent_configs))


def load_scenario(path: str | Path) -> ScenarioBundle:
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"))
