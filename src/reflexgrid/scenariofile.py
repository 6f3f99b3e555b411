"""Scenario text format: ``key = value`` lines under ``[section]`` headers.

Sections: ``[circuit]``, ``[source]``, ``[disturbance]``, ``[agents]``,
``[controller]``, ``[band]``, ``[run]``, plus optional per-agent override
blocks ``[agent.<id>]``.  Parsing is strict: unknown sections or keys are
errors, with line numbers.  ``#`` and ``;`` start comments.

Every key is declared once, in ``_SCHEMA`` (each section's keys with a
converter and a default) or ``_AGENT_FIELDS`` (the ``AgentConfig`` fields,
which ``[agents]`` sets for the whole fleet and ``[agent.<id>]`` for one
agent).  The ``[agents]`` section is a homogeneous shorthand (one fleet
sharing parameters, phases spread uniformly); per-agent blocks override
single agents.  The band may be given explicitly or as a ratio around the
calibrated nominal voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
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

    @property
    def rules(self) -> tuple[RuleKind, ...]:
        return tuple(map(attrgetter("rule"), self.scenario.agents))


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


# key: (converter, default).  A default of ``...`` marks a required key, and
# a section with one is a required section; a default of None leaves an
# absent key out of the converted section.
_AGENT_FIELDS = {
    "period": (int, ...),
    "on_steps": (int, ...),
    "phase": (int, None),
    "rule": (_to_rule, ...),
    "p": (float, None),
    "max_shift": (int, None),
    "v_low": (float, None),
    "v_high": (float, None),
}
_SCHEMA = {
    "circuit": {"r_source": (float, ...), "r_base": (float, ...), "r_flex": (float, ...)},
    "source": {"v_base": (float, ...)},
    "disturbance": {"t_start": (int, 0), "t_end": (int, 0), "delta_v": (float, 0.0)},
    "agents": {
        "count": (int, ...),
        "phase_spread": (str, "uniform"),
        "peer_awareness": (_to_peer_awareness, False),
        # the fleet's phases are spread; only an [agent.<id>] block sets one
        **{key: spec for key, spec in _AGENT_FIELDS.items() if key != "phase"},
    },
    "controller": {
        "enabled": (_to_bool, False),
        "control_interval": (int, 1),
        "v_nominal": (float, None),
    },
    "run": {
        "horizon": (int, ...),
        "seed": (int, ...),
        "sensing_delay": (int, 1),
        "record_shifts": (_to_bool, False),
    },
    "band": {"ratio": (float, None), "v_low": (float, None), "v_high": (float, None)},
}
# the largest fleet a scenario file may declare: set-up runs Python per
# distinct config and per required awareness word, and `reflexgrid
# validate` of scenario A at this count takes about 0.2 s and 60 MiB on a
# 2-vCPU VM
MAX_AGENTS = 100_000
# the longest run a scenario file may declare: the trace holds four 8-byte
# values per step (v_source, v_load, i_total, n_flex_on), 1 GiB at this bound
MAX_HORIZON = 2**30 // 32


def _parse_sections(text: str) -> tuple[dict, dict]:
    """Raw sections: {name: {key: (value, line)}}, plus per-agent blocks."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    agent_blocks: dict[int, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    current_name = ""
    allowed: dict = {}
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
                current, allowed = agent_blocks.setdefault(agent_id, {}), _AGENT_FIELDS
            elif name in _SCHEMA:
                current, allowed = sections.setdefault(name, {}), _SCHEMA[name]
            else:
                raise ScenarioFileError(f"unknown section [{name}]", lineno)
            current_name = name
            continue
        if "=" not in line:
            raise ScenarioFileError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioFileError("key outside of any section", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ScenarioFileError(f"unknown key {key!r} in section [{current_name}]", lineno)
        if key in current:
            raise ScenarioFileError(f"duplicate key {key!r} in section [{current_name}]", lineno)
        current[key] = (value, lineno)
    return sections, agent_blocks


def _convert(raw: dict, schema: dict) -> dict:
    """The keys given in one raw section, converted by their schema entries."""
    values = {}
    for key, (value, lineno) in raw.items():
        try:
            values[key] = schema[key][0](value)
        except ValueError as exc:
            raise ScenarioFileError(f"bad value for {key!r}: {exc}", lineno)
    return values


def _section(sections: dict, name: str) -> dict:
    """Section ``name`` converted, with the defaults of the keys it omits."""
    values = _convert(sections.get(name, {}), _SCHEMA[name])
    for key, (_, default) in _SCHEMA[name].items():
        if key in values or default is None:
            continue
        if default is ...:
            if name not in sections:
                raise ScenarioFileError(f"missing required section [{name}]")
            raise ScenarioFileError(f"missing required key {key!r} in section [{name}]")
        values[key] = default
    return values


def parse_scenario_text(text: str) -> ScenarioBundle:
    sections, agent_blocks = _parse_sections(text)
    circ, source, dist, fleet, ctrl, run, band_sec = (_section(sections, name) for name in _SCHEMA)

    count = fleet.pop("count")
    if not 1 <= count <= MAX_AGENTS:
        raise ScenarioFileError(f"agent count must be in [1, {MAX_AGENTS}], got {count}")
    if not 1 <= run["horizon"] <= MAX_HORIZON:
        raise ScenarioFileError(f"horizon must be in [1, {MAX_HORIZON}], got {run['horizon']}")
    phase_spread = fleet.pop("phase_spread")
    if phase_spread != "uniform":
        raise ScenarioFileError(f"unsupported phase_spread {phase_spread!r} (only 'uniform')")
    peer_awareness = fleet.pop("peer_awareness")
    ctrl_enabled = ctrl.pop("enabled")

    # band: explicit edges, or a ratio around the calibrated nominal
    if ("v_low" in band_sec) != ("v_high" in band_sec):
        raise ScenarioFileError("band v_low and v_high must be given together")
    if "v_low" in band_sec and "ratio" in band_sec:
        raise ScenarioFileError("give either an explicit band or a ratio, not both")

    for agent_id in agent_blocks:
        if not 0 <= agent_id < count:
            raise ScenarioFileError(f"override block for agent {agent_id} outside 0..{count - 1}")
    overrides = {i: _convert(block, _AGENT_FIELDS) for i, block in agent_blocks.items()}

    period = fleet["period"]
    try:
        circuit = CircuitConfig.homogeneous(count, **circ)
        ratio = {"band_ratio": band_sec["ratio"]} if "ratio" in band_sec else {}
        v_nominal, band = calibrate_nominal(
            circuit, period, fleet["on_steps"], source["v_base"], **ratio
        )
        if "v_low" in band_sec:
            band = Band(**band_sec)
        fleet = {"v_low": band.v_low, "v_high": band.v_high, **fleet}
        disturbance = Disturbance(**dist)
        # one config per phase and one per [agent.<id>] block, built in the
        # order of the lowest id that uses each, so that the first error
        # names the lowest offending agent; a phase whose every agent has a
        # block gets none
        phases = min(period, count)
        uses = [(i, i % period, block) for i, block in overrides.items()]
        for phase in range(phases):
            i = phase
            while i in overrides:  # bounded by the blocks in all
                i += period
            if i < count:
                uses.append((i, phase, None))
        by_phase: list = [None] * phases
        own: dict[int, AgentConfig] = {}
        for i, phase, block in sorted(uses, key=itemgetter(0)):
            fields = {"phase": phase, **fleet, **(block or {})}
            if fields["rule"] is RuleKind.PROBABILISTIC and "p" not in fields:
                raise ScenarioFileError(
                    f"agent {i} has a probabilistic rule but no reaction probability 'p'"
                )
            if block is None:
                by_phase[phase] = AgentConfig(**fields)
            else:
                own[i] = AgentConfig(**fields)
        # the fleet by list repetition, then each block's agent
        agents = (by_phase * -(-count // phases))[:count]
        for i, config in own.items():
            agents[i] = config
        controller = ControllerConfig(**{"v_nominal": v_nominal, **ctrl}) if ctrl_enabled else None
        scenario = Scenario(circuit, source["v_base"], disturbance, tuple(agents), band,
                            controller=controller, **run)
    except ValueError as exc:
        raise ScenarioFileError(str(exc))

    decl = standard_declaration(count, peer_awareness=peer_awareness, controller=ctrl_enabled)
    return ScenarioBundle(scenario, decl)


def load_scenario(path: str | Path) -> ScenarioBundle:
    # a leading byte-order mark is dropped after decoding, so that a decode
    # error still gives its offset in the file
    return parse_scenario_text(Path(path).read_text(encoding="utf-8").removeprefix("\ufeff"))
