"""Information layer: which element holds images of what.

A scenario's wiring (who senses the physical signal, who holds images of
whose policies, who receives controller instructions) determines a
polynomial over reflection words.  Each decision rule needs certain words
to be present, or the agent would be reacting to information it does not
have; the validator reports every missing word.

The validator never lists that polynomial.  Full peer awareness has N² + N + 1
words, but in the factored form the paper writes,
T(1 + [c senses T]·c + Σ_a ([a senses T] + images(a) + [a has a channel]·c)·a),
deciding whether a word is present costs a few lookups in the wiring itself.  So
validation takes time linear in the words required and memory linear in the
agents.  ``derive_structure`` still builds the full polynomial; it is the
reference that the factored membership is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .agents import RuleKind
from .algebra import Atom, Polynomial, Word, contains_word


@dataclass(frozen=True)
class AwarenessDecl:
    """Wiring of the information layer for one scenario.

    ``peer_images[i]`` holds the atoms whose reaction policies agent i has
    an image of (possibly including its own).  ``controller_channel[i]``
    says whether agent i receives instructions derived from the
    controller's view of the physical process.
    """

    root: Atom
    agent_atoms: tuple[Atom, ...]
    senses_root: tuple[bool, ...]
    peer_images: tuple[frozenset[Atom], ...]
    controller_atom: Atom | None = None
    controller_senses_root: bool = False
    controller_channel: tuple[bool, ...] = ()

    def __post_init__(self):
        n = len(self.agent_atoms)
        if len(self.senses_root) != n or len(self.peer_images) != n:
            raise ValueError("per-agent wiring lists must match the agent count")
        if not self.controller_channel:
            object.__setattr__(self, "controller_channel", (False,) * n)
        elif len(self.controller_channel) != n:
            raise ValueError("controller_channel must match the agent count")
        if self.controller_atom is None and (
            self.controller_senses_root or any(self.controller_channel)
        ):
            raise ValueError("controller wiring declared without a controller atom")


@dataclass(frozen=True)
class Violation:
    agent_id: int
    rule: RuleKind
    missing: Word

    def __str__(self) -> str:
        return (
            f"agent {self.agent_id}: rule {self.rule.value} requires {self.missing}"
            " not present in structure of awareness"
        )


def standard_declaration(
    n_agents: int,
    peer_awareness: bool = False,
    controller: bool = False,
) -> AwarenessDecl:
    """The wiring the simulator physically provides.

    Every agent senses the load bus.  ``peer_awareness`` grants every agent
    an image of every agent's policy (its own included), the mutual
    knowledge a randomized-response design relies on.  ``controller`` adds
    the sensing central planner and its instruction channel to every agent.
    """
    agent_atoms = tuple(Atom("a", i) for i in range(n_agents))
    peers = frozenset(agent_atoms) if peer_awareness else frozenset()
    return AwarenessDecl(
        root=Atom("T"),
        agent_atoms=agent_atoms,
        senses_root=(True,) * n_agents,
        peer_images=(peers,) * n_agents,
        controller_atom=Atom("c") if controller else None,
        controller_senses_root=controller,
        controller_channel=(controller,) * n_agents,
    )


class _FactoredStructure:
    """Membership in ``derive_structure(decl)`` without listing its words.

    Per agent atom it keeps whether the atom senses the root, the atoms it
    holds images of, and whether it has a controller channel.  The image sets
    are the declaration's own frozensets, not copies, unless several agents
    share one atom: the structure then holds the union of their wirings, as
    ``derive_structure`` does.
    """

    __slots__ = ("root", "controller", "sensing_controller", "agents")

    def __init__(self, decl: AwarenessDecl):
        self.root = decl.root
        self.controller = decl.controller_atom
        self.sensing_controller = decl.controller_atom if decl.controller_senses_root else None
        agents: dict[Atom, tuple[bool, frozenset[Atom], bool]] = {}
        wiring = zip(decl.agent_atoms, decl.senses_root, decl.peer_images, decl.controller_channel)
        for a, senses, images, channel in wiring:
            prior = agents.get(a)
            if prior is not None:
                was_sensing, had_images, had_channel = prior
                senses = senses or was_sensing
                images = images if images is had_images else images | had_images
                channel = channel or had_channel
            agents[a] = (senses, images, channel)
        self.agents = agents

    def __contains__(self, word: Word) -> bool:
        atoms = word.atoms
        n = len(atoms)
        # identity first: the validator's words hold the declaration's own root
        if n == 0 or n > 3 or (atoms[0] is not self.root and atoms[0] != self.root):
            return False
        if n == 1:
            return True
        if n == 2:  # T a for an agent that senses, or T c
            entry = self.agents.get(atoms[1])
            if entry is not None and entry[0]:
                return True
            return self.sensing_controller is not None and atoms[1] == self.sensing_controller
        # T p a for p among a's images, or T c a over a channel
        entry = self.agents.get(atoms[2])
        if entry is None:
            return False
        _, images, channel = entry
        return atoms[1] in images or (channel and atoms[1] == self.controller)


def derive_structure(decl: AwarenessDecl) -> Polynomial:
    """The reflexive-system polynomial afforded by the wiring."""
    words = [Word((decl.root,))]
    c = decl.controller_atom
    if c is not None and decl.controller_senses_root:
        words.append(Word((decl.root, c)))
    for i, a in enumerate(decl.agent_atoms):
        if decl.senses_root[i]:
            words.append(Word((decl.root, a)))
        for peer in decl.peer_images[i]:
            words.append(Word((decl.root, peer, a)))
        if decl.controller_channel[i]:
            if c is None:
                raise ValueError("controller channel without a controller atom")
            words.append(Word((decl.root, c, a)))
    return Polynomial.of(words)


def _required_words(
    rule: RuleKind,
    root: Atom,
    agent_atom: Atom,
    agent_atoms: Sequence[Atom],
    controller_atom: Atom | None,
) -> list[Word]:
    """The words of ``rule_requirements``, repeated once per repeat in ``agent_atoms``."""
    if rule is RuleKind.PASSIVE:
        return []
    if rule is RuleKind.REACTIVE:
        return [Word((root, agent_atom))]
    if rule is RuleKind.PROBABILISTIC:
        # the agent senses the signal and holds an image of how every agent,
        # itself included, will react to it
        return [Word((root, agent_atom)), *(Word((root, peer, agent_atom)) for peer in agent_atoms)]
    if rule is RuleKind.COMMANDED:
        if controller_atom is None:
            raise ValueError("a commanded rule requires a controller atom")
        return [Word((root, controller_atom, agent_atom))]
    raise ValueError(f"unknown rule kind: {rule!r}")


def rule_requirements(
    rule: RuleKind,
    root: Atom,
    agent_atom: Atom,
    agent_atoms: Sequence[Atom],
    controller_atom: Atom | None = None,
) -> frozenset[Word]:
    """Words a rule needs in the structure of awareness to be coherent."""
    return frozenset(_required_words(rule, root, agent_atom, agent_atoms, controller_atom))


def validate_awareness(decl: AwarenessDecl, rules: Sequence[RuleKind]) -> list[Violation]:
    """Every requirement of every agent's rule, checked against the wiring.

    Returns one record per missing word, ordered by agent then canonically
    by word; an empty list means the scenario is awareness-consistent.
    """
    if len(rules) != len(decl.agent_atoms):
        raise ValueError("one rule per agent is required")
    structure = _FactoredStructure(decl)
    # without repeated atoms no required word repeats, so each is looked up once
    distinct_atoms = tuple(dict.fromkeys(decl.agent_atoms))
    violations: list[Violation] = []
    for i, (a, rule) in enumerate(zip(decl.agent_atoms, rules)):
        required = _required_words(rule, decl.root, a, distinct_atoms, decl.controller_atom)
        missing = [word for word in required if not contains_word(structure, word)]
        missing.sort(key=lambda w: w.sort_key)
        violations += (Violation(agent_id=i, rule=rule, missing=word) for word in missing)
    return violations
