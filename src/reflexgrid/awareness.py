"""Information layer: which element holds images of what.

A scenario's wiring (who senses the physical signal, who holds images of
whose policies, who receives controller instructions) determines a
polynomial over reflection words.  Each decision rule needs certain words
to be present, or the agent would be reacting to information it does not
have; the validator reports every missing word.
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


def rule_requirements(
    rule: RuleKind,
    root: Atom,
    agent_atom: Atom,
    agent_atoms: Sequence[Atom],
    controller_atom: Atom | None = None,
) -> frozenset[Word]:
    """Words a rule needs in the structure of awareness to be coherent."""
    if rule is RuleKind.PASSIVE:
        return frozenset()
    if rule is RuleKind.REACTIVE:
        return frozenset([Word((root, agent_atom))])
    if rule is RuleKind.PROBABILISTIC:
        # the agent senses the signal and holds an image of how every agent,
        # itself included, will react to it
        own = Word((root, agent_atom))
        peers = (Word((root, peer, agent_atom)) for peer in agent_atoms)
        return frozenset([own, *peers])
    if rule is RuleKind.COMMANDED:
        if controller_atom is None:
            raise ValueError("a commanded rule requires a controller atom")
        return frozenset([Word((root, controller_atom, agent_atom))])
    raise ValueError(f"unknown rule kind: {rule!r}")


def validate_awareness(decl: AwarenessDecl, rules: Sequence[RuleKind]) -> list[Violation]:
    """Every requirement of every agent's rule, checked against the wiring.

    Returns one record per missing word, ordered by agent then canonically
    by word; an empty list means the scenario is awareness-consistent.
    """
    if len(rules) != len(decl.agent_atoms):
        raise ValueError("one rule per agent is required")
    structure = derive_structure(decl)
    violations: list[Violation] = []
    for i, (a, rule) in enumerate(zip(decl.agent_atoms, rules)):
        required = rule_requirements(rule, decl.root, a, decl.agent_atoms, decl.controller_atom)
        missing = [word for word in required if not contains_word(structure, word)]
        missing.sort(key=lambda w: w.sort_key)
        violations += (Violation(agent_id=i, rule=rule, missing=word) for word in missing)
    return violations
