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
agents and the violations found.  ``derive_structure`` still builds the full
polynomial; it is the reference that the factored membership is tested
against.

Every word a rule requires of agent a ends in a, after a prefix that does
not depend on a: T for a reactive agent, T c for a commanded one, and T
then T p for every agent p for a probabilistic one.  So the validator
zips each prefix with the atoms of the rule's agents and looks every word
up as zip's tuple of its atoms, which equals the ``Word``.  zip reuses
that tuple, so a present word allocates nothing and the only Python it
runs is the one ``contains_word`` lookup; only a missing word is built as
a ``Word``, for its violation.  Set-up likewise builds the N agent atoms
in one pass and the factored structure with one ``dict``.  Atoms and
words are tuples, so hashing and comparing them runs no Python.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_, not_
from typing import Sequence

from .agents import RuleKind
from .algebra import Atom, Polynomial, Word, contains_word, indexed_atoms


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
    knowledge a randomized-response design relies on.  The controller atom
    ``c`` is always named, so a commanded rule can say which word it
    lacks; ``controller`` adds the sensing central planner and its
    instruction channel to every agent.
    """
    agent_atoms = indexed_atoms("a", n_agents)
    peers = frozenset(agent_atoms) if peer_awareness else frozenset()
    return AwarenessDecl(
        root=Atom("T"),
        agent_atoms=agent_atoms,
        senses_root=(True,) * n_agents,
        peer_images=(peers,) * n_agents,
        controller_atom=Atom("c"),
        controller_senses_root=controller,
        controller_channel=(controller,) * n_agents,
    )


class _FactoredStructure:
    """Membership in ``derive_structure(decl)`` without listing its words.

    Per agent atom it keeps whether the atom senses the root, the atoms it
    holds images of, and whether it has a controller channel, keyed in the
    order the atoms first appear.  The image sets are the declaration's own
    frozensets, not copies, unless several agents share one atom: the
    structure then holds the union of their wirings, as ``derive_structure``
    does, and only those agents are visited again.
    """

    __slots__ = ("root", "controller", "sensing_controller", "agents")

    def __init__(self, decl: AwarenessDecl):
        self.root = decl.root
        self.controller = decl.controller_atom
        self.sensing_controller = decl.controller_atom if decl.controller_senses_root else None
        atoms = decl.agent_atoms
        wiring = tuple(zip(decl.senses_root, decl.peer_images, decl.controller_channel))
        agents: dict[Atom, tuple[bool, frozenset[Atom], bool]] = dict(zip(atoms, wiring))
        if len(agents) < len(atoms):
            shared = {a for a, count in Counter(atoms).items() if count > 1}
            merged: dict[Atom, tuple[bool, frozenset[Atom], bool]] = {}
            for i in compress(range(len(atoms)), map(shared.__contains__, atoms)):
                senses, images, channel = wiring[i]
                prior = merged.get(atoms[i])
                if prior is not None:
                    was_sensing, had_images, had_channel = prior
                    senses = senses or was_sensing
                    images = images if images is had_images else images | had_images
                    channel = channel or had_channel
                merged[atoms[i]] = (senses, images, channel)
            agents.update(merged)
        self.agents = agents

    def __contains__(self, word: Word) -> bool:
        n = len(word)
        # identity first: the validator's words hold the declaration's own root
        if not n or (word[0] is not self.root and word[0] != self.root):
            return False
        # first, as full peer awareness requires N² of these N(N+1) words:
        # T p a for p among a's images, or T c a over a channel
        if n == 3:
            entry = self.agents.get(word[2])
            if entry is None:
                return False
            _, images, channel = entry
            return word[1] in images or (channel and word[1] == self.controller)
        if n == 2:  # T a for an agent that senses, or T c
            entry = self.agents.get(word[1])
            if entry is not None and entry[0]:
                return True
            return self.sensing_controller is not None and word[1] == self.sensing_controller
        return n == 1


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
        if decl.controller_channel[i]:  # __post_init__ requires c for a channel
            words.append(Word((decl.root, c, a)))
    return Polynomial.of(words)


def _prefixes(
    rule: RuleKind,
    root: Atom,
    agent_atoms: Sequence[Atom],
    controller_atom: Atom | None,
) -> list[tuple[Atom, ...]]:
    """What comes before the agent's own atom in each word ``rule`` requires.

    The prefixes do not depend on the agent; a probabilistic rule has one
    per atom of ``agent_atoms``, so pass each atom once.
    """
    if rule is RuleKind.PASSIVE:
        return []
    if rule is RuleKind.REACTIVE:
        return [(root,)]
    if rule is RuleKind.PROBABILISTIC:
        # the agent senses the signal and holds an image of how every agent,
        # itself included, will react to it
        return [(root,), *zip(repeat(root), agent_atoms)]
    if rule is RuleKind.COMMANDED:
        if controller_atom is None:
            raise ValueError("a commanded rule requires a controller atom")
        return [(root, controller_atom)]
    raise ValueError(f"unknown rule kind: {rule!r}")


def rule_requirements(
    rule: RuleKind,
    root: Atom,
    agent_atom: Atom,
    agent_atoms: Sequence[Atom],
    controller_atom: Atom | None = None,
) -> frozenset[Word]:
    """Words a rule needs in the structure of awareness to be coherent."""
    return frozenset(
        Word(prefix + (agent_atom,)) for prefix in _prefixes(rule, root, agent_atoms, controller_atom)
    )


def validate_awareness(decl: AwarenessDecl, rules: Sequence[RuleKind]) -> list[Violation]:
    """Every requirement of every agent's rule, checked against the wiring.

    Returns one record per missing word, ordered by agent then canonically
    by word; an empty list means the scenario is awareness-consistent.
    """
    n = len(decl.agent_atoms)
    if len(rules) != n:
        raise ValueError("one rule per agent is required")
    structure = _FactoredStructure(decl)
    # without repeated atoms no required word repeats, so each is looked up once
    distinct_atoms = tuple(structure.agents)
    missing: list[tuple[int, Word]] = []
    # the agents of each rule, found by C-level scans (hashing N enum members
    # would call Python once per agent)
    counts = dict(zip(RuleKind, map(rules.count, RuleKind)))
    if sum(counts.values()) != n:
        unknown = next(r for r in rules if not isinstance(r, RuleKind))
        raise ValueError(f"unknown rule kind: {unknown!r}")
    for rule, count in counts.items():
        if not count:
            continue
        ids, owners = range(n), decl.agent_atoms
        if count < n:
            ids = tuple(compress(ids, map(is_, rules, repeat(rule))))
            owners = tuple(map(decl.agent_atoms.__getitem__, ids))
        # each word of a prefix is looked up as zip's tuple of its atoms,
        # which zip reuses, so only a missing word becomes a Word
        for prefix in _prefixes(rule, decl.root, distinct_atoms, decl.controller_atom):
            words = zip(*map(repeat, prefix), owners)
            absent = map(not_, map(contains_word, repeat(structure), words))
            missing += ((ids[k], Word(prefix + (owners[k],))) for k in compress(range(len(owners)), absent))
    missing.sort(key=lambda found: (found[0], found[1].sort_key))
    return [Violation(agent_id=i, rule=rules[i], missing=word) for i, word in missing]
