"""Wiring-to-polynomial derivation and the rule-requirement validator."""

import gc
import pickle
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflexgrid.awareness
from reflexgrid.agents import RuleKind
from reflexgrid.algebra import Atom, Word, contains_word, equals, indexed_atoms, parse
from reflexgrid.awareness import (
    AwarenessDecl,
    Violation,
    _FactoredStructure,
    derive_structure,
    rule_requirements,
    standard_declaration,
    validate_awareness,
)
from reflexgrid.scenariofile import load_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"
T = Atom("T")
C = Atom("c")


class TestDeriveStructure:
    def test_selfish_fleet(self):
        decl = standard_declaration(3)
        assert equals(derive_structure(decl), parse("T(1+a0+a1+a2)"))

    def test_mutual_awareness_fleet(self):
        decl = standard_declaration(2, peer_awareness=True)
        assert equals(derive_structure(decl), parse("T(1+a0+a1+(a0+a1)a0+(a0+a1)a1)"))

    def test_controlled_fleet(self):
        decl = standard_declaration(2, controller=True)
        assert equals(derive_structure(decl), parse("T(1+c+a0+a1)+Tc(a0+a1)"))

    def test_root_word_always_present(self):
        for decl in (
            standard_declaration(1),
            standard_declaration(4, peer_awareness=True),
            standard_declaration(2, controller=True),
        ):
            assert contains_word(derive_structure(decl), Word((T,)))

    def test_monotone_in_wiring(self):
        base = standard_declaration(3)
        for richer in (
            standard_declaration(3, peer_awareness=True),
            standard_declaration(3, controller=True),
            standard_declaration(3, peer_awareness=True, controller=True),
        ):
            assert derive_structure(base).words <= derive_structure(richer).words

    def test_relabeling_equivariance(self):
        # permuting agents permutes words; as sets the structures agree
        # whenever the wiring is symmetric
        n = 4
        decl = standard_declaration(n, peer_awareness=True)
        structure = derive_structure(decl)
        perm = [2, 0, 3, 1]
        remap = {Atom("a", i): Atom("a", perm[i]) for i in range(n)}
        permuted_words = {
            Word(tuple(remap.get(a, a) for a in w.atoms)) for w in structure.words
        }
        assert permuted_words == set(structure.words)

    def test_partial_sensing(self):
        decl = AwarenessDecl(
            root=T,
            agent_atoms=(Atom("a", 0), Atom("a", 1)),
            senses_root=(True, False),
            peer_images=(frozenset(), frozenset({Atom("a", 0)})),
        )
        assert equals(derive_structure(decl), parse("T + Ta0 + Ta0a1"))

    def test_wiring_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AwarenessDecl(
                root=T,
                agent_atoms=(Atom("a", 0),),
                senses_root=(True, True),
                peer_images=(frozenset(),),
            )

    def test_controller_wiring_requires_atom(self):
        with pytest.raises(ValueError):
            AwarenessDecl(
                root=T,
                agent_atoms=(Atom("a", 0),),
                senses_root=(True,),
                peer_images=(frozenset(),),
                controller_atom=None,
                controller_senses_root=True,
            )


class TestRuleRequirements:
    def test_passive_needs_nothing(self):
        assert rule_requirements(RuleKind.PASSIVE, T, Atom("a", 0), [Atom("a", 0)]) == frozenset()

    def test_reactive_needs_own_image_of_root(self):
        req = rule_requirements(RuleKind.REACTIVE, T, Atom("a", 1), [Atom("a", 0), Atom("a", 1)])
        assert req == {Word.of("Ta1")}

    def test_probabilistic_needs_images_of_every_policy(self):
        atoms = [Atom("a", 0), Atom("a", 1)]
        req = rule_requirements(RuleKind.PROBABILISTIC, T, Atom("a", 1), atoms)
        assert req == {Word.of("Ta1"), Word.of("Ta0a1"), Word.of("Ta1a1")}

    def test_commanded_needs_controller_channel(self):
        req = rule_requirements(RuleKind.COMMANDED, T, Atom("a", 0), [Atom("a", 0)], C)
        assert req == {Word.of("Tca0")}
        with pytest.raises(ValueError):
            rule_requirements(RuleKind.COMMANDED, T, Atom("a", 0), [Atom("a", 0)], None)


class TestValidateAwareness:
    def test_matrix(self):
        n = 5
        wiring_a = standard_declaration(n)
        wiring_b = standard_declaration(n, peer_awareness=True)
        wiring_c = standard_declaration(n, controller=True)
        assert validate_awareness(wiring_a, [RuleKind.REACTIVE] * n) == []
        assert validate_awareness(wiring_b, [RuleKind.PROBABILISTIC] * n) == []
        assert validate_awareness(wiring_c, [RuleKind.COMMANDED] * n) == []
        violations = validate_awareness(wiring_a, [RuleKind.PROBABILISTIC] * n)
        assert len(violations) == n * n  # n missing peer images per agent
        # without a controller, each commanded agent lacks its instruction word
        violations = validate_awareness(wiring_a, [RuleKind.COMMANDED] * n)
        assert [str(v.missing) for v in violations] == [f"Tca{i}" for i in range(n)]

    def test_violation_message_format(self):
        violations = validate_awareness(standard_declaration(2), [RuleKind.PROBABILISTIC] * 2)
        assert (
            str(violations[0])
            == "agent 0: rule probabilistic requires Ta0a0 not present in structure of awareness"
        )

    def test_mixed_rules(self):
        n = 3
        wiring = standard_declaration(n)
        rules = [RuleKind.PASSIVE, RuleKind.REACTIVE, RuleKind.PROBABILISTIC]
        violations = validate_awareness(wiring, rules)
        assert {v.agent_id for v in violations} == {2}
        assert len(violations) == n

    def test_rule_count_must_match(self):
        with pytest.raises(ValueError):
            validate_awareness(standard_declaration(2), [RuleKind.PASSIVE])


def sorted_violations(decl, rules):
    """Every agent's requirements sorted canonically, then filtered: the reference order."""
    structure = derive_structure(decl)
    out = []
    for i, (a, rule) in enumerate(zip(decl.agent_atoms, rules)):
        required = rule_requirements(rule, decl.root, a, decl.agent_atoms, decl.controller_atom)
        for word in sorted(required, key=lambda w: w.sort_key):
            if not contains_word(structure, word):
                out.append(Violation(agent_id=i, rule=rule, missing=word))
    return out


@st.composite
def wirings(draw):
    """A random wiring and one rule per agent; peers and channels may be missing."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from("abxy"), st.none() | st.integers(0, 12)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    atoms = tuple(Atom(letter, index) for letter, index in keys)
    # several agents may share one atom; the structure unions their wiring
    repeats = draw(st.lists(st.sampled_from(atoms), max_size=2))
    atoms = tuple(draw(st.permutations(atoms + tuple(repeats))))
    n = len(atoms)
    has_controller = draw(st.booleans())
    bools = st.lists(st.booleans(), min_size=n, max_size=n)
    decl = AwarenessDecl(
        root=T,
        agent_atoms=atoms,
        senses_root=tuple(draw(bools)),
        peer_images=tuple(
            frozenset(draw(st.lists(st.sampled_from(atoms), max_size=n))) for _ in atoms
        ),
        controller_atom=C if has_controller else None,
        controller_senses_root=has_controller and draw(st.booleans()),
        controller_channel=tuple(draw(bools)) if has_controller else (),
    )
    # a commanded rule without a controller atom is rejected, not validated
    kinds = [k for k in RuleKind if has_controller or k is not RuleKind.COMMANDED]
    rules = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    return decl, rules


@settings(max_examples=200, deadline=None)
@given(wirings())
def test_validate_matches_sorted_reference(wiring):
    decl, rules = wiring
    violations = validate_awareness(decl, rules)
    assert violations == sorted_violations(decl, rules)
    assert all(type(v.missing) is Word for v in violations)


N_STANDARD = 6
STANDARD_WIRINGS = {
    "selfish": standard_declaration(N_STANDARD),
    "peer": standard_declaration(N_STANDARD, peer_awareness=True),
    "controller": standard_declaration(N_STANDARD, controller=True),
}
MIXED_RULES = [RuleKind.PROBABILISTIC, RuleKind.COMMANDED, RuleKind.PASSIVE, RuleKind.REACTIVE] * 2


@pytest.mark.parametrize("wiring", list(STANDARD_WIRINGS))
@pytest.mark.parametrize("rule", [*RuleKind, None], ids=lambda r: "mixed" if r is None else r.value)
def test_standard_wirings_match_per_word_reference(wiring, rule):
    decl = STANDARD_WIRINGS[wiring]
    rules = MIXED_RULES[:N_STANDARD] if rule is None else [rule] * N_STANDARD
    violations = validate_awareness(decl, rules)
    assert violations == sorted_violations(decl, rules)
    # each missing word is a Word of Atoms, not the tuple it was looked up as
    assert all(type(v.missing) is Word and all(type(a) is Atom for a in v.missing) for v in violations)
    if rule is not None:
        n = N_STANDARD
        expected = {
            RuleKind.PROBABILISTIC: 0 if wiring == "peer" else n * n,
            RuleKind.COMMANDED: 0 if wiring == "controller" else n,
        }.get(rule, 0)
        assert len(violations) == expected


def test_one_module_level_lookup_per_required_word(monkeypatch):
    n = 4
    decl = standard_declaration(n, peer_awareness=True)
    calls = []

    def counting(structure, word):
        calls.append(word)
        return contains_word(structure, word)

    monkeypatch.setattr(reflexgrid.awareness, "contains_word", counting)
    validate_awareness(decl, [RuleKind.PROBABILISTIC] * n)
    assert len(calls) == n * (n + 1)


def _replace_one(word, alphabet):
    for i in range(len(word)):
        for x in alphabet:
            yield Word(word.atoms[:i] + (x,) + word.atoms[i + 1 :])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_factored_membership_matches_derived_structure(data):
    decl, _ = data.draw(wirings())
    words = derive_structure(decl).words
    alphabet = sorted({T, C, Atom("z"), *decl.agent_atoms}, key=lambda a: a.sort_key)
    drawn = data.draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=4), max_size=20))
    probes = [Word(tuple(atoms)) for atoms in drawn]
    # every member, and every word one atom away from one, where a wrong answer hides
    probes += [w for member in words for w in (member, *_replace_one(member, alphabet))]
    structure = _FactoredStructure(decl)
    for word in probes:
        assert (word in structure) == (word in words), word
        # the validator looks words up as plain tuples of their atoms
        assert contains_word(structure, tuple(word)) == contains_word(words, tuple(word)) == (word in words)


def test_repeated_atoms_are_looked_up_once(monkeypatch):
    a0, a1 = Atom("a", 0), Atom("a", 1)
    decl = AwarenessDecl(
        root=T,
        agent_atoms=(a0, a1, a0),
        senses_root=(False, True, False),
        peer_images=(frozenset(), frozenset({a1}), frozenset()),
    )
    calls = []

    def counting(structure, word):
        calls.append(word)
        return contains_word(structure, word)

    monkeypatch.setattr(reflexgrid.awareness, "contains_word", counting)
    violations = validate_awareness(decl, [RuleKind.PROBABILISTIC] * 3)
    assert len(calls) == 3 * 3  # Ta, Ta0a and Ta1a for each agent
    missing = [(v.agent_id, str(v.missing)) for v in violations]
    a0_missing = ["Ta0", "Ta0a0", "Ta1a0"]
    assert missing == [(0, w) for w in a0_missing] + [(1, "Ta0a1")] + [(2, w) for w in a0_missing]


def test_validation_never_lists_the_structure(monkeypatch):
    cases = [
        (standard_declaration(5), [RuleKind.PROBABILISTIC] * 5),
        (standard_declaration(5, peer_awareness=True), [RuleKind.PROBABILISTIC] * 5),
        (
            standard_declaration(5, controller=True),
            [RuleKind.COMMANDED, RuleKind.PROBABILISTIC] * 2 + [RuleKind.REACTIVE],
        ),
    ]
    expected = [sorted_violations(decl, rules) for decl, rules in cases]

    def refuse(decl):
        raise AssertionError("validation listed the structure of awareness")

    monkeypatch.setattr(reflexgrid.awareness, "derive_structure", refuse)
    assert [validate_awareness(decl, rules) for decl, rules in cases] == expected


def test_full_peer_validation_memory_is_linear_in_agents():
    n = 300
    decl = standard_declaration(n, peer_awareness=True)
    rules = [RuleKind.PROBABILISTIC] * n
    tracemalloc.start()
    try:
        violations = validate_awareness(decl, rules)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert violations == []
    # listing the structure's N^2 + N + 1 words instead peaks at about 19 MiB
    assert peak < 2 * 2**20


def test_satisfied_words_set_off_no_garbage_collection():
    # a Word built per required word sets off about a thousand collections
    # over these 1 001 000 lookups; a satisfied word should allocate nothing
    n = 1000
    decl = standard_declaration(n, peer_awareness=True)
    rules = [RuleKind.PROBABILISTIC] * n
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        violations = validate_awareness(decl, rules)
    finally:
        gc.callbacks.remove(count)
        if not was_enabled:
            gc.disable()
    assert violations == []
    assert len(collections) < 20


def test_shipped_b_looks_up_each_required_word_once(monkeypatch):
    # the benchmark pins N(N+1) lookups per validation of B
    bundle = load_scenario(SCENARIOS / "scenario_b.cfg")
    n = bundle.scenario.n_agents
    calls = []

    def counting(structure, word):
        calls.append(word)
        return contains_word(structure, word)

    monkeypatch.setattr(reflexgrid.awareness, "contains_word", counting)
    assert validate_awareness(bundle.awareness, bundle.rules) == []
    assert len(calls) == n * (n + 1)


A0, A1, A2 = Atom("a", 0), Atom("a", 1), Atom("a", 2)
# agent 0 and agent 2 share a0; a2 senses nothing, holds no images and has no channel
SHARED_ATOM_DECL = AwarenessDecl(
    root=T,
    agent_atoms=(A0, A1, A0, A2),
    senses_root=(True, True, False, False),
    peer_images=(frozenset({A1}), frozenset({A0, A1, A2}), frozenset({A2}), frozenset()),
    controller_atom=C,
    controller_senses_root=True,
    controller_channel=(False, True, True, False),
)


@pytest.mark.parametrize(
    "rules",
    [
        [RuleKind.PROBABILISTIC] * 4,
        [RuleKind.REACTIVE] * 4,
        [RuleKind.COMMANDED] * 4,
        [RuleKind.PASSIVE] * 4,
        [RuleKind.PROBABILISTIC, RuleKind.COMMANDED, RuleKind.REACTIVE, RuleKind.PROBABILISTIC],
        [RuleKind.COMMANDED, RuleKind.PASSIVE, RuleKind.PROBABILISTIC, RuleKind.REACTIVE],
    ],
)
def test_shared_atoms_and_missing_wiring_match_per_word_reference(rules):
    violations = validate_awareness(SHARED_ATOM_DECL, rules)
    assert violations == sorted_violations(SHARED_ATOM_DECL, rules)
    # a plain tuple of atoms equals its Word, so the type is checked apart
    assert all(type(v.missing) is Word for v in violations)
    # a2 is wired to nothing, so every word its rule requires is missing
    expected_a2 = {
        RuleKind.PASSIVE: 0,
        RuleKind.REACTIVE: 1,
        RuleKind.PROBABILISTIC: 4,  # T a2 and T p a2 for the three distinct atoms
        RuleKind.COMMANDED: 1,
    }[rules[3]]
    assert sum(v.agent_id == 3 for v in violations) == expected_a2


def test_indexed_atoms_equal_the_atoms_built_one_by_one():
    atoms = indexed_atoms("a", 300)
    assert atoms == tuple(Atom("a", i) for i in range(300))
    assert [hash(a) for a in atoms] == [hash(Atom("a", i)) for i in range(300)]
    assert pickle.loads(pickle.dumps(atoms)) == atoms
    assert indexed_atoms("x", 0) == ()
    with pytest.raises(ValueError):
        indexed_atoms("ab", 3)
