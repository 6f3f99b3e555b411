"""Wiring-to-polynomial derivation and the rule-requirement validator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflexgrid.awareness
from reflexgrid.agents import RuleKind
from reflexgrid.algebra import Atom, Word, contains_word, equals, parse
from reflexgrid.awareness import (
    AwarenessDecl,
    Violation,
    derive_structure,
    rule_requirements,
    standard_declaration,
    validate_awareness,
)

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
    assert validate_awareness(decl, rules) == sorted_violations(decl, rules)


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
