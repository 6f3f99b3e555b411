"""Fixtures for the algebra: the worked reflexive-system expansions plus
parser and operation behaviour."""

import os
import pickle
import subprocess
import sys

import pytest

import reflexgrid

from reflexgrid.algebra import (
    UNIT,
    ZERO,
    Atom,
    ExpressionError,
    Polynomial,
    Word,
    apply_awareness,
    atom,
    contains_word,
    equals,
    normalize,
    parse,
    reflection_depth,
)


def words(*texts):
    return Polynomial.of(Word.of(t) for t in texts)


class TestWorkedExpansions:
    """The classic evolution sequences, expanded by hand."""

    def test_single_observer(self):
        assert parse("T(1+x)") == words("T", "Tx")
        assert parse("T * (1+x)") == parse("T + Tx")

    def test_two_observers_nested(self):
        # second observer images both the process and the first observer
        assert parse("T(1+x)(1+y)") == parse("T + Tx + (T + Tx)y")
        assert parse("T(1+x)(1+y)") == words("T", "Tx", "Ty", "Txy")

    def test_indirect_observation(self):
        assert equals(parse("T(1+x+y+yz)"), parse("T+Tx+Ty+Tyz"))
        assert not equals(parse("T(1+x+y+z)"), parse("T(1+x+y+yz)"))

    def test_four_player_game_structures(self):
        omega1 = parse("T(1 + x + y + z + w)")
        omega2 = parse("T(1 + x + y + z + w + yx)")
        omega3 = parse("T(1 + x + y + z + w + yx + yxy)")
        assert omega2 == omega1 + words("Tyx")
        assert omega3 == omega2 + words("Tyxy")
        assert not equals(omega1, omega2)
        assert contains_word(omega2, Word.of("Tyx"))
        assert contains_word(omega3, Word.of("Tyxy"))

    def test_grid_structures(self):
        fleet = parse("T(1+a0+a1+a2)")
        assert fleet == words("T", "Ta0", "Ta1", "Ta2")
        mutual = parse("T(1+a0+a1+(a0+a1)a0+(a0+a1)a1)")
        assert mutual == words("T", "Ta0", "Ta1", "Ta0a0", "Ta1a0", "Ta0a1", "Ta1a1")
        controlled = parse("T(1+c+a0+a1)+Tc(a0+a1)")
        assert controlled == words("T", "Tc", "Ta0", "Ta1", "Tca0", "Tca1")


class TestParser:
    def test_unit_literal(self):
        assert parse("1") == UNIT
        assert parse("1") == Polynomial.of([Word()])

    def test_tokenizer_digit_binding(self):
        assert parse("Tx") == words("Tx")
        assert parse("Ta12x") == Polynomial.of([Word.of("T", "a12", "x")])
        # digits bind to the adjacent letter only
        assert parse("T1 1") == Polynomial.of([Word((Atom("T", 1),))])
        assert parse("T11x") == Polynomial.of([Word((Atom("T", 11), Atom("x")))])

    def test_explicit_and_implicit_product_agree(self):
        assert parse("x*y") == parse("x y") == parse("xy")

    def test_power(self):
        assert parse("(x+y)^0") == UNIT
        assert parse("x^3") == words("xxx")
        assert parse("(1+x)^2") == words("1", "x", "xx")

    def test_zero_literal(self):
        assert parse("0") == ZERO
        assert parse("0 + x") == words("x")
        assert parse("0 * x") == ZERO

    def test_unit_cancels_in_products(self):
        assert parse("T*1*1*x") == words("Tx")
        assert parse("1*1") == UNIT

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("T(1+x", "expected ')'", 5),
            ("x^y", "exponent must be a non-negative integer", 2),
            ("x^", "exponent must be a non-negative integer", 2),
            ("+x", "expected a word or '(', got '+'", 0),
            ("x+", "expected a word or '(', got 'end of input'", 2),
            ("()", "expected a word or '(', got ')'", 1),
            ("x)", "unexpected ')'", 1),
            ("2x", "only the literals '0' and '1' are allowed, got '2'", 0),
            ("x^-1", "unexpected character '-'", 2),
            ("a_b", "unexpected character '_'", 1),
            ("  x $", "unexpected character '$'", 4),
            # the end of input sits past trailing whitespace
            ("x  +  ", "expected a word or '(', got 'end of input'", 6),
            ("", "expected a word or '(', got 'end of input'", 0),
        ],
    )
    def test_syntax_errors_carry_position(self, text, message, position):
        with pytest.raises(ExpressionError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    def test_whitespace_ignored(self):
        assert parse(" T ( 1 + x ) ") == parse("T(1+x)")

    def test_deep_nesting_is_an_expression_error(self):
        depth = 5000
        with pytest.raises(ExpressionError, match=r"^expression nested too deeply \(at position \d+\)$") as exc:
            parse("(" * depth + "T" + ")" * depth)
        assert 0 < exc.value.position < depth

    def test_moderate_nesting_still_parses(self):
        assert parse("(" * 100 + "T" + ")" * 100) == words("T")


class TestOperations:
    def test_add_is_union(self):
        assert words("T") + words("Tx") == words("T", "Tx")
        p = words("T", "Tx")
        assert p + ZERO == p
        assert p + p == p

    def test_mul_concatenates_left_then_right(self):
        assert words("T", "Tx") * parse("1+y") == words("T", "Tx", "Ty", "Txy")
        assert words("x") * words("y") == words("xy")
        assert words("x") * words("y") != words("y") * words("x")

    def test_unit_is_two_sided_identity(self):
        p = parse("T+Tx+yz")
        assert p * UNIT == p
        assert UNIT * p == p

    def test_pow_zero_is_unit_even_for_zero(self):
        assert ZERO**0 == UNIT
        assert parse("x+y") ** 0 == UNIT

    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_pow_rejects_an_exponent_that_is_not_a_natural_number(self, n):
        with pytest.raises(ValueError) as exc:
            parse("x") ** n
        assert str(exc.value) == f"exponent must be a non-negative integer, got {n}"

    def test_apply_awareness(self):
        assert apply_awareness(words("T"), [atom("x")]) == words("T", "Tx")
        assert apply_awareness(words("T", "Tx"), [atom("y")]) == words("T", "Tx", "Ty", "Txy")
        assert apply_awareness(UNIT, [atom("x")]) == words("1", "x")
        with pytest.raises(ValueError):
            apply_awareness(words("T"), [])

    def test_contains_word(self):
        p = words("T", "Tx", "Tyx")
        assert contains_word(p, Word.of("Tyx"))
        assert not contains_word(words("T"), Word())
        assert contains_word(words("Tx"), Word.of("T", "1", "x"))

    def test_reflection_depth(self):
        assert reflection_depth(Word.of("T")) == 0
        assert reflection_depth(Word.of("Txy")) == 2
        assert reflection_depth(Word.of("Tyxy")) == 3
        with pytest.raises(ValueError):
            reflection_depth(Word())

    def test_polynomial_is_the_frozenset_of_its_words(self):
        p = words("Tx", "T", "Tyx")
        as_set = frozenset({Word.of("T"), Word.of("Tx"), Word.of("Tyx")})
        assert p == as_set and hash(p) == hash(as_set)
        assert type(p.words) is frozenset and p.words == as_set
        assert list(p) == [Word.of("T"), Word.of("Tx"), Word.of("Tyx")]  # canonical order
        assert Word.of("Tx") in p and Word() not in p and len(p) == 3
        assert not ZERO and ZERO == frozenset() and UNIT == {Word()}
        q = words("x")
        for value in (p + q, p * q, q**2, q**0):
            assert type(value) is Polynomial
        # frozenset's own operators stay frozenset's
        assert type(p | q) is frozenset

    def test_normalize(self):
        assert normalize([Word.of("T", "1", "1", "x")]) == words("Tx")
        assert normalize([Word.of("1", "1")]) == UNIT
        assert normalize([Word.of("Tx"), Word.of("Tx")]) == words("Tx")


class TestCanonicalString:
    def test_sorted_by_length_then_lexicographic(self):
        assert str(words("Tx", "T")) == "T + Tx"
        assert str(parse("T(1+x)(1+y)")) == "T + Tx + Ty + Txy"

    def test_zero_renders_as_zero(self):
        assert str(ZERO) == "0"

    def test_round_trip_example(self):
        assert equals(parse(str(parse("T(1+x)y"))), parse("Ty+Txy"))

    def test_atom_index_ordering(self):
        # absent index sorts before explicit indices
        assert str(words("a1", "a", "a0")) == "a + a0 + a1"


class TestAtoms:
    def test_atom_identity(self):
        assert Atom("a") != Atom("a", 0)
        assert Atom("a", 1) == atom("a1")
        assert atom("a") == Atom("a")

    def test_atoms_and_words_are_their_tuples(self):
        t, a3 = Atom("T"), Atom("a", 3)
        assert (a3.letter, a3.index) == ("a", 3)
        assert a3 == ("a", 3) and hash(a3) == hash(("a", 3))
        assert t == ("T", None) and hash(t) == hash(("T", None))
        ta3 = Word((t, a3))
        assert ta3 == (("T", None), ("a", 3)) and hash(ta3) == hash((("T", None), ("a", 3)))
        assert type(ta3.atoms) is tuple and ta3.atoms == (t, a3)
        assert Atom("a", 0) not in {Atom("a")}
        assert Word.of("Ta3") in {ta3}

    def test_pickles_rehash_in_another_process(self):
        # str hashes differ between processes, so a cached hash must not travel
        src = os.path.dirname(os.path.dirname(reflexgrid.__file__))
        data = pickle.dumps(({Word.of("Ta3")}, parse("T(1+x)a3"))).hex()
        code = (
            "import pickle; from reflexgrid.algebra import Polynomial, Word, parse; "
            f"words, p = pickle.loads(bytes.fromhex('{data}')); "
            "print(Word.of('Ta3') in words, type(p) is Polynomial, p == parse('Ta3 + Txa3'), "
            "Word.of('Txa3') in p, hash(p) == hash(p.words))"
        )
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="random")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True"] * 5

    @pytest.mark.parametrize(
        "text, atoms",
        [
            ("Ta12x", (("T", None), ("a", 12), ("x", None))),
            ("T11", (("T", 11),)),  # digits after a letter are its index
            ("1T", (("T", None),)),  # a standalone 1 is the unit
            ("11", ()),
            ("a1b", (("a", 1), ("b", None))),
            ("", ()),
        ],
    )
    def test_word_of_text(self, text, atoms):
        assert Word.of(text) == atoms

    def test_word_of_mixes_atoms_and_text(self):
        w = Word.of(Atom("T"), "x1", "1")
        assert w == (Atom("T"), Atom("x", 1))
        assert str(w) == "Tx1"

    @pytest.mark.parametrize("text", ["2", "T x"])
    def test_word_of_rejects_text_that_is_not_atoms_and_units(self, text):
        with pytest.raises(ValueError, match="not a word factor"):
            Word.of(text)

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom("ab")
        with pytest.raises(ValueError):
            Atom("1")
        with pytest.raises(ValueError):
            Atom("a", -1)
        with pytest.raises(ValueError):
            atom("a-1")
