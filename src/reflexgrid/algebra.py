"""Symbolic algebra of reflexive processes.

Values are polynomials over a free non-commutative monoid of words.  Each
word is an ordered run of atoms: the leftmost atom is a root process, every
atom to its right is one further level of reflection (``Txy`` reads "y's
image of x's image of T").  Coefficients are Boolean, so a polynomial is
the frozenset of its words: addition is set union, multiplication
concatenates every pair of words, and the empty word acts as the unit ``1``.

All values are immutable; every operation returns a new value.  Atoms and
words are tuples, ``(letter, index)`` and the run of atoms, and a
polynomial is a frozenset of words, so each hashes, compares and pickles
as the plain tuple or frozenset it equals.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import repeat
from operator import itemgetter
from typing import Container, Iterable, Iterator, Sequence, Union


class ExpressionError(ValueError):
    """Malformed expression text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ATOM_RE = re.compile(r"[A-Za-z][0-9]*")
# a word factor: atoms and standalone unit placeholders; digits after a
# letter are its index, so "T11" is one atom and "1T1" is T1
_FACTOR_RE = re.compile(r"(?:[A-Za-z][0-9]*|1)*")


class Atom(tuple):
    """One symbol: a single letter plus an optional numeric suffix.

    The value is the tuple ``(letter, index)``; ``Atom("a")`` and
    ``Atom("a", 1)`` are distinct, since an absent index is not index 0.
    """

    __slots__ = ()

    def __new__(cls, letter: str, index: int | None = None):
        if len(letter) != 1 or not letter.isalpha():
            raise ValueError(f"atom letter must be a single alphabetic character, got {letter!r}")
        if index is not None and index < 0:
            raise ValueError(f"atom index must be non-negative, got {index}")
        return tuple.__new__(cls, (letter, index))

    letter = property(itemgetter(0))
    index = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[str, int | None]:
        # a pickle calls Atom(letter, index); tuple's own would pass one tuple
        return tuple(self)

    @property
    def sort_key(self) -> tuple[str, int]:
        # absent index sorts before any explicit index
        return (self.letter, -1 if self.index is None else self.index)

    def __str__(self) -> str:
        return self.letter if self.index is None else f"{self.letter}{self.index}"

    def __repr__(self) -> str:
        return f"Atom({str(self)!r})"


def indexed_atoms(letter: str, n: int) -> tuple[Atom, ...]:
    """``Atom(letter, i)`` for every i in range(n), built in one pass.

    The letter is checked once and every index of the range is valid, so
    the atoms are made by one C-level ``map`` that skips ``Atom.__new__``.
    """
    Atom(letter)  # checks the letter
    return tuple(map(tuple.__new__, repeat(Atom, n), zip(repeat(letter), range(n))))


def atom(text: str) -> Atom:
    """Parse a single atom like ``"T"`` or ``"a12"``."""
    m = _ATOM_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not an atom: {text!r}")
    return Atom(text[0], int(text[1:]) if len(text) > 1 else None)


class Word(tuple):
    """An ordered run of atoms, the tuple of them; the empty run is the unit
    word, printed "1"."""

    __slots__ = ()

    atoms = property(tuple)

    @staticmethod
    def of(*factors: Union[Atom, str]) -> "Word":
        """Build a word from atoms and/or strings.

        String factors are tokenized letter-plus-digits (``"Ta12x"`` gives
        three atoms); ``"1"`` factors are unit placeholders and cancel.
        """
        out: list[Atom] = []
        for f in factors:
            if isinstance(f, Atom):
                out.append(f)
            elif _FACTOR_RE.fullmatch(f):
                out += map(atom, _ATOM_RE.findall(f))
            else:
                raise ValueError(f"not a word factor: {f!r}")
        return Word(out)

    @property
    def sort_key(self) -> tuple:
        return (len(self), tuple(a.sort_key for a in self))

    def __str__(self) -> str:
        return "".join(map(str, self)) or "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


UNIT_WORD = Word()


def reflection_depth(w: Word) -> int:
    """Number of reflection levels above the root atom (``Txy`` has 2)."""
    if not w:
        raise ValueError("the unit word has no root process")
    return len(w) - 1


class Polynomial(frozenset):
    """A set of words under Boolean coefficients: the frozenset of them.

    The empty set is the zero polynomial.  Instances are canonical by
    construction: duplicates merge by set semantics and unit placeholders
    never survive word construction.  A polynomial equals, and hashes as,
    the frozenset of its words; the set operators ``| & - ^`` are
    frozenset's and return plain frozensets, while ``+``, ``*`` and ``**``
    are the algebra's.  Iteration runs in canonical order.
    """

    __slots__ = ()

    @staticmethod
    def of(words: Iterable[Word]) -> "Polynomial":
        return Polynomial(words)

    words = property(frozenset)

    def sorted_words(self) -> list[Word]:
        """Words by atom count, then lexicographically by atom sequence."""
        return sorted(frozenset.__iter__(self), key=lambda w: w.sort_key)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self | other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(Word(a + b) for a in frozenset.__iter__(self) for b in frozenset.__iter__(other))

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
        result = UNIT  # w^0 = 1 for every w, zero included
        for _ in range(n):
            result = result * self
        return result

    def __iter__(self) -> Iterator[Word]:
        return iter(self.sorted_words())

    def __str__(self) -> str:
        return " + ".join(map(str, self)) or "0"

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


ZERO = Polynomial()
UNIT = Polynomial([UNIT_WORD])


def normalize(p: Iterable[Word]) -> Polynomial:
    """Canonical representative: duplicates merged, unit placeholders gone.

    Accepts any iterable of words; on a ``Polynomial`` this is the identity
    (values are canonical by construction), kept so callers can state the
    idempotence contract explicitly.
    """
    return Polynomial(p)


def equals(p: Polynomial, q: Polynomial) -> bool:
    return p == q


def contains_word(p: Container[Word], w: Word) -> bool:
    """Whether ``w`` is a word of ``p``, a polynomial or any other container of words.

    ``w`` may be given as the plain tuple of its atoms, which hashes and
    compares as its ``Word``.
    """
    return w in p


def apply_awareness(omega: Polynomial, observers: Sequence[Atom]) -> Polynomial:
    """One awareness step: multiply by (1 + sum of observer atoms).

    Every observer gains an image of every word already in ``omega``.
    """
    if not observers:
        raise ValueError("awareness step requires at least one observer")
    step = UNIT + Polynomial.of(Word((a,)) for a in observers)
    return omega * step


# ---------------------------------------------------------------------------
# Expression parsing
#
#   expr    := product ('+' product)*
#   product := primary (('*')? primary)* ('^' nat)?
#   primary := word | '(' expr ')'
#   word    := '1' | atom+
#   atom    := letter digit*
#
# Whitespace separates tokens and is otherwise ignored; digits bind to an
# immediately preceding letter ("T1 1" is the atom T1 times the unit, while
# "T11" is the single atom T11).  Juxtaposition multiplies.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<atom>[A-Za-z][0-9]*)|(?P<number>[0-9]+)|(?P<op>[+*^()])|(?P<bad>\S)")

# kind is 'atom', 'number', one of '+ * ^ ( )' or 'end'
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # whitespace matches no group and is skipped
        kind, tok = m.lastgroup, m[0]
        if kind == "bad":
            raise ExpressionError(f"unexpected character {tok!r}", m.start())
        tokens.append(_Token(tok if kind == "op" else kind, tok, m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", tok.pos)
        return result

    def expr(self) -> Polynomial:
        result = self.product()
        while self.peek().kind == "+":
            self.advance()
            result = result + self.product()
        return result

    def product(self) -> Polynomial:
        result = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                result = result * self.primary()
            elif tok.kind in ("atom", "(") or (tok.kind == "number" and tok.text in ("0", "1")):
                result = result * self.primary()
            else:
                break
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number":
                raise ExpressionError("exponent must be a non-negative integer", tok.pos)
            self.advance()
            result = result ** int(tok.text)
        return result

    def primary(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ExpressionError("expected ')'", closing.pos)
            self.advance()
            return inner
        if tok.kind == "number":
            if tok.text == "1":
                self.advance()
                return UNIT
            if tok.text == "0":
                # zero literal, so canonical strings of zero round-trip
                self.advance()
                return ZERO
            raise ExpressionError(f"only the literals '0' and '1' are allowed, got {tok.text!r}", tok.pos)
        if tok.kind == "atom":
            atoms: list[Atom] = []
            while self.peek().kind == "atom":
                atoms.append(atom(self.advance().text))
            return Polynomial.of([Word(atoms)])
        raise ExpressionError(f"expected a word or '(', got {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str) -> Polynomial:
    """Parse expression text into a normalized polynomial.

    Round-trips with the canonical form that ``str`` prints:
    ``parse(str(p)) == p`` for every polynomial ``p``.
    """
    return _Parser(text).parse()
