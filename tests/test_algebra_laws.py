"""Algebraic laws over randomly generated polynomials."""

from hypothesis import given, settings, strategies as st

from reflexgrid.algebra import UNIT, ZERO, Atom, Polynomial, Word, equals, normalize, parse

atoms = st.builds(
    Atom,
    letter=st.sampled_from("Tabxyz"),
    index=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
word_strat = st.builds(Word, st.tuples(*[atoms] * 0) | st.lists(atoms, max_size=4).map(tuple))
polys = st.builds(Polynomial.of, st.lists(word_strat, max_size=8))


@given(polys, polys)
def test_add_commutative(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys)
def test_add_idempotent_and_zero_identity(p):
    assert p + p == p
    assert p + ZERO == p
    assert ZERO + p == p


@given(polys, polys, polys)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_distributivity_both_sides(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert r * (p + q) == r * p + r * q


@given(polys)
def test_unit_two_sided(p):
    assert p * UNIT == p
    assert UNIT * p == p


@given(polys)
def test_pow_zero_is_unit(p):
    assert p**0 == UNIT


@given(polys, st.integers(min_value=0, max_value=3))
def test_pow_matches_repeated_mul(p, n):
    expected = UNIT
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


@given(polys)
def test_normalize_idempotent(p):
    assert normalize(normalize(p)) == normalize(p)


@given(polys, polys)
def test_word_count_bound(p, q):
    assert len(p * q) <= len(p) * len(q)


@given(polys)
def test_parse_render_round_trip(p):
    assert parse(str(p)) == p


def test_non_commutativity_witness():
    x, y = parse("x"), parse("y")
    assert not equals(x * y, y * x)
