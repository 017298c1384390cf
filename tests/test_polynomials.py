"""Polynomial ring basics: arithmetic laws, ordering, and text round-trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branegauge.errors import PolynomialSyntaxError, RingMismatchError
from branegauge.polynomials import (
    Polynomial,
    _parse_terms,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
    parse_polynomial,
)

import _oracles
from _oracles import count_monomials


def _poly_strategy(nv=3, maxdeg=3):
    mon = st.tuples(*[st.integers(0, maxdeg) for _ in range(nv)])
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.dictionaries(mon, coeff, max_size=4).map(
        lambda d: Polynomial(nv, {m: Fraction(c) for m, c in d.items() if c})
    )


@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == Polynomial.zero(3)
    assert (f * g) * h == f * (g * h)


def test_variables_and_powers():
    x0 = Polynomial.variable(3, 0)
    x1 = Polynomial.variable(3, 1)
    q = (x0 + x1) ** 2
    assert q.coefficient((2, 0, 0)) == 1
    assert q.coefficient((1, 1, 0)) == 2
    assert q.homogeneous_degree() == 2


def test_grevlex_tiebreak():
    # same degree: grevlex compares reversed exponents, last variable smallest
    key = grevlex_key
    assert key((1, 1, 0)) > key((1, 0, 1)) > key((0, 1, 1))
    assert key((2, 0, 0)) > key((1, 1, 0))


def test_monomials_of_degree_counts():
    for nv in (1, 2, 3, 4):
        for d in range(0, 6):
            mons = monomials_of_degree(nv, d)
            assert len(mons) == count_monomials(nv, d)
            assert len(set(mons)) == len(mons)
            keys = [grevlex_key(m) for m in mons]
            assert keys == sorted(keys, reverse=True)


def _exponent_pairs():
    """Two exponent tuples of one length, 1 to 5."""
    exps = st.integers(0, 6)
    return st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.tuples(*[exps] * n), st.tuples(*[exps] * n)))


@given(_exponent_pairs())
@settings(max_examples=200, deadline=None)
def test_monomial_kernel_matches_the_generator_oracle(pair):
    a, b = pair
    lcm = monomial_lcm(a, b)
    assert lcm == _oracles.monomial_lcm(a, b)
    assert monomial_mul(a, b) == _oracles.monomial_mul(a, b)
    assert monomial_div(b, a) == _oracles.monomial_div(b, a)
    assert monomial_div(lcm, a) == _oracles.monomial_div(lcm, a)
    assert monomial_divides(a, b) is _oracles.monomial_divides(a, b)
    assert monomial_divides(b, a) is _oracles.monomial_divides(b, a)
    assert monomial_divides(a, lcm) is True
    assert grevlex_key(a) == _oracles.grevlex_key(a)
    for out in (lcm, monomial_mul(a, b), monomial_div(b, a), grevlex_key(a)[1]):
        assert type(out) is tuple


def test_monomials_of_degree_is_one_shared_tuple():
    for nv in (1, 2, 3, 4):
        for d in range(0, 6):
            mons = monomials_of_degree(nv, d)
            assert type(mons) is tuple
            assert monomials_of_degree(nv, d) is mons
            assert mons == tuple(sorted(_oracles.monomial_tuples(nv, d),
                                        key=_oracles.grevlex_key, reverse=True))
    assert monomials_of_degree(3, -1) == ()
    assert monomials_of_degree(1, -4) == ()


def test_parse_examples():
    p = parse_polynomial("3/2*x0^2*x1 - x2^3", 3)
    assert p.coefficient((2, 1, 0)) == Fraction(3, 2)
    assert p.coefficient((0, 0, 3)) == -1
    assert parse_polynomial("0", 3).is_zero
    assert parse_polynomial("x0*x0", 2) == Polynomial.variable(2, 0) ** 2


def test_parse_rejects_bad_text():
    with pytest.raises(PolynomialSyntaxError) as e:
        parse_polynomial("x0^", 3)
    assert e.value.offset == 3
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x7", 3)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x0 +", 3)


@pytest.mark.parametrize("text, offset", [("\u00b2", 0), ("x0\u00b2", 2),
                                          ("3\u00b2", 1), ("x0^\u00b2", 3)])
def test_non_decimal_digits_are_syntax_errors(text, offset):
    # str.isdigit holds for a superscript two, but it is no decimal digit
    with pytest.raises(PolynomialSyntaxError) as e:
        parse_polynomial(text, 3)
    assert e.value.offset == offset


def _parse_outcome(parse, text):
    """What parse gives for text on P^2: a polynomial with the types of its
    coefficients, or the syntax error's type, message and offset."""
    try:
        p = parse(text, 3)
    except PolynomialSyntaxError as e:
        return type(e), str(e), e.offset
    return p, [type(c) for _, c in p.items()]


@pytest.mark.parametrize("text", ["0", "1", "-2", "-0", "007", " 3", "3 ",
                                  "--1", "", "- 4", "+5", "6/3", "2x0"])
def test_integer_fast_path_agrees_with_the_term_parser(text):
    assert _parse_outcome(parse_polynomial, text) == _parse_outcome(
        _parse_terms, text)


@given(st.integers(-10**30, 10**30))
@settings(max_examples=60, deadline=None)
def test_integer_text_parses_to_its_constant(k):
    assert parse_polynomial(str(k), 3) == Polynomial.constant(3, k)
    assert _parse_outcome(parse_polynomial, str(k)) == _parse_outcome(
        _parse_terms, str(k))


def test_integer_fast_path_edge_values():
    assert parse_polynomial("-0", 3).is_zero
    assert parse_polynomial("007", 3) == Polynomial.constant(3, 7)
    for bad in ("--1", ""):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(bad, 3)


@given(_poly_strategy())
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f), 3) == f


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
