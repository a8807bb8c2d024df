from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holocert.gaussian import GaussianRational, GaussianRationalError, format_gaussian, parse_gaussian

gq = GaussianRational

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda x: not x.is_zero())


def test_conjugate_pair_product():
    assert gq(1, 1) * gq(1, -1) == gq(2)


def test_addition():
    # direct rational arithmetic: (2 - i) + 2i = 2 + i
    assert gq(2, -1) + gq(0, 2) == gq(2, 1)


def test_inverse_of_pure_imaginary():
    x = gq(0, 2)
    assert x.inverse() == gq(0, Fraction(-1, 2))
    assert x * x.inverse() == gq(1)


def test_division_by_zero_is_explicit():
    with pytest.raises(GaussianRationalError):
        gq(1) / gq(0)


def test_conjugation_and_norm():
    x = gq(Fraction(3, 2), Fraction(-1, 3))
    assert x.conjugate() == gq(Fraction(3, 2), Fraction(1, 3))
    assert x * x.conjugate() == GaussianRational(x.norm())


def test_integer_coercion():
    assert 2 + gq(0, 1) == gq(2, 1)
    assert 3 * gq(1, 1) == gq(3, 3)
    assert 1 / gq(0, 1) == gq(0, -1)


def test_powers():
    i = gq(0, 1)
    assert i**2 == gq(-1)
    assert i**-1 == gq(0, -1)
    assert gq(2) ** 0 == gq(1)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=80, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(nonzero_gaussians)
@settings(max_examples=80, deadline=None)
def test_inverse_property(a):
    assert a * a.inverse() == gq(1)


def test_parse_examples():
    x = parse_gaussian("2-1i")
    assert (x.re, x.im) == (2, -1)
    x = parse_gaussian("3/2-1/3i")
    assert x == gq(Fraction(3, 2), Fraction(-1, 3))
    x = parse_gaussian("0+2i")
    assert (x.re, x.im) == (0, 2)


def test_parse_pure_forms():
    assert parse_gaussian("2i") == gq(0, 2)
    assert parse_gaussian("-5") == gq(-5)
    assert parse_gaussian("+1/2") == gq(Fraction(1, 2))


@pytest.mark.parametrize("bad", ["", "i2", "2--1i", "1/0", "2-1/0i", "3 + 4j", "1+i"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_gaussian(bad)


@given(gaussians)
@settings(max_examples=120, deadline=None)
def test_format_parse_roundtrip(x):
    assert parse_gaussian(format_gaussian(x)) == x


def test_format_canonical_examples():
    assert format_gaussian(gq(2, -1)) == "2-1i"
    assert format_gaussian(gq(0, 2)) == "0+2i"
    assert format_gaussian(gq(Fraction(3, 2), Fraction(-1, 3))) == "3/2-1/3i"
    assert format_gaussian(gq(-5)) == "-5"


def test_hash_and_equality_after_normalization():
    assert gq(Fraction(2, 4), Fraction(-6, 3)) == gq(Fraction(1, 2), -2)
    assert hash(gq(Fraction(2, 4))) == hash(gq(Fraction(1, 2)))


def test_from_complex_is_exact():
    x = GaussianRational.from_complex(0.5 - 0.25j)
    assert x == gq(Fraction(1, 2), Fraction(-1, 4))
