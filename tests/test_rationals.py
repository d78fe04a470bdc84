from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltaplus.rationals import (
    EXT_INF,
    EXT_ZERO,
    ExtRat,
    RationalParseError,
    UnitRat,
    ext,
    ext_add,
    ext_cmp,
    format_ext,
    format_unit,
    parse_ext,
    parse_unit,
    unit,
)

nonneg_fractions = st.fractions(min_value=0, max_value=10**6)
ext_rats = st.one_of(st.just(EXT_INF), nonneg_fractions.map(ExtRat))


def test_addition_examples():
    assert ext_add(ext(Fraction(2, 3)), ext(Fraction(1, 3))) == ext(1)
    assert ext_add(ext(5), EXT_INF) == EXT_INF
    assert ext_add(EXT_ZERO, ext(Fraction(7, 2))) == ext(Fraction(7, 2))


def test_comparison_examples():
    assert ext_cmp(EXT_INF, EXT_INF) == 0
    assert ext_cmp(ext(Fraction(3, 2)), ext(2)) == -1
    assert ext_cmp(EXT_INF, ext(10**9)) == 1


def test_parse_examples():
    assert parse_ext("inf") == EXT_INF
    assert parse_ext("6/4") == ext(Fraction(3, 2))
    with pytest.raises(RationalParseError):
        parse_ext("7/0")
    with pytest.raises(RationalParseError):
        parse_ext("-3")
    with pytest.raises(RationalParseError):
        parse_unit("5/4")
    # Only ASCII digits: str.isdigit accepts these too.  Literals past
    # int()'s digit limit are refused the same way.
    for literal in ("²", "١", "1/²", "1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(RationalParseError):
            parse_ext(literal)


def test_formatting_is_lowest_terms():
    assert format_ext(ext(Fraction(6, 4))) == "3/2"
    assert format_ext(ext(7)) == "7"
    assert format_ext(EXT_INF) == "inf"
    assert format_unit(unit(2, 4)) == "1/2"


def test_domain_validation():
    with pytest.raises(ValueError):
        ExtRat(Fraction(-1, 2))
    with pytest.raises(ValueError):
        UnitRat(Fraction(3, 2))
    with pytest.raises(ValueError):
        UnitRat(Fraction(-1, 2))


@given(ext_rats, ext_rats, ext_rats)
def test_addition_is_associative_and_commutative(a, b, c):
    assert ext_add(ext_add(a, b), c) == ext_add(a, ext_add(b, c))
    assert ext_add(a, b) == ext_add(b, a)


@given(ext_rats)
def test_zero_is_identity(a):
    assert ext_add(a, EXT_ZERO) == a


@given(ext_rats)
def test_parse_format_round_trip(a):
    assert parse_ext(format_ext(a)) == a


@given(st.fractions(min_value=0, max_value=1))
def test_unit_round_trip(p):
    assert parse_unit(format_unit(UnitRat(p))) == UnitRat(p)


@given(ext_rats, ext_rats, ext_rats)
def test_total_order(a, b, c):
    assert ext_cmp(a, b) == -ext_cmp(b, a)
    if ext_cmp(a, b) <= 0 and ext_cmp(b, c) <= 0:
        assert ext_cmp(a, c) <= 0
    assert (ext_cmp(a, b) == 0) == (a == b)
