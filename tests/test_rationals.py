import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltaplus.rationals import (
    EXT_INF,
    EXT_ZERO,
    UNIT_ONE,
    UNIT_ZERO,
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


ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**12)


def _key(a: ExtRat) -> tuple[int, Fraction]:
    # Fraction's order, with infinity above every finite value.
    return (1, Fraction(0)) if a.is_infinite else (0, a.finite)


@given(unit_fractions, unit_fractions)
def test_unit_order_is_fraction_order(p, q):
    for op in ORDER:
        assert op(UnitRat(p), UnitRat(q)) == op(p, q)


@given(ext_rats, ext_rats)
def test_ext_order_is_fraction_order_with_infinity_on_top(a, b):
    for op in ORDER:
        assert op(a, b) == op(_key(a), _key(b))
    assert ext_cmp(a, b) == (_key(a) > _key(b)) - (_key(a) < _key(b))


def test_order_edge_values():
    assert UNIT_ZERO < UNIT_ONE and UNIT_ONE >= UNIT_ONE and not UNIT_ONE < UNIT_ONE
    assert EXT_ZERO < ext(10**30) < EXT_INF
    assert EXT_INF >= EXT_INF and EXT_INF <= EXT_INF and not EXT_INF < EXT_INF
    assert ext_cmp(EXT_ZERO, EXT_ZERO) == 0
    assert ext_cmp(EXT_ZERO, EXT_INF) == -1
    # One value from different inputs: equal, same hash, and no order
    # between them.
    for a, b in ((UnitRat(1), UnitRat(Fraction(2, 2))), (ext(3), ExtRat(Fraction(6, 2)))):
        assert a == b and hash(a) == hash(b)
        assert a <= b and a >= b and not a < b and not a > b
    assert UNIT_ONE == UnitRat(1) and EXT_ZERO == ExtRat(0)


def test_hash_and_repr_show_the_public_field_only():
    for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
        assert hash(UnitRat(p)) == hash((p,))
        assert hash(ExtRat(p)) == hash((p,))
    assert hash(EXT_INF) == hash((None,))
    assert repr(UnitRat(Fraction(1, 2))) == "UnitRat(value=Fraction(1, 2))"
    assert repr(ext(Fraction(3, 2))) == "ExtRat(finite=Fraction(3, 2))"
    assert repr(EXT_INF) == "ExtRat(finite=None)"


def test_the_carriers_never_compare():
    half = Fraction(1, 2)
    assert UnitRat(half) != ExtRat(half)
    assert ExtRat(half) != UnitRat(half)
    assert UnitRat(half) != half
    for a, b in ((UnitRat(half), ExtRat(half)), (ExtRat(half), UnitRat(half))):
        for op in ORDER[:4]:
            with pytest.raises(AttributeError):
                op(a, b)


@pytest.mark.parametrize(
    "make, value, error, message",
    [
        (UnitRat, Fraction(3, 2), ValueError, "unit value out of range [0,1]: 3/2"),
        (UnitRat, 2, ValueError, "unit value out of range [0,1]: 2"),
        (UnitRat, Fraction(-1, 2), ValueError, "unit value out of range [0,1]: -1/2"),
        (ExtRat, Fraction(-1, 2), ValueError, "extended rational must be >= 0: -1/2"),
        (ExtRat, -3, ValueError, "extended rational must be >= 0: -3"),
        (UnitRat, 0.5, TypeError, "expected int or Fraction, got float"),
        (ExtRat, 0.5, TypeError, "expected int or Fraction, got float"),
    ],
)
def test_refusals_keep_their_types_and_messages(make, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(value)
