"""Exact carriers for the two value domains: [0,1] and [0,infinity].

Every quantity in this package is either a truth value in the unit
interval or an extended nonnegative length.  Both are kept as exact
rationals (``fractions.Fraction``, arbitrary precision, always in lowest
terms) so that downstream equality tests are structural and bit-exact.
The two carriers are deliberately distinct types with no implicit
coercion between them.

Each carrier also keeps its value's lowest-terms numerator and
denominator as two private ints, with infinity stored as 1/0.  Equality
compares the two pairs, and the order is one cross-multiplication,
n_a * d_b against n_b * d_a, which puts 1/0 above every finite value
with no infinity branch.  The slots are named after the public field
(``_vn``/``_vd`` for ``value``, ``_fn``/``_fd`` for ``finite``), so
ordering one carrier against the other still raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class RationalParseError(ValueError):
    """Raised when a rational literal does not match the grammar."""


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class UnitRat:
    """Exact rational confined to [0, 1]."""

    value: Fraction
    _vn: int = field(init=False, repr=False, compare=False)
    _vd: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        value = self.value
        if type(value) is not Fraction:
            value = _as_fraction(value)
            object.__setattr__(self, "value", value)
        num, den = value.numerator, value.denominator
        if not 0 <= num <= den:
            raise ValueError(f"unit value out of range [0,1]: {value}")
        object.__setattr__(self, "_vn", num)
        object.__setattr__(self, "_vd", den)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._vn == other._vn and self._vd == other._vd

    def __lt__(self, other: "UnitRat") -> bool:
        return self._vn * other._vd < other._vn * self._vd

    def __le__(self, other: "UnitRat") -> bool:
        return self._vn * other._vd <= other._vn * self._vd

    def __gt__(self, other: "UnitRat") -> bool:
        return self._vn * other._vd > other._vn * self._vd

    def __ge__(self, other: "UnitRat") -> bool:
        return self._vn * other._vd >= other._vn * self._vd

    def __str__(self) -> str:
        return format_unit(self)


@dataclass(frozen=True, slots=True)
class ExtRat:
    """Exact nonnegative rational extended with a distinguished infinity.

    ``finite`` is ``None`` exactly when the value is infinity.  The total
    order puts every finite value strictly below infinity.
    """

    finite: Fraction | None
    _fn: int = field(init=False, repr=False, compare=False)
    _fd: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        finite = self.finite
        if finite is None:
            num, den = 1, 0
        else:
            if type(finite) is not Fraction:
                finite = _as_fraction(finite)
                object.__setattr__(self, "finite", finite)
            num, den = finite.numerator, finite.denominator
            if num < 0:
                raise ValueError(f"extended rational must be >= 0: {finite}")
        object.__setattr__(self, "_fn", num)
        object.__setattr__(self, "_fd", den)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fn == other._fn and self._fd == other._fd

    def __add__(self, other: "ExtRat") -> "ExtRat":
        return ext_add(self, other)

    def __lt__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) < 0

    def __le__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) <= 0

    def __gt__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) > 0

    def __ge__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) >= 0

    def __str__(self) -> str:
        return format_ext(self)


EXT_INF = ExtRat(None)
EXT_ZERO = ExtRat(Fraction(0))
UNIT_ZERO = UnitRat(Fraction(0))
UNIT_ONE = UnitRat(Fraction(1))


def ext(value: RationalLike) -> ExtRat:
    """Shorthand constructor for a finite extended rational."""
    return ExtRat(_as_fraction(value))


def unit(numerator: int, denominator: int = 1) -> UnitRat:
    """Shorthand constructor for a unit rational."""
    return UnitRat(Fraction(numerator, denominator))


def ext_add(a: ExtRat, b: ExtRat) -> ExtRat:
    """Addition on [0, infinity]; infinity is absorbing."""
    if a.is_infinite or b.is_infinite:
        return EXT_INF
    return ExtRat(a.finite + b.finite)


def ext_cmp(a: ExtRat, b: ExtRat) -> int:
    """Total-order comparison: -1, 0 or 1."""
    lhs, rhs = a._fn * b._fd, b._fn * a._fd
    return (lhs > rhs) - (lhs < rhs)


def ext_max(a: ExtRat, b: ExtRat) -> ExtRat:
    return a if ext_cmp(a, b) >= 0 else b


def quoted(text: str) -> str:
    """``repr(text)`` for an error message, or only its length when it is
    too long to echo."""
    return repr(text) if len(text) <= 64 else f"<{len(text)} characters>"


def _is_digits(text: str) -> bool:
    # ASCII only: str.isdigit also accepts superscripts and other scripts'
    # digits, which int() then rejects or reads as decimal digits.
    return text.isascii() and text.isdigit()


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # Past the interpreter's limit on integer string conversion; the
        # literal itself is too long to echo.
        raise RationalParseError(f"rational literal too long: {len(digits)} digits") from None


def _parse_fraction(text: str) -> Fraction:
    body = text.strip()
    if "/" in body:
        num_text, _, den_text = body.partition("/")
        if not (_is_digits(num_text) and _is_digits(den_text)):
            raise RationalParseError(f"malformed rational literal: {quoted(text)}")
        if _int(den_text) == 0:
            raise RationalParseError(f"zero denominator in literal: {quoted(text)}")
        return Fraction(_int(num_text), _int(den_text))
    if not _is_digits(body):
        raise RationalParseError(f"malformed rational literal: {quoted(text)}")
    return Fraction(_int(body))


def parse_ext(text: str) -> ExtRat:
    """Parse ``inf``, ``digits`` or ``digits/digits`` into an ExtRat."""
    if text.strip() == "inf":
        return EXT_INF
    return ExtRat(_parse_fraction(text))


def format_ext(a: ExtRat) -> str:
    """Lowest-terms text form; integers carry no denominator."""
    if a.is_infinite:
        return "inf"
    return _format_fraction(a.finite)


def parse_unit(text: str) -> UnitRat:
    """Parse a rational literal confined to [0, 1]."""
    value = _parse_fraction(text)
    if value > 1:
        raise RationalParseError(f"unit literal exceeds 1: {quoted(text)}")
    return UnitRat(value)


def format_unit(p: UnitRat) -> str:
    return _format_fraction(p.value)


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
