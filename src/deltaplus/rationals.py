"""Exact carriers for the two value domains: [0,1] and [0,infinity].

Every quantity in this package is either a truth value in the unit
interval or an extended nonnegative length.  Both are kept as exact
rationals (``fractions.Fraction``, arbitrary precision, always in lowest
terms) so that downstream equality tests are structural and bit-exact.
The two carriers are deliberately distinct types with no implicit
coercion between them.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _as_fraction(self.value))
        if not 0 <= self.value <= 1:
            raise ValueError(f"unit value out of range [0,1]: {self.value}")

    def __lt__(self, other: "UnitRat") -> bool:
        return self.value < other.value

    def __le__(self, other: "UnitRat") -> bool:
        return self.value <= other.value

    def __gt__(self, other: "UnitRat") -> bool:
        return self.value > other.value

    def __ge__(self, other: "UnitRat") -> bool:
        return self.value >= other.value

    def __str__(self) -> str:
        return format_unit(self)


@dataclass(frozen=True, slots=True)
class ExtRat:
    """Exact nonnegative rational extended with a distinguished infinity.

    ``finite`` is ``None`` exactly when the value is infinity.  The total
    order puts every finite value strictly below infinity.
    """

    finite: Fraction | None

    def __post_init__(self) -> None:
        if self.finite is not None:
            object.__setattr__(self, "finite", _as_fraction(self.finite))
            if self.finite < 0:
                raise ValueError(f"extended rational must be >= 0: {self.finite}")

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

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
    if a.is_infinite:
        return 0 if b.is_infinite else 1
    if b.is_infinite:
        return -1
    if a.finite == b.finite:
        return 0
    return -1 if a.finite < b.finite else 1


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
