"""Distance distribution functions as canonical rational step functions.

A distance distribution function maps [0, infinity] into [0, 1], is zero
at 0, one at infinity, and is increasing and left-continuous in between.
This module represents exactly the step-shaped members of that space: a
finite list of jumps ``(x_k, p_k)`` with strictly increasing finite
abscissae and strictly increasing positive values.  The induced function
is

    f(t)   =  max{ p_k : x_k < t }     for finite t (0 if no jump is below t)
    f(inf) =  1                        always, never stored

Jumps carry the value *after* the abscissa, so left continuity is a
structural property of the encoding rather than a checked one.  The empty
jump list denotes the function that is zero at every finite point.

This module also owns the ``.ddf`` text format for both carriers.  A
``DDF v1`` file holds ``jump <x> <p>`` lines only and reads as a step
function.  A ``DDF v2`` file adds ``ramp <x0> <x1> <p>`` lines, which rise
linearly from the level just after x0 to p at x1, and reads as a
piecewise-linear :class:`deltaplus.ramps.PLDDF`.  One line loop reads
both versions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from .rationals import (
    EXT_INF,
    EXT_ZERO,
    UNIT_ONE,
    UNIT_ZERO,
    ExtRat,
    RationalParseError,
    UnitRat,
    format_ext,
    format_unit,
    parse_ext,
    parse_unit,
    quoted,
)

if TYPE_CHECKING:
    from .ramps import PLDDF

Jump = tuple[ExtRat, UnitRat]


class DdfParseError(ValueError):
    """Raised on malformed ``.ddf`` text, with a line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class DDF:
    """Canonical left-continuous rational step function."""

    jumps: tuple[Jump, ...]

    def __post_init__(self) -> None:
        last_x: ExtRat | None = None
        last_p = UNIT_ZERO
        for x, p in self.jumps:
            if x.is_infinite:
                raise ValueError("jump abscissae must be finite")
            if last_x is not None and x <= last_x:
                raise ValueError("jump abscissae must be strictly increasing")
            if p <= last_p:
                raise ValueError("jump values must be strictly increasing and positive")
            last_x, last_p = x, p

    def value_at(self, t: ExtRat) -> UnitRat:
        """Evaluate the induced function; exact at every point."""
        if t.is_infinite:
            return UNIT_ONE
        i = bisect_left(self.jumps, t, key=itemgetter(0))
        return self.jumps[i - 1][1] if i > 0 else UNIT_ZERO

    @property
    def breakpoints(self) -> tuple[ExtRat, ...]:
        return tuple(x for x, _ in self.jumps)

    def left_piece(self, x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        """``(s0, v0, slope)`` with f(s) = v0 + slope*(s - s0) on ]s0, x], x > 0."""
        i = bisect_left(self.jumps, ExtRat(x), key=itemgetter(0))
        if i == 0:
            return Fraction(0), Fraction(0), Fraction(0)
        x0, p0 = self.jumps[i - 1]
        return x0.finite, p0.value, Fraction(0)

    def __str__(self) -> str:
        return serialize(self)


EPS_INF = DDF(())


def canonicalize(raw: Iterable[Jump]) -> DDF:
    """Collapse an arbitrary jump list to the unique canonical DDF.

    Sorts by abscissa, keeps the maximum value at duplicate abscissae,
    deletes jumps dominated by an earlier jump of equal-or-greater value,
    and drops zero-valued jumps.
    """
    # By abscissa, and at one abscissa the largest value first: two stable sorts.
    ordered = sorted(raw, key=itemgetter(1), reverse=True)
    ordered.sort(key=itemgetter(0))
    kept: list[Jump] = []
    seen_x: ExtRat | None = None
    best = UNIT_ZERO
    for x, p in ordered:
        if x.is_infinite:
            raise ValueError("jump abscissae must be finite")
        if x == seen_x:
            continue
        seen_x = x
        if p > best:
            kept.append((x, p))
            best = p
    return DDF(tuple(kept))


def make_epsilon(r: ExtRat) -> DDF:
    """Unit step at r: certainty that the distance equals the constant r."""
    if r.is_infinite:
        return EPS_INF
    return DDF(((r, UNIT_ONE),))


def make_v(p: UnitRat) -> DDF:
    """Constant level p on all finite positive distances."""
    if p.value == 0:
        return EPS_INF
    return DDF(((ExtRat(Fraction(0)), p),))


def leq(f: DDF, g: DDF) -> bool:
    """Pointwise order, decided exactly on the merged probe set."""
    return all(f.value_at(x) <= g.value_at(x) for x in merged_probe_points(f, g))


def last_jump_to_one(f: DDF) -> ExtRat:
    """sup{ t : f(t) < 1 } -- the abscissa where f first reaches 1, if ever."""
    if f.jumps and f.jumps[-1][1] == UNIT_ONE:
        return f.jumps[-1][0]
    return EXT_INF


def serialize(f: DDF | PLDDF) -> str:
    """``DDF v1`` text for a step function: one ``jump`` line per jump.
    ``DDF v2`` text for one with ramps: one ``ramp`` line per rising
    piece, one ``jump`` line per jump."""
    if isinstance(f, DDF):
        lines = ["DDF v1"]
        lines.extend(f"jump {format_ext(x)} {format_unit(p)}" for x, p in f.jumps)
        return "\n".join(lines) + "\n"
    lines = ["DDF v2"]
    prev_x, level = EXT_ZERO, UNIT_ZERO
    for x, lo, hi in f.knots:
        if lo.value > level.value:
            lines.append(f"ramp {format_ext(prev_x)} {format_ext(x)} {format_unit(lo)}")
        if hi.value > lo.value:
            lines.append(f"jump {format_ext(x)} {format_unit(hi)}")
        prev_x, level = x, hi
    return "\n".join(lines) + "\n"


# Per header: the fields of each line kind, and the grammar for messages.
_GRAMMARS = {
    "DDF v1": ({"jump": 3}, "'jump <x> <p>'"),
    "DDF v2": ({"jump": 3, "ramp": 4}, "'jump <x> <p>' or 'ramp <x0> <x1> <p>'"),
}


def parse_ddf(text: str) -> DDF | PLDDF:
    """Parse the line-oriented ``.ddf`` format, validating canonical shape.

    ``DDF v1`` text holds ``jump`` lines only and gives a :class:`DDF`;
    ``DDF v2`` text needs a ``ramp`` line and gives a
    :class:`deltaplus.ramps.PLDDF`.
    """
    lines = text.splitlines()
    header = lines[0].strip() if lines else ""
    if header not in _GRAMMARS:
        raise DdfParseError(1, "expected header 'DDF v1' or 'DDF v2'")
    fields, grammar = _GRAMMARS[header]
    # knots as [x, f(x), f(x+)]; ``slope`` is the last ramp's slope, None
    # before the first ramp.
    knots: list[list] = []
    end_x, level = Fraction(0), UNIT_ZERO
    last: str | None = None
    slope: Fraction | None = None
    for line_no, line in enumerate(lines[1:], start=2):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        kind = parts[0]
        if fields.get(kind) != len(parts):
            raise DdfParseError(line_no, f"expected {grammar}, got {quoted(body)}")
        try:
            xs = [parse_ext(part) for part in parts[1:-1]]
            p = parse_unit(parts[-1])
        except RationalParseError as exc:
            raise DdfParseError(line_no, str(exc)) from exc
        if any(x.is_infinite for x in xs):
            raise DdfParseError(line_no, f"{kind} abscissa must be finite")
        x0 = xs[0].finite
        if x0 < end_x or (x0 == end_x and last == kind == "jump"):
            raise DdfParseError(line_no, f"abscissa {parts[1]} does not increase")
        if p.value <= level.value:
            raise DdfParseError(
                line_no, f"value {parts[-1]} does not increase (values must be positive)"
            )
        if kind == "ramp":
            x1 = xs[1].finite
            if x1 <= x0:
                raise DdfParseError(line_no, f"ramp end {parts[2]} is not beyond its start")
            rise = (p.value - level.value) / (x1 - x0)
            if x0 == end_x and last == "ramp" and rise == slope:
                raise DdfParseError(
                    line_no, "ramp continues the previous one at the same slope; merge them"
                )
            slope = rise
        # A ramp from 0 needs no knot at its start: f(0) = 0 always.
        if (kind == "jump" or x0 > 0) and not (knots and knots[-1][0].finite == x0):
            knots.append([xs[0], level, level])
        if kind == "jump":
            knots[-1][2] = p
        else:
            knots.append([xs[1], p, p])
        end_x, level, last = xs[-1].finite, p, kind
    if header == "DDF v1":
        return DDF(tuple((x, hi) for x, _, hi in knots))
    if slope is None:
        raise DdfParseError(1, "a DDF v2 file needs a ramp line; write step functions as DDF v1")
    # The ramps module is imported on first use, which keeps the package's
    # own import light.
    from .ramps import PLDDF

    return PLDDF(tuple(tuple(knot) for knot in knots))


def probe_points(cuts: Iterable[Fraction]) -> list[ExtRat]:
    """0 and the cuts, the midpoints between consecutive ones, and one
    point beyond the last, in increasing order."""
    keys = sorted({Fraction(0), *cuts})
    probes = [keys[0]]
    for lo, hi in zip(keys, keys[1:]):
        probes.append((lo + hi) / 2)
        probes.append(hi)
    probes.append(keys[-1] + 1)
    return [ExtRat(t) for t in probes]


def merged_probe_points(*fs: DDF) -> list[ExtRat]:
    """Breakpoints of all arguments, their midpoints, and one point beyond.

    A convenient exact sampling set: the induced functions are constant
    between consecutive probes.
    """
    return probe_points(x.finite for f in fs for x, _ in f.jumps)
