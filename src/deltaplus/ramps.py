"""Piecewise-linear distribution functions and the closure law on them.

This module owns two things: the carrier :class:`PLDDF` and the closure
law on it under L = max.  Its ``DDF v2`` text is read and written by
:mod:`deltaplus.ddf`, which owns the ``.ddf`` format for both carriers.

:class:`PLDDF` widens the step-function carrier of :mod:`deltaplus.ddf`
to rational knots joined by linear pieces, with optional left-continuous
jumps at the knots.  Step functions are its zero-slope case and stay
:class:`~deltaplus.ddf.DDF` values, so every rising piece is a genuine
ramp.

The closure law is exact here for L = max.  Under the maximum the
supremum over { max(u, v) = x } is attained at u = v = x, so the raw
value at x is T(f(x), g(x)); the supremum over { max(u, v) < x } is the
left limit at x of s -> T(f(s), g(s)): T's limit at (f(x), g(x)) along
the last linear piece left of x, :func:`~deltaplus.tnorms.limit_along`.
A closure case probes the :func:`~deltaplus.ddf.probe_points` of the
operands' breakpoints but 0, and the points where (f(s), g(s)) crosses a curve.

:func:`regularized_by_extrapolation` recomputes the regularized value
along a second path that reads neither the curves nor the formulas, for
re-verifying witnesses.

Other conorms are refused: their raw value needs every split of x under
L, not only the diagonal one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .ddf import DDF, probe_points, serialize
from .rationals import UNIT_ONE, UNIT_ZERO, ExtRat, UnitRat
from .tau import UnsupportedPairError
from .tconorms import TConormDesc
from .tnorms import FORMULA_LINES, TNormDesc, limit_along

# (x, f(x), f(x+)): the value at a knot and the value just after it.
Knot = tuple[ExtRat, UnitRat, UnitRat]


@dataclass(frozen=True)
class PLDDF:
    """Canonical left-continuous piecewise-linear distribution function.

    ``knots`` lists ``(x, f(x), f(x+))`` at strictly increasing finite
    abscissae.  Between consecutive knots f is linear from f(x_k+) to
    f(x_{k+1}); before the first knot it is linear from 0 at 0; after the
    last knot it keeps that knot's right value; f(inf) = 1.  A knot is
    kept only where f jumps or changes slope, and at least one piece must
    rise: a step function is a :class:`~deltaplus.ddf.DDF`.
    """

    knots: tuple[Knot, ...]
    _xs: list[Fraction] = field(init=False, repr=False, compare=False)
    _lo: list[Fraction] = field(init=False, repr=False, compare=False)
    _hi: list[Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(x.is_infinite for x, _, _ in self.knots):
            raise ValueError("knot abscissae must be finite")
        xs = [x.finite for x, _, _ in self.knots]
        lo = [p.value for _, p, _ in self.knots]
        hi = [q.value for _, _, q in self.knots]
        # slopes[k] is the slope into knot k (None for a knot at 0);
        # the last entry is the zero slope after the last knot.
        slopes: list[Fraction | None] = []
        prev_x, prev_v = Fraction(0), Fraction(0)
        for k, x in enumerate(xs):
            if k > 0 and x <= prev_x:
                raise ValueError("knot abscissae must be strictly increasing")
            if not prev_v <= lo[k] <= hi[k]:
                raise ValueError("knot values must not decrease")
            if x == 0 and lo[k] != 0:
                raise ValueError("the value at 0 must be 0")
            slopes.append((lo[k] - prev_v) / (x - prev_x) if x > 0 else None)
            prev_x, prev_v = x, hi[k]
        slopes.append(Fraction(0))
        for k, x in enumerate(xs):
            if lo[k] == hi[k] and (slopes[k] is None or slopes[k] == slopes[k + 1]):
                raise ValueError(f"knot at {x} neither jumps nor bends")
        if not any(s for s in slopes if s is not None):
            raise ValueError("no piece rises; a step function is a DDF")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def value_at(self, t: ExtRat) -> UnitRat:
        """Evaluate the induced function; exact at every point."""
        if t.is_infinite:
            return UNIT_ONE
        if t.finite == 0:
            return UNIT_ZERO
        s0, v0, slope = self.left_piece(t.finite)
        return UnitRat(v0 + slope * (t.finite - s0))

    @property
    def breakpoints(self) -> tuple[ExtRat, ...]:
        return tuple(x for x, _, _ in self.knots)

    def left_piece(self, x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        """``(s0, v0, slope)`` with f(s) = v0 + slope*(s - s0) on ]s0, x], x > 0."""
        i = bisect_left(self._xs, x)
        s0, v0 = (self._xs[i - 1], self._hi[i - 1]) if i > 0 else (Fraction(0), Fraction(0))
        if i == len(self._xs):
            return s0, v0, Fraction(0)
        return s0, v0, (self._lo[i] - v0) / (self._xs[i] - s0)

    def __str__(self) -> str:
        return serialize(self)


Operand = DDF | PLDDF


def supports(l: TConormDesc) -> bool:
    return l.name == "max"


def _require_supported(l: TConormDesc) -> None:
    if not supports(l):
        raise UnsupportedPairError(
            f"conorm {l.spec}: the closure law on ramps is exact only under max"
        )


def closure_values(
    t: TNormDesc, l: TConormDesc, f: Operand, g: Operand, x: ExtRat
) -> tuple[UnitRat, UnitRat, tuple[ExtRat, ExtRat]]:
    """``(regularized, raw, split)`` at a finite x > 0, where ``split`` is
    a pair (u, v) with L(u, v) = x at which T(f(u), g(v)) is the raw value."""
    _require_supported(l)
    a, b = f.value_at(x), g.value_at(x)
    raw = t(a, b)
    if not t.curves:
        # Without curves T is continuous: its limit is the raw value.
        return raw, raw, (x, x)
    df, dg = (h.left_piece(x.finite)[2] for h in (f, g))
    # The segment into (a, b) comes from the side its slope leaves.
    return limit_along(t, a, b, -df, -dg), raw, (x, x)


def closure_probes(t: TNormDesc, f: Operand, g: Operand) -> list[ExtRat]:
    """The breakpoints' probe points but 0, and the curve crossings."""
    cuts = sorted({Fraction(0)} | {x.finite for h in (f, g) for x in h.breakpoints})
    points = {p.finite for p in probe_points(cuts)[1:]}
    for lo, hi in zip(cuts, cuts[1:]):
        _, _, df = f.left_piece(hi)
        _, _, dg = g.left_piece(hi)
        end = ExtRat(hi)
        a, b = f.value_at(end).value, g.value_at(end).value
        for alpha, beta, gamma in t.curves:
            slope = alpha * df + beta * dg
            if slope:
                root = hi - (alpha * a + beta * b - gamma) / slope
                if lo < root < hi:
                    points.add(root)
    return [ExtRat(p) for p in sorted(points)]


def regularized_by_extrapolation(
    t: TNormDesc, l: TConormDesc, f: Operand, g: Operand, x: ExtRat
) -> UnitRat | None:
    """sup{ T(f(u), g(v)) : max(u, v) < x } from T's values alone.

    The supremum is the left limit at x of s -> T(f(s), g(s)).  On the last
    linear piece left of x, past the last point where (f(s), g(s)) meets a
    line on which a catalog t-norm changes formula, that function is a
    quadratic in s.  Three exact samples there fix it and a fourth checks
    it; its value at x is the supremum.  None when the samples do not lie
    on one quadratic.
    """
    _require_supported(l)
    s0 = max(
        (p.finite for h in (f, g) for p in h.breakpoints if p.finite < x.finite),
        default=Fraction(0),
    )

    def pair(s: Fraction) -> tuple[UnitRat, UnitRat]:
        return f.value_at(ExtRat(s)), g.value_at(ExtRat(s))

    mid = (s0 + x.finite) / 2
    (fm, gm), (fx, gx) = pair(mid), pair(x.finite)
    start = s0
    for alpha, beta, gamma in FORMULA_LINES:
        at_mid = alpha * fm.value + beta * gm.value - gamma
        at_x = alpha * fx.value + beta * gx.value - gamma
        if at_mid != at_x:
            root = x.finite - at_x * (x.finite - mid) / (at_x - at_mid)
            if start < root < x.finite:
                start = root
    # Samples at x - k*h for k = 1..4: equally spaced, so they lie on one
    # quadratic exactly when their third difference vanishes, and that
    # quadratic's value at x (k = 0) is 3*y1 - 3*y2 + y3.
    y1, y2, y3, y4 = (
        t(*pair(x.finite - (x.finite - start) * k / 5)).value for k in (1, 2, 3, 4)
    )
    if y1 - 3 * y2 + 3 * y3 - y4:
        return None
    limit = 3 * y1 - 3 * y2 + y3
    return UnitRat(limit) if 0 <= limit <= 1 else None
