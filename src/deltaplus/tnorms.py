"""Catalog of binary operations on [0,1] with verifiable structural metadata.

Each entry bundles an exact rational evaluator with declared flags
(commutativity, associativity, identity, monotonicity, and the three
continuity grades) plus, for piecewise definitions, the discontinuity
curves themselves and the operation's continuous formula on each side of
them.  The ``check_*`` functions falsify or support those flags; declared
metadata must survive the falsification suite.

Continuity is decided exactly from the declared curves, at the finite
``TNormDesc.certificate``; no random point is drawn.  Off the curves T is
one continuous formula per region (``branch``, equal to ``fn`` there), so
its limit along a direction is that region's formula at the point
(:func:`limit_along`), and a monotone T reaches its sup left of a point
along the diagonal (left continuity) or the two axes (weak).  ``M``,
``Pi`` and ``W`` declare no curves and pass on their declared continuity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .rationals import UNIT_ONE, UNIT_ZERO, RationalLike, UnitRat, quoted
from .verdicts import CatalogError, Verdict, Witness2D, check_axioms

TNormFn = Callable[[UnitRat, UnitRat], UnitRat]
# The line alpha*a + beta*b = gamma, as (alpha, beta, gamma).
Curve = tuple[int, int, int]
# T's formula on the region on the given sides (-1, 0, 1 per curve) of the
# declared curves, extended continuously to the point (a, b).
BranchFn = Callable[[UnitRat, UnitRat, tuple[int, ...]], UnitRat]

DIAGONAL: Curve = (1, -1, 0)
ANTIDIAGONAL: Curve = (1, 1, 1)
RIGHT_EDGE: Curve = (1, 0, 1)
TOP_EDGE: Curve = (0, 1, 1)
# Every line on which a catalog t-norm changes formula: the curves, and
# a = b where the minimum switches argument.  Along a segment that meets
# none of them, T(f(s), g(s)) is a polynomial of degree at most 2 in s.
FORMULA_LINES = (DIAGONAL, ANTIDIAGONAL, RIGHT_EDGE, TOP_EDGE)


def _on_curve(curve: Curve, s: Fraction) -> tuple[Fraction, Fraction]:
    alpha, beta, gamma = curve  # s is the free coordinate: a, or b when beta = 0
    return (s, (gamma - alpha * s) / beta) if beta else (Fraction(gamma, alpha), s)


@dataclass(frozen=True)
class TNormTraits:
    is_commutative: bool
    is_associative: bool
    has_one_identity: bool
    is_monotone: bool
    is_left_continuous: bool
    is_weakly_left_continuous: bool
    is_continuous: bool


@dataclass(frozen=True)
class TNormDesc:
    """A named operation on [0,1] together with its declared structure.

    ``declared`` may be None for a black-box operation; such descriptors
    can be checked but not classified.  ``fn`` is continuous off
    ``curves``; ``branch`` is required whenever ``curves`` is not empty and
    equals ``fn`` off them.  The ``certificate`` is the one point set derived
    from the curves: each curve's cuts by a = 0, b = 0, ``FORMULA_LINES`` and
    the other curves, and each piece's midpoint.  The continuity checkers
    refuse an entry with neither curves nor declared continuity, and read
    ``branch`` there.  They trust T to be monotone and each ``branch``
    formula to be linear on a piece, so t(x, y) minus a limit, >= 0 and
    linear there, is zero at the midpoint iff on the piece.  The miner takes
    its seed levels from the certificate's coordinates.
    """

    name: str
    fn: TNormFn
    declared: TNormTraits | None
    curves: tuple[Curve, ...] = ()
    branch: BranchFn | None = None

    def __post_init__(self) -> None:
        if self.curves and self.branch is None:
            raise ValueError(f"t-norm {self.name!r} declares curves but no branch")
        for curve in self.curves:
            if curve[0] == curve[1] == 0:
                raise ValueError(f"t-norm {self.name!r} declares the degenerate curve {curve}")

    def __call__(self, x: UnitRat, y: UnitRat) -> UnitRat:
        return self.fn(x, y)

    @cached_property
    def certificate(self) -> tuple[tuple[UnitRat, UnitRat], ...]:
        """Ordered by free coordinate: denominator (1 as 2/2), value, curve."""
        keyed = []
        lines = ((1, 0, 0), (0, 1, 0)) + FORMULA_LINES + self.curves
        for index, curve in enumerate(self.curves):
            ends = [_on_curve(curve, Fraction(s)) for s in (0, 1)]
            gaps = ([a * x + b * y - c for x, y in ends] for a, b, c in lines)
            cuts = sorted({f0 / (f0 - f1) for f0, f1 in gaps if f0 != f1})
            for s in cuts + [(u + v) / 2 for u, v in zip(cuts, cuts[1:])]:
                keyed.append((max(s.denominator, 2), s, index, _on_curve(curve, s)))
        points = dict.fromkeys(p for *_, p in sorted(keyed) if all(0 < q <= 1 for q in p))
        return tuple((UnitRat(x), UnitRat(y)) for x, y in points)


def _minimum(x: UnitRat, y: UnitRat) -> UnitRat:
    return x if x <= y else y


def _product(x: UnitRat, y: UnitRat) -> UnitRat:
    return UnitRat(x.value * y.value)


def _lukasiewicz(x: UnitRat, y: UnitRat) -> UnitRat:
    return UnitRat(max(x.value + y.value - 1, Fraction(0)))


def _nilpotent_min(x: UnitRat, y: UnitRat) -> UnitRat:
    if x.value + y.value > 1:
        return _minimum(x, y)
    return UNIT_ZERO


def _nilpotent_min_closed(x: UnitRat, y: UnitRat) -> UnitRat:
    if x.value + y.value >= 1:
        return _minimum(x, y)
    return UNIT_ZERO


def _drastic(x: UnitRat, y: UnitRat) -> UnitRat:
    if x == UNIT_ONE or y == UNIT_ONE:
        return _minimum(x, y)
    return UNIT_ZERO


def _nilpotent_min_branch(x: UnitRat, y: UnitRat, sides: tuple[int, ...]) -> UnitRat:
    return _minimum(x, y) if sides[0] > 0 else UNIT_ZERO


def _nilpotent_min_closed_branch(
    x: UnitRat, y: UnitRat, sides: tuple[int, ...]
) -> UnitRat:
    return _minimum(x, y) if sides[0] >= 0 else UNIT_ZERO


def _drastic_branch(x: UnitRat, y: UnitRat, sides: tuple[int, ...]) -> UnitRat:
    # On an edge the formula is the minimum, below both edges it is zero.
    return _minimum(x, y) if 0 in sides else UNIT_ZERO


_CONTINUOUS = TNormTraits(True, True, True, True, True, True, True)

_CATALOG: dict[str, TNormDesc] = {
    "M": TNormDesc("M", _minimum, _CONTINUOUS),
    "Pi": TNormDesc("Pi", _product, _CONTINUOUS),
    "W": TNormDesc("W", _lukasiewicz, _CONTINUOUS),
    "nM": TNormDesc(
        "nM",
        _nilpotent_min,
        TNormTraits(True, True, True, True, True, True, False),
        (ANTIDIAGONAL,),
        _nilpotent_min_branch,
    ),
    "D": TNormDesc(
        "D",
        _drastic,
        TNormTraits(True, True, True, True, False, True, False),
        (RIGHT_EDGE, TOP_EDGE),
        _drastic_branch,
    ),
    "nM_hat": TNormDesc(
        "nM_hat",
        _nilpotent_min_closed,
        TNormTraits(True, True, True, True, False, False, False),
        (ANTIDIAGONAL,),
        _nilpotent_min_closed_branch,
    ),
}

TNORM_NAMES = tuple(_CATALOG)


def catalog_tnorm(name: str) -> TNormDesc:
    try:
        return _CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"unknown t-norm {quoted(name)}; valid names: {', '.join(TNORM_NAMES)}"
        ) from None


def _random_unit(rng: random.Random, max_den: int = 64) -> UnitRat:
    den = rng.randint(1, max_den)
    num = rng.randint(0, den)
    return UnitRat(Fraction(num, den))


def check_tnorm_axioms(t: TNormDesc, budget: int, seed: int) -> Verdict:
    """Randomized falsification of commutativity, associativity,
    monotonicity in each place, and the identity 1."""
    return check_axioms(t, _random_unit, UNIT_ONE, budget, seed)


def limit_along(
    t: TNormDesc, x: UnitRat, y: UnitRat, dx: RationalLike, dy: RationalLike
) -> UnitRat:
    """The limit of T at (x, y) from the points (x + s*dx, y + s*dy), s -> 0+.

    Those points lie, for small s, on one side of each declared curve: the
    side of (x, y), or the side (dx, dy) points to when (x, y) is on it.
    """
    if not t.curves:
        return t(x, y)
    sides = []
    for alpha, beta, gamma in t.curves:
        offset = alpha * x.value + beta * y.value - gamma or alpha * dx + beta * dy
        sides.append((offset > 0) - (offset < 0))
    return t.branch(x, y, tuple(sides))


# The directions whose best limit is T's sup over the approach region: the
# quadrant {u<x, v<y} for ``left``, {u<=x, v<y} or {u<x, v<=y} for ``weak``.
_DIRECTIONS = {"left": ((-1, -1),), "weak": ((0, -1), (-1, 0))}


def _check_point_continuity(t: TNormDesc, x: UnitRat, y: UnitRat, region: str) -> bool:
    """True when T's sup over the approach region reaches t(x, y)."""
    best = max(limit_along(t, x, y, dx, dy) for dx, dy in _DIRECTIONS[region])
    return best >= t(x, y)


def _continuity_check(t: TNormDesc, region: str) -> Verdict:
    if not t.curves and not (t.declared and t.declared.is_continuous):
        raise ValueError(f"t-norm {t.name!r} declares neither curves nor continuity")
    label = "weakly left" if region == "weak" else "left"
    for cases, (x, y) in enumerate(t.certificate, 1):
        if not _check_point_continuity(t, x, y, region):
            return Verdict(False, cases, Witness2D((x, y), f"not {label} continuous"))
    return Verdict(True, len(t.certificate))


def check_weak_left_continuity(t: TNormDesc) -> Verdict:
    return _continuity_check(t, "weak")


def check_left_continuity(t: TNormDesc) -> Verdict:
    return _continuity_check(t, "left")
