"""Catalog of binary operations on [0,1] with verifiable structural metadata.

Each entry bundles an exact rational evaluator with declared flags
(commutativity, associativity, identity, monotonicity, and the three
continuity grades) plus, for piecewise definitions, the discontinuity
curves themselves, exact probe points on them, and the operation's
continuous formula on each side of them.  The ``check_*`` functions
falsify or support those flags; declared metadata must survive the
falsification suite.

Continuity of a black-box operation is only semi-decidable from samples.
The checkers combine exact probing of the declared boundary points with a
dyadic refinement delta_k = 2**-k for k <= REFINE_DEPTH, and report a
failure only when a gap of at least 2**-REFINE_DEPTH survives the final
refinement step without improving.  Elsewhere a pass means "sampled pass".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .rationals import UNIT_ONE, UNIT_ZERO, UnitRat
from .verdicts import CatalogError, Verdict, Witness2D, check_axioms

TNormFn = Callable[[UnitRat, UnitRat], UnitRat]
# The line alpha*a + beta*b = gamma, as (alpha, beta, gamma).
Curve = tuple[int, int, int]
# T's formula on the region on the given sides (-1, 0, 1 per curve) of the
# declared curves, extended continuously to the point (a, b).
BranchFn = Callable[[UnitRat, UnitRat, tuple[int, ...]], UnitRat]

ANTIDIAGONAL: Curve = (1, 1, 1)
RIGHT_EDGE: Curve = (1, 0, 1)
TOP_EDGE: Curve = (0, 1, 1)

REFINE_DEPTH = 20
_GAP_FLOOR = Fraction(1, 2**REFINE_DEPTH)


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
    ``curves``; ``branch`` is required whenever ``curves`` is not empty.
    """

    name: str
    fn: TNormFn
    declared: TNormTraits | None
    boundary_probes: tuple[tuple[UnitRat, UnitRat], ...] = field(default=())
    curves: tuple[Curve, ...] = ()
    branch: BranchFn | None = None

    def __call__(self, x: UnitRat, y: UnitRat) -> UnitRat:
        return self.fn(x, y)


def _minimum(x: UnitRat, y: UnitRat) -> UnitRat:
    return x if x.value <= y.value else y


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


def _antidiagonal_probes() -> tuple[tuple[UnitRat, UnitRat], ...]:
    # Exact points on the curve x + y = 1, the discontinuity locus of the
    # two nilpotent-minimum variants; includes (1/2, 1/2).
    points = []
    for den in (2, 3, 4, 8, 16):
        for num in range(1, den):
            x = Fraction(num, den)
            points.append((UnitRat(x), UnitRat(1 - x)))
    return tuple(points)


def _edge_probes() -> tuple[tuple[UnitRat, UnitRat], ...]:
    # Exact points on the curves x = 1 and y = 1 where the drastic product
    # drops to zero.
    points = []
    for den in (2, 3, 4, 8):
        for num in range(1, den + 1):
            t = UnitRat(Fraction(num, den))
            points.append((UNIT_ONE, t))
            points.append((t, UNIT_ONE))
    return tuple(points)


_CONTINUOUS = TNormTraits(True, True, True, True, True, True, True)

_CATALOG: dict[str, TNormDesc] = {
    "M": TNormDesc("M", _minimum, _CONTINUOUS),
    "Pi": TNormDesc("Pi", _product, _CONTINUOUS),
    "W": TNormDesc("W", _lukasiewicz, _CONTINUOUS),
    "nM": TNormDesc(
        "nM",
        _nilpotent_min,
        TNormTraits(True, True, True, True, True, True, False),
        _antidiagonal_probes(),
        (ANTIDIAGONAL,),
        _nilpotent_min_branch,
    ),
    "D": TNormDesc(
        "D",
        _drastic,
        TNormTraits(True, True, True, True, False, True, False),
        _edge_probes(),
        (RIGHT_EDGE, TOP_EDGE),
        _drastic_branch,
    ),
    "nM_hat": TNormDesc(
        "nM_hat",
        _nilpotent_min_closed,
        TNormTraits(True, True, True, True, False, False, False),
        _antidiagonal_probes(),
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
            f"unknown t-norm {name!r}; valid names: {', '.join(TNORM_NAMES)}"
        ) from None


def _random_unit(rng: random.Random, max_den: int = 64, positive: bool = False) -> UnitRat:
    den = rng.randint(1, max_den)
    num = rng.randint(1 if positive else 0, den)
    return UnitRat(Fraction(num, den))


def check_tnorm_axioms(t: TNormDesc, budget: int, seed: int) -> Verdict:
    """Randomized falsification of commutativity, associativity,
    monotonicity in each place, and the identity 1."""
    return check_axioms(t, _random_unit, UNIT_ONE, budget, seed)


def _approach_probes(
    x: UnitRat, y: UnitRat, k: int, region: str
) -> Iterable[tuple[UnitRat, UnitRat]]:
    delta = Fraction(1, 2**k)
    if region == "weak":
        if y.value - delta >= 0:
            yield x, UnitRat(y.value - delta)
        if x.value - delta >= 0:
            yield UnitRat(x.value - delta), y
    if x.value - delta >= 0 and y.value - delta >= 0:
        yield UnitRat(x.value - delta), UnitRat(y.value - delta)


def _check_point_continuity(t: TNormDesc, x: UnitRat, y: UnitRat, region: str) -> bool:
    """True when the sup over the approach region reaches t(x, y).

    The approach region is the open quadrant {u<x, v<y} for ``left`` and
    the L-shaped set {u<=x, v<y} or {u<x, v<=y} for ``weak``.  For a
    monotone operation the sup equals the limit along the probed edges, so
    the dyadic refinement below converges to it; a genuine discontinuity
    shows up as a gap that stops shrinking.
    """
    target = t(x, y).value
    best = Fraction(0)
    prev_best = Fraction(-1)
    for k in range(1, REFINE_DEPTH + 1):
        prev_best = best
        for u, v in _approach_probes(x, y, k, region):
            value = t(u, v).value
            if value > best:
                best = value
        if best >= target:
            return True
    gap = target - best
    if gap < _GAP_FLOOR:
        return True
    # Persistent gap: the final refinement brought no improvement.
    return best != prev_best


def _continuity_check(t: TNormDesc, budget: int, seed: int, region: str) -> Verdict:
    label = "weakly left" if region == "weak" else "left"
    rng = random.Random(seed)
    cases = 0
    # Exact probes on declared discontinuity curves come first.
    for x, y in t.boundary_probes:
        if x.value == 0 or y.value == 0:
            continue
        cases += 1
        if not _check_point_continuity(t, x, y, region):
            return Verdict(False, cases, Witness2D((x, y), f"not {label} continuous"))
    for _ in range(budget):
        x = _random_unit(rng, positive=True)
        y = _random_unit(rng, positive=True)
        cases += 1
        if not _check_point_continuity(t, x, y, region):
            return Verdict(False, cases, Witness2D((x, y), f"not {label} continuous"))
    return Verdict(True, cases)


def check_weak_left_continuity(t: TNormDesc, budget: int, seed: int) -> Verdict:
    return _continuity_check(t, budget, seed, "weak")


def check_left_continuity(t: TNormDesc, budget: int, seed: int) -> Verdict:
    return _continuity_check(t, budget, seed, "left")
