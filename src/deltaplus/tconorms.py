"""Catalog of binary operations on [0,infinity] with verified metadata.

Entries carry exact rational evaluators plus declared structure: t-conorm
axioms, continuity, joint strict monotonicity (unconditional and the
variant conditioned on a finite result) and Archimedean-ness, with hints
at known idempotent elements and a finite certificate for condition (a).

A continuous t-conorm is an ordinal sum of continuous Archimedean
summands (Ling 1965).  Every continuous entry but ``max`` is one summand
on [0, end] with an increasing generator phi, phi(0) = 0, and the
maximum above it:

    L(u, v) = phi^-1(min(phi(u) + phi(v), phi(end)))   for u, v <= end

``plus`` is (inf, t), ``osum_trunc:p`` is (p, t), ``osum_strict:p`` is
(p, t / (p - t)), and ``nilpotent_rat`` is (inf, squash), capped addition
through an order isomorphism [0,infinity] -> [0,1] that stays rational:

    squash(t)   = t / (1 + t)         squash(inf) = 1
    unsquash(s) = s / (1 - s)         unsquash(1) = inf

Each generator is a rational Moebius map, so every value is exact.  From
(end, phi, phi^-1) :func:`_ordinal_sum` derives the evaluator, the
level-set solver phi^-1(phi(x) - phi(u)) (a summand on all of
[0,infinity]), the plateau predicate (a finite summand with finite
phi(end)), the idempotent hints end and end + 1, the declared traits and
the certificate: the plateau quadruple (m, m, end, end) with
phi(m) = phi(end)/2 where phi(end) is finite, and one strict quadruple
per region.  ``max`` and the discontinuous ``drastic`` are written out
directly.  Conditional strictness and Archimedean-ness are decided at the
certificate, with no random point (see :class:`TConormDesc`); only the
axioms, which have no finite certificate, are sampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable

from .rationals import (
    EXT_INF, EXT_ZERO, ExtRat, RationalParseError, _parse_fraction, ext, ext_max, quoted,
)
from .verdicts import CatalogError, Verdict, Witness2D, check_axioms

TConormFn = Callable[[ExtRat, ExtRat], ExtRat]
# (u, v, u', v') with u < u' and v < v': a joint-strictness probe.
Quadruple = tuple[ExtRat, ExtRat, ExtRat, ExtRat]


def squash(t: ExtRat) -> Fraction:
    """Order isomorphism [0,inf] -> [0,1]."""
    if t.is_infinite:
        return Fraction(1)
    return t.finite / (1 + t.finite)


def unsquash(s: Fraction) -> ExtRat:
    """Inverse of :func:`squash`."""
    if s == 1:
        return EXT_INF
    return ExtRat(s / (1 - s))


@dataclass(frozen=True)
class TConormTraits:
    is_tconorm: bool
    is_continuous: bool
    satisfies_ls: bool
    satisfies_lcs: bool
    is_archimedean: bool


@dataclass(frozen=True)
class LCSWitness:
    """A quadruple u<u', v<v' with equal finite results: a genuine
    violation of conditional strict monotonicity."""

    u: ExtRat
    u_hi: ExtRat
    v: ExtRat
    v_hi: ExtRat
    value_lo: ExtRat
    value_hi: ExtRat


@dataclass(frozen=True)
class TConormDesc:
    """A named operation on [0,inf] with declared, verifiable structure.

    The ``certificate`` is the finite set of quadruples (u, v, u', v'),
    u < u' and v < v', at which :func:`check_LCS` decides joint strictness;
    its finite positive coordinates, after ``idempotent_hints``, are where
    :func:`is_archimedean` looks for an interior idempotent.  The checkers
    refuse an empty certificate.  They trust each region of L (a summand,
    the maximum above it; for ``drastic`` the axes and the plateau off
    them) to be one continuous formula, strictly increasing wherever its
    generator is.  Then joint strictness fails exactly on a plateau, so one
    quadruple on each plateau, and one per strict region as a check of
    ``fn``, decide (LCS).
    """

    name: str
    fn: TConormFn
    declared: TConormTraits | None
    param: Fraction | None = None
    idempotent_hints: tuple[ExtRat, ...] = ()
    # Exact predicate: does L attain its infimum L(a,b) somewhere inside the
    # half-open cell ]a,a_hi] x ]b,b_hi]?  None means never (strict families).
    cell_inf_attained: Callable[[ExtRat, ExtRat, ExtRat, ExtRat], bool] | None = None
    # Exact solver for L(u, v) = x given u, where defined (Archimedean entries).
    solve_second: Callable[[ExtRat, ExtRat], ExtRat] | None = None
    certificate: tuple[Quadruple, ...] = ()

    def __call__(self, u: ExtRat, v: ExtRat) -> ExtRat:
        return self.fn(u, v)

    @property
    def spec(self) -> str:
        if self.param is None:
            return self.name
        p = self.param
        text = str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"
        return f"{self.name}:{text}"


def _drastic(u: ExtRat, v: ExtRat) -> ExtRat:
    if u == EXT_ZERO or v == EXT_ZERO:
        return ext_max(u, v)
    return EXT_INF


def _ordinal_sum(
    name: str, end: ExtRat,
    phi: Callable[[ExtRat], Fraction | None], inv: Callable[[Fraction], ExtRat],
) -> TConormDesc:
    """The entry with one summand phi^-1(min(phi(u) + phi(v), phi(end)))
    on [0, end] and the maximum above it; phi is None where infinite."""
    top = phi(end)
    # Archimedean iff no max part sits above the summand (end = inf); strict
    # iff it has no plateau (phi(end) infinite); conditionally strict also
    # when its only plateau is at L = inf.
    traits = TConormTraits(True, True, top is None, top is None or end.is_infinite, end.is_infinite)
    # The plateau quadruple, L(m, m) = L(end, end) = end, where phi(end) is
    # finite; then one strict quadruple in the summand, below any plateau.
    inner = inv(top / 4 if top is not None else Fraction(1))
    certificate = ((EXT_ZERO, EXT_ZERO, inner, inner),)
    if top is not None:
        middle = inv(top / 2)
        certificate = ((middle, middle, end, end),) + certificate

    def summand(u: ExtRat, v: ExtRat) -> ExtRat:
        s, t = phi(u), phi(v)
        if s is None or t is None:
            return end
        s += t
        return end if top is not None and s >= top else inv(s)

    if end.is_infinite:
        def solve_second(u: ExtRat, x: ExtRat) -> ExtRat:
            if x.is_infinite:
                return EXT_INF
            s, t = phi(x), phi(u)
            if t is None or t > s:
                raise ValueError("no solution: first argument exceeds target")
            return inv(s - t)

        return TConormDesc(
            name, summand, traits, solve_second=solve_second, certificate=certificate
        )

    def fn(u: ExtRat, v: ExtRat) -> ExtRat:
        hi = ext_max(u, v)
        return hi if hi > end else summand(u, v)

    def attained(a: ExtRat, b: ExtRat, a_hi: ExtRat, b_hi: ExtRat) -> bool:
        # The plateau {u, v <= end, phi(u) + phi(v) >= phi(end)} reaches
        # into the cell interior exactly when the lower corner sits on it
        # with room to move in both coordinates.
        return a < end and b < end and phi(a) + phi(b) >= top

    above = end + ext(1)  # and one strict quadruple in the max part
    return TConormDesc(
        name, fn, traits, param=end.finite, idempotent_hints=(end, above),
        cell_inf_attained=None if top is None else attained,
        certificate=certificate + ((above, above, above + ext(1), above + ext(1)),),
    )


# The identity generator: t itself, None at infinity.
_identity = attrgetter("finite")

_FIXED_CATALOG: dict[str, TConormDesc] = {
    "max": TConormDesc(
        "max", ext_max, TConormTraits(True, True, True, True, False), None, (ext(1), ext(2)),
        certificate=((ext(1), ext(1), ext(2), ext(2)),),
    ),
    "plus": _ordinal_sum("plus", EXT_INF, _identity, ExtRat),
    "nilpotent_rat": _ordinal_sum("nilpotent_rat", EXT_INF, squash, unsquash),
    # Off the axes drastic is the plateau L = inf; on them it is max.
    "drastic": TConormDesc(
        "drastic", _drastic, TConormTraits(True, False, False, True, True),
        certificate=((EXT_ZERO, EXT_ZERO, ext(1), ext(1)), (ext(1), ext(1), ext(2), ext(2))),
    ),
}

# The ordinal-sum families, one entry per positive rational parameter p.
_FAMILIES: dict[str, Callable[[Fraction], TConormDesc]] = {
    "osum_trunc": lambda p: _ordinal_sum("osum_trunc", ExtRat(p), _identity, ExtRat),
    "osum_strict": lambda p: _ordinal_sum(
        "osum_strict", ExtRat(p), lambda t: None if t.finite == p else t.finite / (p - t.finite),
        lambda s: ExtRat(p * s / (1 + s)),
    ),
}

TCONORM_NAMES = (*_FIXED_CATALOG, *_FAMILIES)
# The names as the CLI lists them: a family is written name:<p>.
TCONORM_FORMS = (*_FIXED_CATALOG, *(f"{name}:<p>" for name in _FAMILIES))


def catalog_tconorm(name: str, param: Fraction | int | None = None) -> TConormDesc:
    """Look up a catalog entry; the ordinal-sum families require a
    positive finite rational parameter."""
    if name in _FIXED_CATALOG:
        if param is not None:
            raise CatalogError(f"{name} takes no parameter")
        return _FIXED_CATALOG[name]
    if name in _FAMILIES:
        if param is None:
            raise CatalogError(f"{name} requires a parameter, e.g. {name}:2")
        p = Fraction(param)
        if p <= 0:
            raise CatalogError(f"{name} parameter must be positive, got {p}")
        return _FAMILIES[name](p)
    raise CatalogError(
        f"unknown t-conorm {quoted(name)}; valid names: {', '.join(TCONORM_NAMES)}"
    )


def catalog_tconorm_spec(spec: str) -> TConormDesc:
    """Parse CLI-style names such as ``plus`` or ``osum_trunc:3/2``; the
    parameter takes the package's rational grammar, digits or
    digits/digits."""
    name, sep, param_text = spec.partition(":")
    if not sep:
        return catalog_tconorm(name)
    try:
        param = _parse_fraction(param_text)
    except RationalParseError as exc:
        raise CatalogError(f"bad parameter in {quoted(spec)}: {exc}") from None
    return catalog_tconorm(name, param)


def _sample_pool(l: TConormDesc) -> list[ExtRat]:
    pool = [EXT_ZERO, EXT_INF, ext(1)]
    pool.extend(l.idempotent_hints)
    if l.param is not None:
        p = l.param
        pool.extend(ExtRat(q) for q in (p / 2, p, 2 * p, p - p / 8, p + p / 8))
    return pool


def _random_ext(rng: random.Random, pool: list[ExtRat]) -> ExtRat:
    roll = rng.random()
    if roll < 0.08:
        return EXT_INF
    if roll < 0.16:
        return EXT_ZERO
    if roll < 0.35 and pool:
        return pool[rng.randrange(len(pool))]
    den = rng.randint(1, 16)
    num = rng.randint(0, 8 * den)
    return ExtRat(Fraction(num, den))


def check_tconorm_axioms(l: TConormDesc, budget: int, seed: int) -> Verdict:
    """Randomized falsification of commutativity, associativity,
    monotonicity, and the identity 0, on samples including the endpoints."""
    pool = _sample_pool(l)
    return check_axioms(l, lambda rng: _random_ext(rng, pool), EXT_ZERO, budget, seed)


def _certificate(l: TConormDesc) -> tuple[Quadruple, ...]:
    if not l.certificate:
        raise ValueError(f"t-conorm {l.name!r} declares no certificate")
    return l.certificate


def _equal_corners(l: TConormDesc, finite_only: bool) -> Verdict:
    for cases, (u, v, u_hi, v_hi) in enumerate(_certificate(l), 1):
        hi = l(u_hi, v_hi)
        if finite_only and hi.is_infinite:
            continue
        lo = l(u, v)
        if lo == hi:
            return Verdict(False, cases, LCSWitness(u, u_hi, v, v_hi, lo, hi))
    return Verdict(True, len(l.certificate))


def check_LCS(l: TConormDesc) -> Verdict:
    """Decide conditional strictness at the certificate: fail on the first
    quadruple u<u', v<v' with L(u',v') finite and L(u,v) = L(u',v')."""
    return _equal_corners(l, finite_only=True)


def is_archimedean(l: TConormDesc) -> Verdict:
    """Pass means Archimedean.  A Fail verdict carries an interior
    idempotent element as its witness.

    The candidates are the idempotent hints, then the certificate's finite
    positive coordinates; a pass has evaluated at least one of them.
    """
    points = (*l.idempotent_hints, *(x for quad in _certificate(l) for x in quad))
    candidates = dict.fromkeys(x for x in points if x != EXT_ZERO and not x.is_infinite)
    if not candidates:
        raise ValueError(f"t-conorm {l.name!r} has no interior point to certify")
    for cases, x in enumerate(candidates, 1):
        if l(x, x) == x:
            return Verdict(False, cases, Witness2D((x, x), "interior idempotent"))
    return Verdict(True, len(candidates))
