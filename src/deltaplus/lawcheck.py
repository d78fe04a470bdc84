"""Randomized law suites and counterexample mining for a (T, L) pair.

Seven laws are checked on the triangle operation induced by a catalog
pair: closure (agreement of the raw and regularized values at every
corner abscissa), commutativity, associativity, identity, monotonicity,
and the two embedding homomorphisms (unit steps compose through L,
constant levels compose through T).  Each law is one entry of a table:
how a random case draws its operands, which two sides it compares at
which abscissae, and the relation that marks a failure (inequality, or
the wrong order for monotonicity).  All comparisons are exact canonical
equality; a failing case always carries a fully serialized witness that
re-verifies standalone.  A closure case on step functions takes its sides
and probes from one grid (:func:`deltaplus.tau.closure_profile`).

:func:`check_law` and the miner each feed one stream of cases, each case
a list of ``(law, operands)`` checks, through one budgeted loop that
stops at the first failure.  The miner's stream first runs the cheap laws
(closure, commutativity, identity) over pairs of structured candidates --
unit-step and constant-level families, two-step functions straddling the
t-norm's discontinuity curves, and steps straddling the conorm's
idempotents and caps.  Under the maximum, closure then runs on pairs of
genuine ramps (see :mod:`deltaplus.ramps`): a step function reaches a
level only strictly after its jump, so it never approaches a
discontinuity curve of T from below, and the defect of a t-norm that is
not left continuous shows only on strictly increasing operands.  A ramp
witness records the split where the raw value is attained, and
:func:`reverify` checks it along a second path.  Associativity over the
candidate pairs follows, and random drift with escalating jump counts
comes last.  A miss on a pair the classifier rejects is reported as
inconclusive, never as a pass: the theory guarantees a counterexample
among general distribution functions, not among the operands this miner
draws.  Ramps under other conorms are not drawn yet, so
``(nM_hat, plus)`` stays inconclusive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import count, cycle, islice, product
from operator import gt, ne
from typing import TYPE_CHECKING

from .classify import classify as _classify_pair
from .ddf import DDF, canonicalize, make_epsilon, make_v, merged_probe_points, serialize
from .rationals import (
    EXT_INF,
    EXT_ZERO,
    ExtRat,
    UnitRat,
    format_ext,
    format_unit,
    quoted,
)
from .tau import closure_profile, tau
from .tconorms import TConormDesc
from .tnorms import TNormDesc, _random_unit

if TYPE_CHECKING:
    from .ramps import PLDDF


@dataclass(frozen=True)
class RandomDDFConfig:
    """Shape of the random step-function distribution: jump-count bound
    and denominator bounds for abscissae and values."""

    max_jumps: int = 4
    abscissa_pool: int = 8
    value_pool: int = 8

    def __post_init__(self) -> None:
        if self.max_jumps < 0 or self.abscissa_pool < 1 or self.value_pool < 1:
            raise ValueError("bounds must be positive (max_jumps may be 0)")


@dataclass(frozen=True)
class LawWitness:
    """Operands plus one abscissa where the two sides differ.

    A closure witness on ramps also records ``split``, a pair (u, v) with
    L(u, v) = x at which T(f(u), g(v)) is the raw value ``rhs``.
    """

    law: str
    operands: tuple[DDF | PLDDF, ...]
    x: ExtRat
    lhs: UnitRat
    rhs: UnitRat
    detail: str = ""
    split: tuple[ExtRat, ExtRat] | None = None


@dataclass(frozen=True)
class LawReport:
    tnorm: str
    tconorm: str
    law: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    cases: int
    budget: int
    seed: int
    config: RandomDDFConfig
    witness: LawWitness | None = None


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def serialize_report(report: LawReport) -> str:
    """Line-oriented key=value records; witness operands embed escaped
    .ddf payloads.  Byte-stable for replay comparison."""
    cfg = report.config
    lines = [
        "report"
        f" tnorm={report.tnorm} tconorm={report.tconorm} law={report.law}"
        f" verdict={report.verdict} cases={report.cases} budget={report.budget}"
        f" seed={report.seed} max_jumps={cfg.max_jumps}"
        f" abscissa_pool={cfg.abscissa_pool} value_pool={cfg.value_pool}"
    ]
    w = report.witness
    if w is not None:
        split = "" if w.split is None else (
            f" u={format_ext(w.split[0])} v={format_ext(w.split[1])}"
        )
        lines.append(
            f"witness law={w.law} x={format_ext(w.x)}"
            f" lhs={format_unit(w.lhs)} rhs={format_unit(w.rhs)}{split}"
            f" detail={_escape(w.detail)}"
        )
        for slot, operand in enumerate(w.operands):
            lines.append(f"operand slot={slot} ddf={_escape(serialize(operand))}")
    return "\n".join(lines) + "\n"


def random_ddf(cfg: RandomDDFConfig, seed: int) -> DDF:
    """Deterministic random canonical DDF with at most max_jumps jumps."""
    return _random_ddf(cfg, random.Random(seed))


def _random_ddf(cfg: RandomDDFConfig, rng: random.Random) -> DDF:
    count = rng.randint(0, cfg.max_jumps)
    if count == 0:
        return DDF(())
    xs: set[Fraction] = set()
    ps: set[Fraction] = set()
    # Attempt caps keep tiny pools from stalling; fewer jumps are fine.  A
    # pool has only K (numerator, denominator) pairs to draw, so a count
    # above K is capped at K and a huge max_jumps cannot hang.
    a, v = cfg.abscissa_pool, cfg.value_pool
    for _ in range(64 * min(count, a * (2 * a + 3))):
        if len(xs) >= count:
            break
        den = rng.randint(1, a)
        xs.add(Fraction(rng.randint(0, 4 * den), den))
    for _ in range(64 * min(count, v * (v + 1) // 2)):
        if len(ps) >= count:
            break
        den = rng.randint(1, v)
        ps.add(Fraction(rng.randint(1, den), den))
    jumps = tuple(
        (ExtRat(x), UnitRat(p)) for x, p in zip(sorted(xs), sorted(ps))
    )
    return DDF(jumps)


def _random_ext(rng: random.Random, cfg: RandomDDFConfig) -> ExtRat:
    # Unlike the conorm checkers' sampler: no endpoint pool, a tenth at infinity.
    if rng.random() < 0.1:
        return EXT_INF
    den = rng.randint(1, cfg.abscissa_pool)
    return ExtRat(Fraction(rng.randint(0, 4 * den), den))


def _pointwise_max(f: DDF, g: DDF) -> DDF:
    return canonicalize(f.jumps + g.jumps)


# ---- the law table -------------------------------------------------------------
#
# Each law is ``(draw, sides, violated)``.  ``draw(t, l, cfg, rng)`` makes
# the operands of one random case; a witness records them as they are.
# ``sides(t, l, *operands)`` lazily yields comparisons ``(values, probes,
# detail)``: ``values(x)`` gives both sides at x, plus the split on ramps,
# and probes are the abscissae where they must agree.  ``violated(lhs,
# rhs)`` marks a failure.


def _draw_ddfs(n: int):
    def draw(t, l, cfg: RandomDDFConfig, rng: random.Random) -> tuple[DDF, ...]:
        return tuple(_random_ddf(cfg, rng) for _ in range(n))

    return draw


def _draw_ordered(t, l, cfg: RandomDDFConfig, rng: random.Random) -> tuple[DDF, ...]:
    # (lo, hi, g) with hi dominating lo pointwise by construction.
    lo = _random_ddf(cfg, rng)
    return lo, _pointwise_max(lo, _random_ddf(cfg, rng)), _random_ddf(cfg, rng)


def _draw_unit_steps(t, l, cfg: RandomDDFConfig, rng: random.Random) -> tuple[DDF, ...]:
    u, v = _random_ext(rng, cfg), _random_ext(rng, cfg)
    return make_epsilon(u), make_epsilon(v), make_epsilon(l(u, v))


def _draw_levels(t, l, cfg: RandomDDFConfig, rng: random.Random) -> tuple[DDF, ...]:
    p, q = _random_unit(rng, cfg.value_pool), _random_unit(rng, cfg.value_pool)
    return make_v(p), make_v(q), make_v(t(p, q))


def _compare(lhs: DDF, rhs: DDF, detail: str):
    # Canonical functions differ somewhere exactly when they differ
    # structurally, so equal sides need no probes.
    probes = merged_probe_points(lhs, rhs) if lhs != rhs else []
    return lambda x: (lhs.value_at(x), rhs.value_at(x)), probes, detail


def _closure(t, l, f, g):
    detail = "regularized vs raw value"
    if isinstance(f, DDF) and isinstance(g, DDF):
        regularized, raw_at, probes = closure_profile(t, l, f, g)
        yield lambda x: (regularized.value_at(x), raw_at(x)), probes, detail
    else:
        # Imported on first use, which keeps the package's own import light.
        from . import ramps

        probes = ramps.closure_probes(t, f, g)
        yield partial(ramps.closure_values, t, l, f, g), probes, detail


def _commutativity(t, l, f, g):
    yield _compare(tau(t, l, f, g), tau(t, l, g, f), "tau(f,g) vs tau(g,f)")


def _associativity(t, l, f, g, h):
    yield _compare(
        tau(t, l, tau(t, l, f, g), h),
        tau(t, l, f, tau(t, l, g, h)),
        "tau(tau(f,g),h) vs tau(f,tau(g,h))",
    )


def _identity(t, l, f):
    yield _compare(tau(t, l, f, make_epsilon(EXT_ZERO)), f, "tau(f, unit step at 0) vs f")


def _monotonicity(t, l, lo, hi, g):
    # The outputs must stay ordered in each operand slot.
    yield _compare(tau(t, l, lo, g), tau(t, l, hi, g), "tau(lo,g) above tau(hi,g)")
    yield _compare(tau(t, l, g, lo), tau(t, l, g, hi), "tau(g,lo) above tau(g,hi)")


def _embedding(detail: str):
    def sides(t, l, f, g, expected):
        yield _compare(tau(t, l, f, g), expected, detail)

    return sides


_LAW_TABLE = {
    "closure": (_draw_ddfs(2), _closure, ne),
    "commutativity": (_draw_ddfs(2), _commutativity, ne),
    "associativity": (_draw_ddfs(3), _associativity, ne),
    "identity": (_draw_ddfs(1), _identity, ne),
    "monotonicity": (_draw_ordered, _monotonicity, gt),
    "embedding_eps": (
        _draw_unit_steps, _embedding("unit steps must compose through the conorm"), ne
    ),
    "embedding_V": (
        _draw_levels, _embedding("constant levels must compose through the t-norm"), ne
    ),
}
LAWS = tuple(_LAW_TABLE)


def _law(law: str):
    try:
        return _LAW_TABLE[law]
    except KeyError:
        raise ValueError(f"unknown law {quoted(law)}; valid laws: {', '.join(LAWS)}") from None


def _case(t: TNormDesc, l: TConormDesc, law: str, operands: tuple) -> LawWitness | None:
    """The first probe where one of the law's comparisons is violated."""
    _, sides, violated = _law(law)
    for values, probes, detail in sides(t, l, *operands):
        for x in probes:
            a, b, *split = values(x)
            if violated(a, b):
                return LawWitness(law, operands, x, a, b, detail, *split)
    return None


def _first_failure(t: TNormDesc, l: TConormDesc, cases, budget: int):
    """Run the first ``budget`` cases of an endless stream, each a list of
    ``(law, operands)`` checks; the number of cases run and the first witness."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    for ran, checks in enumerate(islice(cases, budget), 1):
        for law, operands in checks:
            if (found := _case(t, l, law, operands)) is not None:
                return ran, found
    return ran, None


def check_law(
    t: TNormDesc,
    l: TConormDesc,
    law: str,
    cfg: RandomDDFConfig,
    budget: int,
    seed: int,
) -> LawReport:
    """Run ``budget`` randomized cases of one law; exact equality only."""
    draw = _law(law)[0]
    rng = random.Random(seed)
    cases = ([(law, draw(t, l, cfg, rng))] for _ in count())
    ran, witness = _first_failure(t, l, cases, budget)
    verdict = "pass" if witness is None else "fail"
    return LawReport(t.name, l.spec, law, verdict, ran, budget, seed, cfg, witness)


def reverify(t: TNormDesc, l: TConormDesc, witness: LawWitness) -> bool:
    """Recompute both sides of a failing case at the recorded abscissa.

    A ramp witness is checked along a path of its own: the raw side is T
    at the recorded split, the regularized side is extrapolated from T's
    values on the last linear piece left of x.
    """
    x = witness.x
    if witness.split is not None:
        # Both values are fixed by definition at 0 and at infinity, so no
        # closure gap can sit there.
        if x == EXT_ZERO or x.is_infinite:
            return False
        from . import ramps

        f, g = witness.operands
        u, v = witness.split
        reg = ramps.regularized_by_extrapolation(t, l, f, g, x)
        return (
            l(u, v) == x
            and t(f.value_at(u), g.value_at(v)) == witness.rhs
            and reg == witness.lhs != witness.rhs
        )
    _, sides, violated = _law(witness.law)
    return any(violated(*values(x)[:2]) for values, _, _ in sides(t, l, *witness.operands))


def _caps(l: TConormDesc) -> set[Fraction]:
    # The conorm's finite positive idempotents; a parameter p is the first.
    return {h.finite for h in l.idempotent_hints if not h.is_infinite and h.finite > 0}


def _probe_levels(t: TNormDesc) -> set[Fraction]:
    # Quarter levels and the coordinates of the t-norm's certificate: the
    # points on its discontinuity curves where the checkers decide continuity.
    # All lie in ]0, 1], as the certificate keeps only points of ]0, 1]².
    levels = {Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)}
    for x, y in t.certificate:
        levels.add(x.value)
        levels.add(y.value)
    return levels


def _structured_candidates(t: TNormDesc, l: TConormDesc) -> list[DDF]:
    """Seeds for the miner: families the theory's failure modes point at,
    with constant levels at :func:`_probe_levels`."""
    abscissae: set[Fraction] = {Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)}
    for c in _caps(l):
        abscissae.update(
            (c / 2, 3 * c / 4, 9 * c / 10, 19 * c / 20, c, 21 * c / 20, 3 * c / 2)
        )
    candidates: list[DDF] = [DDF(()), make_epsilon(EXT_ZERO)]
    candidates.extend(make_epsilon(ExtRat(a)) for a in sorted(abscissae))
    candidates.extend(make_v(UnitRat(p)) for p in sorted(_probe_levels(t)))
    # Two-step functions whose value pairs straddle the t-norm's curves.
    for lo, hi in ((Fraction(1, 4), Fraction(3, 4)), (Fraction(3, 8), Fraction(5, 8))):
        candidates.append(
            DDF(((ExtRat(Fraction(1)), UnitRat(lo)), (ExtRat(Fraction(2)), UnitRat(hi))))
        )
    return candidates


def _ramp_candidates(t: TNormDesc, l: TConormDesc) -> list[PLDDF]:
    """Ramps from 0 at 0 to each level of :func:`_probe_levels`, which
    holds the certificate's coordinates, reached at each of the conorm's
    idempotents: they approach the t-norm's discontinuity curves from
    below, which no step function does."""
    from .ramps import PLDDF

    return [
        PLDDF(((ExtRat(a), UnitRat(p), UnitRat(p)),))
        for a in sorted(_caps(l) or {Fraction(1)})
        for p in sorted(_probe_levels(t))
    ]


def _mining_cases(t: TNormDesc, l: TConormDesc, cfg: RandomDDFConfig, rng: random.Random):
    """The miner's case stream, each case a list of ``(law, operands)``."""
    # Imported on first use, which keeps the package's own import light.
    from . import ramps

    seeds = _structured_candidates(t, l)
    ramp_seeds = _ramp_candidates(t, l) if ramps.supports(l) else []
    # All candidate pairs through the cheap laws, then closure on pairs of
    # ramps, then the candidate pairs through associativity with their
    # pointwise maximum as third operand.
    # Identity needs f alone, so it runs at f's first pair only.
    # Commutativity runs only for i < j: with f = g it cannot fail, and the
    # mirrored pair (g, f) came earlier.
    identity_done: set[DDF] = set()
    for (i, f), (j, g) in product(enumerate(seeds), repeat=2):
        checks = [("closure", (f, g))]
        if i < j:
            checks.append(("commutativity", (f, g)))
        if f not in identity_done:
            identity_done.add(f)
            checks.append(("identity", (f,)))
        yield checks
    for f, g in product(ramp_seeds, repeat=2):
        yield [("closure", (f, g))]
    for f, g in product(seeds, repeat=2):
        yield [("associativity", (f, g, _pointwise_max(f, g)))]

    # Random drift, laws in a fixed rotation, jump counts escalating with
    # the overall case number.
    escalation = (1, 2, cfg.max_jumps, cfg.max_jumps + 2, cfg.max_jumps + 4)
    start = 2 * len(seeds) ** 2 + len(ramp_seeds) ** 2
    for case, (law, (draw, _, _)) in zip(count(start), cycle(_LAW_TABLE.items())):
        jumps = escalation[(case // len(LAWS)) % len(escalation)]
        yield [(law, draw(t, l, replace(cfg, max_jumps=max(jumps, 1)), rng))]


def mine_counterexample(
    t: TNormDesc,
    l: TConormDesc,
    cfg: RandomDDFConfig,
    budget: int,
    seed: int,
) -> LawReport:
    """The cheap laws over pairs of structured candidates, then closure on
    pairs of ramps where the conorm supports them, then associativity over
    the candidate pairs, then random drift with escalating jump counts;
    first failure wins."""
    cases = _mining_cases(t, l, cfg, random.Random(seed))
    ran, witness = _first_failure(t, l, cases, budget)
    if witness is not None:
        return LawReport(t.name, l.spec, witness.law, "fail", ran, budget, seed, cfg, witness)
    classification = _classify_pair(t, l, budget=400, seed=0)
    verdict = "pass" if classification.verdict == "Triangle" else "inconclusive"
    return LawReport(t.name, l.spec, "all", verdict, ran, budget, seed, cfg)
