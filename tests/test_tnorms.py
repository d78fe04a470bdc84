import random
from fractions import Fraction
from itertools import product
from typing import Iterable

import pytest

from deltaplus.rationals import UNIT_ONE, UnitRat, unit
from deltaplus.tnorms import (
    ANTIDIAGONAL,
    DIAGONAL,
    FORMULA_LINES,
    TNORM_NAMES,
    CatalogError,
    TNormDesc,
    TNormTraits,
    _check_point_continuity,
    catalog_tnorm,
    check_left_continuity,
    check_tnorm_axioms,
    check_weak_left_continuity,
    limit_along,
)

BUDGET = 300
SEED = 20240811


def test_catalog_values():
    W = catalog_tnorm("W")
    assert W(unit(7, 10), unit(1, 2)) == unit(1, 5)
    assert catalog_tnorm("nM_hat")(unit(1, 2), unit(1, 2)) == unit(1, 2)
    assert catalog_tnorm("nM")(unit(1, 2), unit(1, 2)) == unit(0)
    assert catalog_tnorm("D")(unit(9, 10), unit(9, 10)) == unit(0)
    assert catalog_tnorm("M")(unit(1, 3), unit(2, 3)) == unit(1, 3)
    assert catalog_tnorm("Pi")(unit(1, 2), unit(2, 3)) == unit(1, 3)


def test_unknown_name_lists_valid_ones():
    with pytest.raises(CatalogError) as err:
        catalog_tnorm("median")
    for name in TNORM_NAMES:
        assert name in str(err.value)


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_catalog_passes_axioms(name):
    verdict = check_tnorm_axioms(catalog_tnorm(name), BUDGET, SEED)
    assert verdict.passed
    assert verdict.cases == BUDGET


def test_axioms_reject_negative_control():
    # max on [0,1] has identity 0, not 1.
    rogue = TNormDesc(
        "rogue_max",
        lambda x, y: x if x.value >= y.value else y,
        declared=None,
    )
    verdict = check_tnorm_axioms(rogue, BUDGET, SEED)
    assert not verdict.passed
    assert verdict.witness is not None


def test_nm_hat_is_a_tnorm_by_brute_force():
    # Exhaustive check on the 1/32 grid (associativity on the 1/8 grid).
    t = catalog_tnorm("nM_hat")
    grid = [unit(k, 32) for k in range(33)]
    for x, y in product(grid, repeat=2):
        assert t(x, y) == t(y, x)
        assert t(x, UNIT_ONE) == x
    coarse = [unit(k, 8) for k in range(9)]
    for x, y, z in product(coarse, repeat=3):
        assert t(t(x, y), z) == t(x, t(y, z))


def test_drastic_below_every_entry_below_minimum():
    rng = random.Random(SEED)
    D, M = catalog_tnorm("D"), catalog_tnorm("M")
    for name in TNORM_NAMES:
        t = catalog_tnorm(name)
        for _ in range(200):
            x = unit(rng.randint(0, 24), 24)
            y = unit(rng.randint(0, 24), 24)
            assert D(x, y).value <= t(x, y).value <= M(x, y).value


@pytest.mark.parametrize(
    "name, weak, left",
    [
        ("M", True, True),
        ("Pi", True, True),
        ("W", True, True),
        ("nM", True, True),
        ("D", True, False),
        ("nM_hat", False, False),
    ],
)
def test_continuity_classification(name, weak, left):
    t = catalog_tnorm(name)
    assert check_weak_left_continuity(t).passed == weak
    assert check_left_continuity(t).passed == left


def test_nm_hat_fails_weak_left_continuity_at_half_half():
    verdict = check_weak_left_continuity(catalog_tnorm("nM_hat"))
    assert not verdict.passed
    assert verdict.witness.point == (unit(1, 2), unit(1, 2))


def test_drastic_left_continuity_witness_on_edge():
    verdict = check_left_continuity(catalog_tnorm("D"))
    assert not verdict.passed
    x, y = verdict.witness.point
    assert x == UNIT_ONE or y == UNIT_ONE
    assert x != y  # some interior coordinate, the failing direction


_ANTIDIAGONAL_CERTIFICATE = (
    (unit(1, 2), unit(1, 2)),
    (unit(1, 4), unit(3, 4)),
    (unit(3, 4), unit(1, 4)),
)
CERTIFICATES = {
    "M": (),
    "Pi": (),
    "W": (),
    "nM": _ANTIDIAGONAL_CERTIFICATE,
    "nM_hat": _ANTIDIAGONAL_CERTIFICATE,
    "D": ((UNIT_ONE, unit(1, 2)), (unit(1, 2), UNIT_ONE), (UNIT_ONE, UNIT_ONE)),
}


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_certificate_points_and_their_order(name):
    # The cuts by a = b split a + b = 1 at (1/2, 1/2); the edges a = 1 and
    # b = 1 meet at (1, 1).  Points go by the free coordinate's denominator.
    assert catalog_tnorm(name).certificate == CERTIFICATES[name]


@pytest.mark.parametrize(
    "name, weak_cases, left_cases",
    [("M", 0, 0), ("Pi", 0, 0), ("W", 0, 0), ("nM", 3, 3), ("nM_hat", 1, 1), ("D", 3, 1)],
)
def test_continuity_checks_visit_the_certificate_only(name, weak_cases, left_cases):
    t = catalog_tnorm(name)
    assert check_weak_left_continuity(t).cases == weak_cases
    assert check_left_continuity(t).cases == left_cases


def test_drastic_left_continuity_witness_is_the_first_certificate_point():
    verdict = check_left_continuity(catalog_tnorm("D"))
    assert verdict.witness.point == (UNIT_ONE, unit(1, 2))


def test_a_defect_on_part_of_a_curve_is_caught():
    # nM_hat's closed branch on a + b = 1 only where a < b.  The curve's
    # cut at a = b, (1/2, 1/2), is continuous; its left piece is not.
    def minimum_if(keep: bool, x: UnitRat, y: UnitRat) -> UnitRat:
        return (x if x.value <= y.value else y) if keep else unit(0)

    def fn(x: UnitRat, y: UnitRat) -> UnitRat:
        total = x.value + y.value
        return minimum_if(total > 1 or (total == 1 and x.value < y.value), x, y)

    def branch(x: UnitRat, y: UnitRat, sides: tuple[int, ...]) -> UnitRat:
        return minimum_if(sides[0] > 0 or (sides[0] == 0 and sides[1] < 0), x, y)

    t = TNormDesc("half_closed", fn, None, curves=(ANTIDIAGONAL, DIAGONAL), branch=branch)
    grid = [unit(k, 16) for k in range(17)]
    for x, y in product(grid, repeat=2):
        assert t.branch(x, y, _sides(t, x, y)) == t(x, y), (x, y)
    verdict = check_weak_left_continuity(t)
    assert not verdict.passed
    assert verdict.witness.point == (unit(1, 4), unit(3, 4))


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_left_continuity_implies_weak(name):
    t = catalog_tnorm(name)
    if check_left_continuity(t).passed:
        assert check_weak_left_continuity(t).passed


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_declared_metadata_survives_checks(name):
    t = catalog_tnorm(name)
    assert check_tnorm_axioms(t, BUDGET, SEED).passed == (
        t.declared.is_commutative
        and t.declared.is_associative
        and t.declared.has_one_identity
        and t.declared.is_monotone
    )
    assert check_weak_left_continuity(t).passed == (
        t.declared.is_weakly_left_continuous
    )
    assert check_left_continuity(t).passed == t.declared.is_left_continuous


def test_identity_spot_check_on_declared_entries():
    pool = [Fraction(k, 16) for k in range(17)]
    for name in TNORM_NAMES:
        t = catalog_tnorm(name)
        if t.declared.has_one_identity:
            for q in pool:
                assert t(UnitRat(q), UNIT_ONE) == UnitRat(q)


# The dyadic refinement that the exact rule replaced, kept verbatim as a
# sampled falsifier: it reads only fn, so it also checks the declared
# continuity of the curve-less M, Pi and W.
REFINE_DEPTH = 20
_GAP_FLOOR = Fraction(1, 2**REFINE_DEPTH)


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


def _reference_point_continuity(t: TNormDesc, x: UnitRat, y: UnitRat, region: str) -> bool:
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


def _positive_unit(rng: random.Random, max_den: int = 64) -> UnitRat:
    den = rng.randint(1, max_den)
    return UnitRat(Fraction(rng.randint(1, den), den))


def _curve_points(t: TNormDesc):
    # The points of ]0, 1]² on each curve at the free coordinate num/den,
    # den in 2, 3, 4, 8, 16: a, or b on a curve with beta = 0.
    for den in (2, 3, 4, 8, 16):
        for num in range(1, den + 1):
            s = Fraction(num, den)
            for alpha, beta, gamma in t.curves:
                x, y = (s, (gamma - alpha * s) / beta) if beta else (Fraction(gamma, alpha), s)
                if 0 < x <= 1 and 0 < y <= 1:
                    yield UnitRat(x), UnitRat(y)


def _reference_points(t: TNormDesc, seed: int, budget: int = 400):
    # The certificate, points on the curves, and seeded points of ]0, 1]²,
    # so that the reference also checks the exact rule off them.
    rng = random.Random(seed)
    points = list(t.certificate) + list(_curve_points(t))
    for _ in range(budget):
        x = _positive_unit(rng)
        points.append((x, _positive_unit(rng)))
    return points


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_exact_rule_agrees_with_the_dyadic_refinement(name):
    t = catalog_tnorm(name)
    points = {p for seed in range(3) for p in _reference_points(t, seed)}
    for region in ("weak", "left"):
        for x, y in points:
            expected = _reference_point_continuity(t, x, y, region)
            assert _check_point_continuity(t, x, y, region) == expected, (x, y, region)


def _sides(t: TNormDesc, x: UnitRat, y: UnitRat) -> tuple[int, ...]:
    offsets = (alpha * x.value + beta * y.value - gamma for alpha, beta, gamma in t.curves)
    return tuple((q > 0) - (q < 0) for q in offsets)


@pytest.mark.parametrize("name", ["nM", "D", "nM_hat"])
def test_branch_equals_fn_on_every_region_and_curve(name):
    # The checkers read branch; this keeps fn, which the miner and tau read,
    # the same operation.
    t = catalog_tnorm(name)
    grid = [unit(k, 80) for k in range(81)]
    for x, y in product(grid, repeat=2):
        assert t.branch(x, y, _sides(t, x, y)) == t(x, y), (x, y)


def test_limits_along_directions():
    nM, nM_hat, D = catalog_tnorm("nM"), catalog_tnorm("nM_hat"), catalog_tnorm("D")
    half = unit(1, 2)
    assert limit_along(nM, half, half, -1, -1) == unit(0)
    assert limit_along(nM, half, half, 1, 0) == half
    assert limit_along(nM_hat, half, half, 0, -1) == unit(0)
    assert limit_along(nM_hat, half, half, 1, -1) == half  # along the curve
    assert limit_along(D, UNIT_ONE, half, 0, -1) == half
    assert limit_along(D, UNIT_ONE, half, -1, -1) == unit(0)
    assert limit_along(catalog_tnorm("Pi"), half, half, -1, -1) == unit(1, 4)


@pytest.mark.parametrize(
    "declared",
    [None, TNormTraits(True, True, True, True, True, True, False)],
    ids=["black-box", "declared-discontinuous"],
)
def test_continuity_of_an_operation_without_curves_is_refused(declared):
    t = TNormDesc("mystery", lambda x, y: x if x.value <= y.value else y, declared)
    for check in (check_weak_left_continuity, check_left_continuity):
        with pytest.raises(ValueError, match="mystery"):
            check(t)


def test_curves_without_a_branch_are_refused():
    with pytest.raises(ValueError, match="half_made"):
        TNormDesc("half_made", catalog_tnorm("nM").fn, None, curves=((1, 1, 1),))


def test_a_degenerate_curve_is_refused():
    # 0*a + 0*b = gamma is no line; _on_curve would divide by zero on it.
    nM = catalog_tnorm("nM")
    with pytest.raises(ValueError, match="flat.*degenerate"):
        TNormDesc("flat", nM.fn, None, curves=(ANTIDIAGONAL, (0, 0, 1)), branch=nM.branch)


def test_probes_come_from_the_curves_alone():
    # No point is passed: the (1/2, 1/2) cut of a + b = 1 by a = b is the
    # first case of the certificate derived from the curves.
    nm_hat = catalog_tnorm("nM_hat")
    t = TNormDesc(
        "nM_hat_copy", nm_hat.fn, nm_hat.declared, curves=nm_hat.curves, branch=nm_hat.branch
    )
    verdict = check_weak_left_continuity(t)
    assert not verdict.passed
    assert verdict.cases == 1
    assert verdict.witness.point == (unit(1, 2), unit(1, 2))


def test_every_catalog_curve_is_a_formula_line():
    for name in TNORM_NAMES:
        assert set(catalog_tnorm(name).curves) <= set(FORMULA_LINES), name
