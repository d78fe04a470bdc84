import random
from fractions import Fraction
from itertools import product

import pytest

from deltaplus.rationals import EXT_INF, EXT_ZERO, ExtRat, ext, ext_add, ext_max
from deltaplus.tconorms import (
    CatalogError,
    TConormTraits,
    _sample_pool,
    catalog_tconorm,
    catalog_tconorm_spec,
    check_LCS,
    check_tconorm_axioms,
    is_archimedean,
    squash,
    unsquash,
)

from helpers import check_LS, ext_min, idempotents

BUDGET = 300
SEED = 20240811

ALL_SPECS = ["max", "plus", "nilpotent_rat", "drastic", "osum_trunc:2", "osum_strict:2"]

GRID = [
    EXT_ZERO,
    ext(Fraction(1, 4)),
    ext(Fraction(1, 2)),
    ext(1),
    ext(Fraction(3, 2)),
    ext(2),
    ext(Fraction(5, 2)),
    ext(4),
    EXT_INF,
]


def test_catalog_values():
    plus = catalog_tconorm("plus")
    assert plus(ext(Fraction(3, 2)), EXT_INF) == EXT_INF
    assert catalog_tconorm("drastic")(ext(Fraction(1, 2)), ext(Fraction(1, 2))) == EXT_INF
    ot2 = catalog_tconorm("osum_trunc", 2)
    assert ot2(ext(Fraction(3, 2)), ext(Fraction(9, 5))) == ext(2)
    assert ot2(ext(Fraction(1, 2)), ext(1)) == ext(Fraction(3, 2))
    assert catalog_tconorm("max")(ext(1), ext(3)) == ext(3)


def test_spec_string_parsing_and_errors():
    assert catalog_tconorm_spec("osum_strict:3/2").param == Fraction(3, 2)
    with pytest.raises(CatalogError):
        catalog_tconorm_spec("osum_trunc")
    with pytest.raises(CatalogError):
        catalog_tconorm("osum_trunc", 0)
    with pytest.raises(CatalogError):
        catalog_tconorm("plus", 2)
    with pytest.raises(CatalogError):
        catalog_tconorm_spec("bogus")
    with pytest.raises(CatalogError):
        catalog_tconorm_spec("osum_trunc:x")


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_catalog_passes_axioms(spec):
    verdict = check_tconorm_axioms(catalog_tconorm_spec(spec), BUDGET, SEED)
    assert verdict.passed


@pytest.mark.parametrize("spec", ["nilpotent_rat", "osum_trunc:2", "osum_strict:2", "drastic"])
def test_associativity_by_brute_force(spec):
    l = catalog_tconorm_spec(spec)
    for u, v, w in product(GRID, repeat=3):
        assert l(l(u, v), w) == l(u, l(v, w))
    for u in GRID:
        assert l(u, EXT_ZERO) == u


def test_squash_is_an_order_isomorphism():
    values = sorted(squash(x) for x in GRID)
    assert values == [squash(x) for x in GRID]
    for x in GRID:
        assert unsquash(squash(x)) == x


def test_nilpotent_is_isomorphic_to_truncated_addition():
    nil = catalog_tconorm("nilpotent_rat")
    for u, v in product(GRID, repeat=2):
        assert squash(nil(u, v)) == min(squash(u) + squash(v), Fraction(1))


def test_osum_strict_blocks():
    os2 = catalog_tconorm("osum_strict", 2)
    # above the idempotent it is the maximum
    assert os2(ext(3), ext(Fraction(5, 2))) == ext(3)
    assert os2(ext(1), ext(3)) == ext(3)
    # on [0, p] it is strictly increasing in each place where finite
    below = [ext(Fraction(k, 4)) for k in range(8)]
    for u in below:
        row = [os2(u, v) for v in below]
        assert all(a < b for a, b in zip(row, row[1:]))
    assert os2(ext(2), ext(2)) == ext(2)
    assert os2(ext(2), ext(Fraction(1, 2))) == ext(2)


def test_lcs_witness_for_truncated_ordinal_sum():
    verdict = check_LCS(catalog_tconorm("osum_trunc", 2), BUDGET, SEED)
    assert not verdict.passed
    w = verdict.witness
    assert (w.u, w.v) == (ext(Fraction(3, 2)), ext(Fraction(9, 5)))
    assert w.u_hi == w.v_hi == ext(Fraction(19, 10))
    assert w.value_lo == w.value_hi == ext(2)


def test_ls_failure_for_nilpotent_has_infinite_values():
    verdict = check_LS(catalog_tconorm("nilpotent_rat"), BUDGET, SEED)
    assert not verdict.passed
    assert verdict.witness.value_lo == EXT_INF
    assert verdict.witness.value_hi == EXT_INF


@pytest.mark.parametrize(
    "spec, ls, lcs",
    [
        ("max", True, True),
        ("plus", True, True),
        ("nilpotent_rat", False, True),
        ("drastic", False, True),
        ("osum_trunc:2", False, False),
        ("osum_strict:2", True, True),
    ],
)
def test_strictness_classification(spec, ls, lcs):
    l = catalog_tconorm_spec(spec)
    assert check_LS(l, BUDGET, SEED).passed == ls
    assert check_LCS(l, BUDGET, SEED).passed == lcs
    assert l.declared.satisfies_ls == ls
    assert l.declared.satisfies_lcs == lcs


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_ls_implies_lcs(spec):
    l = catalog_tconorm_spec(spec)
    if check_LS(l, BUDGET, SEED).passed:
        assert check_LCS(l, BUDGET, SEED).passed


def test_idempotent_examples():
    small = {ext(Fraction(1, 2)), ext(1), ext(2)}
    assert idempotents(catalog_tconorm("plus"), small) == {EXT_ZERO, EXT_INF}
    assert idempotents(catalog_tconorm("max"), small) == small | {EXT_ZERO, EXT_INF}
    assert idempotents(catalog_tconorm("osum_trunc", 2), {ext(1), ext(2), ext(3)}) == {
        EXT_ZERO,
        ext(2),
        ext(3),
        EXT_INF,
    }


@pytest.mark.parametrize(
    "spec, archimedean, witness",
    [
        ("plus", True, None),
        ("nilpotent_rat", True, None),
        ("drastic", True, None),
        ("max", False, ext(1)),
        ("osum_trunc:2", False, ext(2)),
        ("osum_strict:2", False, ext(2)),
    ],
)
def test_archimedean_classification(spec, archimedean, witness):
    verdict = is_archimedean(catalog_tconorm_spec(spec), BUDGET, SEED)
    assert verdict.passed == archimedean
    if witness is not None:
        assert verdict.witness.point[0] == witness


def test_max_below_every_entry_below_drastic():
    rng = random.Random(SEED)
    mx, dr = catalog_tconorm("max"), catalog_tconorm("drastic")
    for spec in ALL_SPECS:
        l = catalog_tconorm_spec(spec)
        for _ in range(200):
            u = ext(Fraction(rng.randint(0, 32), 8))
            v = ext(Fraction(rng.randint(0, 32), 8))
            assert mx(u, v) <= l(u, v) <= dr(u, v)


def test_drastic_is_discontinuous_off_corners():
    dr = catalog_tconorm("drastic")
    for k in (1, 2, 10, 100):
        assert dr(ext(Fraction(1, k)), ext(1)) == EXT_INF
    assert dr(EXT_ZERO, ext(1)) == ext(1)
    assert not dr.declared.is_continuous
    assert not dr.declared.is_continuous_off_corners


def test_idempotent_hints_are_sound():
    for spec in ALL_SPECS:
        l = catalog_tconorm_spec(spec)
        for hint in l.idempotent_hints:
            assert l(hint, hint) == hint


# The hand-written conorm code that the one generated summand replaced,
# kept verbatim as the reference the derivation is pinned against.
def _reference_plus_solve(u: ExtRat, x: ExtRat) -> ExtRat:
    if x.is_infinite:
        return EXT_INF
    if u.is_infinite or u.finite > x.finite:
        raise ValueError("no solution: first argument exceeds target")
    return ExtRat(x.finite - u.finite)


def _reference_nilpotent(u: ExtRat, v: ExtRat) -> ExtRat:
    return unsquash(min(squash(u) + squash(v), Fraction(1)))


def _reference_nilpotent_solve(u: ExtRat, x: ExtRat) -> ExtRat:
    if x.is_infinite:
        return EXT_INF
    rest = squash(x) - squash(u)
    if rest < 0:
        raise ValueError("no solution: first argument exceeds target")
    return unsquash(rest)


def _reference_make_osum_trunc(p: Fraction):
    cap = ExtRat(p)

    def fn(u: ExtRat, v: ExtRat) -> ExtRat:
        if u <= cap and v <= cap:
            return ext_min(ext_add(u, v), cap)
        return ext_max(u, v)

    return fn


def _reference_make_osum_trunc_inf_attained(p: Fraction):
    cap = ExtRat(p)

    def attained(a: ExtRat, b: ExtRat, a_hi: ExtRat, b_hi: ExtRat) -> bool:
        # The value plateau {u,v <= p, u+v >= p} reaches into the cell
        # interior exactly when the lower corner sits on it with room to
        # move in both coordinates.
        return a < cap and b < cap and ext_add(a, b) >= cap

    return attained


def _reference_make_osum_strict(p: Fraction):
    cap = ExtRat(p)

    def gen(t: ExtRat) -> Fraction | None:
        # t / (p - t) on [0, p]; None encodes the pole at t = p.
        if t == cap:
            return None
        return t.finite / (p - t.finite)

    def fn(u: ExtRat, v: ExtRat) -> ExtRat:
        if ext_max(u, v) > cap:
            return ext_max(u, v)
        gu, gv = gen(u), gen(v)
        if gu is None or gv is None:
            return cap
        s = gu + gv
        return ExtRat(p * s / (1 + s))

    return fn


def _reference_parts(spec):
    """``(fn, solve_second, cell_inf_attained, idempotent_hints)`` as the
    hand-written catalog declared them."""
    name, _, text = spec.partition(":")
    if name == "plus":
        return ext_add, _reference_plus_solve, None, ()
    if name == "nilpotent_rat":
        return _reference_nilpotent, _reference_nilpotent_solve, None, ()
    p = Fraction(text)
    hints = (ExtRat(p), ExtRat(p + 1))
    if name == "osum_trunc":
        return (
            _reference_make_osum_trunc(p), None, _reference_make_osum_trunc_inf_attained(p), hints
        )
    return _reference_make_osum_strict(p), None, None, hints


GENERATED_SPECS = ["plus", "nilpotent_rat"] + [
    f"{family}:{p}" for family in ("osum_trunc", "osum_strict") for p in ("1/3", "3/2", "2", "5")
]


@pytest.mark.parametrize("spec", GENERATED_SPECS)
def test_generated_summand_matches_the_hand_written_formulas(spec):
    l = catalog_tconorm_spec(spec)
    fn, solve_second, attained, hints = _reference_parts(spec)
    points = sorted(set(GRID) | set(_sample_pool(l)))
    assert l.idempotent_hints == hints
    for u, v in product(points, repeat=2):
        assert l(u, v) == fn(u, v)
    assert (l.solve_second is None) == (solve_second is None)
    if solve_second is not None:
        for u, x in product(points, repeat=2):
            if u <= x:
                assert l.solve_second(u, x) == solve_second(u, x)
            else:
                with pytest.raises(ValueError):
                    l.solve_second(u, x)
    assert (l.cell_inf_attained is None) == (attained is None)
    if attained is not None:
        for a, a_hi, b, b_hi in product(points, repeat=4):
            if a < a_hi and b < b_hi:
                assert l.cell_inf_attained(a, b, a_hi, b_hi) == attained(a, b, a_hi, b_hi)


# The traits the catalog declared by hand before _ordinal_sum derived them,
# kept verbatim.
_REFERENCE_TRAITS = {
    "plus": TConormTraits(True, True, True, True, True, True),
    "nilpotent_rat": TConormTraits(True, True, True, False, True, True),
    "osum_trunc": TConormTraits(True, True, True, False, False, False),
    "osum_strict": TConormTraits(True, True, True, True, True, False),
}

TRAIT_SPECS = ["plus", "nilpotent_rat"] + [
    f"{family}:{p}" for family in ("osum_trunc", "osum_strict") for p in ("1/3", "1", "3/2", "2", "5")
]


@pytest.mark.parametrize("spec", TRAIT_SPECS)
def test_derived_traits_match_the_hand_written_ones(spec):
    name = spec.partition(":")[0]
    assert catalog_tconorm_spec(spec).declared == _REFERENCE_TRAITS[name]
