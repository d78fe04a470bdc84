import dataclasses
import random
from fractions import Fraction

import pytest

from deltaplus.ddf import DDF, EPS_INF, canonicalize, leq, make_epsilon, make_v, probe_points
from deltaplus.lawcheck import RandomDDFConfig, _random_ddf, _structured_candidates
from deltaplus.rationals import EXT_INF, EXT_ZERO, UNIT_ONE, UNIT_ZERO, UnitRat, ext, unit
from deltaplus.tau import (
    RectangleGrid,
    UnsupportedPairError,
    _require_supported,
    build_grid,
    closure_profile,
    grid_oracle_tau_at,
    level_split_witness,
    probe_abscissae,
    tau,
    tau_d_closed_form,
    tau_raw_at,
)
from deltaplus.tconorms import (
    TConormDesc, catalog_tconorm, catalog_tconorm_spec, squash, unsquash,
)
from deltaplus.tnorms import TNORM_NAMES, TNormDesc, catalog_tnorm

from helpers import corner_images

SEED = 424242
CFG = RandomDDFConfig(max_jumps=5, abscissa_pool=8, value_pool=8)

CONORM_SPECS = ["max", "plus", "nilpotent_rat", "drastic", "osum_trunc:2", "osum_strict:2"]

TWO_STEP = DDF(((ext(1), unit(1, 2)), (ext(2), UNIT_ONE)))


def _pairs(rng, count):
    for _ in range(count):
        t = catalog_tnorm(rng.choice(TNORM_NAMES))
        l = catalog_tconorm_spec(rng.choice(CONORM_SPECS))
        yield t, l


def test_two_step_self_composition():
    h = tau(catalog_tnorm("M"), catalog_tconorm("plus"), TWO_STEP, TWO_STEP)
    assert h.jumps == ((ext(2), unit(1, 2)), (ext(4), UNIT_ONE))


def test_unit_steps_compose_through_the_conorm():
    plus = catalog_tconorm("plus")
    for name in TNORM_NAMES:
        t = catalog_tnorm(name)
        out = tau(t, plus, make_epsilon(ext(1)), make_epsilon(ext(Fraction(3, 2))))
        assert out == make_epsilon(ext(Fraction(5, 2)))


def test_unit_step_at_zero_is_identity_for_continuous_conorms():
    rng = random.Random(SEED)
    eps0 = make_epsilon(EXT_ZERO)
    for spec in ["max", "plus", "nilpotent_rat", "osum_trunc:2", "osum_strict:2"]:
        l = catalog_tconorm_spec(spec)
        for name in TNORM_NAMES:
            t = catalog_tnorm(name)
            f = _random_ddf(CFG, rng)
            assert tau(t, l, f, eps0) == f
            assert tau(t, l, eps0, f) == f


def test_drastic_conorm_collapses_everything():
    dr = catalog_tconorm("drastic")
    t = catalog_tnorm("M")
    assert tau(t, dr, TWO_STEP, TWO_STEP) == EPS_INF
    assert tau(t, dr, make_epsilon(EXT_ZERO), make_epsilon(EXT_ZERO)) == EPS_INF
    assert tau_raw_at(t, dr, TWO_STEP, TWO_STEP, ext(10)) == UNIT_ZERO
    assert tau_raw_at(t, dr, TWO_STEP, TWO_STEP, EXT_INF) == UNIT_ONE


def test_raw_value_examples():
    M, plus = catalog_tnorm("M"), catalog_tconorm("plus")
    e1 = make_epsilon(ext(1))
    assert tau_raw_at(M, plus, e1, e1, ext(2)) == UNIT_ZERO
    assert tau_raw_at(M, plus, e1, e1, ext(Fraction(5, 2))) == UNIT_ONE
    v = make_v(unit(1, 2))
    nmh = catalog_tnorm("nM_hat")
    for q in (Fraction(1, 3), Fraction(2), Fraction(40)):
        assert tau_raw_at(nmh, plus, v, v, ext(q)) == unit(1, 2)
    assert tau_raw_at(M, plus, EPS_INF, EPS_INF, ext(10)) == UNIT_ZERO


def test_raw_sees_the_plateau_of_the_truncated_ordinal_sum():
    M = catalog_tnorm("M")
    ot2 = catalog_tconorm("osum_trunc", 2)
    f, g = make_epsilon(ext(Fraction(3, 2))), make_epsilon(ext(Fraction(9, 5)))
    assert tau(M, ot2, f, g) == make_epsilon(ext(2))
    assert tau(M, ot2, f, g).value_at(ext(2)) == UNIT_ZERO
    assert tau_raw_at(M, ot2, f, g, ext(2)) == UNIT_ONE  # attained at the corner plateau


def test_closed_form_examples():
    assert tau_d_closed_form(make_epsilon(ext(1)), make_epsilon(ext(2))) == make_epsilon(ext(3))
    f = TWO_STEP
    assert tau_d_closed_form(f, make_epsilon(EXT_ZERO)) == f
    out = tau_d_closed_form(make_v(unit(1, 2)), make_epsilon(ext(1)))
    assert out.jumps == ((ext(1), unit(1, 2)),)


def test_closed_form_matches_engine_on_random_pairs():
    rng = random.Random(SEED)
    D, plus = catalog_tnorm("D"), catalog_tconorm("plus")
    for _ in range(250):
        f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
        assert tau_d_closed_form(f, g) == tau(D, plus, f, g)


def test_grid_cell_values_are_monotone():
    rng = random.Random(SEED)
    for t, _ in _pairs(rng, 40):
        grid = build_grid(t, _random_ddf(CFG, rng), _random_ddf(CFG, rng))
        for row_a, row_b in zip(grid.cell_values, grid.cell_values[1:]):
            assert all(a.value <= b.value for a, b in zip(row_a, row_b))
        for row in grid.cell_values:
            assert all(a.value <= b.value for a, b in zip(row, row[1:]))


def test_operator_is_monotone_in_each_operand():
    rng = random.Random(SEED)
    for t, l in _pairs(rng, 60):
        f = _random_ddf(CFG, rng)
        f_hi = canonicalize(f.jumps + _random_ddf(CFG, rng).jumps)
        g = _random_ddf(CFG, rng)
        assert leq(tau(t, l, f, g), tau(t, l, f_hi, g))
        assert leq(tau(t, l, g, f), tau(t, l, g, f_hi))


def test_operator_respects_tnorm_order():
    rng = random.Random(SEED)
    D, M = catalog_tnorm("D"), catalog_tnorm("M")
    for name in TNORM_NAMES:
        t = catalog_tnorm(name)
        for spec in ["plus", "max", "nilpotent_rat"]:
            l = catalog_tconorm_spec(spec)
            f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
            assert leq(tau(D, l, f, g), tau(t, l, f, g))
            assert leq(tau(t, l, f, g), tau(M, l, f, g))


def test_regularized_never_exceeds_raw():
    rng = random.Random(SEED)
    for t, l in _pairs(rng, 60):
        f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
        h = tau(t, l, f, g)
        for x in probe_abscissae(l, f, g):
            assert h.value_at(x).value <= tau_raw_at(t, l, f, g, x).value


def test_engine_agrees_with_oracle():
    rng = random.Random(SEED)
    for t, l in _pairs(rng, 60):
        f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
        h = tau(t, l, f, g)
        for x in probe_abscissae(l, f, g):
            assert h.value_at(x) == grid_oracle_tau_at(t, l, f, g, x)
        assert grid_oracle_tau_at(t, l, f, g, EXT_INF) == UNIT_ONE


def test_oracle_trivial_cases():
    M, plus = catalog_tnorm("M"), catalog_tconorm("plus")
    assert grid_oracle_tau_at(M, plus, make_epsilon(ext(1)), make_epsilon(ext(1)), ext(2)) == UNIT_ZERO
    assert grid_oracle_tau_at(M, plus, EPS_INF, TWO_STEP, ext(100)) == UNIT_ZERO


def test_level_split_witness_examples():
    M, plus = catalog_tnorm("M"), catalog_tconorm("plus")
    u, v = level_split_witness(M, plus, TWO_STEP, TWO_STEP, ext(3), ext(4))
    assert (u, v) == (ext(Fraction(3, 2)), ext(Fraction(5, 2)))
    W = catalog_tnorm("W")
    vh = make_v(unit(1, 2))
    assert level_split_witness(W, plus, vh, vh, ext(1), ext(2)) == (ext(1), ext(1))
    # both operands identically one past zero: any split works
    e0 = make_epsilon(EXT_ZERO)
    u, v = level_split_witness(M, plus, e0, e0, ext(1), ext(3))
    assert u + v == ext(3)
    assert M(e0.value_at(u), e0.value_at(v)) == UNIT_ONE


def test_level_split_witness_postcondition_on_random_inputs():
    rng = random.Random(SEED)
    for spec in ["plus", "nilpotent_rat"]:
        l = catalog_tconorm_spec(spec)
        for _ in range(120):
            t = catalog_tnorm(rng.choice(TNORM_NAMES))
            f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
            y = ext(Fraction(rng.randint(1, 40), rng.randint(1, 8)))
            x = y + ext(Fraction(rng.randint(1, 20), rng.randint(1, 8)))
            u, v = level_split_witness(t, l, f, g, y, x)
            assert l(u, v) == x
            level = tau(t, l, f, g).value_at(y)
            assert t(f.value_at(u), g.value_at(v)).value >= level.value


def test_level_split_witness_rejects_bad_inputs():
    M = catalog_tnorm("M")
    plus = catalog_tconorm("plus")
    with pytest.raises(ValueError):
        level_split_witness(M, plus, TWO_STEP, TWO_STEP, ext(3), ext(2))
    with pytest.raises(ValueError):
        level_split_witness(M, catalog_tconorm("max"), TWO_STEP, TWO_STEP, ext(1), ext(2))


def test_unsupported_conorm_is_refused():
    blackbox = TConormDesc("mystery", lambda u, v: u, declared=None)
    with pytest.raises(UnsupportedPairError):
        tau(catalog_tnorm("M"), blackbox, TWO_STEP, TWO_STEP)


def test_corner_images_cover_output_jumps():
    rng = random.Random(SEED)
    for t, l in _pairs(rng, 40):
        f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
        images = set(corner_images(l, f, g))
        h = tau(t, l, f, g)
        assert all(x in images for x, _ in h.jumps)


def _grid_by_evaluation(t, f, g):
    # The band values read off f itself at each band's right end.
    def bands(h):
        cuts = [EXT_ZERO, *(x for x in h.breakpoints if x > EXT_ZERO)]
        ends = [*cuts[1:], ext(cuts[-1].finite + 1)]
        return tuple(cuts), [h.value_at(x) for x in ends]

    cuts_f, values_f = bands(f)
    cuts_g, values_g = bands(g)
    cells = tuple(tuple(t(a, b) for b in values_g) for a in values_f)
    return RectangleGrid(cuts_f, cuts_g, cells)


def test_grid_bands_match_pointwise_evaluation():
    rng = random.Random(SEED)
    for t, _ in _pairs(rng, 200):
        f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
        assert build_grid(t, f, g) == _grid_by_evaluation(t, f, g)


# Order-reversing in both arguments: grid values fall along rows and
# columns, so a cell whose upper corner lies below x can hold the largest
# value below x.  Monotone grids never test the upper corner this way.
REVERSING = TNormDesc(
    "rev", lambda x, y: UnitRat((1 - x.value) * (1 - y.value)), None
)


def _reference_raw_at(t, l, f, g, x):
    """The raw value by its own cell loop, with L taken at both the lower
    and the upper corner of every cell it tests."""
    _require_supported(l)
    if x.is_infinite:
        return UNIT_ONE
    if x == EXT_ZERO:
        return UNIT_ZERO
    if l.name == "drastic":
        # L(u, v) = x finite forces one coordinate to 0 and the other to x.
        return max(
            t(f.value_at(x), g.value_at(EXT_ZERO)),
            t(f.value_at(EXT_ZERO), g.value_at(x)),
            key=lambda p: p.value,
        )
    grid = build_grid(t, f, g)
    nf, ng = len(grid.cuts_f), len(grid.cuts_g)
    best = UNIT_ZERO
    for i, a in enumerate(grid.cuts_f):
        a_hi = grid.cuts_f[i + 1] if i + 1 < nf else EXT_INF
        row = grid.cell_values[i]
        for j, b in enumerate(grid.cuts_g):
            value = row[j]
            if value.value <= best.value:
                continue
            b_hi = grid.cuts_g[j + 1] if j + 1 < ng else EXT_INF
            m = l(a, b)
            if m < x:
                hi = l(a_hi, b_hi)
                if x <= hi:
                    best = value
            elif m == x:
                if l(a_hi, b_hi) == m:
                    best = value
                elif l.cell_inf_attained is not None and l.cell_inf_attained(
                    a, b, a_hi, b_hi
                ):
                    best = value
    return best


@pytest.mark.parametrize("spec", CONORM_SPECS)
def test_closure_profile_matches_tau_raw_and_probes(spec):
    rng = random.Random(SEED)
    l = catalog_tconorm_spec(spec)
    for t in [*map(catalog_tnorm, TNORM_NAMES), REVERSING]:
        seeds = _structured_candidates(t, l)
        operands = [(_random_ddf(CFG, rng), _random_ddf(CFG, rng)) for _ in range(25)]
        operands += [(rng.choice(seeds), rng.choice(seeds)) for _ in range(25)]
        for f, g in operands:
            regularized, raw_at, probes = closure_profile(t, l, f, g)
            assert regularized == tau(t, l, f, g)
            assert probes == probe_abscissae(l, f, g)
            for x in [*probes, ext(Fraction(rng.randint(0, 40), rng.randint(1, 8))), EXT_INF]:
                expected = _reference_raw_at(t, l, f, g, x)
                assert raw_at(x) == expected
                assert tau_raw_at(t, l, f, g, x) == expected


def _reference_tau(t, l, f, g):
    """The regularized operation by its own full-grid loop: L at the lower
    corner of every nonzero cell, then one sort of all of them."""
    _require_supported(l)
    if l.name == "drastic":
        # Off the axes L is infinite; on the axes one factor evaluates to
        # f(0) = 0 or g(0) = 0, so nothing reaches any finite level.
        return EPS_INF
    grid = build_grid(t, f, g)
    jumps = []
    for i, a in enumerate(grid.cuts_f):
        row = grid.cell_values[i]
        for j, b in enumerate(grid.cuts_g):
            value = row[j]
            if value == UNIT_ZERO:
                continue
            corner = l(a, b)
            if not corner.is_infinite:
                jumps.append((corner, value))
    return canonicalize(jumps)


def _steps(rng, n):
    # n jumps: abscissae in ]0, 8] with denominators up to 16, values with
    # denominators up to 64.
    xs, ps = set(), set()
    while len(xs) < n:
        den = rng.randint(1, 16)
        xs.add(Fraction(rng.randint(1, 8 * den), den))
    while len(ps) < n:
        den = rng.randint(1, 64)
        ps.add(Fraction(rng.randint(1, den), den))
    return DDF(tuple((ext(x), UnitRat(p)) for x, p in zip(sorted(xs), sorted(ps))))


# Small pools, many jumps: equal corners and equal values tie often.
TIED = RandomDDFConfig(max_jumps=16, abscissa_pool=3, value_pool=12)


CONTINUOUS_SPECS = [
    *(s for s in CONORM_SPECS if s != "drastic"), "osum_trunc:1/2", "osum_strict:1/2"
]


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS)
def test_staircase_walk_matches_the_full_grid(spec):
    rng = random.Random(SEED)
    l = catalog_tconorm_spec(spec)
    edges = [EPS_INF, make_epsilon(EXT_ZERO), make_v(unit(1, 3)), TWO_STEP]
    # One 128 x 128 pair per conorm, under a t-norm that rotates with it.
    large = (_steps(rng, 128), _steps(rng, 128))
    large_t = TNORM_NAMES[CONTINUOUS_SPECS.index(spec) % len(TNORM_NAMES)]
    for t in [*map(catalog_tnorm, TNORM_NAMES), REVERSING]:
        operands = [(_random_ddf(cfg, rng), _random_ddf(cfg, rng)) for cfg in [CFG, TIED] * 20]
        # Jumps at 0 next to random ones, and the edge cases on either side.
        operands += [
            (canonicalize([(EXT_ZERO, unit(1, 8)), *f.jumps]), g) for f, g in operands[:10]
        ]
        operands += [(f, g) for f in edges for g in [*edges, _random_ddf(TIED, rng)]]
        operands += [(g, f) for f, g in operands[-len(edges) * (len(edges) + 1):]]
        if t.name == large_t:
            operands.append(large)
        for f, g in operands:
            assert tau(t, l, f, g) == _reference_tau(t, l, f, g)


def test_staircase_walk_is_output_sensitive():
    # The full grid takes L at every nonzero cell; the walk takes it only
    # at the cells its merge visits.
    rng = random.Random(SEED)
    n = m = 64
    M, max_ = catalog_tnorm("M"), catalog_tconorm("max")
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return max_.fn(u, v)

    for _ in range(4):
        f, g = _steps(rng, n), _steps(rng, m)
        calls.clear()
        h = tau(M, dataclasses.replace(max_, fn=counted), f, g)
        assert len(calls) < (n + 1) * (m + 1) / 10
        assert h == _reference_tau(M, max_, f, g)


def test_drastic_raw_evaluation_takes_no_conorm(monkeypatch):
    # The drastic raw rule reads the operands on the axes, and its finite
    # corner images are the operands' cuts, so no corner matrix is built.
    rng = random.Random(SEED)
    M, drastic = catalog_tnorm("M"), catalog_tconorm("drastic")
    f, g = TWO_STEP, _steps(rng, 6)
    images = probe_points(c.finite for c in corner_images(drastic, f, g))
    calls = []
    call = TConormDesc.__call__

    def counted(self, u, v):
        calls.append((u, v))
        return call(self, u, v)

    monkeypatch.setattr(TConormDesc, "__call__", counted)
    probes = probe_abscissae(drastic, f, g)
    raw = tau_raw_at(M, drastic, f, g, ext(3))
    regularized, raw_at, profile_probes = closure_profile(M, drastic, f, g)
    values = [raw_at(x) for x in profile_probes]
    assert calls == []
    assert probes == images
    assert raw == _reference_raw_at(M, drastic, f, g, ext(3))
    assert (regularized, profile_probes) == (EPS_INF, probes)
    assert values == [_reference_raw_at(M, drastic, f, g, x) for x in probes]


def _pushed_through_squash(f: DDF) -> DDF:
    # f composed with unsquash: each jump moves to squash(x), and f(inf) = 1
    # becomes a jump to 1 at 1 = squash(inf).
    return canonicalize([(ext(squash(x)), p) for x, p in f.jumps] + [(ext(1), UNIT_ONE)])


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_nilpotent_conorm_is_truncated_addition_seen_through_squash(name):
    # nilpotent_rat(u, v) = unsquash(min(squash u + squash v, 1)), the summand
    # of osum_trunc:1 conjugated by squash, so tau under it at x is tau under
    # osum_trunc:1 at squash(x) on the pushed operands.  The two entries
    # differ in end, generator and max part, so each checks the other.
    t = catalog_tnorm(name)
    nilpotent, trunc = catalog_tconorm("nilpotent_rat"), catalog_tconorm("osum_trunc", 1)
    rng = random.Random(SEED)
    for _ in range(150):
        f, g = _random_ddf(CFG, rng), _random_ddf(CFG, rng)
        reg, raw_at, probes = closure_profile(t, nilpotent, f, g)
        reg_s, raw_at_s, probes_s = closure_profile(
            t, trunc, _pushed_through_squash(f), _pushed_through_squash(g)
        )
        points = set(probes) | {unsquash(s.finite) for s in probes_s if s.finite < 1}
        for x in points:
            s = ext(squash(x))
            assert reg.value_at(x) == reg_s.value_at(s)
            assert raw_at(x) == raw_at_s(s)
