from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltaplus.ddf import (
    DDF,
    EPS_INF,
    DdfParseError,
    canonicalize,
    last_jump_to_one,
    leq,
    make_epsilon,
    make_v,
    merged_probe_points,
    parse_ddf,
    serialize,
)
from deltaplus.ramps import PLDDF
from deltaplus.rationals import EXT_INF, EXT_ZERO, UNIT_ONE, UNIT_ZERO, ExtRat, UnitRat, ext, unit

raw_jumps = st.lists(
    st.tuples(
        st.fractions(min_value=0, max_value=8).map(ExtRat),
        st.fractions(min_value=0, max_value=1).map(UnitRat),
    ),
    max_size=8,
)


def naive_eval(pairs, t: ExtRat) -> UnitRat:
    """The semantics, computed straight off the raw pairs."""
    if t.is_infinite:
        return UNIT_ONE
    best = UNIT_ZERO
    for x, p in pairs:
        if x < t and p.value > best.value:
            best = p
    return best


def test_canonicalize_examples():
    dominated = canonicalize([(ext(2), unit(1, 2)), (ext(1), unit(1, 2))])
    assert dominated.jumps == ((ext(1), unit(1, 2)),)
    assert canonicalize([]) == EPS_INF
    tail = canonicalize([(ext(0), unit(1, 3)), (ext(5), unit(1, 4))])
    assert tail.jumps == ((ext(0), unit(1, 3)),)


def test_canonicalize_refuses_an_infinite_abscissa_among_finite_ones():
    # Sorting on the carriers puts infinity last, so the scan names it.
    for raw in ([(EXT_INF, UNIT_ONE)], [(EXT_INF, UNIT_ONE), (ext(1), unit(1, 2))]):
        with pytest.raises(ValueError, match="jump abscissae must be finite"):
            canonicalize(raw)


@given(raw_jumps, st.one_of(st.just(EXT_INF), st.fractions(min_value=0, max_value=10).map(ExtRat)))
def test_canonicalize_preserves_semantics(pairs, t):
    assert canonicalize(pairs).value_at(t) == naive_eval(pairs, t)


@given(raw_jumps)
def test_eval_endpoints_and_monotonicity(pairs):
    f = canonicalize(pairs)
    assert f.value_at(EXT_ZERO) == UNIT_ZERO
    assert f.value_at(EXT_INF) == UNIT_ONE
    chain = sorted({Fraction(k, 3) for k in range(0, 25)})
    values = [f.value_at(ExtRat(q)).value for q in chain]
    assert values == sorted(values)


@given(raw_jumps)
def test_left_continuity_at_jumps(pairs):
    f = canonicalize(pairs)
    previous = UNIT_ZERO
    for x, p in f.jumps:
        assert f.value_at(x) == previous  # the jump takes effect strictly after x
        previous = p


def test_eval_spec_values():
    eps2 = make_epsilon(ext(2))
    assert eps2.value_at(ext(2)) == UNIT_ZERO
    assert eps2.value_at(ext(3)) == UNIT_ONE
    assert make_v(unit(1, 2)).value_at(ext(1)) == unit(1, 2)
    assert EPS_INF.value_at(ext(10**6)) == UNIT_ZERO


def test_epsilon_and_v_coincide_at_endpoints():
    assert make_epsilon(EXT_ZERO) == make_v(UNIT_ONE)
    assert make_epsilon(EXT_INF) == make_v(UNIT_ZERO) == EPS_INF
    assert make_v(unit(1, 3)).jumps == ((EXT_ZERO, unit(1, 3)),)


def test_order_embeddings():
    assert leq(make_epsilon(ext(3)), make_epsilon(ext(2)))  # reverses order
    assert leq(make_v(unit(1, 3)), make_v(unit(1, 2)))  # preserves order
    assert not leq(make_epsilon(ext(1)), make_v(unit(1, 2)))


@given(raw_jumps, raw_jumps, raw_jumps)
def test_leq_is_a_partial_order(p1, p2, p3):
    f, g, h = canonicalize(p1), canonicalize(p2), canonicalize(p3)
    assert leq(f, f)
    if leq(f, g) and leq(g, f):
        assert f == g
    if leq(f, g) and leq(g, h):
        assert leq(f, h)


def test_last_jump_to_one():
    assert last_jump_to_one(make_epsilon(ext(2))) == ext(2)
    assert last_jump_to_one(make_v(unit(1, 2))) == EXT_INF
    assert last_jump_to_one(make_epsilon(EXT_ZERO)) == EXT_ZERO


def test_serialize_examples():
    assert serialize(make_epsilon(ext(Fraction(3, 2)))) == "DDF v1\njump 3/2 1\n"
    assert parse_ddf("DDF v1") == EPS_INF
    assert parse_ddf("DDF v1\n# comment\n\njump 1 1/2\n") == DDF(((ext(1), unit(1, 2)),))


@given(raw_jumps)
def test_serialize_round_trip(pairs):
    f = canonicalize(pairs)
    assert parse_ddf(serialize(f)) == f


@pytest.mark.parametrize(
    "text, line",
    [
        ("DDF v2", 1),
        ("DDF v1\njump 1 1/2\njump 1 3/4", 3),
        ("DDF v1\njump 2 1/2\njump 3 1/4", 3),
        ("DDF v1\njump 2 0", 2),
        ("DDF v1\njump inf 1", 2),
        ("DDF v1\njump 1/0 1", 2),
        ("DDF v1\nleap 1 1", 2),
        ("DDF v1\nramp 0 1 1/2", 2),
        ("DDF v1\njump ² 1", 2),
        pytest.param("DDF v1\njump " + "1" * 5000 + " 1", 2, id="v1-5000-digit-literal-2"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(DdfParseError) as err:
        parse_ddf(text)
    assert err.value.line_no == line


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        DDF(((ext(1), unit(1, 2)), (ext(2), unit(1, 2))))
    with pytest.raises(ValueError):
        DDF(((EXT_INF, UNIT_ONE),))


@given(raw_jumps, raw_jumps)
def test_merged_probe_points_decide_equality(p1, p2):
    f, g = canonicalize(p1), canonicalize(p2)
    same_everywhere = all(
        f.value_at(x) == g.value_at(x) for x in merged_probe_points(f, g)
    )
    assert same_everywhere == (f == g)


def test_v2_round_trip_and_values():
    text = "DDF v2\njump 0 1/4\nramp 2 3 1/2\njump 3 3/4\nramp 3 4 1\n"
    f = parse_ddf(text)
    assert isinstance(f, PLDDF)
    assert serialize(f) == text
    assert parse_ddf(serialize(f)) == f
    values = {Fraction(0): 0, Fraction(1): Fraction(1, 4), Fraction(5, 2): Fraction(3, 8),
              Fraction(3): Fraction(1, 2), Fraction(7, 2): Fraction(7, 8), Fraction(5): 1}
    for t, p in values.items():
        assert f.value_at(ExtRat(t)) == UnitRat(p)
    assert f.value_at(EXT_INF) == UNIT_ONE
    assert f.left_piece(Fraction(3)) == (Fraction(2), Fraction(1, 4), Fraction(1, 4))


def test_step_functions_keep_serializing_as_v1():
    f = DDF(((ext(1), unit(1, 2)), (ext(2), UNIT_ONE)))
    assert serialize(f) == "DDF v1\njump 1 1/2\njump 2 1\n"
    assert f.left_piece(Fraction(3, 2)) == (Fraction(1), Fraction(1, 2), Fraction(0))


@pytest.mark.parametrize(
    "text, line",
    [
        ("DDF v2\njump 1 1/2\n", 1),
        ("DDF v2\nramp 0 1\n", 2),
        ("DDF v2\nramp 0 1 1/2 1\n", 2),
        ("DDF v2\nramp 1 1 1/2\n", 2),
        ("DDF v2\nramp 0 inf 1\n", 2),
        ("DDF v2\nramp 0 1 3/2\n", 2),
        ("DDF v2\nramp 0 1 x\n", 2),
        ("DDF v2\nramp 0 ² 1", 2),
        ("DDF v2\n# note\nramp 0 1 1/2\nramp 1/2 2 1\n", 4),
        ("DDF v2\nramp 0 1 1/2\nramp 1 2 1\n", 3),
        ("DDF v2\nramp 0 1 1/2\nramp 1 2 1/2\n", 3),
        ("DDF v2\nramp 0 1 1/2\njump 1 1/2\n", 3),
    ],
)
def test_malformed_ramp_lines_carry_line_numbers(text, line):
    with pytest.raises(DdfParseError) as err:
        parse_ddf(text)
    assert err.value.line_no == line


def test_plddf_constructor_rejects_non_canonical():
    half = unit(1, 2)
    with pytest.raises(ValueError):  # no piece rises: a step function
        PLDDF(((ext(1), UNIT_ZERO, half),))
    with pytest.raises(ValueError):  # the knot at 1 neither jumps nor bends
        PLDDF(((ext(1), half, half), (ext(2), UNIT_ONE, UNIT_ONE)))
    with pytest.raises(ValueError):  # decreasing
        PLDDF(((ext(1), half, half), (ext(2), unit(1, 4), unit(1, 4))))
    with pytest.raises(ValueError):  # f(0) must be 0
        PLDDF(((EXT_ZERO, half, half), (ext(1), UNIT_ONE, UNIT_ONE)))
    assert PLDDF(((ext(1), half, half),)).value_at(ext(2)) == half


@pytest.mark.parametrize(
    "line", ["jump 1 " + "x" * 5000, "jump " + "1 " * 2500 + "1", "jump 1 " + "9" * 4000 + "/1"]
)
def test_over_long_lines_are_reported_by_their_length(line):
    with pytest.raises(DdfParseError) as err:
        parse_ddf(f"DDF v1\n{line}\n")
    assert "characters>" in str(err.value) and len(str(err.value)) < 200
