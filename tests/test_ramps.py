import random
from fractions import Fraction

import pytest

from deltaplus.ddf import DdfParseError, make_v, parse_ddf, serialize
from deltaplus.lawcheck import (
    LawWitness,
    RandomDDFConfig,
    _case,
    _ramp_candidates,
    mine_counterexample,
    reverify,
    serialize_report,
)
from deltaplus.ramps import (
    PLDDF,
    closure_probes,
    closure_values,
    regularized_by_extrapolation,
)
from deltaplus.rationals import EXT_INF, UnitRat, ext, unit
from deltaplus.tau import UnsupportedPairError
from deltaplus.tconorms import catalog_tconorm_spec
from deltaplus.tnorms import TNORM_NAMES, TNormDesc, catalog_tnorm

MAX = catalog_tconorm_spec("max")
CFG = RandomDDFConfig(max_jumps=4, abscissa_pool=8, value_pool=8)
LAWFUL_UNDER_MAX = ("M", "Pi", "W", "nM")


def ramp(a, p):
    """Linear from 0 at 0 up to p at a, then constant."""
    return PLDDF(((ext(a), UnitRat(Fraction(p)), UnitRat(Fraction(p))),))


def random_ramp(rng: random.Random):
    """A random piecewise-linear operand with one to four rises, each a
    ramp (from the last breakpoint or after a flat stretch) or a flat
    stretch ending in a jump, and at least one ramp."""
    while True:
        n = rng.randint(1, 4)
        xs = sorted({Fraction(rng.randint(1, 32), rng.randint(1, 8)) for _ in range(n)})
        ps = sorted({Fraction(rng.randint(1, 16), 16) for _ in range(len(xs))})
        lines, prev = ["DDF v2"], Fraction(0)
        for x, p in zip(xs, ps):
            if rng.random() < 0.6:
                start = prev if rng.random() < 0.5 else (prev + x) / 2
                lines.append(f"ramp {start} {x} {p}")
            else:
                lines.append(f"jump {x} {p}")
            prev = x
        try:
            return parse_ddf("\n".join(lines))
        except DdfParseError:
            continue  # no ramp drawn, or two ramps in a line


def test_drastic_under_max_gaps_at_the_end_of_a_ramp_to_one():
    f = ramp(1, 1)
    reg, raw, split = closure_values(catalog_tnorm("D"), MAX, f, f, ext(1))
    assert (reg, raw, split) == (unit(0), unit(1), (ext(1), ext(1)))


def test_closed_nilpotent_minimum_gaps_where_the_ramps_cross_the_antidiagonal():
    t = catalog_tnorm("nM_hat")
    f, g = ramp(1, Fraction(1, 2)), ramp(1, 1)
    # f + g = 3s/2 meets 1 at s = 2/3, inside the only piece.
    assert ext(Fraction(2, 3)) in closure_probes(t, f, g)
    reg, raw, _ = closure_values(t, MAX, f, g, ext(Fraction(2, 3)))
    assert (reg, raw) == (unit(0), unit(1, 3))


def test_ramps_need_the_maximum():
    f = ramp(1, 1)
    with pytest.raises(UnsupportedPairError):
        closure_values(catalog_tnorm("D"), catalog_tconorm_spec("plus"), f, f, ext(1))


@pytest.mark.parametrize("tn", LAWFUL_UNDER_MAX)
def test_lawful_max_pairs_show_no_gap_on_ramps(tn):
    t = catalog_tnorm(tn)
    rng = random.Random(31)
    seeds = [
        f for probe in (t, catalog_tnorm("nM_hat"), catalog_tnorm("D"))
        for f in _ramp_candidates(probe, MAX)
    ]
    pairs = [(f, g) for f in seeds for g in seeds[::5]]
    pairs += [(random_ramp(rng), random_ramp(rng)) for _ in range(200)]
    pairs += [(random_ramp(rng), make_v(unit(1, 2))) for _ in range(50)]
    for f, g in pairs:
        for x in closure_probes(t, f, g):
            reg, raw, _ = closure_values(t, MAX, f, g, x)
            assert reg == raw, (tn, str(f), str(g), x)


def test_a_tnorm_without_curves_is_called_once_per_ramp_probe(monkeypatch):
    t = catalog_tnorm("M")
    call = TNormDesc.__call__
    calls = []

    def counted(self, x, y):
        calls.append((x, y))
        return call(self, x, y)

    monkeypatch.setattr(TNormDesc, "__call__", counted)
    f, g = _ramp_candidates(t, MAX)[1:3]
    assert _case(t, MAX, "closure", (f, g)) is None
    assert len(calls) == len(closure_probes(t, f, g))


@pytest.mark.parametrize("tn", TNORM_NAMES)
def test_both_paths_agree_on_the_regularized_value(tn):
    t = catalog_tnorm(tn)
    rng = random.Random(37)
    for _ in range(150):
        f, g = random_ramp(rng), random_ramp(rng)
        for x in closure_probes(t, f, g):
            reg, raw, _ = closure_values(t, MAX, f, g, x)
            assert regularized_by_extrapolation(t, MAX, f, g, x) == reg
            assert reg <= raw


@pytest.mark.parametrize("tn", ("D", "nM_hat"))
def test_unlawful_max_pairs_get_a_ramp_witness(tn):
    t = catalog_tnorm(tn)
    report = mine_counterexample(t, MAX, CFG, 5000, 11)
    w = report.witness
    assert report.verdict == "fail" and report.law == "closure"
    assert w.split is not None and any(isinstance(op, PLDDF) for op in w.operands)
    assert reverify(t, MAX, w)
    again = mine_counterexample(t, MAX, CFG, 5000, 11)
    assert serialize_report(again) == serialize_report(report)


def test_reverify_rejects_altered_ramp_witnesses():
    t = catalog_tnorm("D")
    f = ramp(1, 1)
    good = LawWitness("closure", (f, f), ext(1), unit(0), unit(1), "", (ext(1), ext(1)))
    assert reverify(t, MAX, good)
    for bad in (
        LawWitness("closure", (f, f), ext(1), unit(1, 2), unit(1), "", (ext(1), ext(1))),
        LawWitness("closure", (f, f), ext(1), unit(0), unit(1), "", (ext(1), ext(Fraction(1, 2)))),
        LawWitness("closure", (f, f), ext(1), unit(0), unit(1), "", (ext(2), ext(1))),
        LawWitness("closure", (f, f), ext(2), unit(0), unit(1), "", (ext(2), ext(2))),
    ):
        assert not reverify(t, MAX, bad)


def test_reverify_rejects_ramp_witnesses_at_zero_and_infinity():
    t = catalog_tnorm("D")
    f = ramp(1, 1)
    at_zero = LawWitness("closure", (f, f), ext(0), unit(1), unit(0), "", (ext(0), ext(0)))
    at_inf = LawWitness("closure", (f, f), EXT_INF, unit(1), unit(0), "", (EXT_INF, ext(0)))
    assert not reverify(t, MAX, at_zero)
    assert not reverify(t, MAX, at_inf)


def test_ramp_witness_records_carry_the_split_and_v2_operands():
    t = catalog_tnorm("D")
    text = serialize_report(mine_counterexample(t, MAX, CFG, 5000, 0))
    lines = text.splitlines()
    assert lines[1].startswith("witness law=closure x=1 lhs=0 ")
    assert " u=1 v=1 detail=" in lines[1]
    assert all("ddf=DDF v2\\n" in line for line in lines[2:])



def test_random_ramps_round_trip_through_v2_text():
    rng = random.Random(41)
    for _ in range(300):
        f = random_ramp(rng)
        assert parse_ddf(serialize(f)) == f
        assert str(f) == serialize(f)
