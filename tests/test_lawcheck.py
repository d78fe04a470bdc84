import random
import sys
from fractions import Fraction
from itertools import islice

import pytest

from deltaplus.ddf import DDF, parse_ddf
from deltaplus.lawcheck import (
    LAWS,
    RandomDDFConfig,
    _case,
    _mining_cases,
    _probe_levels,
    _random_ddf,
    check_law,
    mine_counterexample,
    random_ddf,
    reverify,
    serialize_report,
)
from deltaplus.ramps import PLDDF
from deltaplus.rationals import UnitRat
from deltaplus.tconorms import catalog_tconorm_spec
from deltaplus.tnorms import TNORM_NAMES, TNormDesc, catalog_tnorm

CFG = RandomDDFConfig(max_jumps=4, abscissa_pool=8, value_pool=8)
SEED = 7


def _pair(tn, ln):
    return catalog_tnorm(tn), catalog_tconorm_spec(ln)


def test_random_ddf_is_canonical_and_deterministic():
    for seed in range(50):
        f = random_ddf(CFG, seed)
        assert f == random_ddf(CFG, seed)
        assert parse_ddf(f.__str__()) == f  # canonical round trip
        assert len(f.jumps) <= CFG.max_jumps


def test_random_ddf_hits_every_jump_count():
    counts = {len(random_ddf(CFG, seed).jumps) for seed in range(10_000)}
    assert counts == set(range(CFG.max_jumps + 1))


def test_zero_jump_config_yields_the_bottom_element():
    cfg = RandomDDFConfig(max_jumps=0)
    assert random_ddf(cfg, 3).jumps == ()


def test_config_validation():
    with pytest.raises(ValueError):
        RandomDDFConfig(max_jumps=-1)
    with pytest.raises(ValueError):
        RandomDDFConfig(abscissa_pool=0)


class _CountedRandom(random.Random):
    """Raises once it has served more than ``limit`` randint draws."""

    def __init__(self, seed, limit):
        super().__init__(seed)
        self.left = limit

    def randint(self, a, b):
        self.left -= 1
        if self.left < 0:
            raise AssertionError("the sampler kept drawing from an exhausted pool")
        return super().randint(a, b)


def test_random_ddf_draws_are_bounded_by_the_pools_not_max_jumps():
    # The count, then two draws per attempt, at most 64*K attempts per pool:
    # K = a(2a + 3) abscissae and v(v + 1)/2 values.
    cfg = RandomDDFConfig(max_jumps=10**9, abscissa_pool=3, value_pool=2)
    limit = 1 + 2 * 64 * (3 * 9) + 2 * 64 * 3
    f = _random_ddf(cfg, _CountedRandom(0, limit))
    assert len(f.jumps) == 2  # 1/2 and 1 are all the value pool can draw


@pytest.mark.parametrize("law", LAWS)
def test_lukasiewicz_with_addition_passes_every_law(law):
    t, l = _pair("W", "plus")
    report = check_law(t, l, law, CFG, 150, SEED)
    assert report.verdict == "pass"
    assert report.cases == 150


def test_drastic_tnorm_with_addition_is_lawful():
    t, l = _pair("D", "plus")
    report = check_law(t, l, "associativity", CFG, 150, SEED)
    assert report.verdict == "pass"


def test_unknown_law_is_rejected():
    t, l = _pair("W", "plus")
    with pytest.raises(ValueError):
        check_law(t, l, "nosuchlaw", CFG, 10, SEED)


def test_mine_finds_closure_failure_for_truncated_ordinal_sum():
    t, l = _pair("M", "osum_trunc:2")
    report = mine_counterexample(t, l, CFG, 2000, 42)
    assert report.verdict == "fail"
    assert report.law == "closure"
    assert reverify(t, l, report.witness)


def test_mine_finds_identity_failure_for_drastic_conorm():
    t, l = _pair("M", "drastic")
    report = mine_counterexample(t, l, CFG, 2000, 42)
    assert report.verdict == "fail"
    assert report.law == "identity"
    assert reverify(t, l, report.witness)


def test_mine_passes_lawful_pairs():
    t, l = _pair("nM", "max")
    report = mine_counterexample(t, l, CFG, 120, SEED)
    assert report.verdict == "pass"


def test_mine_is_inconclusive_when_no_step_witness_exists():
    # These pairs are rejected by the classifier, but their defect only
    # shows on non-step distribution functions, so the miner must report
    # inconclusive rather than pass.
    for tn, ln in [("nM_hat", "plus"), ("D", "max")]:
        t, l = _pair(tn, ln)
        report = mine_counterexample(t, l, CFG, 150, SEED)
        assert report.verdict == "inconclusive"


def test_miner_runs_cheap_laws_then_ramps_then_associativity_then_drift():
    # (M, max) has 20 step seeds and 8 ramp seeds.
    t, l = _pair("M", "max")
    cases = list(islice(_mining_cases(t, l, CFG, random.Random(SEED)), 871))

    def laws(chunk):
        return {law for checks in chunk for law, _ in checks}

    def carriers(chunk):
        return {type(op) for checks in chunk for _, operands in checks for op in operands}

    cheap, ramp_pairs, assoc, drift = cases[:400], cases[400:464], cases[464:864], cases[864:]
    assert laws(cheap) == {"closure", "commutativity", "identity"}
    assert carriers(cheap) == {DDF}
    assert laws(ramp_pairs) == {"closure"} and carriers(ramp_pairs) == {PLDDF}
    assert laws(assoc) == {"associativity"} and carriers(assoc) == {DDF}
    assert [law for (law, _), in drift] == list(LAWS)


QUARTERS = {Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)}


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_catalog_probe_levels_are_the_quarter_levels(name):
    # Every catalog certificate coordinate is already a quarter level.
    assert _probe_levels(catalog_tnorm(name)) == QUARTERS


def test_probe_levels_hold_the_certificate_coordinates():
    # The curve 3a + 3b = 4 runs from (1/3, 1) to (1, 1/3); its certificate
    # is those ends, its cut (2/3, 2/3) by a = b and the midpoints between.
    def thirds(x, y):
        return min(x, y) if 3 * (x.value + y.value) > 4 else UnitRat(0)

    t = TNormDesc("thirds", thirds, None, curves=((3, 3, 4),), branch=catalog_tnorm("nM").branch)
    coordinates = {c.value for point in t.certificate for c in point}
    assert coordinates == {Fraction(k, 6) for k in (2, 3, 4, 5, 6)}
    assert _probe_levels(t) == QUARTERS | coordinates


@pytest.mark.parametrize("name", TNORM_NAMES)
def test_every_tnorm_under_max_reaches_associativity_and_drift_at_the_default_budget(name):
    t, l = _pair(name, "max")
    laws = [checks[0][0] for checks in islice(_mining_cases(t, l, CFG, random.Random(SEED)), 1000)]
    first = laws.index("associativity")
    # Drift starts at the first case past the associativity phase, with the
    # law rotation from its start.
    drift = next(k for k in range(first, len(laws)) if laws[k] != "associativity")
    assert laws[drift:drift + len(LAWS)] == list(LAWS)


def test_fail_reports_replay_byte_identically():
    t, l = _pair("M", "osum_trunc:2")
    first = mine_counterexample(t, l, CFG, 2000, 42)
    again = mine_counterexample(t, l, CFG, 2000, 42)
    assert serialize_report(first) == serialize_report(again)
    assert first == again


def test_witness_serialization_embeds_ddf_payloads():
    t, l = _pair("M", "drastic")
    report = mine_counterexample(t, l, CFG, 2000, 42)
    text = serialize_report(report)
    lines = text.splitlines()
    assert lines[0].startswith("report tnorm=M tconorm=drastic law=identity verdict=fail")
    assert any(line.startswith("witness ") for line in lines)
    payloads = [line for line in lines if line.startswith("operand ")]
    assert payloads and all("ddf=DDF v1\\n" in line for line in payloads)


def test_check_law_failure_carries_reverifying_witness():
    t, l = _pair("M", "osum_trunc:2")
    report = check_law(t, l, "closure", CFG, 500, 42)
    assert report.verdict == "fail"
    assert reverify(t, l, report.witness)
    replay = check_law(t, l, "closure", CFG, 500, 42)
    assert serialize_report(replay) == serialize_report(report)


@pytest.mark.parametrize("spec", ["plus", "max", "osum_trunc:2", "drastic"])
def test_one_closure_case_builds_one_grid(spec, monkeypatch):
    # The package exports the function tau under the submodule's name.
    tau_module = sys.modules["deltaplus.tau"]
    calls = {"build_grid": 0, "tau_raw_at": 0}

    def counted(name):
        original = getattr(tau_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(tau_module, name, wrapper)

    counted("build_grid")
    counted("tau_raw_at")
    t, l = _pair("M", spec)
    f, g = random_ddf(CFG, 3), random_ddf(CFG, 4)
    _case(t, l, "closure", (f, g))
    # Under the drastic conorm no grid is built; raw values come from the
    # axes.
    builds = 0 if spec == "drastic" else 1
    assert calls == {"build_grid": builds, "tau_raw_at": 0}


def test_monotonicity_law_passes_across_catalog_samples():
    rng = random.Random(SEED)
    for spec in ["max", "plus", "nilpotent_rat", "drastic", "osum_trunc:2"]:
        t = catalog_tnorm(rng.choice(("M", "Pi", "W", "nM", "D", "nM_hat")))
        report = check_law(t, catalog_tconorm_spec(spec), "monotonicity", CFG, 60, SEED)
        assert report.verdict == "pass"


# Operations on [0,1] that are not t-norms, so that the laws no catalog
# pair breaks (commutativity, associativity, monotonicity) get a witness.
def _sevenths(x, y):
    # The minimum, except for a left argument with denominator 7: no
    # structured candidate has such a level, so only random drift finds it.
    return UnitRat(x.value * y.value) if x.value.denominator == 7 else min(x, y)


NON_TNORMS = {
    op.name: op
    for op in (
        TNormDesc("proj", lambda x, y: x, None),
        TNormDesc("x_ysq", lambda x, y: UnitRat(x.value * y.value**2), None),
        TNormDesc("rev", lambda x, y: UnitRat((1 - x.value) * y.value), None),
        TNormDesc(
            "mean", lambda x, y: UnitRat((min(x, y).value + x.value * y.value) / 2), None
        ),
        TNormDesc("sevenths", _sevenths, None),
    )
}

# Records text of one failing report per law (check_law, budget 40, seed 0)
# and per miner phase (mine_counterexample, budget 2000, seed 42), pinned
# byte for byte: a change to how laws are drawn, compared or probed must
# leave every report as it is.
PINNED_REPORTS = {
    ("check", "M", "osum_trunc:2", "closure"): r"""
report tnorm=M tconorm=osum_trunc:2 law=closure verdict=fail cases=6 budget=40 seed=0 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=closure x=2 lhs=0 rhs=1/4 detail=regularized vs raw value
operand slot=0 ddf=DDF v1\njump 3/2 1/4\njump 18/7 1/3\njump 14/5 3/4\njump 16/5 1\n
operand slot=1 ddf=DDF v1\njump 5/6 2/3\njump 3/2 1\n
""",
    ("check", "proj", "plus", "commutativity"): r"""
report tnorm=proj tconorm=plus law=commutativity verdict=fail cases=1 budget=40 seed=0 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=commutativity x=15/14 lhs=1/2 rhs=0 detail=tau(f,g) vs tau(g,f)
operand slot=0 ddf=DDF v1\njump 1/7 1/2\njump 25/8 4/5\njump 16/5 5/6\n
operand slot=1 ddf=DDF v1\njump 2 1/2\njump 4 2/3\n
""",
    ("check", "x_ysq", "plus", "associativity"): r"""
report tnorm=x_ysq tconorm=plus law=associativity verdict=fail cases=1 budget=40 seed=0 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=associativity x=605/168 lhs=25/288 rhs=625/10368 detail=tau(tau(f,g),h) vs tau(f,tau(g,h))
operand slot=0 ddf=DDF v1\njump 1/7 1/2\njump 25/8 4/5\njump 16/5 5/6\n
operand slot=1 ddf=DDF v1\njump 2 1/2\njump 4 2/3\n
operand slot=2 ddf=DDF v1\njump 3/4 5/6\njump 13/6 1\n
""",
    ("check", "M", "drastic", "identity"): r"""
report tnorm=M tconorm=drastic law=identity verdict=fail cases=1 budget=40 seed=0 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=identity x=183/112 lhs=0 rhs=1/2 detail=tau(f, unit step at 0) vs f
operand slot=0 ddf=DDF v1\njump 1/7 1/2\njump 25/8 4/5\njump 16/5 5/6\n
""",
    ("check", "rev", "plus", "monotonicity"): r"""
report tnorm=rev tconorm=plus law=monotonicity verdict=fail cases=7 budget=40 seed=0 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=monotonicity x=33/20 lhs=1/3 rhs=2/15 detail=tau(lo,g) above tau(hi,g)
operand slot=0 ddf=DDF v1\njump 1/4 1/4\njump 2 1/3\njump 3 3/8\njump 23/6 5/6\n
operand slot=1 ddf=DDF v1\njump 0 3/5\njump 7/2 7/8\n
operand slot=2 ddf=DDF v1\njump 4/5 1/3\njump 5/2 3/4\njump 3 1\n
""",
    ("check", "M", "drastic", "embedding_eps"): r"""
report tnorm=M tconorm=drastic law=embedding_eps verdict=fail cases=7 budget=40 seed=0 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=embedding_eps x=6/5 lhs=0 rhs=1 detail=unit steps must compose through the conorm
operand slot=0 ddf=DDF v1\njump 1/5 1\n
operand slot=1 ddf=DDF v1\njump 0 1\n
operand slot=2 ddf=DDF v1\njump 1/5 1\n
""",
    ("check", "M", "drastic", "embedding_V"): r"""
report tnorm=M tconorm=drastic law=embedding_V verdict=fail cases=1 budget=40 seed=0 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=embedding_V x=1 lhs=0 rhs=6/7 detail=constant levels must compose through the t-norm
operand slot=0 ddf=DDF v1\njump 0 6/7\n
operand slot=1 ddf=DDF v1\njump 0 1\n
operand slot=2 ddf=DDF v1\njump 0 6/7\n
""",
    ("mine", "M", "osum_trunc:2", "all"): r"""
report tnorm=M tconorm=osum_trunc:2 law=closure verdict=fail cases=47 budget=2000 seed=42 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=closure x=2 lhs=0 rhs=1 detail=regularized vs raw value
operand slot=0 ddf=DDF v1\njump 1/2 1\n
operand slot=1 ddf=DDF v1\njump 3/2 1\n
""",
    ("mine", "M", "drastic", "all"): r"""
report tnorm=M tconorm=drastic law=identity verdict=fail cases=13 budget=2000 seed=42 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=identity x=1 lhs=0 rhs=1 detail=tau(f, unit step at 0) vs f
operand slot=0 ddf=DDF v1\njump 0 1\n
""",
    ("mine", "proj", "plus", "all"): r"""
report tnorm=proj tconorm=plus law=commutativity verdict=fail cases=2 budget=2000 seed=42 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=commutativity x=1 lhs=0 rhs=1 detail=tau(f,g) vs tau(g,f)
operand slot=0 ddf=DDF v1\n
operand slot=1 ddf=DDF v1\njump 0 1\n
""",
    ("mine", "mean", "plus", "all"): r"""
report tnorm=mean tconorm=plus law=associativity verdict=fail cases=224 budget=2000 seed=42 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=associativity x=1 lhs=9/64 rhs=11/64 detail=tau(tau(f,g),h) vs tau(f,tau(g,h))
operand slot=0 ddf=DDF v1\njump 0 1/4\n
operand slot=1 ddf=DDF v1\njump 0 1/2\n
operand slot=2 ddf=DDF v1\njump 0 1/2\n
""",
    ("mine", "sevenths", "plus", "all"): r"""
report tnorm=sevenths tconorm=plus law=commutativity verdict=fail cases=311 budget=2000 seed=42 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=commutativity x=9/2 lhs=1/3 rhs=5/21 detail=tau(f,g) vs tau(g,f)
operand slot=0 ddf=DDF v1\njump 0 1/3\njump 1 1/2\njump 2 3/5\njump 10/3 2/3\njump 27/8 1\n
operand slot=1 ddf=DDF v1\njump 4 5/7\n
""",
    # Random drift: the ninth drift case, after 800 structured step cases
    # and 64 ramp pairs, so it pins where drift starts and the law rotation.
    ("mine", "sevenths", "max", "all"): r"""
report tnorm=sevenths tconorm=max law=commutativity verdict=fail cases=873 budget=2000 seed=42 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=commutativity x=3/8 lhs=2/7 rhs=5/28 detail=tau(f,g) vs tau(g,f)
operand slot=0 ddf=DDF v1\njump 0 5/8\njump 8/7 6/7\n
operand slot=1 ddf=DDF v1\njump 0 1/6\njump 1/4 2/7\njump 1/2 1/2\njump 1 2/3\njump 9/8 3/4\njump 2 4/5\njump 9/4 6/7\njump 4 1\n
""",
    # Ramp pairs, right after the 400 cheap-law step cases: a closure
    # witness with its split and v2 operands.
    ("mine", "D", "max", "all"): r"""
report tnorm=D tconorm=max law=closure verdict=fail cases=404 budget=2000 seed=42 max_jumps=4 abscissa_pool=8 value_pool=8
witness law=closure x=1 lhs=0 rhs=1/4 u=1 v=1 detail=regularized vs raw value
operand slot=0 ddf=DDF v2\nramp 0 1 1/4\n
operand slot=1 ddf=DDF v2\nramp 0 1 1\n
""",
}


@pytest.mark.parametrize("key", PINNED_REPORTS, ids="-".join)
def test_fail_reports_match_pinned_bytes(key):
    runner, tn, ln, law = key
    t = NON_TNORMS.get(tn) or catalog_tnorm(tn)
    l = catalog_tconorm_spec(ln)
    if runner == "check":
        report = check_law(t, l, law, CFG, 40, 0)
    else:
        report = mine_counterexample(t, l, CFG, 2000, 42)
    assert serialize_report(report) == PINNED_REPORTS[key].lstrip("\n")
    assert reverify(t, l, report.witness)
