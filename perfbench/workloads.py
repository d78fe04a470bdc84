"""The three workloads: their seeded inputs, operations and checks.

``setup(dp, seed, work_dir)`` turns a seed into a list of ``Op``.  One
round runs every op once, in order.  ``Op.run`` returns the text that a
re-run must reproduce byte for byte, the op's units of work, and the
payload that ``Op.check`` verifies after the timed rounds.  A check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import reference as ref


@dataclass
class Op:
    label: str
    run: Callable[[], tuple[str, int, Any]]
    check: Callable[[Any], list[str]]
    headline: bool = False  # latency sampled for op_p50_s
    known_fault: str = ""  # why this op is expected to fail
    # True when a payload that fails its check shows exactly the known
    # fault; any other failure of the op is a wrong result.
    shows_fault: Callable[[Any], bool] = lambda payload: False


def _ext(e):
    return e.finite  # None is infinity in both representations


def _steps_of(ddf):
    return [(x.finite, p.value) for x, p in ddf.jumps]


# ---- tau-large ---------------------------------------------------------------

# (t-norm, conorm, jumps of f, jumps of g, --at query).  Every t-norm and
# every continuous conorm appears; 4 of the 10 ops are --at queries.
TAU_OPS = (
    ("Pi", "plus", 256, 256, False),
    ("M", "max", 192, 128, False),
    ("W", "nilpotent_rat", 128, 128, False),
    ("nM", "osum_trunc:2", 128, 96, False),
    ("D", "plus", 96, 128, False),
    ("nM_hat", "osum_strict:2", 64, 64, False),
    ("Pi", "max", 128, 64, True),
    ("W", "plus", 64, 64, True),
    ("M", "osum_strict:2", 32, 16, True),
    ("nM_hat", "plus", 16, 32, True),
)
TAU_LARGEST = max(n * m for _, _, n, m, _ in TAU_OPS)


def random_steps(rng: random.Random, n: int):
    """n jumps: abscissae in ]0, 8] with denominators up to 16, values
    strictly increasing with denominators up to 64 and the last one 1."""
    xs: set[Fraction] = set()
    while len(xs) < n:
        den = rng.randint(1, 16)
        xs.add(Fraction(rng.randint(1, 8 * den), den))
    ps: set[Fraction] = set()
    while len(ps) < n - 1:
        den = rng.randint(2, 64)
        ps.add(Fraction(rng.randint(1, den - 1), den))
    return list(zip(sorted(xs), sorted(ps) + [Fraction(1)]))


def _tau_op(dp, work_dir, index, rng, tn, spec, n, m, at):
    f, g = random_steps(rng, n), random_steps(rng, m)
    paths = []
    for name, steps in (("f", f), ("g", g)):
        path = work_dir / f"tau{index}_{name}.ddf"
        path.write_text(ref.format_steps(steps), encoding="utf-8")
        paths.append(str(path))
    argv = ["tau", "--tnorm", tn, "--conorm", spec, "--f", paths[0], "--g", paths[1]]
    x = Fraction(rng.randint(1, 192), 16) if at else None
    if at:
        argv += ["--at", str(x)]
    cli = sys.modules["deltaplus.cli"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = f"exit {code}\n{out.getvalue()}"
        return text, (n + 1) * (m + 1), (code, out.getvalue())

    def check(payload) -> list[str]:
        code, text = payload
        if code != 0:
            return [f"exit code {code}"]
        expected = ref.regularized(tn, spec, f, g)
        if at:
            words = text.split()
            if len(words) != 4 or words[0] != "regularized" or words[2] != "raw":
                return [f"unexpected --at output {text!r}"]
            reg, raw = Fraction(words[1]), Fraction(words[3])
            problems = []
            if reg != expected(x):
                problems.append(f"regularized {reg} at {x}, reference {expected(x)}")
            if raw != ref.raw_at(tn, spec, f, g, x):
                problems.append(f"raw {raw} at {x}, reference {ref.raw_at(tn, spec, f, g, x)}")
            if raw < reg:
                problems.append(f"raw {raw} below regularized {reg} at {x}")
            if ref.is_lawful(tn, spec) and raw != reg:
                problems.append(f"lawful pair but raw {raw} != regularized {reg} at {x}")
            return problems
        got = ref.Steps(ref.parse_steps(text))
        problems = [
            f"value {got(p)} at {p}, reference {expected(p)}"
            for p in ref.probe_points(got.jumps, expected.jumps)
            if got(p) != expected(p)
        ][:3]
        h = dp.parse_ddf(text)
        if dp.serialize(h) != text:
            problems.append("parse_ddf(serialize(h)) differs from h")
        if (tn, spec) == ("D", "plus"):
            fd = dp.parse_ddf(ref.format_steps(f))
            gd = dp.parse_ddf(ref.format_steps(g))
            if dp.tau_d_closed_form(fd, gd) != h:
                problems.append("differs from tau_d_closed_form")
        return problems

    label = f"tau {tn},{spec} {n}x{m}" + (f" --at {x}" if at else "")
    return Op(label, run, check, headline=n * m == TAU_LARGEST)


def setup_tau_large(dp, seed: int, work_dir) -> list[Op]:
    rng = random.Random(seed)
    return [
        _tau_op(dp, work_dir, i, rng, *spec) for i, spec in enumerate(TAU_OPS)
    ]


# ---- mine-small --------------------------------------------------------------

MINE_BUDGET = 1000  # the CLI's default for `mine`
MINE_PAIRS = (
    # lawful: the miner spends the whole budget, then classifies
    ("Pi", "plus"),
    ("M", "max"),
    ("nM", "osum_strict:2"),
    # unlawful with a step-function witness: the miner stops early
    ("M", "osum_trunc:2"),
    ("M", "drastic"),
)
# Unlawful by the theorem, but no step function carries its witness (the
# defect needs strictly increasing operands), so the miner reports
# "inconclusive" where "fail" is due.  Kept with a fixed miner seed.
MINE_KNOWN_FAULT = ("nM_hat", "plus")
MINE_KNOWN_FAULT_SEED = 0


def law_sides(tn: str, spec: str, law: str, operands, x):
    """Both sides of a law at x, from the reference evaluator."""
    def reg(f, g):
        return ref.regularized(tn, spec, f, g)

    ops = [_steps_of(d) for d in operands]
    if law == "closure":
        f, g = ops
        return [(reg(f, g)(x), ref.raw_at(tn, spec, f, g, x))]
    if law == "commutativity":
        f, g = ops
        return [(reg(f, g)(x), reg(g, f)(x))]
    if law == "associativity":
        f, g, h = ops
        return [(reg(reg(f, g).jumps, h)(x), reg(f, reg(g, h).jumps)(x))]
    if law == "identity":
        (f,) = ops
        return [(reg(f, [(ref.ZERO, ref.ONE)])(x), ref.Steps(f)(x))]
    if law == "monotonicity":
        lo, hi, g = ops
        return [(reg(lo, g)(x), reg(hi, g)(x)), (reg(g, lo)(x), reg(g, hi)(x))]
    if law in ("embedding_eps", "embedding_V"):
        f, g, expected = ops
        return [(reg(f, g)(x), ref.Steps(expected)(x))]
    return []


def _mine_op(dp, tn, spec, seed, known_fault=""):
    lawcheck = sys.modules["deltaplus.lawcheck"]
    t, l = dp.catalog_tnorm(tn), dp.catalog_tconorm_spec(spec)
    cfg = dp.RandomDDFConfig()

    def run():
        report = lawcheck.mine_counterexample(t, l, cfg, MINE_BUDGET, seed)
        return lawcheck.serialize_report(report), report.cases, report

    def check(report) -> list[str]:
        if ref.is_lawful(tn, spec):
            if report.verdict != "pass" or report.cases != MINE_BUDGET:
                return [f"lawful pair reported {report.verdict} after {report.cases} cases"]
            return []
        w = report.witness
        if report.verdict != "fail" or w is None:
            return [f"unlawful pair reported {report.verdict}, expected fail with a witness"]
        sides = law_sides(tn, spec, w.law, w.operands, _ext(w.x))
        if (w.lhs.value, w.rhs.value) not in sides or w.lhs == w.rhs:
            return [f"{w.law} witness at x={w.x} does not re-evaluate: {sides}"]
        return []

    def shows_fault(report) -> bool:
        return report.verdict == "inconclusive" and report.witness is None

    label = f"mine {tn},{spec} budget={MINE_BUDGET} seed={seed}"
    return Op(label, run, check, headline=(tn, spec) == ("M", "max"),
              known_fault=known_fault, shows_fault=shows_fault)


def setup_mine_small(dp, seed: int, work_dir) -> list[Op]:
    rng = random.Random(seed)
    ops = [_mine_op(dp, tn, spec, rng.randrange(2**31)) for tn, spec in MINE_PAIRS]
    ops.append(
        _mine_op(
            dp, *MINE_KNOWN_FAULT, MINE_KNOWN_FAULT_SEED,
            known_fault="step functions cannot carry this pair's witness",
        )
    )
    return ops


# ---- classify-catalog --------------------------------------------------------

CLASSIFY_BUDGET = 400  # `classify`'s default, and the budget `mine` classifies with
CATALOG_CONORMS = tuple(ref.CONORM_FACTS)
_DELTA = Fraction(1, 2**30)


def _witness_problem(tag: str, evidence, tn: str, spec: str) -> str | None:
    """None when the failed condition carries a witness that re-verifies
    under the reference operations."""
    t, l = ref.tnorm(tn), ref.conorm(spec)
    if tag == "a_continuity":
        # Declared, not checked: confirm the jump off the axis here.
        if l(ref.ZERO, ref.ONE) is not ref.INF and l(_DELTA, ref.ONE) is ref.INF:
            return None
        return "conorm shows no discontinuity at (0, 1)"
    w = evidence.verdict.witness if evidence.verdict is not None else None
    if w is None:
        return f"{tag} failed without a witness"
    if tag == "a_LCS":
        u, u_hi, v, v_hi = (_ext(e) for e in (w.u, w.u_hi, w.v, w.v_hi))
        lo, hi = l(u, v), l(u_hi, v_hi)
        if ref.lt(u, u_hi) and ref.lt(v, v_hi) and hi is not ref.INF and lo == hi:
            return None
    elif tag in ("c_weak_left", "c_left_when_nonarchimedean"):
        x, y = (p.value for p in w.point)
        if tag == "c_weak_left":
            below = max(t(x, y - _DELTA), t(x - _DELTA, y))
        else:
            below = t(x - _DELTA, y - _DELTA)
        if t(x, y) > below:
            return None
    return f"{tag} witness {w} does not re-verify"


def _classify_op(dp, tn, spec, seed):
    classify = sys.modules["deltaplus.classify"]
    t, l = dp.catalog_tnorm(tn), dp.catalog_tconorm_spec(spec)

    def run():
        result = classify.classify(t, l, budget=CLASSIFY_BUDGET, seed=seed)
        cases = sum(e.verdict.cases for e in result.evidence if e.verdict is not None)
        return repr(result), cases, result

    def check(result) -> list[str]:
        expected = ref.expected_failures(tn, spec)
        want = "NotTriangle" if expected else "Triangle"
        failed = {e.tag: e for e in result.evidence if not e.satisfied}
        problems = []
        if result.verdict != want:
            problems.append(f"verdict {result.verdict}, theorem says {want}")
        if set(failed) != expected:
            problems.append(f"failed conditions {sorted(failed)}, theorem says {sorted(expected)}")
        for tag, evidence in failed.items():
            problem = _witness_problem(tag, evidence, tn, spec)
            if problem:
                problems.append(problem)
        return problems

    label = f"classify {tn},{spec} budget={CLASSIFY_BUDGET} seed={seed}"
    return Op(label, run, check, headline=(tn, spec) == ("Pi", "max"))


def setup_classify_catalog(dp, seed: int, work_dir) -> list[Op]:
    return [
        _classify_op(dp, tn, spec, seed)
        for tn in ref.TNORM_FACTS
        for spec in CATALOG_CONORMS
    ]


WORKLOADS = {
    "tau-large": setup_tau_large,
    "mine-small": setup_mine_small,
    "classify-catalog": setup_classify_catalog,
}
