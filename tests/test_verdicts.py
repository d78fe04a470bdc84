"""check_axioms against a verbatim copy of the loop that took every op
value afresh: the same verdicts, cases and witnesses, from fewer calls."""

import random

import pytest

from deltaplus.rationals import EXT_ZERO, UNIT_ONE, UnitRat, unit
from deltaplus.tconorms import _random_ext, _sample_pool, catalog_tconorm_spec
from deltaplus.tnorms import TNORM_NAMES, _random_unit, catalog_tnorm
from deltaplus.verdicts import Verdict, Witness2D, check_axioms

CONORM_SPECS = ("max", "plus", "nilpotent_rat", "drastic", "osum_trunc:2", "osum_strict:2")
BUDGET = 200
SEEDS = (0, 1, 2)


def _reference_check_axioms(op, sample, identity, budget, seed):
    # The loop as it was before op(x, y) and op(y, z) were shared.
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(seed)
    for case in range(1, budget + 1):
        x, y, z = sample(rng), sample(rng), sample(rng)
        if op(x, y) != op(y, x):
            return Verdict(False, case, Witness2D((x, y), "not commutative"))
        if op(op(x, y), z) != op(x, op(y, z)):
            return Verdict(False, case, Witness2D((x, y), f"not associative with z={z}"))
        if op(x, identity) != x or op(identity, x) != x:
            return Verdict(False, case, Witness2D((x, identity), f"{identity} not identity"))
        lo, hi = (x, y) if x <= y else (y, x)
        if op(lo, z) > op(hi, z) or op(z, lo) > op(z, hi):
            return Verdict(False, case, Witness2D((lo, hi), f"not monotone against z={z}"))
    return Verdict(True, budget)


class _Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x, y):
        self.calls += 1
        return self.fn(x, y)


def _product_except(*pairs):
    # The product, but 0 on the given ordered pairs.
    return lambda x, y: unit(0) if (x, y) in pairs else UnitRat(x.value * y.value)


# A permutation of [0, 1] that swaps 1/3 and 1/2 and fixes 1; product
# conjugated by it is commutative, associative, has identity 1, and is not
# monotone.
_SWAP = {unit(1, 3): unit(1, 2), unit(1, 2): unit(1, 3)}


def _swapped_product(x, y):
    sx, sy = _SWAP.get(x, x), _SWAP.get(y, y)
    p = UnitRat(sx.value * sy.value)
    return _SWAP.get(p, p)


_THIRD_HALF = (unit(1, 3), unit(1, 2))
_HAND_MADE = {
    "one_sided": (_product_except(_THIRD_HALF), "not commutative"),
    "two_sided": (_product_except(_THIRD_HALF, _THIRD_HALF[::-1]), "not associative"),
    "maximum": (lambda x, y: x if x >= y else y, "not identity"),
    "swapped_product": (_swapped_product, "not monotone"),
}
_POOL = [unit(0), unit(1, 3), unit(2, 5), unit(1, 2), unit(1)]


def _cases():
    for name in TNORM_NAMES:
        yield pytest.param(catalog_tnorm(name), _random_unit, UNIT_ONE, None, id=name)
    for spec in CONORM_SPECS:
        l = catalog_tconorm_spec(spec)
        sample = lambda rng, pool=_sample_pool(l): _random_ext(rng, pool)  # noqa: E731
        yield pytest.param(l, sample, EXT_ZERO, None, id=spec)
    for name, (fn, detail) in _HAND_MADE.items():
        yield pytest.param(fn, lambda rng: rng.choice(_POOL), UNIT_ONE, detail, id=name)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("op, sample, identity, detail", _cases())
def test_shared_values_change_no_verdict(op, sample, identity, detail, seed):
    new, old = _Counted(op), _Counted(op)
    verdict = check_axioms(new, sample, identity, BUDGET, seed)
    assert verdict == _reference_check_axioms(old, sample, identity, BUDGET, seed)
    if detail is None:  # a catalog entry: every case runs every law
        assert verdict.passed
        assert (new.calls, old.calls) == (10 * BUDGET, 12 * BUDGET)
    else:
        assert not verdict.passed
        assert detail in verdict.witness.detail
        assert new.calls <= old.calls
