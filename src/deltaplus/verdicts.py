"""Outcome and error types shared by the catalogs and their checkers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable


class CatalogError(ValueError):
    """Unknown catalog name or bad catalog parameter."""


@dataclass(frozen=True)
class Verdict:
    """Result of a randomized or exact check.

    ``passed`` is True when no violation was found within the budget; a
    False verdict always carries a concrete witness.  ``cases`` records
    how many cases were actually evaluated.
    """

    passed: bool
    cases: int
    witness: Any | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class Witness2D:
    """A point of [0,1]^2 (or [0,inf]^2) exhibiting a violation."""

    point: tuple[Any, Any]
    detail: str = ""


def check_axioms(
    op: Callable[[Any, Any], Any],
    sample: Callable[[random.Random], Any],
    identity: Any,
    budget: int,
    seed: int,
) -> Verdict:
    """Randomized falsification of commutativity, associativity, monotonicity
    in each place and the neutral ``identity``, on triples drawn by ``sample``.

    ``op`` must be pure: op(x, y) and op(y, z) are taken once per case and
    shared by the laws that read them."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(seed)
    for case in range(1, budget + 1):
        x, y, z = sample(rng), sample(rng), sample(rng)
        xy = op(x, y)
        if xy != op(y, x):
            return Verdict(False, case, Witness2D((x, y), "not commutative"))
        yz = op(y, z)
        if op(xy, z) != op(x, yz):
            return Verdict(False, case, Witness2D((x, y), f"not associative with z={z}"))
        if op(x, identity) != x or op(identity, x) != x:
            return Verdict(False, case, Witness2D((x, identity), f"{identity} not identity"))
        xz = op(x, z)
        lo, hi, lo_z, hi_z = (x, y, xz, yz) if x <= y else (y, x, yz, xz)
        if lo_z > hi_z or op(z, lo) > op(z, hi):
            return Verdict(False, case, Witness2D((lo, hi), f"not monotone against z={z}"))
    return Verdict(True, budget)
