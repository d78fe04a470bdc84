"""Outcome and error types shared by the catalogs and their checkers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


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
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class Witness2D:
    """A point of [0,1]^2 (or [0,inf]^2) exhibiting a violation."""

    point: tuple[Any, Any]
    detail: str = ""
