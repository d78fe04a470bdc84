"""Decision procedure: does a catalog pair (T, L) induce a lawful
triangle operation?

The verdict is Triangle exactly when
  (a) the conorm is a continuous t-conorm that is conditionally strictly
      increasing (strictness required whenever the result is finite),
  (b) the [0,1] operation is a t-norm, and
  (c) the t-norm is weakly left continuous, strengthened to left
      continuous when the conorm is non-Archimedean.

Each condition carries evidence: a checker verdict (with witness on
failure), the declared flag when no finite check can decide (full
continuity of the conorm), or a vacuity marker.  Checker results are
cross-validated against the declared metadata; a mismatch raises instead
of silently preferring either side, and an operation without declared
metadata is refused outright.  Condition (c) is decided exactly at the
t-norm's finite certificate; ``M``, ``Pi`` and ``W`` pass on their
declared continuity, as ``a_continuity`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tconorms import TConormDesc, check_LCS, check_tconorm_axioms, is_archimedean
from .tnorms import (
    TNormDesc,
    check_left_continuity,
    check_tnorm_axioms,
    check_weak_left_continuity,
)
from .verdicts import Verdict

CONDITION_TAGS = (
    "a_continuity",
    "a_tconorm",
    "a_LCS",
    "b_tnorm",
    "c_weak_left",
    "c_left_when_nonarchimedean",
)


class UnverifiedMetadataError(RuntimeError):
    """The descriptor carries no verifiable metadata; run checks first."""


class MetadataMismatchError(RuntimeError):
    """A checker verdict contradicts the declared metadata."""


@dataclass(frozen=True)
class ConditionEvidence:
    tag: str
    satisfied: bool
    source: str  # "declared" | "checker" | "vacuous"
    verdict: Verdict | None = None
    note: str = ""


@dataclass(frozen=True)
class Classification:
    verdict: str  # "Triangle" | "NotTriangle"
    governing: tuple[str, ...]
    evidence: tuple[ConditionEvidence, ...]

    def evidence_for(self, tag: str) -> ConditionEvidence:
        for item in self.evidence:
            if item.tag == tag:
                return item
        raise KeyError(tag)


def _cross_check(tag: str, declared: bool, verdict: Verdict) -> None:
    if declared != verdict.passed:
        raise MetadataMismatchError(
            f"{tag}: declared {declared} but checker found {verdict.passed}"
            f" (witness: {verdict.witness})"
        )


def classify(
    t: TNormDesc, l: TConormDesc, budget: int = 400, seed: int = 0
) -> Classification:
    """Classify a pair with verified metadata.  ``budget`` and ``seed`` drive
    the randomized conorm and t-norm axiom checks; (c)'s continuity is exact."""
    if t.declared is None or l.declared is None:
        raise UnverifiedMetadataError(
            "run checks first: classification needs declared-and-verified"
            " metadata, which this descriptor does not carry"
        )
    evidence = []

    # (a) continuity has no finite decision procedure; the declared flag is
    # the source, kept honest by the catalog regression fixtures.
    evidence.append(
        ConditionEvidence(
            "a_continuity",
            l.declared.is_continuous,
            "declared",
            note="continuity of the conorm on its whole square",
        )
    )

    # Conditions a checker decides: (tag, declared flag, checker verdict).
    d = t.declared
    checked = (
        ("a_tconorm", l.declared.is_tconorm, check_tconorm_axioms(l, budget, seed)),
        ("a_LCS", l.declared.satisfies_lcs, check_LCS(l, budget, seed)),
        (
            "b_tnorm",
            d.is_commutative and d.is_associative and d.has_one_identity and d.is_monotone,
            check_tnorm_axioms(t, budget, seed),
        ),
        ("c_weak_left", d.is_weakly_left_continuous, check_weak_left_continuity(t)),
    )
    for tag, declared, verdict in checked:
        _cross_check(tag, declared, verdict)
        evidence.append(ConditionEvidence(tag, verdict.passed, "checker", verdict))

    archimedean = is_archimedean(l, budget, seed)
    _cross_check("is_archimedean", l.declared.is_archimedean, archimedean)
    if archimedean.passed:
        evidence.append(
            ConditionEvidence(
                "c_left_when_nonarchimedean",
                True,
                "vacuous",
                archimedean,
                note="conorm is Archimedean; left continuity not required",
            )
        )
    else:
        left = check_left_continuity(t)
        _cross_check("c_left", t.declared.is_left_continuous, left)
        evidence.append(
            ConditionEvidence(
                "c_left_when_nonarchimedean",
                left.passed,
                "checker",
                left,
                note="conorm has an interior idempotent; left continuity required",
            )
        )

    failed = tuple(item.tag for item in evidence if not item.satisfied)
    if failed:
        return Classification("NotTriangle", failed, tuple(evidence))
    return Classification("Triangle", CONDITION_TAGS, tuple(evidence))
