from dataclasses import replace

import pytest

from deltaplus.classify import (
    CONDITION_TAGS,
    Classification,
    MetadataMismatchError,
    UnverifiedMetadataError,
    classify,
)
from deltaplus.tconorms import TConormDesc, catalog_tconorm_spec
from deltaplus.tnorms import TNormDesc, catalog_tnorm


def _classify(tn: str, ln: str) -> Classification:
    return classify(catalog_tnorm(tn), catalog_tconorm_spec(ln))


@pytest.mark.parametrize(
    "tn, ln",
    [
        ("W", "plus"),
        ("D", "plus"),
        ("M", "max"),
        ("M", "plus"),
        ("Pi", "plus"),
        ("nM", "plus"),
        ("nM", "max"),
        ("W", "nilpotent_rat"),
        ("nM", "osum_strict:2"),
    ],
)
def test_lawful_pairs(tn, ln):
    result = _classify(tn, ln)
    assert result.verdict == "Triangle"
    assert result.governing == CONDITION_TAGS
    assert all(item.satisfied for item in result.evidence)


@pytest.mark.parametrize(
    "tn, ln, governing",
    [
        ("D", "max", ("c_left_when_nonarchimedean",)),
        ("nM_hat", "plus", ("c_weak_left",)),
        ("M", "osum_trunc:2", ("a_LCS",)),
        ("M", "drastic", ("a_continuity",)),
        ("nM_hat", "max", ("c_weak_left", "c_left_when_nonarchimedean")),
    ],
)
def test_unlawful_pairs_name_their_conditions(tn, ln, governing):
    result = _classify(tn, ln)
    assert result.verdict == "NotTriangle"
    assert result.governing == governing


def test_vacuous_left_continuity_is_marked():
    result = _classify("D", "plus")
    item = result.evidence_for("c_left_when_nonarchimedean")
    assert item.satisfied and item.source == "vacuous"
    stricter = _classify("D", "max")
    item = stricter.evidence_for("c_left_when_nonarchimedean")
    assert not item.satisfied and item.source == "checker"
    assert item.verdict is not None and item.verdict.witness is not None


def test_failed_conditions_carry_checker_evidence():
    result = _classify("M", "osum_trunc:2")
    item = result.evidence_for("a_LCS")
    assert item.source == "checker"
    assert item.verdict.witness is not None


def test_verdicts_are_seed_independent():
    for seed in (0, 1, 99):
        assert classify(
            catalog_tnorm("nM_hat"), catalog_tconorm_spec("plus"), seed=seed
        ).verdict == "NotTriangle"
        assert classify(
            catalog_tnorm("W"), catalog_tconorm_spec("plus"), seed=seed
        ).verdict == "Triangle"


def test_more_budget_never_flips_a_verdict():
    for tn, ln in [("D", "max"), ("W", "plus"), ("M", "osum_trunc:2")]:
        small = classify(catalog_tnorm(tn), catalog_tconorm_spec(ln), budget=120)
        large = classify(catalog_tnorm(tn), catalog_tconorm_spec(ln), budget=900)
        assert small.verdict == large.verdict
        assert small.governing == large.governing


def test_unverified_metadata_is_refused():
    blackbox_t = TNormDesc("mystery", lambda x, y: x, declared=None)
    with pytest.raises(UnverifiedMetadataError, match="run checks first"):
        classify(blackbox_t, catalog_tconorm_spec("plus"))
    blackbox_l = TConormDesc("mystery", lambda u, v: u, declared=None)
    with pytest.raises(UnverifiedMetadataError, match="run checks first"):
        classify(catalog_tnorm("M"), blackbox_l)


def test_plateau_declared_strict_is_a_mismatch():
    truncated = catalog_tconorm_spec("osum_trunc:2")
    claims_lcs = replace(truncated.declared, satisfies_lcs=True)
    with pytest.raises(MetadataMismatchError, match="a_LCS"):
        classify(catalog_tnorm("M"), replace(truncated, declared=claims_lcs))
