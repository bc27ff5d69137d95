"""The claims table behind EXPERIMENTS.md (``benchmarks/claims.py``): Fig 7's
claims run here at full size, the rest in CI's scorecard job."""

from __future__ import annotations

import re

import pytest

from benchmarks import claims
from repro.core.policy import Decision, MedesPolicy

BY_ID = {claim.id: claim for claim in claims.CLAIMS}
FIG7 = [claim for claim in claims.CLAIMS if claim.driver == "fig7"]


@pytest.fixture(scope="module")
def fig7() -> dict[str, dict]:
    return claims.run_drivers(["fig7"])[1]


def test_ids_are_unique_and_each_owns_one_line_of_the_doc():
    assert len(BY_ID) == len(claims.CLAIMS)
    assert sorted(claims.MARK.findall(claims.DOC.read_text())) == sorted(BY_ID)


def test_known_deviations_1_to_5_are_deviates_claims():
    section = claims.DOC.read_text().split("## Known deviations", 1)[1]
    items = dict(re.findall(r"^(\d+)\. .*?<!-- claim: ([\w.]+) -->", section, re.MULTILINE))
    assert list(items) == ["1", "2", "3", "4", "5"]
    deviates = {claim.id for claim in claims.CLAIMS if claim.expected == "deviates"}
    assert set(items.values()) == deviates


def test_fig7_claims_hold_at_full_size(fig7):
    assert {claim.id: claim.verdict(fig7)[1] for claim in FIG7} == {c.id: [] for c in FIG7}


def test_rendering_rewrites_only_claim_cells_and_is_stable(fig7):
    """EXPERIMENTS.md with Fig 7's Measured and Shape cells blanked renders
    back to itself, byte for byte, and a second rendering changes nothing."""
    text = claims.DOC.read_text()
    ids = "|".join(re.escape(claim.id) for claim in FIG7)
    row = re.compile(rf"^(\|[^|]*<!-- claim: (?:{ids}) -->[^|]*\|[^|]*\|).*$", re.MULTILINE)
    blanked, count = row.subn(r"\1 stale | stale |", text)
    assert count == len(FIG7)
    once = claims.render_experiments(blanked, fig7)
    assert once == text, "EXPERIMENTS.md is stale: run `python -m benchmarks.claims`"
    assert claims.render_experiments(once, fig7) == once


def test_a_policy_that_never_dedups_fails_fig7s_ordering(monkeypatch):
    monkeypatch.setattr(MedesPolicy, "decide_idle", lambda self, fn, view: Decision.KEEP_WARM)
    measured, failed = BY_ID["fig7.cold_starts"].verdict(claims.run_drivers(["fig7"])[1])
    assert {"medes < fixed", "cut > 0.05"} <= set(failed), measured
