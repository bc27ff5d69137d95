"""Tests for the calibrated cost model."""

from __future__ import annotations

import pytest

from repro.core.costs import CostModel


@pytest.fixture
def costs() -> CostModel:
    return CostModel()


class TestPerPageCosts:
    def test_checkpoint_has_fixed_floor(self, costs):
        assert costs.checkpoint_ms(0) == costs.checkpoint_fixed_ms
        assert costs.checkpoint_ms(1000) > costs.checkpoint_fixed_ms

    def test_linear_in_pages(self, costs):
        assert costs.lookup_ms(2000) == pytest.approx(2 * costs.lookup_ms(1000))
        assert costs.fingerprint_ms(500) == pytest.approx(
            500 * costs.fingerprint_us_per_page / 1e3
        )
        assert costs.patch_compute_ms(100) > 0
        assert costs.patch_apply_ms(100) < costs.patch_compute_ms(100)
        assert costs.register_ms(100) > 0


class TestPaperAnchors:
    """The constants must land on the paper's measured anchors."""

    def test_dedup_op_duration_band(self, costs):
        # Vanilla: ~4K full-scale pages; ModelTrain: ~22K (Section 7.7).
        def dedup_total(pages):
            return (
                costs.checkpoint_ms(pages)
                + costs.fingerprint_ms(pages)
                + costs.lookup_ms(pages)
                + costs.patch_compute_ms(pages // 2)
            )

        assert 1_000 < dedup_total(4_000) < 3_000
        assert 2_000 < dedup_total(22_000) < 5_000

    def test_lookup_rate_near_80us_per_page(self, costs):
        per_page_us = costs.lookup_ms(1_000) * 1e3 / 1_000
        assert 40 <= per_page_us <= 120

    def test_restore_much_faster_than_checkpoint(self, costs):
        pages = 8_000
        restore = costs.restore_fixed_ms + costs.patch_apply_ms(pages)
        assert restore < 0.3 * costs.checkpoint_ms(pages)

    def test_warm_start_in_paper_band(self, costs):
        assert 1.0 <= costs.warm_start_ms <= 20.0


class TestMeasuredFingerprint:
    def test_with_measured_fingerprint_carries_measurement(self, costs):
        from repro.core.costs import measure_fingerprint_us_per_page

        measured = costs.with_measured_fingerprint(pages=64, repeats=1)
        assert measured is not costs
        assert measured.fingerprint_us_per_page > 0
        # Only the fingerprint rate changes; every other constant stays.
        assert measured.lookup_us_per_page == costs.lookup_us_per_page
        assert measured.checkpoint_fixed_ms == costs.checkpoint_fixed_ms
        rate = measure_fingerprint_us_per_page(pages=64, repeats=1)
        assert 0 < rate < 1e4  # sane band: the kernel is well under 10 ms/page

    def test_measure_rejects_bad_pages(self):
        from repro.core.costs import measure_fingerprint_us_per_page

        with pytest.raises(ValueError):
            measure_fingerprint_us_per_page(pages=0)


class TestMeasuredLookup:
    def test_measures_the_batch_lookup(self):
        from repro.core.costs import measure_lookup_us_per_page

        rate = measure_lookup_us_per_page(pages=64, bases=3, repeats=1)
        assert 0 < rate < 1e4

    def test_measure_rejects_bad_sizes(self):
        from repro.core.costs import measure_lookup_us_per_page

        with pytest.raises(ValueError):
            measure_lookup_us_per_page(pages=0)
        with pytest.raises(ValueError):
            measure_lookup_us_per_page(bases=0)
