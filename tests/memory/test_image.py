"""Tests for MemoryImage synthesis and access."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import MIB, PAGE_SIZE
from repro.memory.image import (
    MemoryImage,
    shared_fraction_upper_bound,
    synthesize_image,
)
from repro.memory.layout import standard_layout
from tests.conftest import TEST_SCALE


@pytest.fixture(scope="module")
def layout():
    return standard_layout("LinAlg", ("numpy",), 32 * MIB)


class TestSynthesizeImage:
    def test_deterministic(self, layout):
        a = synthesize_image(layout, 256 * 1024, instance_seed=1)
        b = synthesize_image(layout, 256 * 1024, instance_seed=1)
        assert a.checksum() == b.checksum()

    def test_distinct_seeds_distinct_images(self, layout):
        a = synthesize_image(layout, 256 * 1024, instance_seed=1, executed=True)
        b = synthesize_image(layout, 256 * 1024, instance_seed=2, executed=True)
        assert a.checksum() != b.checksum()

    def test_page_multiple_length(self, layout):
        image = synthesize_image(layout, 256 * 1024, instance_seed=1)
        assert image.nbytes % PAGE_SIZE == 0
        assert image.num_pages == image.nbytes // PAGE_SIZE

    def test_regions_cover_placement(self, layout):
        image = synthesize_image(layout, 256 * 1024, instance_seed=1)
        names = {r.spec.name for r in image.regions}
        assert {"runtime", "zero", "stack", "heap", "unique"} <= names

    def test_aslr_inserts_guard_pages(self, layout):
        plain = synthesize_image(layout, 256 * 1024, instance_seed=1)
        randomized = synthesize_image(layout, 256 * 1024, instance_seed=1, aslr=True)
        assert randomized.nbytes >= plain.nbytes

    def test_executed_flag_recorded(self, layout):
        image = synthesize_image(layout, 256 * 1024, instance_seed=1, executed=True)
        assert image.executed

    def test_executed_image_refuses_a_page_size_dirty_pages_are_not_cut_at(self, layout):
        assert synthesize_image(layout, 256 * 1024, instance_seed=1, page_size=8192).page_size == 8192
        with pytest.raises(ValueError, match="4096-byte pages"):
            synthesize_image(layout, 256 * 1024, instance_seed=1, executed=True, page_size=8192)


class TestMemoryImageAccess:
    def test_page_views(self, linalg_image):
        page = linalg_image.page(0)
        assert len(page) == linalg_image.page_size
        assert page.dtype == np.uint8

    def test_page_bytes_matches_view(self, linalg_image):
        assert linalg_image.page_bytes(3) == linalg_image.page(3).tobytes()

    def test_page_out_of_range(self, linalg_image):
        with pytest.raises(IndexError):
            linalg_image.page(linalg_image.num_pages)
        with pytest.raises(IndexError):
            linalg_image.page(-1)

    def test_iter_pages_complete(self, linalg_image):
        pages = list(linalg_image.iter_pages())
        assert len(pages) == linalg_image.num_pages
        assert pages[0][0] == 0

    def test_data_is_read_only(self, linalg_image):
        with pytest.raises(ValueError):
            linalg_image.data[0] = 1

    def test_region_of(self, linalg_image):
        first = linalg_image.regions[0]
        assert linalg_image.region_of(first.offset) is first.spec
        assert linalg_image.region_of(first.end - 1) is first.spec

    def test_rejects_non_page_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            MemoryImage(
                function="f",
                instance_seed=0,
                data=np.zeros(100, dtype=np.uint8),
                page_size=PAGE_SIZE,
                regions=(),
            )

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            MemoryImage(
                function="f",
                instance_seed=0,
                data=np.zeros(PAGE_SIZE, dtype=np.uint16),
                page_size=PAGE_SIZE,
                regions=(),
            )


class TestSharedFractionBound:
    def test_bound_below_one(self, layout):
        bound = shared_fraction_upper_bound(layout)
        assert 0.5 < bound < 1.0

    def test_profile_savings_never_exceed_bound(self, linalg_profile):
        # The analytic bound holds for actual measured dedup savings;
        # checked more thoroughly in analysis tests, asserted here on
        # the layout level: INSTANCE fraction is excluded.
        bound = shared_fraction_upper_bound(linalg_profile.layout())
        unique = next(
            r.fraction for r in linalg_profile.layout().regions if r.name == "unique"
        )
        assert abs(bound + unique - 1.0) < 1e-9
