"""Tests for the Section-2 redundancy measurement."""

from __future__ import annotations

import numpy as np

from repro._util import rng_for
from repro.memory.redundancy import (
    RedundancyResult,
    measure_redundancy,
    redundancy_matrix,
)
from tests.conftest import TEST_SCALE


def random_buffer(tag: str, n: int) -> np.ndarray:
    return rng_for("red-test", tag).integers(0, 256, size=n, dtype=np.uint8)


class TestMeasureRedundancy:
    def test_identical_buffers_near_full(self):
        data = random_buffer("a", 64 * 1024)
        result = measure_redundancy(data, data.copy(), 64)
        assert result.redundancy > 0.95

    def test_unrelated_buffers_near_zero(self):
        a = random_buffer("b", 64 * 1024)
        b = random_buffer("c", 64 * 1024)
        result = measure_redundancy(b, a, 64)
        assert result.redundancy < 0.02

    def test_bounds(self):
        a = random_buffer("d", 16 * 1024)
        b = a.copy()
        b[::7] = 0  # heavy damage
        result = measure_redundancy(b, a, 64)
        assert 0.0 <= result.redundancy <= 1.0

    def test_half_shared(self):
        shared = random_buffer("e", 32 * 1024)
        a = np.concatenate([shared, random_buffer("f", 32 * 1024)])
        b = np.concatenate([shared, random_buffer("g", 32 * 1024)])
        result = measure_redundancy(b, a, 64)
        assert 0.35 < result.redundancy < 0.65

    def test_counts_consistent(self):
        a = random_buffer("h", 16 * 1024)
        result = measure_redundancy(a, a.copy(), 64)
        assert result.matched_chunks <= result.probed_chunks
        assert result.duplicated_bytes <= result.total_bytes

    def test_empty_subject(self):
        a = random_buffer("i", 1024)
        result = measure_redundancy(np.zeros(0, dtype=np.uint8), a, 64)
        assert result.redundancy == 0.0

    def test_accepts_images(self, linalg_image, linalg_profile):
        other = linalg_profile.synthesize(99, content_scale=TEST_SCALE)
        result = measure_redundancy(other, linalg_image, 64)
        assert isinstance(result, RedundancyResult)
        assert result.redundancy > 0.5


class TestPaperProperties:
    """The measurement study's qualitative findings (Figure 1)."""

    def test_same_function_high_redundancy(self, linalg_profile):
        a = linalg_profile.synthesize(11, content_scale=TEST_SCALE)
        b = linalg_profile.synthesize(12, content_scale=TEST_SCALE)
        assert measure_redundancy(b, a, 64).redundancy > 0.8

    def test_redundancy_decays_with_chunk_size(self, linalg_profile):
        a = linalg_profile.synthesize(11, content_scale=TEST_SCALE)
        b = linalg_profile.synthesize(12, content_scale=TEST_SCALE)
        small = measure_redundancy(b, a, 64).redundancy
        large = measure_redundancy(b, a, 1024).redundancy
        assert large < small

    def test_cross_function_lower_but_substantial(self, suite):
        vanilla = suite.get("Vanilla").synthesize(21, content_scale=TEST_SCALE)
        linalg_a = suite.get("LinAlg").synthesize(22, content_scale=TEST_SCALE)
        linalg_b = suite.get("LinAlg").synthesize(23, content_scale=TEST_SCALE)
        cross = measure_redundancy(linalg_a, vanilla, 64).redundancy
        same = measure_redundancy(linalg_a, linalg_b, 64).redundancy
        assert 0.4 < cross < same

    def test_aslr_causes_small_drop(self, linalg_profile):
        plain_a = linalg_profile.synthesize(31, content_scale=TEST_SCALE)
        plain_b = linalg_profile.synthesize(32, content_scale=TEST_SCALE)
        aslr_a = linalg_profile.synthesize(33, content_scale=TEST_SCALE, aslr=True)
        aslr_b = linalg_profile.synthesize(34, content_scale=TEST_SCALE, aslr=True)
        plain = measure_redundancy(plain_b, plain_a, 64).redundancy
        randomized = measure_redundancy(aslr_b, aslr_a, 64).redundancy
        assert randomized < plain
        assert plain - randomized < 0.25  # a drop, not a collapse


class TestRedundancyMatrix:
    def test_matrix_structure(self, small_suite):
        images = {
            p.name: p.synthesize(40 + i, content_scale=TEST_SCALE)
            for i, p in enumerate(small_suite)
        }
        matrix = redundancy_matrix(images, 64)
        names = list(images)
        assert set(matrix) == {(r, c) for r in names for c in names}
        for value in matrix.values():
            assert 0.0 <= value <= 1.0

    def test_diagonal_is_self_redundancy(self, small_suite):
        images = {
            p.name: p.synthesize(50 + i, content_scale=TEST_SCALE)
            for i, p in enumerate(small_suite)
        }
        matrix = redundancy_matrix(images, 64)
        for name in images:
            assert matrix[(name, name)] > 0.9
