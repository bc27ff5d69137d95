"""The per-page digest column: kernel against its oracle, and what it sees.

``MemoryImage.page_digests`` is a uint64 ``einsum`` and a uint64 matmul,
the second over a byte-swapped view; ``tests/oracles/page_digest_scalar.py`` is the same
definition in Python integers.  Beyond agreeing with the oracle, the
column must see every single-bit change, a pair of top-bit flips (which
lane A alone can cancel: ``2**63 * (k_i + k_j)`` is 0 mod 2**64 whenever
the two keys share a parity), swapped pages and shifted content.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.image import MemoryImage
from tests.oracles.page_digest_scalar import image_digests

PAGE_SIZES = (8, 16, 64, 256, 4096)


def image_of(data, page_size: int) -> MemoryImage:
    """An image over ``data`` (bytes, or a uint8 array used as is)."""
    if isinstance(data, bytes):
        data = np.frombuffer(data, dtype=np.uint8).copy()
    return MemoryImage(function="f", instance_seed=0, data=data, page_size=page_size, regions=())


def random_pages(page_size: int, num_pages: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, page_size * num_pages, dtype=np.uint8)


def flipped(data: np.ndarray, *bits: int) -> np.ndarray:
    """``data`` with each absolute bit position in ``bits`` flipped
    (bit ``b`` of a word is bit ``b % 8`` of its byte ``b // 8``)."""
    out = data.copy()
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return out


@st.composite
def pages(draw):
    page_size = draw(st.sampled_from(PAGE_SIZES))
    num_pages = draw(st.integers(min_value=0, max_value=4))
    dense = draw(st.booleans())
    nbytes = page_size * num_pages
    if dense:
        return page_size, draw(st.binary(min_size=nbytes, max_size=nbytes))
    # Mostly zero, a few words set: the shape of real pages.
    data = bytearray(nbytes)
    if nbytes:
        for position in draw(st.lists(st.integers(0, nbytes - 1), max_size=8)):
            data[position] = draw(st.integers(1, 255))
    return page_size, bytes(data)


class TestKernelMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(pages())
    def test_kernel_is_the_definition(self, case):
        page_size, data = case
        column = image_of(data, page_size).page_digests()
        assert column.shape == (len(data) // page_size, 2)
        assert column.dtype == np.uint64
        assert [tuple(map(int, row)) for row in column] == image_digests(data, page_size)

    def test_real_image(self, linalg_image):
        expected = image_digests(linalg_image.data.tobytes(), linalg_image.page_size)
        assert [tuple(map(int, row)) for row in linalg_image.page_digests()] == expected

    @pytest.mark.parametrize("offset", [3, 8, 259])
    def test_view_at_an_offset_into_a_larger_buffer(self, offset):
        page_size = 256
        buffer = random_pages(page_size, 6, seed=offset)
        view = buffer[offset : offset + 4 * page_size]
        assert view.base is not None and not view.flags.owndata
        column = image_of(view, page_size).page_digests()
        assert np.array_equal(column, image_of(view.copy(), page_size).page_digests())
        assert [tuple(map(int, row)) for row in column] == image_digests(view.tobytes(), page_size)

    def test_zero_page_digests_to_zero(self):
        for page_size in PAGE_SIZES:
            column = image_of(bytes(3 * page_size), page_size).page_digests()
            assert not column.any()

    def test_column_is_cached_and_read_only(self, linalg_image):
        column = linalg_image.page_digests()
        assert linalg_image.page_digests() is column
        with pytest.raises(ValueError):
            column[0, 0] = 1

    def test_checksum_follows_the_column(self):
        data = random_pages(64, 3)
        same = image_of(data.copy(), 64)
        assert image_of(data, 64).checksum() == same.checksum()
        assert image_of(flipped(data, 5), 64).checksum() != same.checksum()
        # Same bytes cut into other pages, or a zero image of another size.
        assert image_of(data, 32).checksum() != same.checksum()
        assert image_of(bytes(64), 64).checksum() != image_of(bytes(128), 64).checksum()

    def test_rejects_a_page_that_is_not_whole_words(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            image_of(bytes(12), 12)


class TestChangesAreSeen:
    """Each change lands in exactly the pages it touched."""

    @staticmethod
    def bad_pages(original: np.ndarray, changed: np.ndarray, page_size: int) -> list[int]:
        recorded = image_of(original, page_size).page_digests()
        return image_of(changed, page_size).differing_pages(recorded).tolist()

    @pytest.mark.parametrize("page_size", [64, 4096])
    def test_every_bit_of_sampled_words(self, page_size):
        num_pages = 3
        data = random_pages(page_size, num_pages, seed=page_size)
        words = page_size // 8
        for page in range(num_pages):
            for word in sorted({0, 1, words // 2, words - 1}):
                for bit in range(64):
                    position = (page * page_size + word * 8) * 8 + bit
                    changed = flipped(data, position)
                    assert self.bad_pages(data, changed, page_size) == [page], (word, bit)

    @pytest.mark.parametrize("page_size", [16, 64, 4096])
    def test_top_bit_flipped_in_a_pair_of_words(self, page_size):
        data = random_pages(page_size, 2, seed=1)
        for word in range(page_size // 8 - 1):
            first = (page_size + word * 8) * 8 + 63
            changed = flipped(data, first, first + 64)
            assert self.bad_pages(data, changed, page_size) == [1], word

    def test_swapped_pages(self):
        page_size = 256
        data = random_pages(page_size, 4, seed=2)
        pages = data.reshape(4, page_size)
        swapped = pages[[0, 3, 2, 1]].reshape(-1)
        assert self.bad_pages(data, swapped, page_size) == [1, 3]

    def test_swapped_words_within_a_page(self):
        page_size = 64
        data = random_pages(page_size, 1, seed=3)
        words = data.view("<u8").copy()
        words[[2, 5]] = words[[5, 2]]
        assert self.bad_pages(data, words.view(np.uint8), page_size) == [0]

    def test_content_shifted_by_one_byte(self):
        page_size = 4096
        data = random_pages(page_size, 3, seed=4)
        assert self.bad_pages(data, np.roll(data, 1), page_size) == [0, 1, 2]
