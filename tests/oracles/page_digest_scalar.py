"""The per-page digest one word at a time, in Python integers.

:func:`page_digest` restates ``MemoryImage.page_digests`` for one page
with no numpy: the page is cut into 8-byte words, lane A sums each
little-endian word times its key, lane B each big-endian (byte-swapped)
word times its own key, both mod 2**64.  The keys are restated too —
``shake_256`` of the same label, read as little-endian words — so the
oracle pins the definition, not the kernel's arrays.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

MASK = (1 << 64) - 1


@lru_cache(maxsize=None)
def digest_keys(page_size: int) -> tuple[list[int], list[int]]:
    """Lane A's and lane B's word keys for ``page_size``-byte pages."""
    words = page_size // 8
    stream = hashlib.shake_256(f"medes-page-digest/{page_size}".encode()).digest(16 * words)
    keys = [int.from_bytes(stream[8 * i : 8 * i + 8], "little") for i in range(2 * words)]
    return keys[:words], keys[words:]


def page_digest(page: bytes) -> tuple[int, int]:
    """``(lane A, lane B)`` of one page (its length a multiple of 8)."""
    key_a, key_b = digest_keys(len(page))
    lane_a = lane_b = 0
    for i in range(len(page) // 8):
        word = page[8 * i : 8 * i + 8]
        lane_a += int.from_bytes(word, "little") * key_a[i]
        lane_b += int.from_bytes(word, "big") * key_b[i]
    return lane_a & MASK, lane_b & MASK


def image_digests(data: bytes, page_size: int) -> list[tuple[int, int]]:
    """:func:`page_digest` of every page of ``data``."""
    starts = range(0, len(data), page_size)
    return [page_digest(data[start : start + page_size]) for start in starts]
