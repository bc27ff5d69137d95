"""Chunk-level hashing primitives.

Medes identifies redundancy at a 64-byte chunk granularity (Section
4.1.1).  This module provides the hashing and scanning primitives shared
by the page fingerprints (dedup path) and the Section-2 measurement
study: SHA-1 chunk digests (truncatable, to model smaller fingerprint
tables and their collisions) and the vectorised rolling 2-byte values
used for value sampling.
"""

from __future__ import annotations

import numpy as np

from repro._util import gather_chunks, hash_bytes, hash_rows_sha1, run_lengths, run_starts

#: Default chunk size in bytes (the paper's RSC size).
DEFAULT_CHUNK_SIZE = 64
#: Default digest width for chunk hashes.
DEFAULT_DIGEST_BITS = 64


def hash_chunk(chunk: bytes, bits: int = DEFAULT_DIGEST_BITS) -> int:
    """Digest of one chunk, truncated to ``bits`` bits."""
    return hash_bytes(chunk, bits)


def fixed_offset_digests(
    data: np.ndarray,
    chunk_size: int,
    stride: int,
    bits: int = DEFAULT_DIGEST_BITS,
) -> list[tuple[int, int]]:
    """Digest chunks sampled at fixed offsets.

    Returns ``(offset, digest)`` for chunks of ``chunk_size`` bytes taken
    every ``stride`` bytes — the sampling scheme of the Section-2
    redundancy study (``stride = 2 * chunk_size`` there).
    """
    if chunk_size <= 0 or stride <= 0:
        raise ValueError("chunk_size and stride must be positive")
    raw = data.tobytes()
    offsets = np.arange(0, len(raw) - chunk_size + 1, stride, dtype=np.int64)
    if bits > 64:
        # Wide digests exceed the vectorised kernels' uint64 output;
        # keep the scalar big-int path for this experiment-only width.
        return [
            (int(offset), hash_bytes(raw[offset : offset + chunk_size], bits))
            for offset in offsets
        ]
    matrix = gather_chunks(np.frombuffer(raw, dtype=np.uint8), offsets, chunk_size)
    digests = hash_rows_sha1(matrix, bits)
    return list(zip(offsets.tolist(), digests.tolist()))


def rolling_last2(data: np.ndarray) -> np.ndarray:
    """Value of the last two bytes of every rolling window ending at i.

    ``result[i] = data[i-1] << 8 | data[i]`` for ``i >= 1``; position 0 is
    0.  Used for EndRE-style value sampling: a window is sampled when this
    value matches a marker pattern.
    """
    if data.dtype != np.uint8:
        raise ValueError("expected uint8 data")
    result = np.zeros(len(data), dtype=np.uint16)
    if len(data) >= 2:
        result[1:] = (data[:-1].astype(np.uint16) << 8) | data[1:].astype(np.uint16)
    return result


def _single_byte_marker(mask: int, value: int) -> tuple[int, int] | None:
    """Reduce a marker to a one-byte test when its mask allows it.

    With a mask confined to the low byte, ``(last2 & mask) == value``
    only ever inspects ``data[i]`` — the rolling high byte is masked off
    — so the scan can be a single byte compare instead of materializing
    rolling 16-bit values (5 full-buffer passes).  Only valid for
    positions >= 1 (position 0's rolling value is defined as 0); callers
    guard with their ``min_position``.  Returns ``(mask, value)`` as byte
    operands, or None when the marker genuinely needs the high byte.
    """
    if mask & ~0xFF:
        return None
    if value & ~0xFF:
        # The required value has high bits the mask can never produce.
        return (0, 1)  # matches nothing: (byte & 0) == 1 is always false
    return (mask, value)


def marker_positions(
    data: np.ndarray,
    *,
    mask: int,
    value: int,
    min_position: int,
) -> np.ndarray:
    """Window-end positions whose last-two-byte value matches the marker.

    Only positions ``>= min_position`` qualify (so a full chunk fits
    before the window end).  This is the per-page reference scan; the
    batch path's :func:`batch_marker_ends` additionally short-circuits
    single-byte markers.
    """
    last2 = rolling_last2(data)
    hits = np.flatnonzero((last2 & mask) == value)
    return hits[hits >= min_position]


def _byte_marker_matches(data: np.ndarray, byte_marker: tuple[int, int]) -> np.ndarray:
    bmask, bvalue = byte_marker
    if bmask == 0xFF:
        return data == np.uint8(bvalue)
    return (data & np.uint8(bmask)) == np.uint8(bvalue)


def enforce_spacing(
    positions: np.ndarray, spacing: int, *, cap: int | None = None
) -> np.ndarray:
    """Greedily thin ``positions`` so consecutive picks are >= spacing apart.

    Keeps sampled chunks non-overlapping, mirroring EndRE's skip-ahead
    after each sampled chunk.  ``cap`` stops after that many picks — the
    greedy prefix is identical to thinning everything and slicing, so
    capped and uncapped calls agree on the kept prefix.
    """
    if positions.size == 0:
        return positions
    kept = [int(positions[0])]
    if cap is not None and len(kept) >= cap:
        return np.asarray(kept, dtype=np.int64)
    for pos in positions[1:]:
        if pos - kept[-1] >= spacing:
            kept.append(int(pos))
            if cap is not None and len(kept) >= cap:
                break
    return np.asarray(kept, dtype=np.int64)


def batch_enforce_spacing(
    positions: np.ndarray,
    page_size: int,
    spacing: int,
    *,
    cap: int,
) -> np.ndarray:
    """Per-page greedy thinning of a whole buffer's marker hits, vectorised.

    ``positions`` are sorted absolute buffer offsets (the output of
    :func:`batch_marker_ends`); the result equals running
    :func:`enforce_spacing` with ``cap`` on each page's positions
    independently and re-concatenating — pinned by a hypothesis property
    (``tests/memory/test_vector_kernel.py``).

    The greedy recurrence ("keep a hit iff it is >= ``spacing`` past the
    last kept hit of its page") looks inherently serial, but at most
    ``cap`` hits survive per page, so it resolves in at most ``cap``
    *rounds* over the whole buffer: each round picks the first surviving
    hit of every page simultaneously (a segmented ``minimum.reduceat``),
    then kills every hit within ``spacing`` of its page's pick.  ``cap``
    is ~5 (the fingerprint cardinality), so the per-hit Python loop this
    replaces becomes ~5 full-array passes.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = len(positions)
    if n == 0:
        return positions.astype(np.int64, copy=False)
    positions = positions.astype(np.int64, copy=False)
    pages = positions // page_size
    # Hits are sorted, so each page's hits are one contiguous segment.
    seg_starts = run_starts(pages)
    seg_of = np.repeat(np.arange(len(seg_starts), dtype=np.int64), run_lengths(seg_starts, n))
    index = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    kept_rounds: list[np.ndarray] = []
    for _ in range(cap):
        masked = np.where(alive, index, n)
        first = np.minimum.reduceat(masked, seg_starts)
        have = first < n
        if not have.any():
            break
        picks = positions[first[have]]
        kept_rounds.append(picks)
        # Everything on a picked page below pick+spacing dies (the pick
        # itself included — it has been consumed); pages with no pick
        # left have no alive hits anyway.
        threshold = np.full(len(seg_starts), np.iinfo(np.int64).min, dtype=np.int64)
        threshold[have] = picks + spacing
        alive &= positions >= threshold[seg_of]
    if not kept_rounds:
        return np.empty(0, dtype=np.int64)
    kept = np.concatenate(kept_rounds)
    # Absolute positions encode (page, offset) order directly.
    kept.sort()
    return kept


def batch_marker_ends(
    data: np.ndarray,
    page_size: int,
    *,
    mask: int,
    value: int,
    min_position: int,
) -> np.ndarray:
    """Marker positions of *every page* of a flat buffer, in one scan.

    Equivalent to calling :func:`marker_positions` page by page, but the
    rolling-value computation runs once over the whole buffer.  Returned
    positions are absolute buffer offsets; callers split them per page
    (``positions // page_size``).  Two per-page semantics are preserved:

    * the rolling value of each page's position 0 is defined as 0 (the
      window never spans a page boundary), and
    * ``min_position`` applies to the *page-relative* offset.
    """
    if len(data) % page_size != 0:
        raise ValueError("buffer length must be a multiple of page_size")
    byte_marker = _single_byte_marker(mask, value) if min_position >= 1 else None
    if byte_marker is not None:
        # Page starts (whose per-page rolling value is defined as 0) are
        # position 0 of their page, always below min_position >= 1.
        hits = np.flatnonzero(_byte_marker_matches(data, byte_marker))
        return hits[(hits % page_size) >= min_position]
    last2 = rolling_last2(data)
    # Reset at page starts: the per-page scan defines position 0 as 0.
    last2[::page_size] = 0
    hits = np.flatnonzero((last2 & mask) == value)
    if min_position > 0:
        hits = hits[(hits % page_size) >= min_position]
    return hits


def split_positions_by_page(
    positions: np.ndarray, page_size: int, num_pages: int
) -> list[np.ndarray]:
    """Split sorted absolute ``positions`` into one array per page."""
    if num_pages == 0:
        return []
    boundaries = np.arange(1, num_pages, dtype=np.int64) * page_size
    return np.split(positions, np.searchsorted(positions, boundaries))
