"""Chunk-level scanning primitives.

Medes identifies redundancy at a 64-byte chunk granularity (Section
4.1.1).  This module holds the chunk constants and the value-sampling
scan of the page fingerprints: the vectorised rolling 2-byte values,
marker positions and their minimum spacing.
"""

from __future__ import annotations

import numpy as np

from repro._util import run_lengths, run_starts

#: Default chunk size in bytes (the paper's RSC size).
DEFAULT_CHUNK_SIZE = 64
#: Default digest width for chunk hashes.
DEFAULT_DIGEST_BITS = 64
#: Marker: sample when the low byte of the 2-byte window tail equals 0x77.
#: With uniform content this samples ~1/256 positions, i.e. ~16 candidate
#: chunks per 4 KiB page — comfortably above the default cardinality of 5.
MARKER_MASK = 0x00FF
MARKER_VALUE = 0x0077


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


def marker_positions(
    data: np.ndarray,
    *,
    mask: int,
    value: int,
    min_position: int,
) -> np.ndarray:
    """Window-end positions whose last-two-byte value matches the marker.

    Only positions ``>= min_position`` qualify (so a full chunk fits
    before the window end).  This is the per-page reference scan of
    :func:`batch_marker_ends`.
    """
    last2 = rolling_last2(data)
    hits = np.flatnonzero((last2 & mask) == value)
    return hits[hits >= min_position]


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


def batch_marker_ends(data: np.ndarray, page_size: int, *, min_position: int) -> np.ndarray:
    """:data:`MARKER_MASK`/:data:`MARKER_VALUE` positions of *every page*
    of a flat buffer, in one byte compare.

    Equivalent to calling :func:`marker_positions` page by page.  The
    mask keeps only the low byte of the rolling value, so the test reads
    ``data[i]`` alone and never spans a page boundary; a page's position
    0 (whose per-page rolling value is defined as 0) is below
    ``min_position``, which applies to the *page-relative* offset.
    Returned positions are absolute buffer offsets.
    """
    if len(data) % page_size != 0:
        raise ValueError("buffer length must be a multiple of page_size")
    if min_position < 1:
        raise ValueError("min_position must be at least 1")
    hits = np.flatnonzero(data == np.uint8(MARKER_VALUE))
    return hits[(hits % page_size) >= min_position]
