"""Chunk-level scanning primitives.

Medes identifies redundancy at a 64-byte chunk granularity (Section
4.1.1).  This module holds the chunk constants and the value-sampling
scan of the page fingerprints: the vectorised rolling 2-byte values,
marker positions and their minimum spacing.
"""

from __future__ import annotations

import numpy as np

from repro._util import run_starts

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
    last kept hit of its page") is a walk: a page's first hit is kept,
    and each kept hit's successor is the first hit at least ``spacing``
    past it — if that one is still on its page.  One ``searchsorted``
    gives every hit its successor (a sentinel where it would leave the
    page), so the walk is ``cap - 1`` pointer hops, each over every page
    at once.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if cap <= 0:
        raise ValueError("cap must be positive")
    positions = positions.astype(np.int64, copy=False)
    n = len(positions)
    if n == 0:
        return positions
    # Hit n is the sentinel: past the last hit, on no page, its own successor.
    page_of = np.empty(n + 1, dtype=np.int64)
    pages, page_of[n] = np.floor_divide(positions, page_size, out=page_of[:n]), -1
    successor = np.empty(n + 1, dtype=np.int64)
    successor[:n], successor[n] = positions.searchsorted(positions + spacing), n
    successor[:n][page_of[successor[:n]] != pages] = n
    # Hits are sorted, so each page's hits are one run, kept in order.
    heads = run_starts(pages)
    hops = np.empty((cap, len(heads)), dtype=np.int64)
    hops[0] = heads
    for step in range(1, cap):
        hops[step] = successor[hops[step - 1]]
    kept = hops.T.ravel()
    return positions[kept[kept < n]]


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
    hits = (data == np.uint8(MARKER_VALUE)).nonzero()[0]
    return hits[(hits % page_size) >= min_position]
