"""The Section-2 redundancy measurement methodology.

To quantify duplication between two sandboxes A and B the paper samples
a K-byte chunk every 2K bytes of A, inserts the chunks' SHA-1 digests in
a hash table, then probes the table with B's sampled chunks.  Hash hits
are verified byte-for-byte, and each verified match is extended over the
surrounding non-hashed bytes up to a 2K-byte window; the redundancy of B
with respect to A is the fraction of B's bytes covered by such matches.

This is *measurement* machinery (used by the Figure 1/2 study), separate
from the dedup path's value-sampled fingerprints.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro._util import hash_bytes
from repro.memory.image import MemoryImage


@dataclass(frozen=True)
class RedundancyResult:
    """Outcome of one A-vs-B redundancy measurement."""

    duplicated_bytes: int
    total_bytes: int
    matched_chunks: int
    probed_chunks: int

    @property
    def redundancy(self) -> float:
        """Fraction of B's bytes identified as duplicates of A's."""
        if self.total_bytes == 0:
            return 0.0
        return self.duplicated_bytes / self.total_bytes


#: Cap on reference offsets kept per digest.  Heavily recurring content
#: (zero pages, pool blocks) would otherwise make the probe quadratic;
#: a handful of candidates is enough to find a maximal extension.
MAX_CANDIDATES_PER_DIGEST = 4


def _sampled_offsets(length: int, chunk_size: int) -> range:
    stride = 2 * chunk_size
    return range(0, max(0, length - chunk_size + 1), stride)


def _extend_match(
    b: np.ndarray,
    a: np.ndarray,
    b_off: int,
    a_off: int,
    chunk_size: int,
) -> tuple[int, int]:
    """Extend a verified chunk match into neighbouring bytes.

    Returns the matched interval ``[start, end)`` in B, capped at a total
    window of ``2 * chunk_size`` bytes as in the paper.
    """
    budget = 2 * chunk_size - chunk_size  # extra bytes beyond the chunk
    # Extend left.
    left = 0
    max_left = min(b_off, a_off, budget)
    while left < max_left and b[b_off - left - 1] == a[a_off - left - 1]:
        left += 1
    # Extend right with whatever budget remains.
    right = 0
    max_right = min(len(b) - (b_off + chunk_size), len(a) - (a_off + chunk_size), budget - left)
    b_tail = b[b_off + chunk_size : b_off + chunk_size + max_right]
    a_tail = a[a_off + chunk_size : a_off + chunk_size + max_right]
    if max_right > 0:
        neq = np.flatnonzero(b_tail != a_tail)
        right = int(neq[0]) if neq.size else max_right
    return b_off - left, b_off + chunk_size + right


def measure_redundancy(
    subject: MemoryImage | np.ndarray,
    reference: MemoryImage | np.ndarray,
    chunk_size: int = 64,
) -> RedundancyResult:
    """Redundancy of ``subject`` (B) with respect to ``reference`` (A).

    Implements the Section-2 procedure: fixed-offset sampling at stride
    ``2 * chunk_size``, hash-table probe, byte verification, and match
    extension; duplicated coverage is accumulated on a byte mask so
    overlapping extensions are not double counted.
    """
    a = reference.data if isinstance(reference, MemoryImage) else reference
    b = subject.data if isinstance(subject, MemoryImage) else subject
    a_bytes = a.tobytes()
    b_bytes = b.tobytes()

    table: dict[int, list[int]] = defaultdict(list)
    for offset in _sampled_offsets(len(a_bytes), chunk_size):
        bucket = table[hash_bytes(a_bytes[offset : offset + chunk_size])]
        if len(bucket) < MAX_CANDIDATES_PER_DIGEST:
            bucket.append(offset)

    full_window = 2 * chunk_size
    covered = np.zeros(len(b_bytes), dtype=bool)
    matched = 0
    probed = 0
    for offset in _sampled_offsets(len(b_bytes), chunk_size):
        probed += 1
        chunk = b_bytes[offset : offset + chunk_size]
        candidates = table.get(hash_bytes(chunk))
        if not candidates:
            continue
        best: tuple[int, int] | None = None
        for a_off in candidates:
            if a_bytes[a_off : a_off + chunk_size] != chunk:
                continue  # hash collision: discard unverified match
            start, end = _extend_match(b, a, offset, a_off, chunk_size)
            if best is None or end - start > best[1] - best[0]:
                best = (start, end)
            if best[1] - best[0] >= full_window:
                break  # the extension window is saturated
        if best is not None:
            matched += 1
            covered[best[0] : best[1]] = True

    return RedundancyResult(
        duplicated_bytes=int(covered.sum()),
        total_bytes=len(b_bytes),
        matched_chunks=matched,
        probed_chunks=probed,
    )


def redundancy_matrix(
    images: dict[str, MemoryImage],
    chunk_size: int = 64,
) -> dict[tuple[str, str], float]:
    """Pairwise redundancy for a set of named images (Figure 1c).

    Entry ``(row, col)`` is the redundancy of ``row``'s image measured
    against ``col``'s image, matching the paper's axis convention.
    """
    return {
        (row_name, col_name): measure_redundancy(
            row_image, col_image, chunk_size
        ).redundancy
        for row_name, row_image in images.items()
        for col_name, col_image in images.items()
    }
