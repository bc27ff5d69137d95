"""Value-sampled page fingerprints (paper Section 4.1.2).

A page fingerprint is a small unordered set of chunk digests chosen by
*value sampling*: the page is scanned with a rolling 64-byte window and a
chunk is selected whenever the last two bytes of the window match a fixed
marker pattern.  Five such chunks (the *fingerprint set cardinality*)
represent the page; the number of digests two pages share estimates
their similarity.  This keeps both the computational cost (one linear
scan + a 2-byte comparison) and the controller communication per page
tiny, which is the crux of Medes' scalability argument.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from repro._util import (
    concat_ranges,
    gather_chunks,
    hash_bytes,
    hash_rows_sha1,
    rng_for,
)
from repro.memory.chunks import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_DIGEST_BITS,
    MARKER_MASK,
    MARKER_VALUE,
    batch_enforce_spacing,
    batch_marker_ends,
    enforce_spacing,
    marker_positions,
)


class SamplingStrategy(enum.Enum):
    """How the fingerprint's chunks are chosen within a page.

    ``VALUE_SAMPLED`` is Medes' scheme (EndRE-style content markers):
    sampled positions travel with the content, so two pages holding the
    same bytes at different intra-page offsets still share digests.
    ``FIXED_OFFSETS`` models Difference Engine's approach (Section 8):
    chunks at fixed, randomly-drawn page offsets — cheap, but any
    sub-page shift of the content (ASLR'd stacks, relocated objects)
    desynchronizes the sample.  The ablation benchmark contrasts them.
    """

    VALUE_SAMPLED = "value-sampled"
    FIXED_OFFSETS = "fixed-offsets"


#: Default fingerprint set cardinality (number of chunk digests per page).
DEFAULT_CARDINALITY = 5


@dataclass(frozen=True)
class FingerprintConfig:
    """Tunables of the fingerprinting scheme (Section 7.8 sensitivity)."""

    chunk_size: int = DEFAULT_CHUNK_SIZE
    cardinality: int = DEFAULT_CARDINALITY
    digest_bits: int = DEFAULT_DIGEST_BITS
    strategy: SamplingStrategy = SamplingStrategy.VALUE_SAMPLED

    def __post_init__(self) -> None:
        if self.chunk_size <= 2:
            raise ValueError("chunk_size must exceed the 2-byte marker")
        if self.cardinality <= 0:
            raise ValueError("cardinality must be positive")
        if not 1 <= self.digest_bits <= 64:
            # The registry keys on, and the batch kernel emits, uint64.
            raise ValueError("digest_bits must be in [1, 64]")


@dataclass(frozen=True)
class PageFingerprint:
    """Fingerprint of one page: sampled chunk digests and their offsets."""

    digests: tuple[int, ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digests) != len(self.offsets):
            raise ValueError("digests/offsets length mismatch")

    @cached_property
    def digest_set(self) -> frozenset[int]:
        """The unordered digest set used for similarity estimation."""
        return frozenset(self.digests)

    def overlap(self, other: "PageFingerprint") -> int:
        """Number of shared digests with ``other`` (similarity estimate)."""
        return len(self.digest_set & other.digest_set)


def _fixed_offsets(page_len: int, config: FingerprintConfig) -> np.ndarray:
    """Difference-Engine-style sampling: chunks at fixed page offsets.

    The offsets are drawn once per (page length, cardinality) from a
    global seed — the same positions on every page, like DE's
    boot-time-randomized offsets — so identical pages still match but
    shifted content does not.
    """
    max_start = page_len - config.chunk_size
    if max_start < 0:
        return np.empty(0, dtype=np.int64)
    rng = rng_for("de-fixed-offsets", page_len, config.chunk_size, config.cardinality)
    count = min(config.cardinality, max_start + 1)
    starts = rng.choice(max_start + 1, size=count, replace=False)
    return np.sort(starts).astype(np.int64)


def sample_chunk_offsets(page: np.ndarray, config: FingerprintConfig) -> np.ndarray:
    """Start offsets of the sampled chunks of ``page``.

    Value sampling: window-end positions matching the marker are thinned
    to non-overlapping chunks and capped at the configured cardinality.
    A page with fewer marker hits than the cardinality (e.g. a zero
    page, whose windows never match) simply yields fewer chunks.
    """
    if config.strategy is SamplingStrategy.FIXED_OFFSETS:
        return _fixed_offsets(len(page), config)
    ends = marker_positions(
        page, mask=MARKER_MASK, value=MARKER_VALUE, min_position=config.chunk_size - 1
    )
    ends = enforce_spacing(ends, config.chunk_size)
    starts = ends[: config.cardinality] - (config.chunk_size - 1)
    return starts.astype(np.int64)


def page_fingerprint(page: np.ndarray, config: FingerprintConfig | None = None) -> PageFingerprint:
    """Compute the value-sampled fingerprint of one page.

    The page-at-a-time reference implementation: chunk selection and
    hashing run scalar (one SHA-1 call per chunk), kept
    deliberately independent of the batch kernel it serves as the
    bit-identical oracle for.
    """
    cfg = config or FingerprintConfig()
    raw = page.tobytes()
    starts = sample_chunk_offsets(page, cfg)
    digests = tuple(
        hash_bytes(raw[int(s) : int(s) + cfg.chunk_size], cfg.digest_bits) for s in starts
    )
    return PageFingerprint(digests=digests, offsets=tuple(int(s) for s in starts))


def image_fingerprints(
    image_pages: "list[np.ndarray] | object",
    config: FingerprintConfig | None = None,
) -> list[PageFingerprint]:
    """Fingerprints for every page of an image (or list of page arrays)."""
    cfg = config or FingerprintConfig()
    if hasattr(image_pages, "iter_pages"):
        pages = (page for _, page in image_pages.iter_pages())
    else:
        pages = iter(image_pages)
    return [page_fingerprint(page, cfg) for page in pages]


# ------------------------------------------------------------------ batch path


def nonzero_page_mask(data: np.ndarray, page_size: int) -> np.ndarray:
    """Boolean mask of pages containing any nonzero byte, vectorized."""
    if len(data) % page_size != 0:
        raise ValueError("buffer length must be a multiple of page_size")
    if len(data) == 0:
        return np.zeros(0, dtype=bool)
    return np.logical_or.reduce(data.reshape(-1, page_size), axis=1)


def batch_sample_chunk_starts(
    data: np.ndarray,
    page_size: int,
    config: FingerprintConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every page's sampled chunk starts as flat arrays, no Python loops.

    Returns ``(starts, counts)``: ``starts`` are *absolute* buffer
    offsets sorted page-major (exactly the concatenation of each page's
    :func:`sample_chunk_offsets`, shifted by the page base), ``counts``
    is the per-page chunk count (length ``num_pages``).  The marker scan
    runs once over the whole buffer; the greedy thinning
    (:func:`~repro.memory.chunks.batch_enforce_spacing`) is one
    ``searchsorted`` for each hit's next legal successor on its page plus
    ``cardinality - 1`` pointer hops over all pages, no per-hit loop.
    """
    cfg = config or FingerprintConfig()
    num_pages = len(data) // page_size
    if cfg.strategy is SamplingStrategy.FIXED_OFFSETS:
        # Fixed offsets depend only on the page length: one draw serves
        # every page of the image.
        offsets = _fixed_offsets(page_size, cfg)
        starts = (
            np.arange(num_pages, dtype=np.int64)[:, None] * page_size + offsets[None, :]
        ).reshape(-1)
        counts = np.full(num_pages, len(offsets), dtype=np.int64)
        return starts, counts
    ends = batch_marker_ends(data, page_size, min_position=cfg.chunk_size - 1)
    kept = batch_enforce_spacing(
        ends, page_size, cfg.chunk_size, cap=cfg.cardinality
    )
    counts = np.bincount(kept // page_size, minlength=num_pages).astype(np.int64, copy=False)
    return kept - (cfg.chunk_size - 1), counts


def batch_fingerprint_arrays(
    data: np.ndarray,
    page_size: int,
    config: FingerprintConfig | None = None,
    *,
    pages: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprint kernel's flat-array form.

    Returns ``(digests, offsets, counts)``: uint64 chunk digests and
    page-relative int64 chunk offsets, concatenated page-major over the
    requested ``pages`` (default: all), plus the per-page counts that
    delimit them.  This is the whole dedup-op fingerprint stage as four
    array passes — marker scan, segmented thinning, one fancy-indexed
    gather into a ``(n_chunks, chunk_size)`` matrix, one batched digest
    — with no per-page tuple built until a caller asks for one.
    """
    cfg = config or FingerprintConfig()
    starts, counts = batch_sample_chunk_starts(data, page_size, cfg)
    if pages is not None:
        indices = np.asarray(pages, dtype=np.int64)
        ends, counts = counts.cumsum(), counts[indices]
        starts = starts[concat_ranges(ends[indices] - counts, counts)]
    digests = hash_rows_sha1(gather_chunks(data, starts, cfg.chunk_size), cfg.digest_bits)
    # Every sampled chunk lies within its page.
    return digests, starts % page_size, counts


def batch_page_fingerprints(
    data: np.ndarray,
    page_size: int,
    config: FingerprintConfig | None = None,
    *,
    pages: np.ndarray | None = None,
) -> "FingerprintBatch":
    """Fingerprints of ``pages`` (default: all) of a flat image buffer.

    Identical digests/offsets to the per-page :func:`page_fingerprint`
    reference (property-tested); the marker scan, thinning, chunk gather
    and digest batch each happen once for the whole buffer.  ``pages``
    restricts hashing to the given page indices (the dedup op skips zero
    pages, for instance) — the returned sequence is aligned with it.
    The result is a :class:`FingerprintBatch` over the kernel's arrays.
    """
    return FingerprintBatch(*batch_fingerprint_arrays(data, page_size, config, pages=pages))


def fingerprints_from_arrays(
    digests: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> list[PageFingerprint]:
    """Materialize :class:`PageFingerprint` objects from the flat form."""
    digest_list = digests.tolist()
    offset_list = offsets.tolist()
    result: list[PageFingerprint] = []
    cursor = 0
    for count in counts.tolist():
        result.append(
            PageFingerprint(
                digests=tuple(digest_list[cursor : cursor + count]),
                offsets=tuple(offset_list[cursor : cursor + count]),
            )
        )
        cursor += count
    return result


class FingerprintBatch(Sequence):
    """The fingerprints of a run of pages, held as the kernel's arrays.

    ``digests`` (uint64) and ``offsets`` (page-relative int64) are flat
    and page-major; ``counts`` delimits them per page.  The registry's
    batch entry points read the arrays directly (:func:`digest_arrays`),
    so a dedup op never builds per-page objects; everything else can
    treat the batch as a read-only sequence of :class:`PageFingerprint`
    — ``len``, indexing, iteration and ``==`` against any sequence of
    them — which materialises the pages it touches.  A batch kept for
    the registry alone (a dedup memo's) has ``offsets=None``.
    """

    __slots__ = ("digests", "offsets", "counts")

    def __init__(
        self, digests: np.ndarray, offsets: np.ndarray | None, counts: np.ndarray
    ):
        if len(digests) != int(counts.sum()) or (
            offsets is not None and len(offsets) != len(digests)
        ):
            raise ValueError("digests/offsets/counts length mismatch")
        self.digests = digests
        self.offsets = offsets
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(fingerprints_from_arrays(self.digests, self.offsets, self.counts))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        index = range(len(self))[index]
        start = int(self.counts[:index].sum())
        stop = start + int(self.counts[index])
        return PageFingerprint(
            digests=tuple(self.digests[start:stop].tolist()),
            offsets=tuple(self.offsets[start:stop].tolist()),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]


def digest_arrays(
    fingerprints: Sequence[PageFingerprint],
) -> tuple[np.ndarray, np.ndarray]:
    """``(digests, counts)`` of a fingerprint sequence, flat and page-major.

    The registry's boundary: a :class:`FingerprintBatch` hands over its
    own arrays, any other sequence of :class:`PageFingerprint` is
    flattened once.  Digests must fit ``uint64``.
    """
    if isinstance(fingerprints, FingerprintBatch):
        return fingerprints.digests, fingerprints.counts
    counts = np.fromiter(
        (len(fp.digests) for fp in fingerprints), np.int64, len(fingerprints)
    )
    digests = np.fromiter(
        chain.from_iterable(fp.digests for fp in fingerprints),
        np.uint64,
        int(counts.sum()),
    )
    return digests, counts
