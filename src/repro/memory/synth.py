"""Deterministic synthesis of region contents.

Content is assembled from 128-byte blocks.  Each block is either drawn
from a *common pool* of recurring blocks (modelling allocator patterns,
interned objects and other bytes that recur across unrelated memory) or
is private to the region's content key.  All draws are prefix-stable:
requesting a longer slice of a region's content never changes the bytes
already produced for a shorter slice, so differently-sized sandboxes of
different functions still share their common prefixes (as real
interpreter images do).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro._util import rng_for
from repro.memory.layout import AslrBehavior, PlacedRegion, RegionSpec

#: Size of the content assembly block in bytes.
POOL_BLOCK = 128
#: Number of distinct blocks in the global common pool.  Small enough
#: that even the smallest (scaled) sandbox image contains most of the
#: pool, so recurring-content matches between unrelated functions behave
#: the same at every content scale.
POOL_BLOCKS = 96
#: Bytes per pointer site.
POINTER_SIZE = 8
#: How many of a pointer's bytes ASLR randomizes (the segment base).
POINTER_ASLR_BYTES = 4
#: Share of a dirty (instance-rewritten) page still drawn from the common
#: pool — allocator output is structured, not random, so dirty pages keep
#: partial chunk-level redundancy while defeating whole-page dedup.
DIRTY_POOL_SHARE = 0.35
#: Page size used to partition regions into dirty/clean pages.  Matches
#: the image page size (regions are always page-aligned).
DIRTY_PAGE_BYTES = 4096


@lru_cache(maxsize=1)
def common_pool() -> np.ndarray:
    """The global pool of recurring content blocks, shape (POOL_BLOCKS, POOL_BLOCK)."""
    rng = rng_for("medes-common-pool")
    return rng.integers(0, 256, size=(POOL_BLOCKS, POOL_BLOCK), dtype=np.uint8)


def _base_content(
    content_key: str, common_fill: float, zero_fill: bool, size: int
) -> np.ndarray:
    """Base (pre-instance) content for a content key, ``size`` bytes long.

    Separate sub-streams are used for the pool/private decision, the pool
    indices, and the private bytes so that each is independently
    prefix-stable in the number of blocks.
    """
    if zero_fill:
        return np.zeros(size, dtype=np.uint8)
    nblocks = (size + POOL_BLOCK - 1) // POOL_BLOCK
    draws = rng_for("region-draw", content_key).random(nblocks)
    pool_idx = rng_for("region-poolidx", content_key).integers(0, POOL_BLOCKS, size=nblocks)
    blocks = np.empty((nblocks, POOL_BLOCK), dtype=np.uint8)
    common_mask = draws < common_fill
    blocks[common_mask] = common_pool()[pool_idx[common_mask]]
    n_private = int((~common_mask).sum())
    if n_private:
        private = rng_for("region-private", content_key).integers(
            0, 256, size=(nblocks, POOL_BLOCK), dtype=np.uint8
        )
        blocks[~common_mask] = private[~common_mask]
    return blocks.reshape(-1)[:size]


def base_region_content(spec: RegionSpec, size: int) -> np.ndarray:
    """Return the shared base content of ``spec`` truncated to ``size`` bytes."""
    return _base_content(spec.content_key, spec.common_fill, spec.zero_fill, size)


@lru_cache(maxsize=256)
def _pointer_positions(content_key: str, interval: int, size: int) -> np.ndarray:
    """Deterministic pointer-site offsets for a region (prefix-stable).

    Sites never overlap (an interval under ``2 * POINTER_SIZE + 2`` could
    make them, and is refused): :func:`build_region` rewrites the ASLR
    bytes of each site on top of a template that already holds the
    shared ones, which is only the same as writing whole pointers when
    no site covers another's bytes.
    """
    if interval <= 0 or size < POINTER_SIZE:
        return np.empty(0, dtype=np.int64)
    max_count = size // max(interval // 2, POINTER_SIZE) + 1
    spacings = rng_for("ptr-pos", content_key).uniform(0.5, 1.5, size=max_count) * interval
    positions = np.cumsum(spacings).astype(np.int64)
    positions = positions[positions <= size - POINTER_SIZE]
    if positions.size > 1 and int(np.diff(positions).min()) < POINTER_SIZE:
        raise ValueError(f"pointer_interval {interval} makes pointer sites overlap")
    positions.setflags(write=False)
    return positions


@lru_cache(maxsize=256)
def _shared_pointer_values(content_key: str, count: int) -> np.ndarray:
    """The instance-independent pointer bytes of a region (read-only).

    Without ASLR all instances embed these values.  With ASLR the high
    ``POINTER_ASLR_BYTES`` bytes (the randomized segment base) become
    instance-specific, scattering small diffs through the region — this
    is what degrades page fingerprints under ASLR (paper Section 7.2.1)
    while leaving byte-level redundancy nearly intact (Fig 1b).
    """
    shared = rng_for("ptr-val", content_key).integers(
        0, 256, size=(count, POINTER_SIZE), dtype=np.uint8
    )
    shared.setflags(write=False)
    return shared


@lru_cache(maxsize=256)
def _template_content(
    content_key: str, common_fill: float, zero_fill: bool, pointer_interval: int, size: int
) -> np.ndarray:
    """:func:`template_region_content` by what it depends on (read-only).

    The one memo of region synthesis: every instance of a region starts
    from a copy of these bytes, so the base draw and the pointer scatter
    happen once per distinct region, not once per instance.
    """
    data = _base_content(content_key, common_fill, zero_fill, size)
    positions = _pointer_positions(content_key, pointer_interval, size)
    if positions.size:
        # Scatter each 8-byte pointer into place.
        idx = positions[:, None] + np.arange(POINTER_SIZE)[None, :]
        data[idx.reshape(-1)] = _shared_pointer_values(content_key, len(positions)).reshape(-1)
    data.setflags(write=False)
    return data


def template_region_content(spec: RegionSpec, size: int) -> np.ndarray:
    """Instance-independent template bytes for a shared region.

    Base content plus the *shared* (non-ASLR) pointer values — the state
    every instance starts from before dirty pages, mutations or ASLR
    individualize it.  This is what the template catalog publishes for
    RUNTIME/LIBRARY regions: identical for every function that places the
    same ``(content_key, size)`` region, so one pool copy serves forks of
    all of them; per-instance divergence is carried by each sandbox's
    delta patch against these bytes.  Memoised and read-only: a caller
    that individualizes the bytes copies them first.
    """
    if spec.zero_fill and spec.pointer_interval <= 0:
        # All zero: cheaper to make than to keep.
        data = np.zeros(size, dtype=np.uint8)
        data.setflags(write=False)
        return data
    return _template_content(
        spec.content_key, spec.common_fill, spec.zero_fill, spec.pointer_interval, size
    )


# --------------------------------------------- dirty pages from raw words
#
# A dirty page is defined by three ``Generator`` calls on the region's
# "dirty-pages" stream: ``integers`` over all of ``uint8`` for its 32
# blocks of bytes, ``random(32) < DIRTY_POOL_SHARE`` for which blocks
# come from the common pool instead, and ``integers(0, POOL_BLOCKS, k)``
# for which pool block each of those ``k`` is
# (``tests/oracles/synth_scalar.py``).  All three are fixed arithmetic on
# PCG64's 64-bit output words (DESIGN.md section 19), so the words are
# drawn once per region with ``random_raw`` and decoded for a whole
# image at a time.  ``tests/memory/test_synth_kernel.py`` compares the
# result with those calls and is the alarm should numpy ever change how
# it consumes the stream.

#: Blocks, and so block choices, per dirty page.
_PAGE_BLOCKS = DIRTY_PAGE_BYTES // POOL_BLOCK
#: Words holding a page's bytes: ``uint8`` draws are the little-endian
#: bytes of successive 32-bit draws, and those are the low then the high
#: half of successive words.
_PAGE_WORDS = DIRTY_PAGE_BYTES // 8
#: What a dirty page consumes when no pool index is rejected: its bytes,
#: a whole word per block choice, half a word per pool index.
_WORDS_PER_DIRTY_PAGE = _PAGE_WORDS + _PAGE_BLOCKS + _PAGE_BLOCKS // 2
#: Lemire's bounded draw: index ``(half * POOL_BLOCKS) >> 32``, redrawn
#: when the product's low 32 bits are under ``2**32 % POOL_BLOCKS``.
_POOL_SCALE = np.uint64(POOL_BLOCKS)
_LEMIRE_THRESHOLD = np.uint64(2**32 % POOL_BLOCKS)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _pool_choice_limit(share: float) -> np.uint64:
    """The word below which ``Generator.random() < share``.

    ``random`` returns ``(word >> 11) * 2**-53``; the shift and the
    scaling are both exact, so the comparison can be made on the word.
    """
    return np.uint64(math.ceil(share * 2**53) << 11)


_POOL_CHOICE_LIMIT = _pool_choice_limit(DIRTY_POOL_SHARE)


def _locate_draws(
    chosen: bytes, spans: Sequence[tuple[int, int]], rejecting: frozenset[int] = frozenset()
) -> tuple[list[int], list[int], list[tuple[int, int]]] | None:
    """Where in the word buffer each dirty page's draws fall.

    ``chosen[w]`` says whether word ``w`` read as a block choice picks the
    pool; ``spans`` lists ``(dirty pages, words)`` per generator, in
    buffer order; ``rejecting`` holds the half-word positions a Lemire
    draw would reject.  Returns the byte offset each page's content
    starts at, the half-word position of every pool-index draw in draw
    order (rejected ones included), and ``(page, half-word)`` for pages
    whose first four bytes lie elsewhere than just before the rest — or
    None when a generator's pages need more words than it was given.

    PCG64 serves 32-bit draws from one buffered word: an odd number of
    them leaves the high half pending, the next 32-bit draw (a pool
    index, or a page's first four bytes) takes it, and 64-bit draws (the
    block choices) pass it by.  A page entered with a half-word pending
    therefore ends with one pending too, and sits four bytes off the
    word grid.
    """
    starts: list[int] = []
    draws: list[int] = []
    strays: list[tuple[int, int]] = []
    count = chosen.count
    end = 0
    for ndirty, nwords in spans:
        word, pending = end, -1
        end += nwords
        for _ in range(ndirty):
            if pending < 0:
                starts.append(8 * word)
            else:
                starts.append(8 * word - 4)
                if pending != 2 * word - 1:
                    # The previous page drew no pool index past its own
                    # pending half-word, which lies before its choices.
                    strays.append((len(starts) - 1, pending))
                pending = 2 * (word + _PAGE_WORDS) - 1
            choices = word + _PAGE_WORDS
            word = choices + _PAGE_BLOCKS
            wanted = count(1, choices, word)
            if wanted:
                if pending >= 0:
                    draws.append(pending)
                    wanted -= pending not in rejecting
                    pending = -1
                first = 2 * word
                halves = wanted
                if rejecting:
                    while short := wanted - halves + sum(
                        first <= half < first + halves for half in rejecting
                    ):
                        halves += short
                draws.extend(range(first, first + halves))
                word += (halves + 1) >> 1
                if halves & 1:
                    pending = first + halves
        if word > end:
            return None
    return starts, draws, strays


def _dirty_pages_from_words(
    words: np.ndarray, spans: Sequence[tuple[int, int]]
) -> np.ndarray | None:
    """The dirty pages numpy draws from ``words``, one ``DIRTY_PAGE_BYTES`` row each.

    ``words`` are the ``random_raw`` output of one generator after
    another and ``spans`` their ``(dirty pages, words)`` counts.  None
    when some generator's pages need more words than it was given.
    """
    words = words.astype("<u8", copy=False)
    halves = words.view("<u4")
    chosen = words < _POOL_CHOICE_LIMIT
    chosen_bytes = chosen.tobytes()
    rejecting: frozenset[int] = frozenset()
    while True:
        located = _locate_draws(chosen_bytes, spans, rejecting)
        if located is None:
            return None
        starts, draws, strays = located
        scaled = halves[np.array(draws, dtype=np.intp)].astype(np.uint64) * _POOL_SCALE
        kept = (scaled & _LOW32) >= _LEMIRE_THRESHOLD
        if rejecting or kept.all():
            break
        # 2**-26 a draw.  A rejected draw is consumed all the same, so
        # every later draw of its generator moves: locate them again,
        # knowing every half-word that rejects.
        rejects = (halves.astype(np.uint64) * _POOL_SCALE & _LOW32) < _LEMIRE_THRESHOLD
        rejecting = frozenset(np.flatnonzero(rejects).tolist())

    raw = words.view(np.uint8)
    offsets = np.array(starts, dtype=np.intp)
    # Row b of each window array is the buffer from position b on: one
    # fancy index copies every page (or run of choices) out as a row.
    page_windows = np.ndarray(
        (raw.size - DIRTY_PAGE_BYTES + 1, DIRTY_PAGE_BYTES), np.uint8, raw, strides=(1, 1)
    )
    pages = page_windows[offsets]
    for row, half in strays:
        pages[row, :4] = raw[4 * half : 4 * half + 4]
    choice_windows = np.ndarray(
        (chosen.size - _PAGE_BLOCKS + 1, _PAGE_BLOCKS), np.bool_, chosen, strides=(1, 1)
    )
    # A page's choices follow its last byte, itself at most half a word
    # short of a word boundary.
    pool_blocks = np.flatnonzero(choice_windows[(offsets + (DIRTY_PAGE_BYTES + 4)) >> 3])
    pages.reshape(-1, POOL_BLOCK)[pool_blocks] = common_pool()[scaled[kept] >> _SHIFT32]
    return pages


def _apply_dirty_pages(
    image: np.ndarray,
    placed: Sequence[PlacedRegion],
    instance_seed: int,
    words_per_page: int = _WORDS_PER_DIRTY_PAGE,
) -> None:
    """Rewrite a per-instance selection of whole pages of each region in-place.

    Instance-private content: a DIRTY_POOL_SHARE mix of common-pool
    blocks and private bytes, so a dirty page keeps some chunk-level
    redundancy (visible to the Section-2 study and exploitable by
    sub-page patching) but no longer matches any base page wholesale.
    """
    # Per region with dirty pages: its pages as rows, which of them, its words.
    jobs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for region in placed:
        rate = region.spec.dirty_page_rate
        npages = region.size // DIRTY_PAGE_BYTES
        if rate <= 0.0 or npages == 0:
            continue
        rng = rng_for("dirty-pages", instance_seed, region.spec.content_key)
        dirty = np.flatnonzero(rng.random(npages) < rate)
        if dirty.size:
            rows = image[region.offset : region.offset + npages * DIRTY_PAGE_BYTES]
            raw = rng.bit_generator.random_raw(dirty.size * words_per_page)
            jobs.append((rows.reshape(npages, DIRTY_PAGE_BYTES), dirty, raw))
    if not jobs:
        return
    pages = _dirty_pages_from_words(
        np.concatenate([raw for _, _, raw in jobs]),
        [(len(dirty), len(raw)) for _, dirty, raw in jobs],
    )
    if pages is None:
        # Rejected pool indices outran the spare words (every block of a
        # page from the pool, then a redraw): the streams are a function
        # of the seed, so start over with room to spare.
        _apply_dirty_pages(image, placed, instance_seed, 2 * words_per_page)
        return
    done = 0
    for rows, dirty, _ in jobs:
        rows[dirty] = pages[done : done + len(dirty)]
        done += len(dirty)


def fill_regions(
    image: np.ndarray,
    placed: Sequence[PlacedRegion],
    instance_seed: int,
    *,
    aslr: bool = False,
    executed: bool = False,
) -> None:
    """Materialize one instance's bytes for each placed region, inside ``image``.

    Applies to every region, in order: the shared template (base content
    and pointer-site values), the ASLR bytes of each pointer, dirty
    (rewritten) pages, per-instance copy-on-write mutations, and (under
    ASLR) the 16-byte fine-grained shift for stack-like regions.  Bytes
    of ``image`` outside the regions are left alone.

    ``executed`` selects the post-execution memory state: only sandboxes
    that have served requests carry dirty pages.  Freshly-initialized
    checkpoints (the Section-2 measurement study) are nearly identical
    across instances, which is exactly why the paper's Figure-1
    redundancy exceeds its Table-3 dedup savings.
    """
    for region in placed:
        spec = region.spec
        data = image[region.offset : region.end]
        data[:] = template_region_content(spec, region.size)
        if aslr:
            positions = _pointer_positions(spec.content_key, spec.pointer_interval, region.size)
            if positions.size:
                # The template holds the shared pointers; randomize each
                # site's high bytes (the segment base) on top.
                high = rng_for("ptr-aslr", instance_seed, spec.content_key).integers(
                    0, 256, size=(len(positions), POINTER_ASLR_BYTES), dtype=np.uint8
                )
                idx = positions[:, None] + np.arange(
                    POINTER_SIZE - POINTER_ASLR_BYTES, POINTER_SIZE
                )
                data[idx.reshape(-1)] = high.reshape(-1)

    if executed:
        _apply_dirty_pages(image, placed, instance_seed)

    for region in placed:
        spec = region.spec
        data = image[region.offset : region.end]
        if spec.mutation_rate > 0.0:
            rng = rng_for("mutations", instance_seed, spec.content_key)
            count = int(rng.poisson(region.size * spec.mutation_rate))
            if count:
                pos = rng.integers(0, region.size, size=count)
                data[pos] = rng.integers(0, 256, size=count, dtype=np.uint8)
        if aslr and spec.aslr is AslrBehavior.FINE:
            shift_units = int(
                rng_for("aslr-fine", instance_seed, spec.content_key).integers(0, 128)
            )
            data[:] = np.roll(data, shift_units * 16)


def build_region(
    spec: RegionSpec,
    size: int,
    instance_seed: int,
    *,
    aslr: bool = False,
    executed: bool = False,
) -> np.ndarray:
    """One instance's bytes for a region: :func:`fill_regions` of it alone."""
    data = np.empty(size, dtype=np.uint8)
    fill_regions(
        data, (PlacedRegion(spec, 0, size),), instance_seed, aslr=aslr, executed=executed
    )
    return data
