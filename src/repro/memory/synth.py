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

from functools import lru_cache

import numpy as np

from repro._util import rng_for
from repro.memory.layout import AslrBehavior, RegionSpec

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


def _dirty_page_content(nbytes: int, rng: np.random.Generator) -> np.ndarray:
    """Instance-private content of a rewritten page.

    A DIRTY_POOL_SHARE mix of common-pool blocks and private bytes: the
    page keeps some chunk-level redundancy (visible to the Section-2
    study and exploitable by sub-page patching) but no longer matches any
    base page wholesale.
    """
    nblocks = (nbytes + POOL_BLOCK - 1) // POOL_BLOCK
    blocks = rng.integers(0, 256, size=(nblocks, POOL_BLOCK), dtype=np.uint8)
    common_mask = rng.random(nblocks) < DIRTY_POOL_SHARE
    if common_mask.any():
        idx = rng.integers(0, POOL_BLOCKS, size=int(common_mask.sum()))
        blocks[common_mask] = common_pool()[idx]
    return blocks.reshape(-1)[:nbytes]


def _apply_dirty_pages(
    data: np.ndarray,
    spec: RegionSpec,
    instance_seed: int,
) -> None:
    """Rewrite a per-instance selection of whole pages in-place."""
    if spec.dirty_page_rate <= 0.0:
        return
    npages = len(data) // DIRTY_PAGE_BYTES
    if npages == 0:
        return
    rng = rng_for("dirty-pages", instance_seed, spec.content_key)
    dirty = np.flatnonzero(rng.random(npages) < spec.dirty_page_rate)
    for page in dirty:
        start = int(page) * DIRTY_PAGE_BYTES
        data[start : start + DIRTY_PAGE_BYTES] = _dirty_page_content(DIRTY_PAGE_BYTES, rng)


def build_region(
    spec: RegionSpec,
    size: int,
    instance_seed: int,
    *,
    aslr: bool = False,
    executed: bool = False,
) -> np.ndarray:
    """Materialize one instance's bytes for a region.

    Applies, in order: the shared template (base content and pointer-site
    values), the ASLR bytes of each pointer, dirty (rewritten) pages,
    per-instance copy-on-write mutations, and (under ASLR) the 16-byte
    fine-grained shift for stack-like regions.

    ``executed`` selects the post-execution memory state: only sandboxes
    that have served requests carry dirty pages.  Freshly-initialized
    checkpoints (the Section-2 measurement study) are nearly identical
    across instances, which is exactly why the paper's Figure-1
    redundancy exceeds its Table-3 dedup savings.
    """
    data = template_region_content(spec, size).copy()

    if aslr:
        positions = _pointer_positions(spec.content_key, spec.pointer_interval, size)
        if positions.size:
            # The template holds the shared pointers; randomize each
            # site's high bytes (the segment base) on top.
            high = rng_for("ptr-aslr", instance_seed, spec.content_key).integers(
                0, 256, size=(len(positions), POINTER_ASLR_BYTES), dtype=np.uint8
            )
            idx = positions[:, None] + np.arange(POINTER_SIZE - POINTER_ASLR_BYTES, POINTER_SIZE)
            data[idx.reshape(-1)] = high.reshape(-1)

    if executed:
        _apply_dirty_pages(data, spec, instance_seed)

    if spec.mutation_rate > 0.0:
        rng = rng_for("mutations", instance_seed, spec.content_key)
        count = int(rng.poisson(size * spec.mutation_rate))
        if count:
            pos = rng.integers(0, size, size=count)
            data[pos] = rng.integers(0, 256, size=count, dtype=np.uint8)

    if aslr and spec.aslr is AslrBehavior.FINE:
        shift_units = int(rng_for("aslr-fine", instance_seed, spec.content_key).integers(0, 128))
        data = np.roll(data, shift_units * 16)

    return data
