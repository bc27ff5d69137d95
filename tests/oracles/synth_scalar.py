"""Region content drawn one ``Generator`` call at a time.

``_dirty_page_content`` and ``_apply_dirty_pages`` are the dirty pages
of ``memory/synth.py`` as it drew them until PR 24 — per page one call
for the bytes, one for the block choices, one for the pool indices.
That is the definition of the content, kept verbatim as the oracle for
the stream-replay kernel that replaced it (``_dirty_page_content`` lost
its ``nbytes`` parameter, which was only ever ``DIRTY_PAGE_BYTES``).
:func:`build_region` is the region composition around them from before
the template memo, moved here from ``tests/memory/test_synth.py``.
"""

from __future__ import annotations

import numpy as np

from repro._util import rng_for
from repro.memory.layout import AslrBehavior, RegionSpec
from repro.memory.synth import (
    DIRTY_PAGE_BYTES,
    DIRTY_POOL_SHARE,
    POINTER_ASLR_BYTES,
    POINTER_SIZE,
    POOL_BLOCK,
    POOL_BLOCKS,
    _pointer_positions,
    _shared_pointer_values,
    base_region_content,
    common_pool,
)
from tests.oracles.pcg64_draws import WordStream


def _dirty_page_content(rng: np.random.Generator) -> np.ndarray:
    """Instance-private content of a rewritten page.

    A DIRTY_POOL_SHARE mix of common-pool blocks and private bytes: the
    page keeps some chunk-level redundancy (visible to the Section-2
    study and exploitable by sub-page patching) but no longer matches any
    base page wholesale.
    """
    nblocks = DIRTY_PAGE_BYTES // POOL_BLOCK
    blocks = rng.integers(0, 256, size=(nblocks, POOL_BLOCK), dtype=np.uint8)
    common_mask = rng.random(nblocks) < DIRTY_POOL_SHARE
    if common_mask.any():
        idx = rng.integers(0, POOL_BLOCKS, size=int(common_mask.sum()))
        blocks[common_mask] = common_pool()[idx]
    return blocks.reshape(-1)


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
        data[start : start + DIRTY_PAGE_BYTES] = _dirty_page_content(rng)


def dirty_page_from_stream(stream: WordStream) -> bytes:
    """:func:`_dirty_page_content` on a :class:`WordStream`: the same three
    draws, each through the transcription of the routine numpy runs."""
    nblocks = DIRTY_PAGE_BYTES // POOL_BLOCK
    content = bytearray(stream.uint8_fill(DIRTY_PAGE_BYTES))
    common = [stream.next_double() < DIRTY_POOL_SHARE for _ in range(nblocks)]
    pool = common_pool()
    for block in range(nblocks):
        if common[block]:
            index = stream.bounded_lemire_uint32(POOL_BLOCKS)
            content[block * POOL_BLOCK : (block + 1) * POOL_BLOCK] = pool[index].tobytes()
    return bytes(content)


def build_region(
    spec: RegionSpec,
    size: int,
    instance_seed: int,
    *,
    aslr: bool = False,
    executed: bool = False,
) -> np.ndarray:
    """``build_region`` as it composed a region before the template memo:
    plain base content, whole pointers scattered per instance, dirty
    pages from :func:`_apply_dirty_pages`, one region at a time."""
    data = np.array(base_region_content(spec, size), dtype=np.uint8, copy=True)
    positions = _pointer_positions(spec.content_key, spec.pointer_interval, size)
    if positions.size:
        values = _shared_pointer_values(spec.content_key, len(positions)).copy()
        if aslr:
            values[:, -POINTER_ASLR_BYTES:] = rng_for(
                "ptr-aslr", instance_seed, spec.content_key
            ).integers(0, 256, size=(len(positions), POINTER_ASLR_BYTES), dtype=np.uint8)
        idx = positions[:, None] + np.arange(POINTER_SIZE)[None, :]
        data[idx.reshape(-1)] = values.reshape(-1)
    if executed:
        _apply_dirty_pages(data, spec, instance_seed)
    if spec.mutation_rate > 0.0:
        rng = rng_for("mutations", instance_seed, spec.content_key)
        count = int(rng.poisson(size * spec.mutation_rate))
        if count:
            pos = rng.integers(0, size, size=count)
            data[pos] = rng.integers(0, 256, size=count, dtype=np.uint8)
    if aslr and spec.aslr is AslrBehavior.FINE:
        shift = int(rng_for("aslr-fine", instance_seed, spec.content_key).integers(0, 128))
        data = np.roll(data, shift * 16)
    return data
