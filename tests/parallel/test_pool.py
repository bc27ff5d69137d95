"""Unit tests of the parallel plumbing: arenas, pool, kernels, model."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import PAGE_SIZE, LruCache, hash_bytes, hash_bytes_many
from repro.core.costs import CostModel, StageOverlap, pipelined_ms
from repro.memory.patch import apply_patch, apply_patch_into, compute_patch
from repro.parallel.arena import LocalArena, ShmArena, attach_segment
from repro.parallel.config import ParallelConfig
from repro.parallel.pool import WorkerError, WorkerPool, run_task


# ------------------------------------------------------------------ config


@pytest.mark.parametrize("kwargs", [{"workers": 0}, {"batch_pages": 0}, {"depth": 0}])
def test_parallel_config_validates(kwargs):
    with pytest.raises(ValueError):
        ParallelConfig(**kwargs)


# ------------------------------------------------------------------ arenas


@pytest.mark.parametrize("cls", [LocalArena, ShmArena])
def test_arena_roundtrip_and_growth(cls):
    arena = cls(3 * PAGE_SIZE)
    try:
        assert arena.capacity >= 3 * PAGE_SIZE
        assert arena.capacity % PAGE_SIZE == 0
        arena.view[: PAGE_SIZE] = 7
        assert int(arena.view[0]) == 7
        bigger = cls(arena.capacity * 4)
        try:
            assert bigger.capacity >= arena.capacity * 4
        finally:
            bigger.close()
    finally:
        arena.close()


def test_shm_arena_close_is_idempotent():
    arena = ShmArena(PAGE_SIZE)
    arena.close()
    arena.close()


# ----------------------------------------------------------------- kernels


def test_apply_patch_into_matches_apply_patch():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 256, PAGE_SIZE, dtype=np.uint8)
    target = base.copy()
    target[100:200] = rng.integers(0, 256, 100, dtype=np.uint8)
    patch = compute_patch(target, base)
    out = np.zeros(PAGE_SIZE, dtype=np.uint8)
    apply_patch_into(patch, base, out)
    assert out.tobytes() == apply_patch(patch, base)
    assert out.tobytes() == target.tobytes()


def test_apply_patch_into_validates_lengths():
    base = np.zeros(PAGE_SIZE, dtype=np.uint8)
    patch = compute_patch(base, base)
    with pytest.raises(ValueError):
        apply_patch_into(patch, base[:-1], np.zeros(PAGE_SIZE, dtype=np.uint8))
    with pytest.raises(ValueError):
        apply_patch_into(patch, base, np.zeros(PAGE_SIZE - 1, dtype=np.uint8))


def test_hash_bytes_many_matches_scalar():
    chunks = [bytes([i] * 64) for i in range(20)] + [b"", b"x"]
    for bits in (8, 32, 63, 64):
        batched = hash_bytes_many(chunks, bits)
        assert batched.dtype == np.uint64
        assert batched.tolist() == [hash_bytes(c, bits) for c in chunks]
    with pytest.raises(ValueError):
        hash_bytes_many(chunks, 65)
    with pytest.raises(ValueError):
        hash_bytes_many(chunks, 0)


def test_run_task_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_task(("nope", 0), lambda token: np.zeros(0, np.uint8), LruCache(4))


# -------------------------------------------------------------------- pool


def test_cached_index_does_not_pin_a_closed_arena():
    """Two ``"patch"`` tasks against one cached base, each on an arena of
    its own that is closed before the next op.

    The index handle a worker caches builds its halves later — here the
    word table in the first op and the sorted anchors in the second —
    so it must own the base's bytes: a kept view of the arena page makes
    ``SharedMemory.close()`` raise ``BufferError``.
    """
    rng = np.random.default_rng(5)
    base = rng.integers(0, 256, PAGE_SIZE, dtype=np.uint8)
    unrelated = rng.integers(0, 256, PAGE_SIZE, dtype=np.uint8)  # dismissed by the bound
    shifted = np.roll(base, 24)  # the matcher's case
    unique_cap = 3 * PAGE_SIZE // 4
    anchor_cache: LruCache = LruCache(8)
    results = []
    for target in (unrelated, shifted):
        arena = ShmArena(2 * PAGE_SIZE)
        arena.view[:PAGE_SIZE] = target
        arena.view[PAGE_SIZE : 2 * PAGE_SIZE] = base
        shm = attach_segment(arena.token, forked=True)  # as a worker maps it
        task = ("patch", 0, arena.token, 0, PAGE_SIZE, PAGE_SIZE, 1, unique_cap, [(0, 0, (7, 0))])
        results.append(
            run_task(task, lambda token: np.frombuffer(shm.buf, dtype=np.uint8), anchor_cache)
        )
        shm.close()
        arena.close()
    assert (anchor_cache.hits, anchor_cache.misses) == (1, 1)
    index = anchor_cache.get((7, 0, 1))
    assert isinstance(index.base, bytes) and index.base == base.tobytes()
    assert index.word_bits is not None and index.anchors is not None
    assert results[0][2] == [None]  # hit the unique-page cutoff
    (patch,) = results[1][2]
    assert patch.size_bytes < 64 and apply_patch(patch, base) == shifted.tobytes()


def test_pool_error_propagates_and_pool_survives():
    pool = WorkerPool(1)
    try:
        pool.submit(("bogus-kind", 42))
        with pytest.raises(WorkerError, match="batch 42"):
            pool.next_result()
        assert pool.alive  # a task failure must not kill the worker
    finally:
        pool.shutdown()
        assert not pool.alive


def test_shared_pool_is_reused_and_refreshed():
    pool = WorkerPool.shared(2)
    assert WorkerPool.shared(2) is pool
    pool.shutdown()
    fresh = WorkerPool.shared(2)
    try:
        assert fresh is not pool
        assert fresh.alive
    finally:
        fresh.shutdown()


# ------------------------------------------------------------- cost model


def test_pipelined_ms_degenerates_and_bounds():
    stages = (4.0, 10.0, 2.0)
    assert pipelined_ms(stages, 1) == pytest.approx(sum(stages))
    many = pipelined_ms(stages, 1000)
    assert many == pytest.approx(max(stages), rel=0.01)
    for batches in (2, 4, 8):
        total = pipelined_ms(stages, batches)
        assert max(stages) < total < sum(stages)
    with pytest.raises(ValueError):
        pipelined_ms(stages, 0)


def test_stage_overlap_validates():
    with pytest.raises(ValueError):
        StageOverlap(workers=0, batches=1)
    with pytest.raises(ValueError):
        StageOverlap(workers=1, batches=0)


def test_lookup_batched_ms_never_exceeds_serial():
    costs = CostModel()
    pages = 4096
    serial = costs.lookup_ms(pages)
    assert costs.lookup_batched_ms(pages, pages * 2) == pytest.approx(serial)
    batched = costs.lookup_batched_ms(pages, 8)
    assert batched < serial
    # one batch = one RPC + per-page table work
    assert costs.lookup_batched_ms(pages, 1) == pytest.approx(
        (costs.lookup_rpc_us + pages * (costs.lookup_us_per_page - costs.lookup_rpc_us))
        / 1e3
    )
    with pytest.raises(ValueError):
        costs.lookup_batched_ms(pages, 0)
