"""TemplateCatalog unit tests: segment dedup, refcounts, pool reclaim,
residency and the hot-window eviction guard."""

from __future__ import annotations

import pytest

from repro.templates.catalog import (
    TemplateCatalog,
    TemplateConfig,
    TemplateInUse,
    TemplatePoolFull,
)
from tests.conftest import TEST_SCALE


def make_catalog(pool_mb=512.0, hot_window_ms=120_000.0) -> TemplateCatalog:
    return TemplateCatalog(
        TemplateConfig(pool_mb=pool_mb, hot_window_ms=hot_window_ms),
        content_scale=TEST_SCALE,
    )


@pytest.fixture
def regions(linalg_image_executed):
    return linalg_image_executed.regions


class TestSegmentDedup:
    def test_publish_once_then_hit(self, regions):
        catalog = make_catalog()
        segments, created, publish_ms = catalog.ensure_segments(regions)
        assert created == segments and publish_ms > 0
        assert len(segments) == len(catalog.shareable_regions(regions))
        again, created_again, again_ms = catalog.ensure_segments(regions)
        assert not created_again and again_ms == 0.0
        assert [s.segment_id for s in again] == [s.segment_id for s in segments]

    def test_pool_charged_at_full_scale(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        expected = sum(int(s.size / TEST_SCALE) for s in segments)
        assert catalog.pool.used_bytes == expected
        assert all(s.full_bytes == int(s.size / TEST_SCALE) for s in segments)

    def test_zero_fill_regions_excluded(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        keys = {s.content_key for s in segments}
        for region in regions:
            if region.spec.zero_fill:
                assert region.spec.content_key not in keys


class TestPoolPressure:
    def test_pool_full_is_all_or_nothing(self, regions):
        catalog = make_catalog(pool_mb=1.0)  # far too small for the set
        with pytest.raises(TemplatePoolFull):
            catalog.ensure_segments(regions)
        assert len(catalog) == 0
        assert catalog.pool.used_bytes == 0

    def test_reclaim_retires_idle_segments(self, suite):
        # LinAlg publishes runtime (8 MB) + numpy (6 MB); RNNModel then
        # hits the runtime and needs torch (42 MB).  A 52 MB pool forces
        # the idle numpy segment out — but never the runtime segment the
        # in-flight publish itself is reusing.
        linalg = suite.get("LinAlg").synthesize(1, content_scale=TEST_SCALE)
        rnn = suite.get("RNNModel").synthesize(1, content_scale=TEST_SCALE)
        catalog = make_catalog(pool_mb=52.0)
        first, _, _ = catalog.ensure_segments(linalg.regions)
        runtime_keys = {s.key for s in first if "runtime" in s.content_key}
        library_keys = {s.key for s in first} - runtime_keys
        assert runtime_keys and library_keys
        rnn_segments, _, _ = catalog.ensure_segments(rnn.regions)
        assert catalog.pool.used_bytes <= catalog.pool.account.capacity_bytes
        assert all(key in catalog._segments for key in runtime_keys)
        assert all(key not in catalog._segments for key in library_keys)
        # Every segment handed back is still in the catalog (acquirable).
        catalog.acquire(tuple(s.key for s in rnn_segments))

    def test_referenced_segments_never_reclaimed(self, suite):
        linalg = suite.get("LinAlg").synthesize(1, content_scale=TEST_SCALE)
        rnn = suite.get("RNNModel").synthesize(1, content_scale=TEST_SCALE)
        catalog = make_catalog(pool_mb=52.0)
        segments, _, _ = catalog.ensure_segments(linalg.regions)
        keys = tuple(s.key for s in segments)
        catalog.acquire(keys)
        with pytest.raises(TemplatePoolFull):
            catalog.ensure_segments(rnn.regions)
        assert all(key in catalog._segments for key in keys)
        catalog.release(keys)


class TestRefcounts:
    def test_acquire_release_cycle(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        keys = tuple(s.key for s in segments)
        catalog.acquire(keys)
        catalog.acquire(keys)
        assert catalog.live_deltas == 2
        assert all(s.refcount == 2 for s in segments)
        catalog.release(keys)
        catalog.release(keys)
        assert catalog.live_deltas == 0
        assert all(s.refcount == 0 for s in segments)

    def test_release_underflow_guarded(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        keys = tuple(s.key for s in segments)
        with pytest.raises(RuntimeError, match="underflow"):
            catalog.release(keys)

    def test_retire_refused_while_referenced(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        keys = tuple(s.key for s in segments)
        catalog.acquire(keys)
        with pytest.raises(TemplateInUse):
            catalog.retire(segments[0])
        catalog.release(keys)
        used_before = catalog.pool.used_bytes
        catalog.retire(segments[0])
        assert catalog.pool.used_bytes == used_before - segments[0].full_bytes


class TestResidency:
    def test_first_fork_promotes_then_cached(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        keys = tuple(s.key for s in segments)
        assert len(catalog.missing_on(0, keys)) == len(keys)
        promoted, nbytes, cost_ms = catalog.promote(0, keys, now=10.0)
        assert len(promoted) == len(keys)
        assert nbytes == sum(s.full_bytes for s in segments)
        assert cost_ms > 0
        assert catalog.missing_on(0, keys) == []
        again, zero_bytes, zero_ms = catalog.promote(0, keys, now=20.0)
        assert again == [] and zero_bytes == 0 and zero_ms == 0.0

    def test_replica_bytes_per_node_and_cluster(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        keys = tuple(s.key for s in segments)
        catalog.promote(0, keys, now=0.0)
        catalog.promote(1, keys, now=0.0)
        per_node = sum(s.full_bytes for s in segments)
        assert catalog.replica_bytes(0) == per_node
        assert catalog.replica_bytes() == 2 * per_node

    def test_hot_guard_protects_last_replica(self, regions):
        catalog = make_catalog(hot_window_ms=1_000.0)
        segments, _, _ = catalog.ensure_segments(regions)
        keys = tuple(s.key for s in segments)
        catalog.promote(0, keys, now=0.0)
        # Within the hot window, node 0 holds each segment's only
        # replica: nothing may be evicted.
        assert catalog.evictable_replicas(0, now=500.0) == []
        # A second replica lifts the guard (the pool re-promotes is not
        # even needed — node 1 still serves local forks).
        catalog.promote(1, keys, now=600.0)
        assert len(catalog.evictable_replicas(0, now=700.0)) == len(keys)
        # Past the window the last replica becomes fair game too.
        catalog.drop_replicas(1)
        assert len(catalog.evictable_replicas(0, now=5_000.0)) == len(keys)

    def test_drop_replicas_preserves_pool_copy(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        keys = tuple(s.key for s in segments)
        catalog.promote(0, keys, now=0.0)
        used = catalog.pool.used_bytes
        dropped = catalog.drop_replicas(0)
        assert {s.segment_id for s in dropped} == {s.segment_id for s in segments}
        assert catalog.pool.used_bytes == used  # crash loses no templates
        # And the next fork on any node simply re-promotes.
        promoted, nbytes, _ = catalog.promote(2, keys, now=1.0)
        assert nbytes == sum(s.full_bytes for s in segments)

    def test_retire_refused_while_replicated(self, regions):
        catalog = make_catalog()
        segments, _, _ = catalog.ensure_segments(regions)
        catalog.promote(0, (segments[0].key,), now=0.0)
        with pytest.raises(TemplateInUse):
            catalog.retire(segments[0])
        catalog.drop_replica(0, segments[0])
        catalog.retire(segments[0])
        assert segments[0].key not in catalog._segments
