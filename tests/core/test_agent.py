"""Tests for the dedup agent: the dedup op and the restore op."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.agent import DedupAgent, PageKind
from repro.core.costs import CostModel
from repro.core.policy import MedesPolicyConfig
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import page_fingerprint
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from tests.conftest import TEST_SCALE


def make_agent(node_id, store, registry):
    return DedupAgent(
        node_id,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=TEST_SCALE,
    )


def build_harness(linalg_profile):
    """A node-0 agent with a LinAlg base checkpoint on node 1."""
    store = CheckpointStore()
    registry = FingerprintRegistry()
    agent = make_agent(0, store, registry)
    base_image = linalg_profile.synthesize(100, content_scale=TEST_SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function="LinAlg",
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=linalg_profile.memory_bytes,
    )
    store.add(checkpoint)
    for index in range(base_image.num_pages):
        registry.register_page(
            PageRef(checkpoint.checkpoint_id, 1, index),
            page_fingerprint(base_image.page(index)),
        )
    return agent, store, registry, checkpoint


@pytest.fixture
def harness(linalg_profile):
    return build_harness(linalg_profile)


def make_sandbox(profile, seed=200) -> Sandbox:
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
    sandbox.image = profile.synthesize(seed, content_scale=TEST_SCALE, executed=True)
    return sandbox


class TestDedupOp:
    def test_round_trip_byte_exact(self, harness, linalg_profile):
        agent, *_ = harness
        sandbox = make_sandbox(linalg_profile)
        original_checksum = sandbox.image.checksum()
        outcome = agent.dedup(sandbox)
        restored = agent.restore(outcome.table, verify=True)
        assert restored.image.checksum() == original_checksum

    def test_savings_positive_and_bounded(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        fraction = outcome.table.stats.savings_fraction
        assert 0.1 < fraction < 1.0
        assert outcome.table.retained_full_bytes < linalg_profile.memory_bytes

    def test_page_classification_counts(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        stats = outcome.table.stats
        assert (
            stats.zero_pages + stats.unique_pages + stats.patched_pages
            == stats.total_pages
        )
        assert stats.zero_pages > 0  # the zero region dedups away
        assert stats.unique_pages > 0  # dirty pages defeat dedup
        assert stats.patched_pages > 0

    def test_refcounts_acquired(self, harness, linalg_profile):
        agent, _store, _registry, checkpoint = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        expected = outcome.table.base_refs[checkpoint.checkpoint_id]
        assert expected > 0
        assert checkpoint.refcount == expected

    def test_same_function_attribution(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        stats = outcome.table.stats
        # Only LinAlg bases exist, so every patched page is same-function.
        assert stats.same_function_pages == stats.patched_pages
        assert stats.cross_function_pages == 0

    def test_empty_registry_all_unique_or_zero(self, linalg_profile):
        agent = DedupAgent(
            0,
            registry=FingerprintRegistry(),
            store=CheckpointStore(),
            fabric=RdmaFabric(),
            costs=CostModel(),
            content_scale=TEST_SCALE,
        )
        outcome = agent.dedup(make_sandbox(linalg_profile))
        stats = outcome.table.stats
        assert stats.patched_pages == 0
        assert stats.unique_pages + stats.zero_pages == stats.total_pages
        # Round trip still works with no bases at all.
        restored = agent.restore(outcome.table, verify=True)
        assert np.array_equal(restored.image.page_digests(), outcome.table.page_digests)

    def test_dedup_requires_image(self, harness, linalg_profile):
        agent, *_ = harness
        sandbox = Sandbox(
            profile=linalg_profile, node_id=0, instance_seed=1, created_at=0.0
        )
        with pytest.raises(RuntimeError, match="no image"):
            agent.dedup(sandbox)

    def test_timings_positive_and_ordered(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        timings = outcome.timings
        assert timings.checkpoint_ms > 0
        assert timings.lookup_ms > 0
        assert timings.total_ms >= timings.checkpoint_ms + timings.lookup_ms

    def test_full_scale_extrapolation(self, linalg_profile, harness):
        """Timing reflects full-size sandboxes regardless of content scale."""
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        full_pages = linalg_profile.memory_bytes / 4096
        expected_lookup = full_pages * agent.costs.lookup_us_per_page / 1e3
        assert outcome.timings.lookup_ms == pytest.approx(expected_lookup, rel=0.1)


class TestRestoreOp:
    def test_restore_timings_breakdown(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        restore = agent.restore(outcome.table, verify=True)
        timings = restore.timings
        assert timings.base_read_ms > 0  # base pages are remote (node 1)
        assert timings.compute_ms > 0
        assert timings.restore_ms == agent.costs.restore_fixed_ms
        assert timings.total_ms < linalg_profile.cold_start_ms

    def test_corruption_detected(self, harness, linalg_profile, monkeypatch):
        """One patched page comes back wrong: the message names it, its
        base and its patch."""
        import repro.core.agent as agent_module

        agent, *_ = harness
        table = agent.dedup(make_sandbox(linalg_profile)).table
        index, patch = int(table.patched[0]), table.patches[0]
        real = agent_module.apply_patch_into

        def corrupt_one(applied, base, out):
            real(applied, base, out)
            if applied is patch:
                out[0] ^= 1

        monkeypatch.setattr(agent_module, "apply_patch_into", corrupt_one)
        with pytest.raises(RuntimeError, match="corrupted") as failure:
            agent.restore(table, verify=True)
        message = str(failure.value)
        assert "1 bad page(s)" in message
        assert (
            f"first bad page {index} is patched against base "
            f"(checkpoint {table.base_checkpoint[0]}, page {table.base_page[0]}) "
            f"with a {patch.size_bytes}-byte patch"
        ) in message
        # Unverified, the same restore goes through.
        agent.restore(table, verify=False)

    def test_corrupted_unique_page_is_named(self, harness, linalg_profile):
        agent, *_ = harness
        table = agent.dedup(make_sandbox(linalg_profile)).table
        index = int(np.flatnonzero(table.entries == PageKind.UNIQUE)[0])
        table.unique[0] = 0
        with pytest.raises(RuntimeError, match=f"first bad page {index} is unique$"):
            agent.restore(table, verify=True)

    def test_restore_does_not_release_refs(self, harness, linalg_profile):
        agent, _store, _registry, checkpoint = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        before = checkpoint.refcount
        agent.restore(outcome.table, verify=False)
        assert checkpoint.refcount == before

    def test_op_counters(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile))
        agent.restore(outcome.table)
        assert agent.dedup_ops == 1
        assert agent.restore_ops == 1


class TestBasePageCache:
    """The checkpoint store's cache of base-page views, shared by every
    agent reading the store: a dedup op populates it (misses), a warm
    restore of the same table is served from it (hits), a retired
    checkpoint leaves it, and a platform run surfaces its counters in
    ``RunMetrics``."""

    def test_warm_restore_hits_base_page_cache(self, harness, linalg_profile):
        agent, *_ = harness
        outcome = agent.dedup(make_sandbox(linalg_profile, seed=700))
        assert outcome.table.stats.patched_pages > 0
        misses_after_dedup = agent.base_page_cache.misses
        assert misses_after_dedup > 0, "dedup populates the cache via misses"
        hits_after_dedup = agent.base_page_cache.hits

        agent.restore(outcome.table, verify=True)
        assert agent.base_page_cache.hits > hits_after_dedup, (
            "a warm restore re-reads the base pages the dedup op just cached"
        )
        assert agent.base_page_cache.misses == misses_after_dedup

    def test_a_page_one_agent_read_is_a_hit_for_another(self, harness):
        agent, store, registry, checkpoint = harness
        peer = make_agent(1, store, registry)
        assert peer.base_page_cache is agent.base_page_cache is store.page_cache
        agent.base_page_bytes(checkpoint, 3)
        view = peer.base_page_bytes(checkpoint, 3)
        assert (store.page_cache.hits, store.page_cache.misses) == (1, 1)
        assert not view.flags.writeable
        assert np.shares_memory(view, checkpoint.image.data), "a view, not a copy"

    def test_retired_checkpoint_image_is_freed(self, linalg_profile):
        agent, store, _registry, checkpoint = build_harness(linalg_profile)
        outcome = agent.dedup(make_sandbox(linalg_profile, seed=700))
        agent.restore(outcome.table, verify=True)
        assert store.page_cache.hits > 0, "the restore read through the cache"
        checkpoint_id, pages = checkpoint.checkpoint_id, checkpoint.image.num_pages
        page_keys = [(checkpoint_id, page) for page in range(pages)]
        anchor_keys = [(*key, agent.patch_level) for key in page_keys]
        assert any(key in store.page_cache for key in page_keys)
        assert any(key in store.anchor_cache for key in anchor_keys)
        image = weakref.ref(checkpoint.image)
        buffer = weakref.ref(checkpoint.image.data)

        checkpoint.release(outcome.table.base_refs[checkpoint_id])
        store.remove(checkpoint_id)
        del checkpoint
        gc.collect()
        assert image() is None and buffer() is None, "a cached view pins the image"
        assert not any(key in store.page_cache for key in page_keys)
        assert not any(key in store.anchor_cache for key in anchor_keys)

    def test_run_metrics_surface_cache_counters(self):
        suite = FunctionBenchSuite.replicated(["Vanilla", "LinAlg"], 2)
        trace = AzureTraceGenerator(seed=21).generate(8, suite.names())
        config = ClusterConfig(
            nodes=2,
            node_memory_mb=256.0,
            content_scale=TEST_SCALE,
            seed=3,
            verify_restores=True,
        )
        platform = build_platform(
            PlatformKind.MEDES,
            config,
            suite,
            medes=MedesPolicyConfig(alpha=25.0, idle_period_ms=10_000.0),
        )
        metrics = platform.run(trace).metrics
        assert metrics.dedup_ops and metrics.start_counts()[StartType.DEDUP]
        pages, anchors = platform.store.page_cache, platform.store.anchor_cache
        assert all(a.base_page_cache is pages for a in platform.agents.values())
        assert (metrics.base_page_cache_hits, metrics.base_page_cache_misses) == (
            pages.hits,
            pages.misses,
        )
        assert (metrics.anchor_index_cache_hits, metrics.anchor_index_cache_misses) == (
            anchors.hits,
            anchors.misses,
        )
        assert metrics.base_page_cache_misses > 0
        assert metrics.base_page_cache_hits > 0, (
            "dedup starts replay base pages the dedup op already decoded"
        )


class TestCrossFunctionDedup:
    def test_pages_dedup_against_other_functions(self, suite):
        """With only a Vanilla base, LinAlg pages still find base pages
        (shared runtime + pool content) — the paper's Section 7.3.1."""
        store = CheckpointStore()
        registry = FingerprintRegistry()
        agent = DedupAgent(
            0,
            registry=registry,
            store=store,
            fabric=RdmaFabric(),
            costs=CostModel(),
            content_scale=TEST_SCALE,
        )
        vanilla = suite.get("Vanilla")
        base_image = vanilla.synthesize(300, content_scale=TEST_SCALE, executed=True)
        checkpoint = BaseCheckpoint(
            function="Vanilla",
            node_id=1,
            image=base_image,
            owner_sandbox_id=1,
            full_size_bytes=vanilla.memory_bytes,
        )
        store.add(checkpoint)
        for index in range(base_image.num_pages):
            registry.register_page(
                PageRef(checkpoint.checkpoint_id, 1, index),
                page_fingerprint(base_image.page(index)),
            )
        linalg = suite.get("LinAlg")
        outcome = agent.dedup(make_sandbox(linalg, seed=301))
        stats = outcome.table.stats
        assert stats.cross_function_pages > 0
        assert stats.same_function_pages == 0
        restored = agent.restore(outcome.table, verify=True)
        assert np.array_equal(restored.image.page_digests(), outcome.table.page_digests)


class TestPageEntry:
    def test_retained_bytes_by_kind(self, harness, linalg_profile):
        agent, *_ = harness
        table = agent.dedup(make_sandbox(linalg_profile)).table
        kinds = table.entries
        # Zero pages keep nothing; a unique page keeps its 4096 bytes; a
        # patch is kept only under the unique cutoff.
        assert table.unique.shape == (np.count_nonzero(kinds == PageKind.UNIQUE), 4096)
        assert table.patched.tolist() == np.flatnonzero(kinds == PageKind.PATCHED).tolist()
        assert all(0 < patch.size_bytes < 4096 * 0.75 for patch in table.patches)
        assert table.retained_content_bytes == table.unique.nbytes + sum(
            patch.size_bytes for patch in table.patches
        )

    def test_page_columns_hold_no_per_page_objects(self, harness, linalg_profile):
        """Per page a table keeps array rows, plus one slotted patch
        holding only its bytes per patched page: nothing the cyclic
        collector walks page by page."""
        agent, *_ = harness
        table = agent.dedup(make_sandbox(linalg_profile)).table
        columns = (
            table.entries,
            table.patched,
            table.base_checkpoint,
            table.base_node,
            table.base_page,
            table.unique,
        )
        assert not any(gc.is_tracked(column) for column in columns)
        assert len(table.patches) == table.stats.patched_pages > 0
        for patch in table.patches:
            assert isinstance(patch.blob, bytes) and not hasattr(patch, "__dict__")
