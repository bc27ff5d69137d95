"""Property: tier moves never corrupt restored images.

Demoting a base checkpoint (to either lower tier) and promoting it back
must leave every restore byte-identical to the DRAM-only restore — tiers
change where bytes live and what touching them costs, never the bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import page_fingerprint
from repro.sandbox.checkpoint import BaseCheckpoint
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.storage.prefetch import WorkingSetRecorder
from repro.storage.store import TieredCheckpointStore
from repro.storage.tiers import StorageConfig, StorageTier
from tests.conftest import TEST_SCALE


def build_harness(profile, *, remote_dram_mb: float, recorder=None):
    """Agent on node 0, ownerless base checkpoint on node 1."""
    store = TieredCheckpointStore(
        StorageConfig(remote_dram_mb=remote_dram_mb, ssd_capacity_mb=1024.0),
        nodes=2,
    )
    registry = FingerprintRegistry()
    fabric = RdmaFabric()
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=fabric,
        costs=CostModel(),
        content_scale=TEST_SCALE,
        recorder=recorder,
    )
    base_image = profile.synthesize(700, content_scale=TEST_SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function=profile.name,
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=profile.memory_bytes,
        owner_resident=False,
    )
    store.add(checkpoint)
    for index in range(base_image.num_pages):
        registry.register_page(
            PageRef(checkpoint.checkpoint_id, 1, index),
            page_fingerprint(base_image.page(index)),
        )
    return agent, store, checkpoint


def dedup_sandbox(agent, profile, seed):
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
    sandbox.image = profile.synthesize(seed, content_scale=TEST_SCALE, executed=True)
    return agent.dedup(sandbox)


class TestDemotePromoteRoundTrip:
    @settings(max_examples=10)
    @given(
        seed=st.integers(min_value=701, max_value=740),
        via_ssd=st.booleans(),
    )
    def test_restores_byte_identical_across_tiers(
        self, linalg_profile, seed, via_ssd
    ):
        # remote_dram_mb=0 forces the demotion to overflow to SSD.
        agent, store, checkpoint = build_harness(
            linalg_profile, remote_dram_mb=0.0 if via_ssd else 1024.0
        )
        outcome = dedup_sandbox(agent, linalg_profile, seed)

        in_dram = agent.restore(outcome.table, verify=True)
        move = store.demote_checkpoint(checkpoint)
        assert move is not None
        expected = StorageTier.LOCAL_SSD if via_ssd else StorageTier.REMOTE_DRAM
        assert checkpoint.tier is expected
        # The page cache would mask a content regression: drop it so the
        # demoted restore re-reads every base page from the checkpoint.
        agent.base_page_cache.clear()
        demoted = agent.restore(outcome.table, verify=True)
        assert demoted.image.checksum() == in_dram.image.checksum()
        assert demoted.image.checksum() == outcome.table.original_checksum

        store.promote_checkpoint(checkpoint)
        agent.base_page_cache.clear()
        promoted = agent.restore(outcome.table, verify=True)
        assert promoted.image.checksum() == outcome.table.original_checksum

    def test_demoted_restore_costs_more_than_dram(self, linalg_profile):
        agent, store, checkpoint = build_harness(linalg_profile, remote_dram_mb=0.0)
        outcome = dedup_sandbox(agent, linalg_profile, 750)
        if outcome.table.stats.patched_pages == 0:
            pytest.skip("no base reads in this table")
        in_dram = agent.restore(outcome.table).timings.base_read_ms
        store.demote_checkpoint(checkpoint)
        on_ssd = agent.restore(outcome.table).timings.base_read_ms
        assert on_ssd > in_dram


class TestPrefetchedRestore:
    def test_second_restore_prefetches_and_matches(self, linalg_profile):
        recorder = WorkingSetRecorder()
        agent, store, checkpoint = build_harness(
            linalg_profile, remote_dram_mb=1024.0, recorder=recorder
        )
        outcome = dedup_sandbox(agent, linalg_profile, 760)
        first = agent.restore(outcome.table, verify=True)
        assert not first.timings.prefetched
        assert recorder.recordings == 1

        second = agent.restore(outcome.table, verify=True)
        assert second.timings.prefetched
        assert second.timings.prefetch_miss_pages == 0
        assert second.image.checksum() == first.image.checksum()
        # Same bytes fetched either way, but the prefetch overlaps patch
        # compute, so the recorded restore is never slower.
        assert second.timings.total_ms <= first.timings.total_ms

    def test_recorder_keys_by_base_set(self, linalg_profile):
        recorder = WorkingSetRecorder()
        agent, _store, _checkpoint = build_harness(
            linalg_profile, remote_dram_mb=1024.0, recorder=recorder
        )
        a = dedup_sandbox(agent, linalg_profile, 770)
        b = dedup_sandbox(agent, linalg_profile, 771)
        agent.restore(a.table, verify=True)
        agent.restore(b.table, verify=True)
        # Same function, same base-checkpoint set: one recording serves
        # both tables' keys.
        assert recorder.recordings == 1
