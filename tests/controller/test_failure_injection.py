"""Failure injection: unreachable base-page nodes (Section 4.1.3).

When the node holding a dedup sandbox's base pages becomes unreachable,
restores must fail fast and fall back to a cold start, purging the
unrecoverable dedup state; dedup ops must stop choosing base pages on
failed nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.agent import DedupAgent, PageKind
from repro.core.costs import CostModel
from repro.core.policy import MedesPolicyConfig
from repro.core.registry import FingerprintRegistry, PageRef
from repro.invariants import check
from repro.memory.fingerprint import page_fingerprint
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState
from repro.sim.network import PeerUnavailable, RdmaFabric
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0


class TestFabricFailures:
    def test_failed_peer_raises_on_batch_read(self):
        fabric = RdmaFabric()
        fabric.fail_peer(3)
        with pytest.raises(PeerUnavailable):
            fabric.batch_read_ms({3: (5, 4096)}, local_peer=0)
        assert fabric.stats.failed_reads == 1

    def test_local_reads_unaffected_by_failure(self):
        fabric = RdmaFabric()
        fabric.fail_peer(0)
        assert fabric.batch_read_ms({0: (5, 4096)}, local_peer=0) >= 0.0

    def test_restore_peer_heals(self):
        fabric = RdmaFabric()
        fabric.fail_peer(3)
        fabric.restore_peer(3)
        assert fabric.peer_available(3)
        assert fabric.batch_read_ms({3: (1, 4096)}, local_peer=0) > 0.0

    def test_no_cost_charged_on_failure(self):
        fabric = RdmaFabric()
        fabric.fail_peer(3)
        with pytest.raises(PeerUnavailable):
            fabric.batch_read_ms({3: (5, 4096), 4: (5, 4096)}, local_peer=0)
        assert fabric.stats.remote_reads == 0


@pytest.fixture
def agent_harness(linalg_profile):
    """Agent on node 0, base checkpoint on node 1."""
    store = CheckpointStore()
    registry = FingerprintRegistry()
    fabric = RdmaFabric()
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=fabric,
        costs=CostModel(),
        content_scale=SCALE,
    )
    base_image = linalg_profile.synthesize(900, content_scale=SCALE, executed=True)
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
    return agent, fabric, linalg_profile


class TestAgentUnderFailure:
    def _dedup(self, agent, profile, seed=901):
        sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
        sandbox.image = profile.synthesize(seed, content_scale=SCALE, executed=True)
        return agent.dedup(sandbox)

    def test_restore_raises_when_base_node_down(self, agent_harness):
        agent, fabric, profile = agent_harness
        outcome = self._dedup(agent, profile)
        fabric.fail_peer(1)
        with pytest.raises(PeerUnavailable):
            agent.restore(outcome.table)

    def test_restore_succeeds_after_heal(self, agent_harness):
        agent, fabric, profile = agent_harness
        outcome = self._dedup(agent, profile)
        fabric.fail_peer(1)
        fabric.restore_peer(1)
        restored = agent.restore(outcome.table, verify=True)
        assert np.array_equal(restored.image.page_digests(), outcome.table.page_digests)

    def test_dedup_avoids_failed_base_nodes(self, agent_harness):
        agent, fabric, profile = agent_harness
        fabric.fail_peer(1)
        outcome = self._dedup(agent, profile, seed=902)
        stats = outcome.table.stats
        # No patched pages against the unreachable node's bases.
        assert stats.patched_pages == 0
        assert not (outcome.table.entries == PageKind.PATCHED).any()
        # The sandbox still round-trips (everything local/unique/zero).
        restored = agent.restore(outcome.table, verify=True)
        assert np.array_equal(restored.image.page_digests(), outcome.table.page_digests)


@pytest.fixture
def tiered_harness(linalg_profile):
    """Tiered agent on node 0, ownerless base checkpoint on node 1."""
    from repro.storage.store import TieredCheckpointStore
    from repro.storage.tiers import StorageConfig

    store = TieredCheckpointStore(
        StorageConfig(remote_dram_mb=1024.0, ssd_capacity_mb=1024.0), nodes=2
    )
    registry = FingerprintRegistry()
    fabric = RdmaFabric()
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=fabric,
        costs=CostModel(),
        content_scale=SCALE,
        tiering=True,
    )
    base_image = linalg_profile.synthesize(900, content_scale=SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function="LinAlg",
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=linalg_profile.memory_bytes,
        owner_resident=False,
    )
    store.add(checkpoint)
    for index in range(base_image.num_pages):
        registry.register_page(
            PageRef(checkpoint.checkpoint_id, 1, index),
            page_fingerprint(base_image.page(index)),
        )
    return agent, store, fabric, checkpoint, linalg_profile


class TestTieredAgentUnderFailure:
    """SSD residency shares its node's failure domain; the far-memory
    pool has none — restores must fall back exactly like the DRAM case."""

    def _dedup(self, agent, profile, seed=901):
        sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
        sandbox.image = profile.synthesize(seed, content_scale=SCALE, executed=True)
        return agent.dedup(sandbox)

    def test_ssd_pages_on_failed_node_raise_like_dram(self, tiered_harness):
        from repro.storage.tiers import StorageTier, TierAccount

        agent, store, fabric, checkpoint, profile = tiered_harness
        outcome = self._dedup(agent, profile)
        # Force the demotion onto node 1's SSD (no far-memory room).
        store.remote_dram = TierAccount(0)
        move = store.demote_checkpoint(checkpoint)
        assert move is not None and move.tier is StorageTier.LOCAL_SSD
        fabric.fail_peer(1)
        remote_reads_before = fabric.stats.remote_reads
        with pytest.raises(PeerUnavailable):
            agent.restore(outcome.table)
        # Fail-fast: no cost charged, exactly like the DRAM-resident case.
        assert fabric.stats.remote_reads == remote_reads_before
        assert fabric.stats.failed_reads >= 1

    def test_remote_dram_pages_survive_node_failure(self, tiered_harness):
        from repro.storage.tiers import StorageTier

        agent, store, fabric, checkpoint, profile = tiered_harness
        outcome = self._dedup(agent, profile)
        move = store.demote_checkpoint(checkpoint)
        assert move is not None and move.tier is StorageTier.REMOTE_DRAM
        fabric.fail_peer(1)
        # The disaggregated pool is not on node 1: the restore proceeds.
        agent.base_page_cache.clear()
        restored = agent.restore(outcome.table, verify=True)
        assert np.array_equal(restored.image.page_digests(), outcome.table.page_digests)

    def test_ssd_restore_succeeds_after_heal(self, tiered_harness):
        from repro.storage.tiers import TierAccount

        agent, store, fabric, checkpoint, profile = tiered_harness
        outcome = self._dedup(agent, profile)
        store.remote_dram = TierAccount(0)
        store.demote_checkpoint(checkpoint)
        fabric.fail_peer(1)
        fabric.restore_peer(1)
        agent.base_page_cache.clear()
        restored = agent.restore(outcome.table, verify=True)
        assert np.array_equal(restored.image.page_digests(), outcome.table.page_digests)


class TestPlatformFallback:
    def test_cold_start_fallback_and_purge(self):
        """End to end: dedup sandbox whose base node dies mid-run."""
        suite = FunctionBenchSuite.subset(["Vanilla"])
        config = ClusterConfig(
            nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=4,
            verify_restores=True,
        )
        trace = Trace.from_arrivals(
            [(0.0, "Vanilla"), (1.0, "Vanilla"), (60_000.0, "Vanilla")]
        )
        platform = build_platform(
            PlatformKind.MEDES,
            config,
            suite,
            medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
        )
        # Fail every remote peer once the dedup state exists (t=30 s),
        # so the dedup start at t=60 s cannot read remote base pages.
        def fail_all_remotes():
            for node in platform.nodes:
                platform.fabric.fail_peer(node.node_id)

        platform.sim.at(30_000.0, fail_all_remotes)
        report = platform.run(trace)

        final = report.metrics.requests[2]
        assert final.completion_ms is not None
        # Either the dedup table was entirely node-local (restore fine)
        # or the platform fell back; in the fallback case the request is
        # a cold start and no dedup sandbox remains.
        if final.start_type is StartType.COLD:
            for node in platform.nodes:
                for sandbox in node.sandboxes.values():
                    assert sandbox.state is not SandboxState.DEDUP
        check(platform)

    def test_cold_start_fallback_with_tiering(self):
        """The tiered platform falls back to cold identically when the
        base node dies — SSD residency shares the node's failure domain."""
        suite = FunctionBenchSuite.subset(["Vanilla"])
        config = ClusterConfig(
            nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=4,
            verify_restores=True, checkpoint_tiering=True,
        )
        trace = Trace.from_arrivals(
            [(0.0, "Vanilla"), (1.0, "Vanilla"), (60_000.0, "Vanilla")]
        )
        platform = build_platform(
            PlatformKind.MEDES,
            config,
            suite,
            medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
        )

        def fail_all_remotes():
            for node in platform.nodes:
                platform.fabric.fail_peer(node.node_id)

        platform.sim.at(30_000.0, fail_all_remotes)
        report = platform.run(trace)

        final = report.metrics.requests[2]
        assert final.completion_ms is not None
        if final.start_type is StartType.COLD:
            for node in platform.nodes:
                for sandbox in node.sandboxes.values():
                    assert sandbox.state is not SandboxState.DEDUP
        # Refcounts and tier accounts neither underflowed nor leaked.
        check(platform)
