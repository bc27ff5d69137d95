"""Tests for the configurable eviction orders."""

from __future__ import annotations

import pytest

from repro._util import MIB
from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import EvictionOrder, Node, rank_victims
from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace


@pytest.fixture
def node(suite):
    node = Node(node_id=0, capacity_bytes=1024 * MIB)

    def add(profile_name: str, used_at: float) -> Sandbox:
        sandbox = Sandbox(
            profile=suite.get(profile_name),
            node_id=0,
            instance_seed=1,
            created_at=0.0,
        )
        sandbox.transition(SandboxState.RUNNING, used_at)
        sandbox.transition(SandboxState.WARM, used_at + 1)
        node.admit(sandbox)
        return sandbox

    node.add = add  # type: ignore[attr-defined]
    return node


class TestOrders:
    def test_lru_by_last_use(self, node):
        old = node.add("Vanilla", 10.0)
        new = node.add("Vanilla", 100.0)
        assert node.eviction_candidates(EvictionOrder.LRU) == [old, new]

    def test_largest_first_by_footprint(self, node):
        small = node.add("Vanilla", 10.0)  # 17 MB
        large = node.add("RNNModel", 100.0)  # 90 MB
        assert node.eviction_candidates(EvictionOrder.LARGEST_FIRST) == [large, small]

    def test_random_deterministic(self, node):
        node.add("Vanilla", 10.0)
        node.add("LinAlg", 20.0)
        node.add("RNNModel", 30.0)
        first = node.eviction_candidates(EvictionOrder.RANDOM)
        second = node.eviction_candidates(EvictionOrder.RANDOM)
        assert first == second

    def test_all_orders_same_victim_set(self, node):
        node.add("Vanilla", 10.0)
        node.add("LinAlg", 20.0)
        sets = {
            order: frozenset(s.sandbox_id for s in node.eviction_candidates(order))
            for order in EvictionOrder
        }
        assert len(set(sets.values())) == 1

    def test_rank_victims_empty(self):
        assert rank_victims([]) == []


class TestScanVolume:
    def test_scan_volume_observable_without_cap(self):
        """Ranked candidates are counted, so a regression toward
        quadratic scans on a permanently full node shows up in
        ``metrics.eviction_candidates_scanned``, not just wall time."""
        suite = FunctionBenchSuite.subset(["Vanilla", "RNNModel", "ModelTrain"])
        cluster = ClusterConfig(
            nodes=1, node_memory_mb=160.0, content_scale=1.0 / 256.0, seed=7
        )
        # Long idle period: idle sandboxes stay WARM (never dedup away), so
        # the large arrivals must evict rather than find freed memory.
        policy = MedesPolicyConfig(
            idle_period_ms=300_000.0,
            keep_alive_ms=600_000.0,
            keep_dedup_ms=600_000.0,
            alpha=25.0,
        )
        # Concurrent small requests fill the node with idle sandboxes, then
        # alternating large functions (too big to coexist) force an eviction
        # decision over a big candidate population on every arrival.
        arrivals = [(float(i), "Vanilla") for i in range(7)]
        arrivals += [
            (20_000.0, "RNNModel"),
            (35_000.0, "ModelTrain"),
            (50_000.0, "RNNModel"),
        ]
        platform = build_platform(PlatformKind.MEDES, cluster, suite, medes=policy)
        metrics = platform.run(Trace.from_arrivals(arrivals)).metrics
        assert metrics.evictions > 0
        assert metrics.eviction_candidates_scanned >= metrics.evictions
