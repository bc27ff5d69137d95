"""Tests for the RDMA fabric cost model."""

from __future__ import annotations

import pytest

from repro.sim.network import RdmaFabric


class TestSingleRead:
    def test_remote_read_latency_floor(self):
        fabric = RdmaFabric()
        # Even a zero-byte read pays the op latency.
        assert fabric.read_ms(0, local=False) == pytest.approx(0.005)

    def test_remote_read_includes_serialization(self):
        fabric = RdmaFabric()
        # 10 Gbps = 1.25 GB/s: 1.25 MB takes 1 ms on top of the 5 us op.
        ms = fabric.read_ms(1_250_000, local=False)
        assert ms == pytest.approx(1.005)

    def test_local_read_latency_positive(self):
        assert RdmaFabric().read_ms(4096, local=True) > 0.0

    def test_local_read_cheaper_than_remote(self):
        fabric = RdmaFabric()
        assert fabric.read_ms(4096, local=True) < fabric.read_ms(4096, local=False)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RdmaFabric().read_ms(-1, local=False)

    def test_stats_accumulate(self):
        fabric = RdmaFabric()
        fabric.read_ms(100, local=False)
        fabric.read_ms(200, local=True)
        assert fabric.stats.remote_reads == 1
        assert fabric.stats.remote_bytes == 100
        assert fabric.stats.local_reads == 1
        assert fabric.stats.local_bytes == 200


class TestBatchRead:
    def test_empty_plan_is_free(self):
        assert RdmaFabric().batch_read_ms({}, local_peer=0) == 0.0

    def test_zero_ops_skipped(self):
        assert RdmaFabric().batch_read_ms({1: (0, 0)}, local_peer=0) == 0.0

    def test_peers_proceed_in_parallel(self):
        fabric = RdmaFabric()
        single = fabric.batch_read_ms({1: (10, 40960)}, local_peer=0)
        double = fabric.batch_read_ms({1: (10, 40960), 2: (10, 40960)}, local_peer=0)
        assert double == pytest.approx(single)

    def test_pipelining_cheaper_than_sequential(self):
        fabric = RdmaFabric()
        batched = fabric.batch_read_ms({1: (100, 409600)}, local_peer=0)
        sequential = sum(fabric.read_ms(4096, local=False) for _ in range(100))
        assert batched < sequential

    def test_local_peer_bypasses_fabric(self):
        fabric = RdmaFabric()
        local = fabric.batch_read_ms({0: (100, 409600)}, local_peer=0)
        remote = fabric.batch_read_ms({1: (100, 409600)}, local_peer=0)
        assert local < remote
        assert fabric.stats.local_reads == 100
        assert fabric.stats.remote_reads == 100

    def test_slowest_peer_dominates(self):
        fabric = RdmaFabric()
        small = fabric.batch_read_ms({1: (1, 4096)}, local_peer=0)
        mixed = fabric.batch_read_ms({1: (1, 4096), 2: (1000, 4096000)}, local_peer=0)
        big = fabric.batch_read_ms({2: (1000, 4096000)}, local_peer=0)
        assert mixed == pytest.approx(big)
        assert mixed > small

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RdmaFabric().batch_read_ms({1: (-1, 0)}, local_peer=0)


class TestRequirePeer:
    def test_available_peer_passes(self):
        RdmaFabric().require_peer(1)

    def test_failed_peer_raises_and_counts(self):
        from repro.sim.network import PeerUnavailable

        fabric = RdmaFabric()
        fabric.fail_peer(1)
        with pytest.raises(PeerUnavailable):
            fabric.require_peer(1)
        assert fabric.stats.failed_reads == 1
