"""Tests for TieredCheckpointStore: residency moves and accounting."""

from __future__ import annotations

import pytest

from repro._util import MIB
from repro.storage.store import TieredCheckpointStore
from repro.storage.tiers import StorageConfig, StorageTier, remote_dram_read_ms
from repro.sandbox.checkpoint import BaseCheckpoint
from tests.conftest import TEST_SCALE


@pytest.fixture
def store() -> TieredCheckpointStore:
    return TieredCheckpointStore(
        StorageConfig(remote_dram_mb=64.0, ssd_capacity_mb=64.0), nodes=2
    )


@pytest.fixture
def checkpoint(linalg_profile) -> BaseCheckpoint:
    image = linalg_profile.synthesize(21, content_scale=TEST_SCALE)
    return BaseCheckpoint(
        function="LinAlg",
        node_id=1,
        image=image,
        owner_sandbox_id=10,
        full_size_bytes=32 * MIB,
        owner_resident=False,
    )


class TestCheckpointMoves:
    def test_born_in_node_dram(self, store, checkpoint):
        store.add(checkpoint)
        assert store.tier_of(checkpoint.checkpoint_id) is StorageTier.NODE_DRAM

    def test_demote_prefers_remote_dram(self, store, checkpoint):
        store.add(checkpoint)
        move = store.demote_checkpoint(checkpoint)
        assert move is not None
        assert move.tier is StorageTier.REMOTE_DRAM
        assert move.cost_ms > 0
        assert store.remote_dram.used_bytes == checkpoint.full_size_bytes
        assert checkpoint.memory_bytes() == 0  # off the node's DRAM

    def test_demote_overflows_to_ssd(self, linalg_profile):
        store = TieredCheckpointStore(
            StorageConfig(remote_dram_mb=0.0, ssd_capacity_mb=64.0), nodes=2
        )
        image = linalg_profile.synthesize(22, content_scale=TEST_SCALE)
        checkpoint = BaseCheckpoint(
            function="LinAlg",
            node_id=1,
            image=image,
            owner_sandbox_id=10,
            full_size_bytes=32 * MIB,
            owner_resident=False,
        )
        store.add(checkpoint)
        move = store.demote_checkpoint(checkpoint)
        assert move is not None
        assert move.tier is StorageTier.LOCAL_SSD
        assert store.ssd[1].used_bytes == checkpoint.full_size_bytes
        assert store.ssd[0].used_bytes == 0  # charged to the owning node

    def test_demote_fails_when_nothing_fits(self, linalg_profile):
        store = TieredCheckpointStore(
            StorageConfig(remote_dram_mb=0.0, ssd_capacity_mb=0.0), nodes=2
        )
        image = linalg_profile.synthesize(23, content_scale=TEST_SCALE)
        checkpoint = BaseCheckpoint(
            function="LinAlg",
            node_id=1,
            image=image,
            owner_sandbox_id=10,
            full_size_bytes=32 * MIB,
            owner_resident=False,
        )
        store.add(checkpoint)
        assert store.demote_checkpoint(checkpoint) is None
        assert checkpoint.tier is StorageTier.NODE_DRAM

    def test_demote_requires_ownerless(self, store, linalg_profile):
        image = linalg_profile.synthesize(24, content_scale=TEST_SCALE)
        resident = BaseCheckpoint(
            function="LinAlg",
            node_id=0,
            image=image,
            owner_sandbox_id=10,
            full_size_bytes=32 * MIB,
        )
        store.add(resident)
        with pytest.raises(RuntimeError, match="CoW-shared"):
            store.demote_checkpoint(resident)

    def test_double_demote_rejected(self, store, checkpoint):
        store.add(checkpoint)
        store.demote_checkpoint(checkpoint)
        with pytest.raises(RuntimeError, match="already demoted"):
            store.demote_checkpoint(checkpoint)

    def test_promote_releases_account(self, store, checkpoint):
        store.add(checkpoint)
        store.demote_checkpoint(checkpoint)
        move = store.promote_checkpoint(checkpoint)
        assert move.tier is StorageTier.NODE_DRAM
        assert move.cost_ms > 0
        assert store.remote_dram.used_bytes == 0
        assert checkpoint.memory_bytes() == checkpoint.full_size_bytes

    def test_promote_from_dram_rejected(self, store, checkpoint):
        store.add(checkpoint)
        with pytest.raises(RuntimeError, match="already in node DRAM"):
            store.promote_checkpoint(checkpoint)

    def test_fetch_cost_by_tier(self, store, checkpoint):
        store.add(checkpoint)
        with pytest.raises(RuntimeError, match="fabric"):
            store.fetch_cost_ms(checkpoint, 4096)
        store.demote_checkpoint(checkpoint)
        remote_cost = store.fetch_cost_ms(checkpoint, 4096)
        assert remote_cost == remote_dram_read_ms(4096)

    def test_remove_releases_tier_account(self, store, checkpoint):
        store.add(checkpoint)
        store.demote_checkpoint(checkpoint)
        store.remove(checkpoint.checkpoint_id)
        assert store.remote_dram.used_bytes == 0

    def test_round_trip_moves(self, store, checkpoint):
        store.add(checkpoint)
        down = store.demote_checkpoint(checkpoint)
        up = store.promote_checkpoint(checkpoint)
        assert (down.tier, up.tier) == (StorageTier.REMOTE_DRAM, StorageTier.NODE_DRAM)
        assert down.nbytes == up.nbytes == checkpoint.full_size_bytes
        assert down.cost_ms == up.cost_ms == remote_dram_read_ms(down.nbytes)


class TestDedupColdTables:
    def test_demote_and_promote_table(self, store):
        store.demote_table(77, node_id=0, nbytes=1 * MIB)
        assert list(store.recount({77: (0, 1 * MIB)})) == []
        assert store.ssd[0].used_bytes == 1 * MIB
        read_cost = store.promote_table(77)
        assert read_cost > 0
        assert list(store.recount({})) == []
        assert store.ssd[0].used_bytes == 0

    def test_double_demote_rejected(self, store):
        store.demote_table(77, node_id=0, nbytes=100)
        with pytest.raises(RuntimeError, match="already demoted"):
            store.demote_table(77, node_id=0, nbytes=100)

    def test_promote_unknown_rejected(self, store):
        with pytest.raises(RuntimeError, match="not demoted"):
            store.promote_table(404)

    def test_release_table_is_idempotent(self, store):
        store.demote_table(77, node_id=1, nbytes=100)
        store.release_table(77)
        assert store.ssd[1].used_bytes == 0
        store.release_table(77)  # no-op

    def test_ssd_fits_respects_parked_tables(self, store):
        store.demote_table(77, node_id=0, nbytes=60 * MIB)
        assert not store.ssd_fits(0, 10 * MIB)
        assert store.ssd_fits(1, 10 * MIB)

    def test_tier_used_bytes(self, store, checkpoint):
        store.add(checkpoint)
        store.demote_checkpoint(checkpoint)
        store.demote_table(77, node_id=0, nbytes=5)
        occupancy = store.tier_used_bytes()
        assert occupancy[StorageTier.REMOTE_DRAM] == checkpoint.full_size_bytes
        assert occupancy[StorageTier.LOCAL_SSD] == 5
