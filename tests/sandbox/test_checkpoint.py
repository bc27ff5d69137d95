"""Tests for base checkpoints and the checkpoint store."""

from __future__ import annotations

import pytest

from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from tests.conftest import TEST_SCALE


@pytest.fixture
def checkpoint(linalg_profile) -> BaseCheckpoint:
    image = linalg_profile.synthesize(1, content_scale=TEST_SCALE)
    return BaseCheckpoint(
        function="LinAlg",
        node_id=2,
        image=image,
        owner_sandbox_id=10,
        full_size_bytes=linalg_profile.memory_bytes,
    )


class TestRefcounting:
    def test_acquire_release(self, checkpoint):
        checkpoint.acquire(3)
        assert checkpoint.refcount == 3
        assert checkpoint.pinned
        checkpoint.release(3)
        assert checkpoint.refcount == 0
        assert not checkpoint.pinned

    def test_underflow_raises(self, checkpoint):
        checkpoint.acquire(1)
        with pytest.raises(RuntimeError, match="underflow"):
            checkpoint.release(2)

    def test_negative_counts_rejected(self, checkpoint):
        with pytest.raises(ValueError):
            checkpoint.acquire(-1)
        with pytest.raises(ValueError):
            checkpoint.release(-1)


class TestMemoryAccounting:
    def test_cheap_while_owner_resident(self, checkpoint):
        charge = checkpoint.memory_bytes()
        assert charge == int(checkpoint.full_size_bytes * 0.10)

    def test_full_charge_after_owner_purged(self, checkpoint):
        checkpoint.owner_resident = False
        assert checkpoint.memory_bytes() == checkpoint.full_size_bytes


class TestCowValidation:
    @pytest.mark.parametrize("fraction", [-0.01, 1.01, 10.0])
    def test_out_of_range_fraction_rejected(self, checkpoint, fraction):
        with pytest.raises(ValueError, match="cow_overhead_fraction"):
            BaseCheckpoint(
                function="LinAlg",
                node_id=0,
                image=checkpoint.image,
                owner_sandbox_id=1,
                full_size_bytes=1000,
                cow_overhead_fraction=fraction,
            )

    @pytest.mark.parametrize("fraction", [0.0, 0.10, 1.0])
    def test_boundary_fractions_accepted(self, checkpoint, fraction):
        created = BaseCheckpoint(
            function="LinAlg",
            node_id=0,
            image=checkpoint.image,
            owner_sandbox_id=1,
            full_size_bytes=1000,
            cow_overhead_fraction=fraction,
        )
        assert created.memory_bytes() == int(1000 * fraction)


class TestCheckpointStore:
    def test_add_get(self, checkpoint):
        store = CheckpointStore()
        store.add(checkpoint)
        assert store.get(checkpoint.checkpoint_id) is checkpoint
        assert len(store) == 1

    def test_duplicate_add_rejected(self, checkpoint):
        store = CheckpointStore()
        store.add(checkpoint)
        with pytest.raises(ValueError, match="duplicate"):
            store.add(checkpoint)

    def test_unknown_get_raises(self):
        with pytest.raises(KeyError):
            CheckpointStore().get(999999)

    def test_remove_refuses_pinned(self, checkpoint):
        store = CheckpointStore()
        store.add(checkpoint)
        checkpoint.acquire(1)
        with pytest.raises(RuntimeError, match="referenced"):
            store.remove(checkpoint.checkpoint_id)
        checkpoint.release(1)
        assert store.remove(checkpoint.checkpoint_id) is checkpoint
        assert len(store) == 0

    def test_for_function(self, checkpoint, linalg_profile):
        store = CheckpointStore()
        store.add(checkpoint)
        other = BaseCheckpoint(
            function="Other",
            node_id=0,
            image=linalg_profile.synthesize(5, content_scale=TEST_SCALE),
            owner_sandbox_id=11,
            full_size_bytes=100,
        )
        store.add(other)
        assert store.for_function("LinAlg") == [checkpoint]
        assert store.for_function("nothing") == []

    def test_iteration(self, checkpoint):
        store = CheckpointStore()
        store.add(checkpoint)
        assert list(store) == [checkpoint]

    def test_for_function_after_remove(self, checkpoint, linalg_profile):
        store = CheckpointStore()
        store.add(checkpoint)
        sibling = BaseCheckpoint(
            function="LinAlg",
            node_id=0,
            image=linalg_profile.synthesize(6, content_scale=TEST_SCALE),
            owner_sandbox_id=12,
            full_size_bytes=100,
        )
        store.add(sibling)
        store.remove(checkpoint.checkpoint_id)
        assert store.for_function("LinAlg") == [sibling]
        store.remove(sibling.checkpoint_id)
        assert store.for_function("LinAlg") == []

    def test_for_function_does_not_scan(self, checkpoint):
        """Tripwire: ``for_function`` must read the per-function index,
        never scan the whole cluster directory."""

        class ScanTrap(dict):
            def values(self):
                raise AssertionError("for_function scanned the full directory")

        store = CheckpointStore()
        store.add(checkpoint)
        store._by_id = ScanTrap(store._by_id)
        assert store.for_function("LinAlg") == [checkpoint]
        assert store.for_function("missing") == []
