"""Tests for base-sandbox management (D/B > T demarcation, refcounts)."""

from __future__ import annotations

import pytest

from repro.core.basemgr import BaseSandboxManager
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from tests.conftest import TEST_SCALE


@pytest.fixture
def store() -> CheckpointStore:
    return CheckpointStore()


def make_checkpoint(profile, function="LinAlg", seed=1) -> BaseCheckpoint:
    return BaseCheckpoint(
        function=function,
        node_id=0,
        image=profile.synthesize(seed, content_scale=TEST_SCALE),
        owner_sandbox_id=seed,
        full_size_bytes=profile.memory_bytes,
    )


class TestDemarcation:
    def test_first_dedup_needs_base(self, store):
        manager = BaseSandboxManager(store)
        assert manager.needs_new_base("LinAlg")

    def test_no_new_base_below_threshold(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        manager.add_base(make_checkpoint(linalg_profile))
        for _ in range(40):
            manager.note_dedup("LinAlg", +1)
        assert not manager.needs_new_base("LinAlg")  # D/B == 40, not > 40

    def test_new_base_above_threshold(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        manager.add_base(make_checkpoint(linalg_profile))
        for _ in range(41):
            manager.note_dedup("LinAlg", +1)
        assert manager.needs_new_base("LinAlg")

    def test_second_base_resets_ratio(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        manager.add_base(make_checkpoint(linalg_profile, seed=1))
        for _ in range(41):
            manager.note_dedup("LinAlg", +1)
        manager.add_base(make_checkpoint(linalg_profile, seed=2))
        assert not manager.needs_new_base("LinAlg")  # 41 / 2 < 40

    def test_functions_tracked_independently(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        manager.add_base(make_checkpoint(linalg_profile, function="A", seed=1))
        assert manager.needs_new_base("B")
        assert not manager.needs_new_base("A")


class TestBookkeeping:
    def test_counts(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        checkpoint = make_checkpoint(linalg_profile)
        manager.add_base(checkpoint)
        manager.note_dedup("LinAlg", +1)
        assert manager.base_count("LinAlg") == 1
        assert manager.dedup_count("LinAlg") == 1
        assert manager.bases_for("LinAlg") == [checkpoint]
        assert checkpoint.registered

    def test_negative_dedup_count_raises(self, store):
        manager = BaseSandboxManager(store)
        with pytest.raises(RuntimeError, match="negative"):
            manager.note_dedup("X", -1)

    def test_add_base_registers_in_store(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        checkpoint = make_checkpoint(linalg_profile)
        manager.add_base(checkpoint)
        assert store.get(checkpoint.checkpoint_id) is checkpoint

    def test_remove_base_idempotent(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        checkpoint = make_checkpoint(linalg_profile)
        manager.add_base(checkpoint)
        manager.remove_base(checkpoint)
        manager.remove_base(checkpoint)  # no error
        assert manager.base_count("LinAlg") == 0

    def test_all_bases(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        a = make_checkpoint(linalg_profile, function="A", seed=1)
        b = make_checkpoint(linalg_profile, function="B", seed=2)
        manager.add_base(a)
        manager.add_base(b)
        assert set(manager.all_bases()) == {a, b}


class TestRetirement:
    def test_retire_unreferenced_keeps_minimum(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        first = make_checkpoint(linalg_profile, seed=1)
        second = make_checkpoint(linalg_profile, seed=2)
        manager.add_base(first)
        manager.add_base(second)
        retired = manager.retire_unreferenced("LinAlg", keep=1)
        assert retired == [first]
        assert manager.base_count("LinAlg") == 1

    def test_pinned_bases_survive_retirement(self, store, linalg_profile):
        manager = BaseSandboxManager(store)
        first = make_checkpoint(linalg_profile, seed=1)
        second = make_checkpoint(linalg_profile, seed=2)
        first.acquire(1)
        manager.add_base(first)
        manager.add_base(second)
        retired = manager.retire_unreferenced("LinAlg", keep=1)
        assert retired == [second]
        assert manager.bases_for("LinAlg") == [first]
