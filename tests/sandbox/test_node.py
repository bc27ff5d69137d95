"""Tests for worker-node memory accounting and eviction candidates."""

from __future__ import annotations

import pytest

from repro._util import MIB
from repro.sandbox.checkpoint import BaseCheckpoint
from repro.sandbox.node import AccountingError, Node
from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState


class FakeDedupTable:
    """Minimal RetainedState: a fixed retained-bytes figure."""

    def __init__(self, retained_full_bytes: int):
        self.retained_full_bytes = retained_full_bytes


def make_sandbox(profile, node_id=0, created=0.0) -> Sandbox:
    sandbox = Sandbox(profile=profile, node_id=node_id, instance_seed=1, created_at=created)
    sandbox.transition(SandboxState.RUNNING, created)
    sandbox.transition(SandboxState.WARM, created + 1)
    return sandbox


@pytest.fixture
def node() -> Node:
    return Node(node_id=0, capacity_bytes=256 * MIB, verify_accounting=True)


class TestAccounting:
    def test_empty_node(self, node):
        assert node.used_bytes() == 0
        assert node.free_bytes() == node.capacity_bytes
        assert node.fits(node.capacity_bytes)
        assert not node.fits(node.capacity_bytes + 1)

    def test_admit_counts_memory(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile)
        node.admit(sandbox)
        assert node.used_bytes() == linalg_profile.memory_bytes

    def test_admit_wrong_node_rejected(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile, node_id=3)
        with pytest.raises(ValueError, match="targets node"):
            node.admit(sandbox)

    def test_double_admit_rejected(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile)
        node.admit(sandbox)
        with pytest.raises(ValueError, match="already"):
            node.admit(sandbox)

    def test_remove(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile)
        node.admit(sandbox)
        assert node.remove(sandbox.sandbox_id) is sandbox
        assert node.used_bytes() == 0
        with pytest.raises(KeyError):
            node.remove(sandbox.sandbox_id)


class TestIncrementalAccounting:
    """The cached counter must track footprint changes it never re-sums."""

    def test_transition_recharges_resident(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile)
        node.admit(sandbox)
        sandbox.transition(SandboxState.DEDUPING, 2.0)
        assert node.used_bytes() == linalg_profile.memory_bytes
        sandbox.dedup_table = FakeDedupTable(retained_full_bytes=3 * MIB)
        sandbox.transition(SandboxState.DEDUP, 3.0)
        assert node.used_bytes() == 3 * MIB
        sandbox.transition(SandboxState.RESTORING, 4.0)
        assert node.used_bytes() == linalg_profile.memory_bytes + 3 * MIB

    def test_removed_sandbox_transitions_do_not_charge(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile)
        node.admit(sandbox)
        node.remove(sandbox.sandbox_id)
        sandbox.transition(SandboxState.DEDUPING, 2.0)
        assert node.used_bytes() == 0

    def test_checkpoint_recharge_after_owner_leaves(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile)
        sandbox.image = linalg_profile.synthesize(1, content_scale=1 / 64, executed=True)
        checkpoint = BaseCheckpoint(
            function=linalg_profile.name,
            node_id=0,
            image=sandbox.image,
            owner_sandbox_id=sandbox.sandbox_id,
            full_size_bytes=linalg_profile.memory_bytes,
        )
        node.pin_checkpoint(checkpoint)
        cow_charge = node.used_bytes()
        checkpoint.owner_resident = False
        node.recharge_checkpoint(checkpoint.checkpoint_id)
        assert node.used_bytes() == checkpoint.memory_bytes() > cow_charge

    def test_on_used_changed_hook_fires(self, linalg_profile):
        seen: list[int] = []
        node = Node(node_id=0, capacity_bytes=256 * MIB)
        node.on_used_changed = lambda n: seen.append(n.used_bytes())
        sandbox = make_sandbox(linalg_profile)
        node.admit(sandbox)
        node.remove(sandbox.sandbox_id)
        assert seen == [linalg_profile.memory_bytes, 0]

    def test_verify_accounting_detects_drift(self, node, linalg_profile):
        sandbox = make_sandbox(linalg_profile)
        node.admit(sandbox)
        node._used += 1  # simulate a lost update
        with pytest.raises(AccountingError, match="cached used"):
            node.used_bytes()


class TestEvictionCandidates:
    def test_lru_ordering(self, node, linalg_profile):
        old = make_sandbox(linalg_profile, created=0.0)
        new = make_sandbox(linalg_profile, created=100.0)
        node.admit(new)
        node.admit(old)
        victims = node.eviction_candidates()
        assert victims == [old, new]

    def test_busy_and_base_excluded(self, node, linalg_profile):
        busy = make_sandbox(linalg_profile)
        busy.busy_request_id = 1
        base = make_sandbox(linalg_profile)
        base.is_base = True
        idle = make_sandbox(linalg_profile)
        for s in (busy, base, idle):
            node.admit(s)
        assert node.eviction_candidates() == [idle]
