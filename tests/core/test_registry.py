"""Tests for the global fingerprint registry."""

from __future__ import annotations

import pytest

from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import PageFingerprint


def fp(*digests: int) -> PageFingerprint:
    return PageFingerprint(digests=tuple(digests), offsets=tuple(range(len(digests))))


def ref(checkpoint=1, node=0, page=0) -> PageRef:
    return PageRef(checkpoint_id=checkpoint, node_id=node, page_index=page)


class TestRegistration:
    def test_register_and_lookup(self):
        registry = FingerprintRegistry()
        registry.register_page(ref(page=0), fp(1, 2, 3))
        counts = registry.lookup(fp(2, 3, 4))
        assert counts[ref(page=0)] == 2

    def test_duplicate_ref_not_double_counted(self):
        registry = FingerprintRegistry()
        registry.register_page(ref(), fp(1, 2))
        registry.register_page(ref(), fp(1, 2))
        assert registry.lookup(fp(1))[ref()] == 1

    def test_bucket_cap(self):
        registry = FingerprintRegistry(max_refs_per_digest=2)
        for page in range(5):
            registry.register_page(ref(page=page), fp(42))
        counts = registry.lookup(fp(42))
        assert len(counts) == 2

    def test_deregister_checkpoint(self):
        registry = FingerprintRegistry()
        registry.register_page(ref(checkpoint=1, page=0), fp(1, 2))
        registry.register_page(ref(checkpoint=2, page=0), fp(2, 3))
        removed = registry.deregister_checkpoint(1)
        assert removed == 2
        counts = registry.lookup(fp(1, 2, 3))
        assert ref(checkpoint=1, page=0) not in counts
        assert counts[ref(checkpoint=2, page=0)] == 2

    def test_deregister_unknown_is_noop(self):
        assert FingerprintRegistry().deregister_checkpoint(123) == 0

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            FingerprintRegistry(max_refs_per_digest=0)


class TestChooseBasePage:
    def test_none_without_candidates(self):
        registry = FingerprintRegistry()
        assert registry.choose_base_page(fp(9), local_node_id=0) is None

    def test_max_overlap_wins(self):
        registry = FingerprintRegistry()
        registry.register_page(ref(checkpoint=1, page=0), fp(1, 2, 3))
        registry.register_page(ref(checkpoint=1, page=1), fp(1, 9, 8))
        choice = registry.choose_base_page(fp(1, 2, 3, 4, 5), local_node_id=0)
        assert choice is not None
        chosen, overlap = choice
        assert chosen.page_index == 0
        assert overlap == 3

    def test_tie_prefers_local_node(self):
        registry = FingerprintRegistry()
        registry.register_page(ref(checkpoint=1, node=5, page=0), fp(1, 2))
        registry.register_page(ref(checkpoint=2, node=7, page=0), fp(1, 2))
        chosen, _ = registry.choose_base_page(fp(1, 2), local_node_id=7)
        assert chosen.node_id == 7

    def test_tie_deterministic_without_local(self):
        registry = FingerprintRegistry()
        registry.register_page(ref(checkpoint=9, node=5, page=3), fp(1, 2))
        registry.register_page(ref(checkpoint=2, node=6, page=1), fp(1, 2))
        chosen, _ = registry.choose_base_page(fp(1, 2), local_node_id=0)
        assert chosen.checkpoint_id == 2  # lowest checkpoint id


class TestAccountingAndStats:
    def test_stats_counters(self):
        registry = FingerprintRegistry()
        registry.register_page(ref(), fp(1, 2, 3))
        registry.lookup(fp(1))
        registry.lookup(fp(99))
        assert registry.stats.pages_registered == 1
        assert registry.stats.digests_registered == 3
        assert registry.stats.page_lookups == 2
        assert registry.stats.hits == 1

    def test_memory_grows_with_content(self):
        registry = FingerprintRegistry()
        empty = registry.memory_bytes()
        for page in range(10):
            registry.register_page(ref(page=page), fp(page * 10, page * 10 + 1))
        assert registry.memory_bytes() > empty
        assert registry.digest_count == 20
