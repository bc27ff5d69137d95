"""The columnar registry against the dict-of-lists one it replaced.

``OracleRegistry`` below is the registry as it was before the store
went columnar — per domain, a dict from digest to a list of refs, a
``Counter`` per looked-up page and ``min`` over a four-part key for the
selection rule — kept here as the reference.  Hypothesis drives both
through the same interleaving of registrations (whole images and single
pages), idempotent re-registrations, retirements, shard loss followed by
a rebuild, and batch lookups, then compares every answer, every bucket
(order included) and every counter.

The generated space is small on purpose, so the corner cases are the
common case: digests come from eight values (a digest repeats inside
a page, buckets fill to ``max_refs_per_digest`` and overflow, overlap
ties are everywhere), pages may sample no chunk at all, two domains
register byte-identical pages, and a ref's node is a function of its
checkpoint so the rule's four tie-break levels decide every choice.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import (
    FingerprintRegistry,
    PageRef,
    RegistryStats,
    ShardedFingerprintRegistry,
)
from repro.memory.fingerprint import FingerprintBatch, PageFingerprint, digest_arrays

DOMAINS = ("", "tenant:a")
CHECKPOINTS = range(1, 7)
NODES = 3


def domain_of(checkpoint: int) -> str:
    return DOMAINS[checkpoint % 2]


def make_ref(checkpoint: int, page: int) -> PageRef:
    return PageRef(checkpoint, checkpoint % NODES, page)


def make_fp(digests) -> PageFingerprint:
    return PageFingerprint(digests=tuple(digests), offsets=tuple(range(len(digests))))


def choice_columns(choices) -> list[list[int]]:
    """Per-query ``(ref, overlap)`` or ``None`` choices as the columns
    ``choose_base_pages`` returns: position, checkpoint, node, base page
    and overlap of each query that got a base."""
    rows = [
        (at, choice[0].checkpoint_id, choice[0].node_id, choice[0].page_index, choice[1])
        for at, choice in enumerate(choices)
        if choice is not None
    ]
    return [list(column) for column in zip(*rows)] or [[] for _ in range(5)]


def as_lists(choices) -> list[list[int]]:
    return [column.tolist() for column in choices]


class OracleRegistry:
    """The pre-columnar registry: buckets are Python lists."""

    def __init__(self, n_shards: int, cap: int, batch_distinct_lookups: bool):
        self.n_shards = n_shards
        self.cap = cap
        self.batch_distinct_lookups = batch_distinct_lookups
        self.partitions: dict[str, dict[int, list[PageRef]]] = {}
        self.claims: dict[int, str] = {}
        self.stats = RegistryStats()

    def register_page(self, ref: PageRef, fingerprint: PageFingerprint, domain: str) -> int:
        stored = 0
        for digest in fingerprint.digest_set:
            self.claims.setdefault(ref.checkpoint_id, domain)
            bucket = self.partitions.setdefault(domain, {}).setdefault(digest, [])
            if ref in bucket or len(bucket) >= self.cap:
                continue
            bucket.append(ref)
            stored += 1
        self.stats.pages_registered += 1
        self.stats.digests_registered += stored
        return stored

    def _prune(self, keep) -> int:
        removed = 0
        for domain in list(self.partitions):
            buckets = self.partitions[domain]
            for digest in list(buckets):
                kept = [ref for ref in buckets[digest] if keep(digest, ref)]
                removed += len(buckets[digest]) - len(kept)
                if kept:
                    buckets[digest] = kept
                else:
                    del buckets[digest]
            if not buckets:
                del self.partitions[domain]
        return removed

    def deregister_checkpoint(self, checkpoint: int) -> int:
        self.claims.pop(checkpoint, None)
        return self._prune(lambda digest, ref: ref.checkpoint_id != checkpoint)

    def drop_shard(self, index: int) -> None:
        self._prune(lambda digest, ref: digest % self.n_shards != index)

    def lookup_batch(self, fingerprints, domain: str) -> list[Counter]:
        buckets = self.partitions.get(domain, {})
        results = []
        for fingerprint in fingerprints:
            counts: Counter = Counter()
            for digest in fingerprint.digest_set:
                counts.update(buckets.get(digest, ()))
            self.stats.page_lookups += 1
            self.stats.hits += bool(counts)
            if not self.batch_distinct_lookups:
                self.stats.digest_lookups += len(fingerprint.digest_set)
            results.append(counts)
        if self.batch_distinct_lookups:
            self.stats.digest_lookups += len(
                set().union(*(fp.digest_set for fp in fingerprints))
            )
        return results

    @staticmethod
    def best(counts: Counter, local_node_id: int):
        if not counts:
            return None
        return min(
            counts.items(),
            key=lambda item: (
                -item[1],
                item[0].node_id != local_node_id,
                item[0].checkpoint_id,
                item[0].page_index,
            ),
        )

    def domain_digests(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        return {d: tuple(refs) for d, refs in self.partitions.get(domain, {}).items()}

    @property
    def digest_count(self) -> int:
        return sum(len(buckets) for buckets in self.partitions.values())

    def memory_bytes(self) -> int:
        refs = sum(len(b) for buckets in self.partitions.values() for b in buckets.values())
        return self.digest_count * 8 + refs * 12


digest_lists = st.lists(st.integers(0, 7), min_size=0, max_size=5)
images = st.lists(st.tuples(st.integers(0, 3), digest_lists), min_size=1, max_size=6)
registrations = st.tuples(
    st.just("register"), st.sampled_from(CHECKPOINTS), images, st.booleans()
)
lookups = st.tuples(
    st.just("lookup"),
    st.lists(digest_lists, min_size=1, max_size=6),
    st.integers(0, NODES - 1),
    st.sampled_from(DOMAINS),
    st.booleans(),
)
#: A populated registry first (so the lookups that follow find crowded
#: buckets and tied candidates), then any interleaving.
operations = st.builds(
    lambda head, tail: head + tail,
    st.lists(registrations, min_size=4, max_size=8),
    st.lists(
        st.one_of(
            registrations,
            lookups,
            lookups,
            st.tuples(st.just("retire"), st.sampled_from(CHECKPOINTS)),
            st.tuples(st.just("lose-shard"), st.integers(0, 3)),
        ),
        min_size=2,
        max_size=10,
    ),
)


def register(registry, checkpoint: int, image, batched: bool) -> int:
    refs = [make_ref(checkpoint, page) for page, _ in image]
    fingerprints = [make_fp(digests) for _, digests in image]
    domain = domain_of(checkpoint)
    if batched and not isinstance(registry, OracleRegistry):
        return registry.register_pages(refs, fingerprints, domain)
    return sum(
        registry.register_page(ref, fingerprint, domain)
        for ref, fingerprint in zip(refs, fingerprints)
    )


def replay(registry, oracle, ops, compare_digest_lookups: bool = True) -> None:
    """Apply ``ops`` to both registries, comparing every answer."""
    live: list[tuple[int, list]] = []
    for op in ops:
        if op[0] == "register":
            _, checkpoint, image, batched = op
            live.append((checkpoint, image))
            assert register(registry, checkpoint, image, batched) == register(
                oracle, checkpoint, image, batched
            )
        elif op[0] == "retire":
            live = [entry for entry in live if entry[0] != op[1]]
            assert registry.deregister_checkpoint(op[1]) == oracle.deregister_checkpoint(op[1])
        elif op[0] == "lose-shard":
            shard = op[1] % oracle.n_shards
            registry.drop_shard(shard)
            oracle.drop_shard(shard)
            # The heal replay: every surviving registration again, in
            # order; shards that lost nothing absorb it as no-ops.
            for checkpoint, image in live:
                assert register(registry, checkpoint, image, True) == register(
                    oracle, checkpoint, image, True
                )
        else:
            _, pages, local, domain, as_batch = op
            fingerprints = [make_fp(digests) for digests in pages]
            if as_batch:
                digests, counts = digest_arrays(fingerprints)
                fingerprints = FingerprintBatch(digests, np.zeros(len(digests), np.int64), counts)
            expected = oracle.lookup_batch(fingerprints, domain)
            assert registry.lookup_batch(fingerprints, domain) == expected
            oracle.lookup_batch(fingerprints, domain)
            assert as_lists(registry.choose_base_pages(fingerprints, local, domain)) == (
                choice_columns([oracle.best(counts, local) for counts in expected])
            )
        for domain in DOMAINS:
            assert registry.domain_digests(domain) == oracle.domain_digests(domain)
        assert registry.domains() == tuple(sorted(oracle.partitions))
        assert registry.digest_count == oracle.digest_count
        assert registry.memory_bytes() == oracle.memory_bytes()
        for checkpoint in CHECKPOINTS:
            assert registry.checkpoint_domain(checkpoint) == oracle.claims.get(checkpoint)
        if not compare_digest_lookups:
            oracle.stats.digest_lookups = registry.stats.digest_lookups
        assert registry.stats == oracle.stats


@settings(max_examples=120, deadline=None)
@given(ops=operations, cap=st.integers(1, 3))
def test_plain_registry_matches_the_dict_registry(ops, cap):
    replay(
        FingerprintRegistry(max_refs_per_digest=cap),
        OracleRegistry(1, cap, batch_distinct_lookups=False),
        ops,
    )


@settings(max_examples=120, deadline=None)
@given(ops=operations, cap=st.integers(1, 3), n_shards=st.integers(1, 4))
def test_sharded_registry_matches_the_dict_registry(ops, cap, n_shards):
    replay(
        ShardedFingerprintRegistry(n_shards, max_refs_per_digest=cap),
        OracleRegistry(n_shards, cap, batch_distinct_lookups=True),
        ops,
    )


@settings(max_examples=60, deadline=None)
@given(ops=operations, cap=st.integers(1, 3))
def test_one_shard_agrees_with_plain_but_for_digest_lookups(ops, cap):
    """``ShardedFingerprintRegistry(1)`` is the plain registry except for
    the documented digest-level rule: it counts each distinct digest of
    a batch once, the plain registry once per page holding it."""
    plain = FingerprintRegistry(max_refs_per_digest=cap)
    single = ShardedFingerprintRegistry(1, max_refs_per_digest=cap)
    for registry in (plain, single):
        replay(
            registry,
            OracleRegistry(1, cap, batch_distinct_lookups=False),
            ops,
            compare_digest_lookups=registry is plain,
        )
    assert single.stats.digest_lookups <= plain.stats.digest_lookups
    single.stats.digest_lookups = plain.stats.digest_lookups
    assert single.stats == plain.stats


def test_a_lookup_cannot_see_another_domains_identical_page():
    registry = ShardedFingerprintRegistry(2)
    registry.register_page(make_ref(1, 0), make_fp([1, 2, 3]), "tenant:a")
    registry.register_page(make_ref(2, 0), make_fp([1, 2, 3]), "tenant:b")
    for domain, checkpoint in (("tenant:a", 1), ("tenant:b", 2)):
        choices = registry.choose_base_pages([make_fp([1, 2, 3])], 0, domain)
        assert as_lists(choices) == choice_columns([(make_ref(checkpoint, 0), 3)])
    assert as_lists(registry.choose_base_pages([make_fp([1, 2, 3])], 0, "")) == (
        choice_columns([None])
    )


def test_a_retired_checkpoints_ids_are_reused_without_aliasing():
    """Ref ids are recycled: a ref registered after a retirement must
    never be confused with the retired ref whose id it took."""
    registry = FingerprintRegistry()
    registry.register_page(make_ref(1, 0), make_fp([5, 6]))
    registry.register_page(make_ref(2, 0), make_fp([6, 7]))
    registry.deregister_checkpoint(1)
    registry.register_page(make_ref(3, 9), make_fp([5]))
    assert registry.lookup(make_fp([5, 6, 7])) == {make_ref(2, 0): 2, make_ref(3, 9): 1}


@pytest.mark.parametrize("make", [FingerprintRegistry, lambda c: ShardedFingerprintRegistry(2, c)])
def test_wide_digests_are_refused_at_construction(make):
    from repro.memory.fingerprint import FingerprintConfig

    with pytest.raises(ValueError, match="digest_bits"):
        make(FingerprintConfig(digest_bits=128))
