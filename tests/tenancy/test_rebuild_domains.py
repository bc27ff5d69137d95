"""Shard loss + rebuild must reconstruct per-domain partitions exactly.

Satellite of DESIGN.md §15: ``drop_shard`` wipes one shard's tables
(including its slice of every domain partition), and the heal path
re-registers surviving checkpoints *under their recorded domains*.  The
recount property compares the rebuilt sharded registry against a plain
registry that never lost anything: domain membership, bucket contents,
replica indexes and digest counts must all match, for every domain.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import stable_seed
from repro.core.policy import MedesPolicyConfig
from repro.core.registry import (
    FingerprintRegistry,
    PageRef,
    ShardedFingerprintRegistry,
)
from repro.faults.schedule import FaultSchedule, FaultsConfig, ShardOutage
from repro.invariants import check
from repro.memory.fingerprint import PageFingerprint
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

DOMAINS = ("", "tenant:a", "tenant:b", "group:ml")


@st.composite
def registrations(draw):
    """(checkpoint_id, domain, digests, page_digest) tuples; each
    checkpoint belongs to exactly one domain (the registry invariant)."""
    n_checkpoints = draw(st.integers(1, 8))
    domain_of = {
        cid: draw(st.sampled_from(DOMAINS)) for cid in range(1, n_checkpoints + 1)
    }
    entries = []
    for cid, domain in domain_of.items():
        pages = draw(st.integers(1, 3))
        for page in range(pages):
            digests = tuple(
                stable_seed("digest", draw(st.integers(0, 40)), i) for i in range(4)
            )
            page_digest = stable_seed("content", draw(st.integers(0, 10)))
            entries.append((cid, domain, page, digests, page_digest))
    return entries


def fp(digests) -> PageFingerprint:
    return PageFingerprint(digests=tuple(digests), offsets=tuple(range(len(digests))))


def populate(registry, entries):
    for cid, domain, page, digests, page_digest in entries:
        ref = PageRef(checkpoint_id=cid, node_id=cid % 3, page_index=page)
        registry.register_page(ref, fp(digests), domain)
        registry.register_page_location(ref, page_digest, domain)


def assert_domain_parity(sharded, plain):
    assert sharded.domains() == plain.domains()
    assert sharded.digest_count == plain.digest_count
    for domain in plain.domains():
        assert sharded.domain_digests(domain) == plain.domain_digests(domain)
        assert sharded.domain_locations(domain) == plain.domain_locations(domain)


class TestRebuildRecount:
    @settings(max_examples=25, deadline=None)
    @given(entries=registrations(), n_shards=st.sampled_from([2, 3, 5]), lost=st.integers(0, 4))
    def test_rebuild_restores_every_domain_partition(self, entries, n_shards, lost):
        plain = FingerprintRegistry()
        sharded = ShardedFingerprintRegistry(n_shards)
        populate(plain, entries)
        populate(sharded, entries)
        assert_domain_parity(sharded, plain)
        # Page- and digest-level stats agree between variants while both
        # are intact (the PR-1 discipline, now under domains).
        assert sharded.stats.pages_registered == plain.stats.pages_registered
        assert sharded.stats.digests_registered == plain.stats.digests_registered

        sharded.drop_shard(lost % n_shards)
        # The heal replay: every surviving checkpoint re-registers under
        # its original domain; untouched shards absorb it idempotently.
        populate(sharded, entries)
        assert_domain_parity(sharded, plain)
        for cid, domain, _, _, _ in entries:
            assert sharded.checkpoint_domain(cid) == domain

    @settings(max_examples=15, deadline=None)
    @given(entries=registrations())
    def test_replica_routing_survives_shard_loss(self, entries):
        """The sharded front-end's location routes are not shard state:
        after a drop + rebuild, ``replicas_for`` answers match a plain
        registry's for every registered ref."""
        plain = FingerprintRegistry()
        sharded = ShardedFingerprintRegistry(3)
        populate(plain, entries)
        populate(sharded, entries)
        sharded.drop_shard(1)
        populate(sharded, entries)
        for cid, domain, page, _, _ in entries:
            ref = PageRef(checkpoint_id=cid, node_id=cid % 3, page_index=page)
            assert sharded.replicas_for(ref) == plain.replicas_for(ref)


class TestRebuildUnderDomainsEndToEnd:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_healed_outage_rebuilds_domain_partitions(self, shards):
        """A mid-run shard outage under per-tenant domains: after heal,
        every registered checkpoint's pages are back in its own (and
        only its own) partition, and the whole system recounts."""
        suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
        trace = Trace.from_arrivals(
            [
                (0.0, "Vanilla", "alice"),
                (1.0, "Vanilla", "alice"),
                (2.0, "LinAlg", "bob"),
                (3.0, "LinAlg", "bob"),
                (60_000.0, "Vanilla", "alice"),
                (61_000.0, "LinAlg", "bob"),
                (120_000.0, "Vanilla", "alice"),
            ]
        )
        config = ClusterConfig(
            nodes=2,
            node_memory_mb=512.0,
            content_scale=1.0 / 256.0,
            seed=4,
            registry_shards=shards,
            verify_restores=True,
            dedup_domains=TenantConfig(mode=DedupDomainMode.PER_TENANT),
            faults=FaultsConfig(
                schedule=FaultSchedule(
                    shard_outages=(
                        ShardOutage(at_ms=30_000.0, shard=0, heal_at_ms=50_000.0),
                    )
                )
            ),
        )
        platform = build_platform(
            PlatformKind.MEDES,
            config,
            suite,
            medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
        )
        report = platform.run(trace)
        kinds = [event.kind for event in report.metrics.fault_events]
        assert kinds.count("shard-restored") == 1  # rebuilt, then healed
        assert report.metrics.cross_domain_replica_skips == 0
        # The rebuilt partitions hold every registered base again, each
        # under its function's tenant; check() proves them pure.
        function_domain = {"Vanilla": "tenant:alice", "LinAlg": "tenant:bob"}
        registered = [c for c in platform.store if c.registered]
        assert registered, "the run must leave live bases to recount"
        for checkpoint in registered:
            assert checkpoint.domain == function_domain[checkpoint.function]
            owned = platform.registry.domain_digests(checkpoint.domain).values()
            assert checkpoint.checkpoint_id in {ref.checkpoint_id for refs in owned for ref in refs}
        check(platform)
