"""End-to-end fault injection through the platform (DESIGN.md §11).

Node crashes, registry-shard outages and link faults are injected on
the simulator clock; every run must complete all requests (degradation,
never failure), reconcile refcounts, and surface the recovery in the
fault metrics (fault events, MTTR, fallback counters).  A run
returns only once every request completed; ``check`` recounts the rest.
"""

from __future__ import annotations

import pytest

from repro._util import hash_bytes
from repro.core.policy import MedesPolicyConfig
from repro.core.registry import PageRef, ShardedFingerprintRegistry
from repro.faults.schedule import (
    FaultSchedule,
    FaultsConfig,
    LinkDegradation,
    LinkPartition,
    NodeCrash,
    ShardOutage,
)
from repro.faults.injector import FaultInjector
from repro.invariants import check
from repro.memory.fingerprint import batch_page_fingerprints
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.checkpoint import BaseCheckpoint
from repro.sandbox.state import SandboxState
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0
MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def run_faulty(faults, *, arrivals, nodes=2, node_memory_mb=512.0, seed=4, **cfg):
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
    config = ClusterConfig(
        nodes=nodes,
        node_memory_mb=node_memory_mb,
        content_scale=SCALE,
        seed=seed,
        verify_restores=True,
        faults=faults,
        **cfg,
    )
    platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
    report = platform.run(Trace.from_arrivals(arrivals))
    return platform, report


#: Dedup state forms by ~10 s (idle period 5 s); the 26 s burst leaves
#: non-base warm sandboxes idling into the 30-70 s fault window, and the
#: 60 s arrivals dispatch while the faults are active.
DEDUP_WORKLOAD = [
    (0.0, "Vanilla"),
    (1.0, "Vanilla"),
    (2.0, "LinAlg"),
    (3.0, "LinAlg"),
    (26_000.0, "Vanilla"),
    (26_010.0, "Vanilla"),
    (26_020.0, "Vanilla"),
    (60_000.0, "Vanilla"),
    (61_000.0, "LinAlg"),
    (120_000.0, "Vanilla"),
]


class TestNodeCrash:
    def test_single_crash_no_request_aborts(self):
        faults = FaultsConfig(
            schedule=FaultSchedule(node_crashes=(NodeCrash(at_ms=45_000.0, node_id=1),))
        )
        platform, report = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        assert len(report.metrics.requests) == len(DEDUP_WORKLOAD)
        assert 1 in platform.faults.health.down_nodes
        # Nothing lives on (or was placed onto) the dead node.
        assert not platform.nodes[1].sandboxes
        check(platform)

    def test_crash_purges_and_reconciles(self):
        faults = FaultsConfig(
            schedule=FaultSchedule(node_crashes=(NodeCrash(at_ms=45_000.0, node_id=1),))
        )
        platform, report = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        metrics = report.metrics
        assert metrics.crash_purged_sandboxes > 0
        events = [e.kind for e in metrics.fault_events]
        assert events.count("node-crash") == 1
        assert platform.faults.health.down_nodes == {1}
        check(platform)

    def test_restart_restores_capacity_and_mttr(self):
        faults = FaultsConfig(
            schedule=FaultSchedule(
                node_crashes=(
                    NodeCrash(at_ms=45_000.0, node_id=1, restart_at_ms=75_000.0),
                )
            )
        )
        platform, report = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        metrics = report.metrics
        kinds = [e.kind for e in metrics.fault_events]
        assert kinds == ["node-crash", "node-restored"]
        assert metrics.mttr_ms() == pytest.approx(30_000.0)
        # The restarted node is usable again: post-restart requests may
        # land there.
        assert not platform.faults.health.down_nodes
        assert platform.fabric.peer_available(1)
        check(platform)

    def test_mid_restore_crash_is_survived(self):
        """Crash while restores/requests are in flight on the dead node:
        the displaced requests reschedule rather than hang the run."""
        arrivals = [(float(i * 50), "Vanilla") for i in range(8)]
        arrivals += [(40_000.0 + i * 30, "Vanilla") for i in range(6)]
        faults = FaultsConfig(
            schedule=FaultSchedule(
                # Crash exactly while the second burst is being served.
                node_crashes=(NodeCrash(at_ms=40_060.0, node_id=0),)
            )
        )
        platform, _ = run_faulty(faults, arrivals=arrivals)
        check(platform)

    def test_crash_rehomes_onto_a_same_domain_twin(self):
        """A parked sandbox whose base dies moves onto a byte-identical
        live twin: every row that named the dead base names the twin,
        the refcounts move once, and the next restore is byte-exact."""
        crash_ms = 21_000.0
        faults = FaultsConfig(
            schedule=FaultSchedule(node_crashes=(NodeCrash(at_ms=crash_ms, node_id=0),))
        )
        suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
        config = ClusterConfig(
            nodes=2,
            node_memory_mb=512.0,
            content_scale=SCALE,
            seed=4,
            verify_restores=True,
            faults=faults,
        )
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        seen: dict = {}

        def plant_twin() -> None:
            """Copy the parked Vanilla sandbox's one base (on node 0)
            onto node 1, as a base of its own in the same domain."""
            (sandbox,) = [
                s
                for s in platform.nodes[1].sandboxes.values()
                if s.state is SandboxState.DEDUP and s.function == "Vanilla"
            ]
            table = sandbox.dedup_table
            (base_id,) = table.base_refs
            base = platform.store.get(base_id)
            assert base.node_id == 0
            twin = BaseCheckpoint(
                function=base.function,
                node_id=1,
                image=base.image,
                owner_sandbox_id=base.owner_sandbox_id,
                full_size_bytes=base.full_size_bytes,
                owner_resident=False,
                domain=base.domain,
            )
            platform.basemgr.add_base(twin)
            platform.nodes[1].pin_checkpoint(twin)
            for index in range(base.image.num_pages):
                platform.registry.register_page_location(
                    PageRef(twin.checkpoint_id, 1, index),
                    hash_bytes(base.image.page_bytes(index)),
                    twin.domain,
                )
            rows = table.base_checkpoint == base_id
            seen.update(sandbox=sandbox, base=base, twin=twin)
            seen.update(moved=int(rows.sum()), pages=table.base_page[rows].copy())

        def after_crash() -> None:
            table = seen["sandbox"].dedup_table
            base, twin = seen["base"], seen["twin"]
            assert set(table.base_checkpoint.tolist()) == {twin.checkpoint_id}
            assert set(table.base_node.tolist()) == {1}
            for old, new in zip(seen["pages"].tolist(), table.base_page.tolist()):
                assert twin.image.page_bytes(new) == base.image.page_bytes(old)
            assert dict(table.base_refs) == {twin.checkpoint_id: seen["moved"]}
            seen["refcounts"] = (base.refcount, twin.refcount)

        platform.sim.at(crash_ms - 1.0, plant_twin)
        platform.sim.at(crash_ms + 0.5, after_crash)
        report = platform.run(Trace.from_arrivals(DEDUP_WORKLOAD))
        metrics = report.metrics
        assert seen["moved"] > 1
        assert seen["refcounts"] == (0, seen["moved"])
        assert metrics.restore_replica_fallbacks == 1
        # The next restore of the rehomed sandbox ran, verified.
        sandbox_id = seen["sandbox"].sandbox_id
        restored = [op for op in metrics.restore_ops if op.sandbox_id == sandbox_id]
        assert [op.started_ms for op in restored] == [26_000.0]
        check(platform)


class TestShardOutage:
    OUTAGE = FaultsConfig(
        schedule=FaultSchedule(
            shard_outages=(ShardOutage(at_ms=30_000.0, shard=0, heal_at_ms=70_000.0),)
        )
    )

    def test_warm_only_degradation_and_recovery(self):
        platform, report = run_faulty(self.OUTAGE, arrivals=DEDUP_WORKLOAD)
        metrics = report.metrics
        kinds = [e.kind for e in metrics.fault_events]
        assert kinds.count("shard-down") == 1
        assert kinds.count("shard-restored") == 1
        # From the outage until the rebuilt shard serves, the idle
        # machinery defers dedup: no op starts in between.
        down, healed = (e.time_ms for e in metrics.fault_events)
        assert not [op for op in metrics.dedup_ops if down <= op.started_ms < healed]
        # MTTR includes the charged rebuild: strictly > the raw outage.
        assert metrics.mttr_ms() > 40_000.0
        assert platform.faults.health.registry_available()
        check(platform)

    def test_registry_rebuilt_from_surviving_agents(self):
        platform, _ = run_faulty(self.OUTAGE, arrivals=DEDUP_WORKLOAD)
        # Every surviving registered base repopulates the shard: dedup
        # works again after heal, so the registry serves lookups for the
        # still-registered checkpoints' pages.
        registered = [c for c in platform.store if c.registered]
        assert registered, "run must have demarcated at least one base"
        assert platform.registry.digest_count > 0

    def test_heal_rebuilds_what_a_registry_that_never_failed_holds(self, monkeypatch):
        """Right after a shard heals, every shard's digest buckets and
        page-location entries equal those of a registry that never
        failed: the surviving bases registered page by page, each page's
        location digest its own SHA-1."""
        heal = FaultInjector._finish_shard_heal
        healed = []

        def recording_heal(injector, shard):
            heal(injector, shard)
            healed.append((_shard_tables(injector.registry), _shard_tables(_oracle(injector))))

        monkeypatch.setattr(FaultInjector, "_finish_shard_heal", recording_heal)
        run_faulty(self.OUTAGE, arrivals=DEDUP_WORKLOAD, registry_shards=4)
        ((rebuilt, oracle),) = healed
        assert rebuilt == oracle
        assert all(tables for tables in oracle)  # every shard holds base pages

    def test_dedup_resumes_after_heal(self):
        arrivals = DEDUP_WORKLOAD + [(150_000.0, "Vanilla"), (151_000.0, "LinAlg")]
        platform, report = run_faulty(self.OUTAGE, arrivals=arrivals)
        late_ops = [
            op for op in report.metrics.dedup_ops if op.started_ms > 70_000.0
        ]
        assert late_ops, "dedup must resume once the shard heals"


def _oracle(injector) -> ShardedFingerprintRegistry:
    """The surviving registered bases, registered afresh page by page."""
    config = injector.config
    registry = ShardedFingerprintRegistry(config.registry_shards, config.fingerprint)
    for checkpoint in injector.store:
        if not checkpoint.registered or checkpoint.node_id in injector.runtime.health.down_nodes:
            continue
        image = checkpoint.image
        fingerprints = batch_page_fingerprints(image.data, image.page_size, config.fingerprint)
        for index, fingerprint in enumerate(fingerprints):
            ref = PageRef(checkpoint.checkpoint_id, checkpoint.node_id, index)
            registry.register_page(ref, fingerprint, checkpoint.domain)
            page_digest = hash_bytes(image.page_bytes(index))
            registry.register_page_location(ref, page_digest, checkpoint.domain)
    return registry


def _shard_tables(registry) -> list[dict]:
    """Per shard and domain: the digest buckets and the location buckets."""
    return [
        {
            domain: (
                shard.domain_digests(domain),
                {digest: tuple(refs) for digest, refs in shard.locations.get(domain, {}).items()},
            )
            for domain in sorted({*shard.rows, *shard.locations})
        }
        for shard in registry.shards
    ]


class TestLinkFaults:
    def test_degraded_link_slows_but_never_fails(self):
        faults = FaultsConfig(
            schedule=FaultSchedule(
                link_degradations=(
                    LinkDegradation(
                        at_ms=30_000.0, peer=1, heal_at_ms=90_000.0, latency_factor=6.0
                    ),
                )
            )
        )
        platform, report = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        kinds = [e.kind for e in report.metrics.fault_events]
        assert kinds == ["link-degraded", "link-restored"]
        assert platform.fabric.link_factor(1) == 1.0
        check(platform)

    def test_partition_keeps_dedup_state_for_post_heal(self):
        """A partitioned (not crashed) base node: restores fall back but
        the dedup sandbox is NOT purged — its base state still exists."""
        faults = FaultsConfig(
            schedule=FaultSchedule(
                link_partitions=(
                    LinkPartition(at_ms=45_000.0, peer=1, heal_at_ms=100_000.0),
                )
            )
        )
        platform, report = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        # No sandbox was purged for base-unavailability: the partition
        # branch keeps them; crash-purge counters stay zero.
        assert report.metrics.crash_purged_sandboxes == 0
        check(platform)


class TestTransientRpcFaults:
    def test_retries_charged_as_latency(self):
        faults = FaultsConfig(rpc_failure_prob=0.25, seed=21)
        platform, report = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        metrics = report.metrics
        assert metrics.rpc_retries > 0
        backoff_ms = platform.faults.transients.charged_backoff_ms
        assert backoff_ms > 0.0
        charged = sum(op.retry_ms for op in metrics.dedup_ops) + sum(
            op.retry_ms for op in metrics.restore_ops
        )
        exhausted_charge = sum(
            r.retry_penalty_ms for r in metrics.requests.values()
        )
        assert charged + exhausted_charge == pytest.approx(backoff_ms)
        check(platform)

    def test_exhaustion_falls_through_not_fails(self):
        """Near-certain transient failure: every remote fetch exhausts
        its retries, yet the run completes via warm/cold fallbacks."""
        faults = FaultsConfig(rpc_failure_prob=0.95, seed=9)
        platform, _ = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        check(platform)


class TestPurgedBaseRegression:
    """Regression for the dedup-candidate fallback loop: a candidate
    whose base checkpoint died is skipped and its refcounts are released
    exactly once under the crash reconciliation (a double release would
    raise refcount underflow; a leak would fail the recount)."""

    def test_dead_base_candidate_skipped_and_released_once(self):
        faults = FaultsConfig(
            schedule=FaultSchedule(node_crashes=(NodeCrash(at_ms=45_000.0, node_id=1),))
        )
        # The 60s arrivals dispatch right after the crash: any dedup
        # candidate patched against node-1 bases must be skipped (purged
        # or re-homed), never half-released.
        platform, _ = run_faulty(faults, arrivals=DEDUP_WORKLOAD)
        # No sandbox still references a dead checkpoint.
        check(platform)

    def test_reconciliation_under_memory_pressure(self):
        faults = FaultsConfig(
            schedule=FaultSchedule(node_crashes=(NodeCrash(at_ms=45_000.0, node_id=1),))
        )
        platform, _ = run_faulty(
            faults, arrivals=DEDUP_WORKLOAD, node_memory_mb=160.0
        )
        check(platform)
