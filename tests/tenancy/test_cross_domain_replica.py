"""Replica rehoming must never cross a dedup-domain boundary (§15).

Two layers of defence, each pinned here:

* **Structural** — the replica index is partitioned by domain, so under
  a node crash a dedup sandbox whose base died can only ever rehome
  onto a same-domain byte-identical replica.  A crash run under
  per-tenant domains completes with zero cross-domain skips because
  foreign replicas are simply invisible.
* **Defence in depth** — ``ClusterController._replica_for`` re-checks
  the candidate checkpoint's recorded domain against the requester's.
  If the partition is ever bypassed (simulated here by hand-planting a
  byte-identical foreign checkpoint into the victim's partition, the
  kind of state a poisoned or corrupted index would hold), the replica
  is skipped and counted, rehoming fails, and the sandbox falls down
  the ladder to purge → cold instead of silently merging two tenants'
  memory.
"""

from __future__ import annotations

from repro._util import hash_bytes
from repro.core.policy import MedesPolicyConfig
from repro.core.registry import PageRef
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.invariants import check
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.checkpoint import BaseCheckpoint
from repro.sandbox.state import SandboxState
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0
MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)

#: Bursts that form dedup state before the fault window (mirrors the
#: fault-injection suite's DEDUP_WORKLOAD, with tenant labels).
ARRIVALS = [
    (0.0, "Vanilla", "alice"),
    (1.0, "Vanilla", "alice"),
    (2.0, "LinAlg", "bob"),
    (3.0, "LinAlg", "bob"),
    (26_000.0, "Vanilla", "alice"),
    (26_010.0, "Vanilla", "alice"),
    (60_000.0, "Vanilla", "alice"),
    (61_000.0, "LinAlg", "bob"),
    (120_000.0, "Vanilla", "alice"),
]


def run_crash(dedup_domains):
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
    config = ClusterConfig(
        nodes=2,
        node_memory_mb=512.0,
        content_scale=SCALE,
        seed=4,
        verify_restores=True,
        dedup_domains=dedup_domains,
        faults=FaultsConfig(
            schedule=FaultSchedule(node_crashes=(NodeCrash(at_ms=45_000.0, node_id=1),))
        ),
    )
    platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
    report = platform.run(Trace.from_arrivals(ARRIVALS))
    return platform, report


class TestStructuralPartition:
    def test_crash_recovery_never_crosses_domains(self):
        platform, report = run_crash(TenantConfig(mode=DedupDomainMode.PER_TENANT))
        # The partition kept foreign replicas invisible: recovery ran
        # (reconciliation, possibly rehomes) without a single candidate
        # even reaching the domain check.
        assert report.metrics.cross_domain_replica_skips == 0
        check(platform)


class TestDefenceInDepth:
    def _dedup_sandbox(self, platform):
        for node in platform.nodes:
            for sandbox in node.sandboxes.values():
                if (
                    sandbox.state is SandboxState.DEDUP
                    and sandbox.dedup_table is not None
                    and getattr(sandbox.dedup_table, "base_refs", None)
                ):
                    return sandbox
        raise AssertionError("run produced no parked dedup sandbox")

    def test_planted_foreign_replica_is_skipped_not_leaked(self):
        """Poisoned replica index: a byte-identical checkpoint of another
        tenant planted inside the victim's partition must be skipped
        (and counted), so rehoming fails and the purge → cold path runs
        instead of merging the tenants' memory."""
        # A clean (no-crash) per-tenant run that leaves a parked dedup
        # sandbox behind.
        suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
        config = ClusterConfig(
            nodes=2,
            node_memory_mb=512.0,
            content_scale=SCALE,
            seed=4,
            dedup_domains=TenantConfig(mode=DedupDomainMode.PER_TENANT),
            # A benign fault config arms the recovery machinery (health
            # tracking) without injecting anything.
            faults=FaultsConfig(schedule=FaultSchedule()),
        )
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        platform.run(Trace.from_arrivals(ARRIVALS[:6]))
        controller = platform.controller
        sandbox = self._dedup_sandbox(platform)
        base_id = next(iter(sandbox.dedup_table.base_refs))
        base = platform.store.get(base_id)
        assert base.domain == sandbox.domain

        # Plant a byte-identical copy of the base, owned by another
        # tenant, directly into the victim's replica partition — the
        # structural invariant the index normally guarantees is now
        # violated on purpose.
        foreign = BaseCheckpoint(
            function=base.function,
            node_id=base.node_id,
            image=base.image,
            owner_sandbox_id=base.owner_sandbox_id,
            full_size_bytes=base.full_size_bytes,
            domain="tenant:mallory",
        )
        platform.store.add(foreign)
        for index in range(base.image.num_pages):
            platform.registry.register_page_location(
                PageRef(foreign.checkpoint_id, foreign.node_id, index),
                hash_bytes(base.image.page_bytes(index)),
                sandbox.domain,
            )

        # The victim's base dies; the planted twin is the only replica.
        dead = {base_id}
        skips_before = controller.metrics.cross_domain_replica_skips
        table = sandbox.dedup_table
        row = table.base_checkpoint.tolist().index(base_id)
        entry_base = PageRef(base_id, int(table.base_node[row]), int(table.base_page[row]))
        assert (
            controller._replica_for(entry_base, dead, sandbox.node_id, sandbox.domain)
            is None
        )
        assert controller.metrics.cross_domain_replica_skips > skips_before
        # And the full rehome attempt fails with it: the caller's next
        # rung is purge → cold, never the foreign page.
        assert controller._try_rehome(sandbox, dead) is False
