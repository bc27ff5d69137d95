"""Template-sharing fault tests (DESIGN.md §14).

The template pool lives in REMOTE_DRAM: a node crash drops that node's
fork-cache replicas but never the pool copies, so surviving (and
restarted) nodes keep forking — paying the promote again, not a cold
start.  Templatize and fork failures fall down the start ladder
(template → dedup → cold) instead of failing requests, and refcounts /
replica accounting must survive any of it.  A run returns only once
every request completed; ``check`` recounts the rest.
"""

from __future__ import annotations

from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash, ShardOutage
from repro.invariants import check
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.templates.catalog import TemplateConfig
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0
MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)

#: Parks form by ~10 s (idle period 5 s); the 40 s crash lands on live
#: template state; the 60 s and 120 s arrivals fork during and after it.
WORKLOAD = [
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
    (121_000.0, "LinAlg"),
]


def run_faulty(faults, *, arrivals=WORKLOAD, nodes=2, node_memory_mb=512.0, **cfg):
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
    config = ClusterConfig(
        nodes=nodes,
        node_memory_mb=node_memory_mb,
        content_scale=SCALE,
        seed=4,
        verify_restores=True,
        template_sharing=True,
        faults=faults,
        **cfg,
    )
    platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
    report = platform.run(Trace.from_arrivals(arrivals))
    return platform, report


class TestNodeCrash:
    CRASH = FaultsConfig(
        schedule=FaultSchedule(node_crashes=(NodeCrash(at_ms=40_000.0, node_id=1),))
    )

    def test_pool_survives_crash_replicas_do_not(self):
        platform, _ = run_faulty(self.CRASH)
        catalog = platform.templates
        # The dead node holds no replicas (and is charged for none)...
        assert catalog.replica_bytes(1) == 0
        assert platform.nodes[1].template_replica_bytes() == 0
        # ...but the remote-DRAM pool kept every published segment.
        assert len(catalog) > 0
        assert catalog.pool.used_bytes > 0
        check(platform)

    def test_forks_continue_after_crash(self):
        """Post-crash arrivals still template-fork on the survivor —
        the pool re-promotes instead of falling cold."""
        platform, report = run_faulty(self.CRASH)
        metrics = report.metrics
        # A fork is a TEMPLATE start: it starts at arrival + queued.
        forks = [
            r.arrival_ms + r.queued_ms
            for r in metrics.requests.values()
            if r.start_type is StartType.TEMPLATE
        ]
        assert forks, "workload must fork templates"
        assert [at for at in forks if at > 40_000.0], "forks must survive the crash"
        check(platform)

    def test_restart_and_repromote(self):
        """A restarted node starts replica-less and re-promotes from the
        pool on its first fork (charged, not lost)."""
        faults = FaultsConfig(
            schedule=FaultSchedule(
                node_crashes=(
                    NodeCrash(at_ms=40_000.0, node_id=1, restart_at_ms=70_000.0),
                )
            )
        )
        platform, report = run_faulty(faults)
        metrics = report.metrics
        assert metrics.template_promotions > 0
        assert metrics.template_promote_bytes > 0
        check(platform)

    def test_crash_under_memory_pressure(self):
        platform, _ = run_faulty(self.CRASH, node_memory_mb=160.0)
        check(platform)


class TestFallbackLadder:
    def test_registry_outage_still_parks_templates(self):
        """Templates need no registry: during a shard outage the idle
        ladder keeps templatizing instead of deferring everything."""
        faults = FaultsConfig(
            schedule=FaultSchedule(
                shard_outages=(ShardOutage(at_ms=30_000.0, shard=0, heal_at_ms=70_000.0),)
            )
        )
        platform, report = run_faulty(faults)
        metrics = report.metrics
        outage_parks = [
            op for op in metrics.template_ops if 30_000.0 < op.started_ms < 70_000.0
        ]
        assert outage_parks, "template parks must continue through the outage"
        check(platform)

    def test_transient_faults_fall_through_not_fail(self):
        """Near-certain transient failure on publishes and forks: the
        ladder degrades (dedup, then cold) but every request completes."""
        faults = FaultsConfig(rpc_failure_prob=0.95, seed=9)
        platform, report = run_faulty(faults)
        metrics = report.metrics
        # The fallbacks actually fired (publish and/or fork exhaustion).
        assert metrics.template_pool_rejections + metrics.template_fork_fallbacks > 0
        check(platform)

    def test_tiny_pool_falls_back_to_dedup(self):
        """A pool too small for any segment set: every templatize is
        rejected, the dedup rung takes over, nothing is stranded."""
        platform, report = run_faulty(
            FaultsConfig(), templates=TemplateConfig(pool_mb=1.0)
        )
        metrics = report.metrics
        assert metrics.template_ops == []
        assert metrics.template_pool_rejections > 0
        assert metrics.dedup_ops, "the dedup rung must take over"
        check(platform)
