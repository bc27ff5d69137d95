"""Property test: any fully-healed fault schedule leaves consistent state.

Hypothesis generates seeded :class:`FaultSchedule` instances in which
every injected fault heals before the run's tail.  After the run,
registry refcounts, node used-bytes counters and the indexed control
plane's census must all match a from-scratch recount — the recovery
machinery may reshuffle state, never corrupt its accounting (reuses the
PR-2 equivalence discipline of recounting everything the indexes cache).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import (
    FaultSchedule,
    FaultsConfig,
    LinkDegradation,
    LinkPartition,
    NodeCrash,
    ShardOutage,
)
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.state import SandboxState
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

FUNCTIONS = ("Vanilla", "LinAlg")
#: All faults are injected and healed inside the trace's active window,
#: so by run end the cluster is whole again.
FAULT_WINDOW_MS = (10_000.0, 80_000.0)

times = st.floats(min_value=FAULT_WINDOW_MS[0], max_value=FAULT_WINDOW_MS[1] - 1.0)


@st.composite
def healed_schedules(draw):
    crashes = []
    if draw(st.booleans()):
        at = draw(times)
        heal = draw(st.floats(min_value=at + 1.0, max_value=FAULT_WINDOW_MS[1]))
        crashes.append(
            NodeCrash(at_ms=at, node_id=draw(st.integers(0, 1)), restart_at_ms=heal)
        )
    outages = []
    if draw(st.booleans()):
        at = draw(times)
        heal = draw(st.floats(min_value=at + 1.0, max_value=FAULT_WINDOW_MS[1]))
        outages.append(ShardOutage(at_ms=at, shard=0, heal_at_ms=heal))
    degradations, partitions = [], []
    link_kind = draw(st.sampled_from(["none", "degrade", "partition"]))
    if link_kind != "none":
        at = draw(times)
        heal = draw(st.floats(min_value=at + 1.0, max_value=FAULT_WINDOW_MS[1]))
        peer = draw(st.integers(0, 1))
        if link_kind == "degrade":
            degradations.append(
                LinkDegradation(at_ms=at, peer=peer, heal_at_ms=heal, latency_factor=5.0)
            )
        else:
            partitions.append(LinkPartition(at_ms=at, peer=peer, heal_at_ms=heal))
    return FaultSchedule(
        node_crashes=tuple(crashes),
        shard_outages=tuple(outages),
        link_degradations=tuple(degradations),
        link_partitions=tuple(partitions),
    )


fault_configs = st.builds(
    FaultsConfig,
    schedule=healed_schedules(),
    rpc_failure_prob=st.sampled_from([0.0, 0.1]),
    seed=st.integers(0, 2**16),
)

ARRIVALS = [
    (0.0, "Vanilla"),
    (1.0, "Vanilla"),
    (2.0, "LinAlg"),
    (40_000.0, "Vanilla"),
    (41_000.0, "LinAlg"),
    (95_000.0, "Vanilla"),
    (96_000.0, "LinAlg"),
]


def reclaimable_recount(node) -> int:
    """What evicting every idle non-base resident would free, from the
    definition (not through ``Sandbox.evictable``)."""
    return sum(
        sandbox.memory_bytes()
        for sandbox in node.sandboxes.values()
        if not sandbox.is_base
        and sandbox.busy_request_id is None
        and sandbox.state in (SandboxState.WARM, SandboxState.DEDUP)
    )


def run_with(faults):
    suite = FunctionBenchSuite.subset(list(FUNCTIONS))
    config = ClusterConfig(
        nodes=2,
        node_memory_mb=256.0,
        content_scale=1.0 / 256.0,
        seed=5,
        verify_restores=True,
        faults=faults,
    )
    platform = build_platform(
        PlatformKind.MEDES,
        config,
        suite,
        medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
    )
    report = platform.run(Trace.from_arrivals(ARRIVALS))
    return platform, report


class TestHealedRunsAreConsistent:
    @settings(max_examples=12, deadline=None)
    @given(fault_configs)
    def test_full_recount_matches(self, faults):
        platform, report = run_with(faults)

        # 1. Every request completed (no run aborts under faults).
        assert len(report.metrics.requests) == len(ARRIVALS)
        for record in report.metrics.requests.values():
            assert record.completion_ms is not None

        # 2. The cluster healed: every fault event has its heal twin.
        health = platform.faults.health
        assert not health.down_nodes
        assert not health.down_shards
        assert not health.degraded_links and not health.partitioned_links

        # 3. Registry refcounts match a from-scratch recount over every
        #    surviving dedup table.
        expected: Counter[int] = Counter()
        for node in platform.nodes:
            for sandbox in node.sandboxes.values():
                if sandbox.dedup_table is not None:
                    expected.update(sandbox.dedup_table.base_refs)
        for checkpoint in platform.store:
            assert checkpoint.refcount == expected.get(checkpoint.checkpoint_id, 0)
            assert checkpoint.refcount >= 0

        # 4. Node used-bytes and reclaimable-bytes counters match the
        #    per-resident recount.
        for node in platform.nodes:
            recount = sum(s.memory_bytes() for s in node.sandboxes.values())
            recount += sum(c.memory_bytes() for c in node.checkpoints.values())
            assert node.used_bytes() == recount
            assert node.reclaimable_bytes() == reclaimable_recount(node)

        # 5. The indexed control plane's census matches a full rescan.
        controller = platform.controller
        warm = dedup = total = 0
        live_recount: Counter[str] = Counter()
        dedup_recount: Counter[str] = Counter()
        live_states = {
            SandboxState.WARM,
            SandboxState.RUNNING,
            SandboxState.DEDUPING,
            SandboxState.DEDUP,
            SandboxState.RESTORING,
        }
        for node in platform.nodes:
            for sandbox in node.sandboxes.values():
                total += 1
                if sandbox.state in (SandboxState.WARM, SandboxState.RUNNING):
                    warm += 1
                elif sandbox.state in (SandboxState.DEDUP, SandboxState.DEDUPING):
                    dedup += 1
                if sandbox.state in live_states:
                    live_recount[sandbox.function] += 1
                if sandbox.state in (SandboxState.DEDUP, SandboxState.DEDUPING):
                    dedup_recount[sandbox.function] += 1
        assert controller.sandbox_census() == (warm, dedup, total)
        live_counts, dedup_counts = controller.live_counts()
        assert {f: n for f, n in live_counts.items() if n} == dict(live_recount)
        assert {f: n for f, n in dedup_counts.items() if n} == dict(dedup_recount)


class TestCountersHoldAtEveryInstant:
    """The node counters are maintained event by event; a recount only
    at the end of a run would let two mistakes cancel."""

    #: Three functions on two 96 MB nodes, node 0 dying on the way.  With
    #: templates: eviction parks, delta spills and unspills; without:
    #: base demarcations, purges and table demotions.
    ARRIVALS = [
        (float(at), function)
        for at, function in [
            (0, "Vanilla"), (1, "LinAlg"), (2, "FeatureGen"), (3, "Vanilla"),
            (9_000, "LinAlg"), (9_500, "Vanilla"), (18_000, "FeatureGen"),
            (18_200, "LinAlg"), (29_900, "Vanilla"), (29_950, "LinAlg"),
            (31_000, "FeatureGen"), (33_000, "Vanilla"), (45_000, "LinAlg"),
            (46_000, "FeatureGen"), (60_000, "Vanilla"), (61_000, "LinAlg"),
            (90_000, "FeatureGen"), (120_000, "Vanilla"),
        ]
    ]

    @pytest.mark.parametrize("template_sharing", [True, False])
    def test_tiering_templates_and_a_crash(self, template_sharing):
        suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen"])
        config = ClusterConfig(
            nodes=2,
            node_memory_mb=96.0,
            content_scale=1.0 / 256.0,
            seed=5,
            verify_restores=True,
            checkpoint_tiering=True,
            template_sharing=template_sharing,
            faults=FaultsConfig(
                schedule=FaultSchedule(
                    node_crashes=(
                        NodeCrash(at_ms=30_000.0, node_id=0, restart_at_ms=40_000.0),
                    )
                ),
                rpc_failure_prob=0.05,
                seed=2,
            ),
        )
        platform = build_platform(
            PlatformKind.MEDES,
            config,
            suite,
            # Parked tables outlive their keep-dedup window here, so the
            # tiering run demotes them to SSD and restores promote them.
            medes=MedesPolicyConfig(
                idle_period_ms=5_000.0, alpha=25.0, keep_dedup_ms=12_000.0
            ),
        )
        sim = platform.sim
        run_until = sim.run_until
        instants = 0

        def run_until_instant_by_instant(end: float) -> None:
            nonlocal instants
            while sim._heap and sim._heap[0][0] <= end:
                run_until(sim._heap[0][0])
                instants += 1
                for node in platform.nodes:
                    assert node.used_bytes() == node.recomputed_used_bytes()
                    assert node.reclaimable_bytes() == reclaimable_recount(node)
                    assert node.recomputed_reclaimable_bytes() == reclaimable_recount(node)
            run_until(end)

        sim.run_until = run_until_instant_by_instant
        report = platform.run(Trace.from_arrivals(self.ARRIVALS))
        metrics = report.metrics
        assert instants > 2 * len(self.ARRIVALS)
        assert all(r.completion_ms is not None for r in metrics.requests.values())
        # The run went through what moves the counters without a
        # transition, not only through warm starts.
        assert metrics.crash_purged_sandboxes > 0
        if template_sharing:
            assert metrics.template_evict_parks > 0
            assert metrics.template_delta_spills > 0
            assert metrics.template_delta_unspill_bytes > 0
        else:
            assert metrics.bases_created > 0
            assert metrics.evictions > 0
            assert metrics.table_demotions > 0
