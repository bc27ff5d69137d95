"""Property test: any fully-healed fault schedule leaves consistent state.

Hypothesis generates seeded :class:`FaultSchedule` instances in which
every injected fault heals before the run's tail.  After the run the
cluster is whole again and :func:`repro.invariants.check` holds — the
recovery machinery may reshuffle state, never corrupt its accounting.
"""

from __future__ import annotations

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
from repro.invariants import check
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.templates.catalog import TemplateConfig
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant, record_replica_drops

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

        assert len(report.metrics.requests) == len(ARRIVALS)
        # The cluster healed: every fault event has its heal twin.
        health = platform.faults.health
        assert not health.down_nodes
        assert not health.down_shards
        assert not health.partitioned_links
        assert all(platform.fabric.link_factor(node) == 1.0 for node in range(2))
        check(platform)


class TestCountersHoldAtEveryInstant:
    """Counters are maintained event by event; a recount only at the end
    of a run would let two mistakes cancel."""

    #: Three functions on two 96 MB nodes, node 0 dying on the way.  With
    #: templates: replica drops, eviction parks, delta spills and
    #: unspills; without: base demarcations, purges and table demotions.
    #: LinAlg at 41 s forks the delta parked at 31 s inside its
    #: keep-dedup window.
    ARRIVALS = [
        (float(at), function)
        for at, function in [
            (0, "Vanilla"), (1, "LinAlg"), (2, "FeatureGen"), (3, "Vanilla"),
            (9_000, "LinAlg"), (9_500, "Vanilla"), (18_000, "FeatureGen"),
            (18_200, "LinAlg"), (29_900, "Vanilla"), (29_950, "LinAlg"),
            (31_000, "FeatureGen"), (33_000, "Vanilla"), (41_000, "LinAlg"), (45_000, "LinAlg"),
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
            # No hot window: placement may drop any unshared replica.
            templates=TemplateConfig(hot_window_ms=0.0),
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
        instants = check_every_instant(platform)
        dropped = record_replica_drops(platform) if template_sharing else []
        report = platform.run(Trace.from_arrivals(self.ARRIVALS))
        metrics = report.metrics
        assert len(instants) > 2 * len(self.ARRIVALS)
        # The run went through what moves the counters without a
        # transition, not only through warm starts.
        assert metrics.crash_purged_sandboxes > 0
        if template_sharing:
            assert dropped
            assert metrics.template_evict_parks > 0
            assert metrics.template_delta_spills > 0
            assert metrics.template_delta_unspill_bytes > 0
        else:
            assert metrics.bases_created > 0
            assert metrics.evictions > 0
            assert metrics.table_demotions > 0
