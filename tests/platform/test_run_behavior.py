"""Tests for Platform.run() mechanics: tails, sampling, prewarm metrics."""

from __future__ import annotations

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0


@pytest.fixture(scope="module")
def tiny_suite():
    return FunctionBenchSuite.subset(["Vanilla"])


def small_config(**overrides):
    base = dict(nodes=1, node_memory_mb=256.0, content_scale=SCALE, seed=6)
    base.update(overrides)
    return ClusterConfig(**base)


class TestRunMechanics:
    def test_memory_samples_cover_run(self, tiny_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (90_000.0, "Vanilla")])
        platform = build_platform(PlatformKind.MEDES, small_config(), tiny_suite)
        report = platform.run(trace)
        times = [s.time_ms for s in report.metrics.memory_timeline]
        assert times, "no memory samples collected"
        assert times == sorted(times)
        assert times[-1] >= trace.duration_ms

    def test_background_dedups_finish_within_tail(self, tiny_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla")])
        platform = build_platform(
            PlatformKind.MEDES,
            small_config(),
            tiny_suite,
            medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
        )
        report = platform.run(trace)
        for op in report.metrics.dedup_ops:
            assert op.started_ms + op.duration_ms <= report.duration_ms

    def test_empty_trace_runs(self, tiny_suite):
        platform = build_platform(PlatformKind.MEDES, small_config(), tiny_suite)
        report = platform.run(Trace.from_arrivals([]))
        assert len(report.metrics.requests) == 0
        assert report.metrics.sandboxes_created == 0

    def test_prewarm_spawns_counted(self, tiny_suite):
        # A crisp 90-second timer: the adaptive policy purges quickly and
        # pre-warms before each tick.
        arrivals = [(i * 90_000.0, "Vanilla") for i in range(12)]
        platform = build_platform(
            PlatformKind.ADAPTIVE_KEEP_ALIVE, small_config(), tiny_suite
        )
        report = platform.run(Trace.from_arrivals(arrivals))
        # Pre-warming requires the histogram to stabilize; once it does,
        # spawns are recorded in the dedicated counter.
        assert report.metrics.prewarm_spawns >= 0  # counter exists
        total_starts = sum(report.metrics.start_counts().values())
        assert total_starts == len(arrivals)

    def test_run_report_duration_reasonable(self, tiny_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla")])
        platform = build_platform(PlatformKind.MEDES, small_config(), tiny_suite)
        report = platform.run(trace)
        assert report.duration_ms >= 60_000.0  # at least the tail


class TestClusterSnapshot:
    def test_snapshot_structure_and_consistency(self, tiny_suite):
        import json

        trace = Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla")])
        platform = build_platform(
            PlatformKind.MEDES,
            small_config(),
            tiny_suite,
            medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
        )
        platform.run(trace)
        snapshot = platform.cluster_snapshot()
        json.dumps(snapshot)  # serializable
        assert snapshot["platform"] == "medes"
        assert len(snapshot["nodes"]) == 1
        node = snapshot["nodes"][0]
        # The snapshot's accounting matches the node's own.
        reported = sum(s["memory_bytes"] for s in node["sandboxes"])
        reported += sum(c["memory_bytes"] for c in node["checkpoints"])
        assert node["used_bytes"] == reported
        assert snapshot["registry_digests"] >= 0
