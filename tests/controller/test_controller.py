"""Integration tests for the cluster controller.

These drive the full platform (simulator + nodes + agents + registry)
with small hand-built traces and assert the paper's workflows: dispatch
preference, the dedup lifecycle, base management, eviction and queueing.
"""

from __future__ import annotations

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.invariants import check
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.state import SandboxState
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant
from tests.oracles.policy_rates import peak_rate_reference

SCALE = 1.0 / 256.0


def config(**overrides) -> ClusterConfig:
    base = dict(
        nodes=2,
        node_memory_mb=512.0,
        content_scale=SCALE,
        seed=7,
        verify_restores=True,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def medes_config(**overrides) -> MedesPolicyConfig:
    base = dict(
        idle_period_ms=5_000.0,
        keep_alive_ms=300_000.0,
        keep_dedup_ms=300_000.0,
        # Loose enough that the optimizer allows dedup starts for these
        # small sandbox populations (D* > 0 at C = 2).
        alpha=25.0,
    )
    base.update(overrides)
    return MedesPolicyConfig(**base)


def run_medes(trace, suite, cluster=None, policy=None):
    platform = build_platform(
        PlatformKind.MEDES, cluster or config(), suite, medes=policy or medes_config()
    )
    report = platform.run(trace)
    return platform, report


@pytest.fixture(scope="module")
def pair_suite():
    return FunctionBenchSuite.subset(["Vanilla", "LinAlg"])


class TestDispatch:
    def test_first_request_is_cold(self, pair_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla")])
        _, report = run_medes(trace, pair_suite)
        record = report.metrics.requests[0]
        assert record.start_type is StartType.COLD
        assert record.startup_ms >= pair_suite.get("Vanilla").cold_start_ms

    def test_second_request_reuses_warm(self, pair_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (2_000.0, "Vanilla")])
        _, report = run_medes(trace, pair_suite)
        assert report.metrics.requests[1].start_type is StartType.WARM

    def test_concurrent_requests_spawn_separately(self, pair_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla")])
        _, report = run_medes(trace, pair_suite)
        assert report.metrics.cold_starts() == 2

    def test_functions_do_not_share_sandboxes(self, pair_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (2_000.0, "LinAlg")])
        _, report = run_medes(trace, pair_suite)
        assert report.metrics.cold_starts() == 2


class TestArrivalStatistics:
    def test_each_arrival_is_recorded_once(self, pair_suite):
        """The policy's rate estimators see every arrival exactly once:
        per function, the request count and lambda_max are the trace's."""
        arrivals = [
            (0.0, "Vanilla"), (10.0, "Vanilla"), (15.0, "LinAlg"), (15.0, "Vanilla"),
            (2_000.0, "LinAlg"), (31_000.0, "Vanilla"), (31_000.0, "LinAlg"),
        ]
        platform, _ = run_medes(Trace.from_arrivals(arrivals), pair_suite)
        now = platform.sim.now
        assert set(platform.controller.stats) >= {"Vanilla", "LinAlg"}
        for function, stats in platform.controller.stats.items():
            times = [t for t, f in arrivals if f == function]
            assert stats.observed_requests == len(times)
            assert stats.peak_rate(now) == peak_rate_reference(times, now)
            assert stats.peak_rate(now) > 0 or not times  # the window still holds them


class TestDedupLifecycle:
    def _dedup_trace(self) -> Trace:
        # Two early sandboxes; long idle; then one request back.
        return Trace.from_arrivals(
            [
                (0.0, "Vanilla"),
                (1.0, "Vanilla"),
                (120_000.0, "Vanilla"),
            ]
        )

    def test_idle_sandbox_becomes_base_then_dedup(self, pair_suite):
        platform, report = run_medes(self._dedup_trace(), pair_suite)
        assert report.metrics.bases_created >= 1
        assert len(report.metrics.dedup_ops) >= 1

    def test_dedup_start_served_from_dedup_sandbox(self, pair_suite):
        _, report = run_medes(self._dedup_trace(), pair_suite)
        final = report.metrics.requests[2]
        assert final.start_type in (StartType.DEDUP, StartType.WARM)
        if final.start_type is StartType.DEDUP:
            assert len(report.metrics.restore_ops) == 1
            assert final.startup_ms < pair_suite.get("Vanilla").cold_start_ms

    def test_refcounts_consistent_at_end(self, pair_suite):
        platform, _ = run_medes(self._dedup_trace(), pair_suite)
        check(platform)

    def test_node_accounting_matches_entities(self, pair_suite):
        platform = build_platform(
            PlatformKind.MEDES, config(), pair_suite, medes=medes_config()
        )
        instants = check_every_instant(platform)
        platform.run(self._dedup_trace())
        assert len(instants) > 3

    def test_dedup_sandbox_smaller_than_warm(self, pair_suite):
        platform, report = run_medes(self._dedup_trace(), pair_suite)
        for op in report.metrics.dedup_ops:
            full = platform.suite.get(op.function).memory_bytes
            assert op.retained_full_bytes < full


class TestKeepAliveAndKeepDedup:
    def test_warm_sandbox_purged_after_keep_alive(self, pair_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (400_000.0, "Vanilla")])
        policy = medes_config(keep_alive_ms=60_000.0, idle_period_ms=600_000.0)
        _, report = run_medes(trace, pair_suite, policy=policy)
        # The sandbox expired before the second request: cold again.
        assert report.metrics.requests[1].start_type is StartType.COLD

    def test_dedup_sandbox_purged_after_keep_dedup(self, pair_suite):
        trace = Trace.from_arrivals(
            [(0.0, "Vanilla"), (1.0, "Vanilla"), (500_000.0, "Vanilla")]
        )
        policy = medes_config(keep_dedup_ms=60_000.0)
        _, report = run_medes(trace, pair_suite, policy=policy)
        # Dedup state expired long before the last request.
        assert report.metrics.requests[2].start_type is StartType.COLD


class TestMemoryPressure:
    def test_eviction_frees_space_for_spawn(self):
        suite = FunctionBenchSuite.subset(["RNNModel", "ModelTrain"])
        # One node fitting only one large sandbox at a time.
        cluster = config(nodes=1, node_memory_mb=150.0)
        trace = Trace.from_arrivals(
            [(0.0, "RNNModel"), (10_000.0, "ModelTrain"), (20_000.0, "RNNModel"),
             (30_000.0, "ModelTrain")]
        )
        platform, report = run_medes(trace, suite, cluster=cluster)
        assert report.metrics.evictions > 0
        assert all(
            r.completion_ms is not None for r in report.metrics.requests.values()
        )

    def test_capacity_never_exceeded_steady_state(self):
        suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
        cluster = config(nodes=1, node_memory_mb=128.0)
        arrivals = [(i * 4_000.0, "Vanilla" if i % 2 else "LinAlg") for i in range(20)]
        platform, report = run_medes(Trace.from_arrivals(arrivals), suite, cluster=cluster)
        # After the run drains, the node is within its soft limit.
        for node in platform.nodes:
            assert node.used_bytes() <= node.capacity_bytes

    def test_oversized_requests_queue_and_complete(self):
        suite = FunctionBenchSuite.subset(["RNNModel"])
        cluster = config(nodes=1, node_memory_mb=100.0)  # fits one sandbox
        trace = Trace.from_arrivals([(0.0, "RNNModel"), (1.0, "RNNModel")])
        _, report = run_medes(trace, suite, cluster=cluster)
        records = list(report.metrics.requests.values())
        assert all(r.completion_ms is not None for r in records)
        # The second request had to wait for the first sandbox.
        assert max(r.queued_ms for r in records) > 0


class TestBaseManagement:
    def test_base_sandbox_not_deduplicated(self, pair_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (60_000.0, "Vanilla")])
        platform, report = run_medes(trace, pair_suite)
        bases = [
            s
            for node in platform.nodes
            for s in node.sandboxes.values()
            if s.is_base
        ]
        for base in bases:
            assert base.state in (SandboxState.WARM, SandboxState.RUNNING)

    def test_base_checkpoint_registered_in_registry(self, pair_suite):
        trace = Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla"), (60_000.0, "Vanilla")])
        platform, report = run_medes(trace, pair_suite)
        if report.metrics.bases_created:
            assert platform.registry.digest_count > 0


class TestPrewarming:
    def test_adaptive_platform_prewarms_regular_traffic(self):
        suite = FunctionBenchSuite.subset(["Vanilla"])
        # A strict 2-minute timer function with a short adaptive window.
        arrivals = [(i * 120_000.0, "Vanilla") for i in range(12)]
        platform = build_platform(
            PlatformKind.ADAPTIVE_KEEP_ALIVE, config(), suite
        )
        report = platform.run(Trace.from_arrivals(arrivals))
        warm = report.metrics.start_counts()[StartType.WARM]
        assert warm >= 8  # pre-warming keeps the timer function warm
