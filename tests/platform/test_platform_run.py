"""End-to-end platform run tests: determinism, pairing, Medes benefits."""

from __future__ import annotations

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.platform.comparison import run_comparison
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite

SCALE = 1.0 / 256.0


@pytest.fixture(scope="module")
def workload():
    suite = FunctionBenchSuite.replicated(["Vanilla", "LinAlg", "RNNModel"], 3)
    trace = AzureTraceGenerator(seed=21).generate(10, suite.names())
    return suite, trace


@pytest.fixture(scope="module")
def pressured_config():
    return ClusterConfig(
        nodes=2, node_memory_mb=256.0, content_scale=SCALE, seed=3, verify_restores=True
    )


@pytest.fixture(scope="module")
def comparison(workload, pressured_config):
    suite, trace = workload
    return run_comparison(
        trace,
        suite,
        pressured_config,
        medes=MedesPolicyConfig(alpha=25.0, idle_period_ms=10_000.0),
    )


class TestDeterminism:
    def test_same_config_same_results(self, workload, pressured_config):
        suite, trace = workload
        reports = []
        for _ in range(2):
            platform = build_platform(PlatformKind.MEDES, pressured_config, suite)
            reports.append(platform.run(trace))
        first, second = reports
        assert first.metrics.cold_starts() == second.metrics.cold_starts()
        e2e_first = [r.e2e_ms for r in first.metrics.completed_records()]
        e2e_second = [r.e2e_ms for r in second.metrics.completed_records()]
        assert e2e_first == e2e_second

    def test_exec_times_platform_independent(self, comparison):
        names = comparison.names
        for request_id in list(comparison.metrics(names[0]).requests)[:50]:
            execs = {
                comparison.metrics(name).requests[request_id].exec_ms for name in names
            }
            assert len(execs) == 1


class TestRunCompleteness:
    def test_every_request_completes_on_every_platform(self, comparison):
        for name in comparison.names:
            for record in comparison.metrics(name).requests.values():
                assert record.completion_ms is not None, (name, record.request_id)

    def test_start_types_partition_requests(self, comparison):
        for name in comparison.names:
            metrics = comparison.metrics(name)
            assert sum(metrics.start_counts().values()) == len(metrics.requests)

    def test_memory_timeline_collected(self, comparison):
        for name in comparison.names:
            assert len(comparison.metrics(name).memory_timeline) > 10


class TestMedesBenefits:
    """The paper's headline claims, at test scale, under pressure."""

    def test_fewer_cold_starts_than_baselines(self, comparison):
        medes = comparison.metrics(comparison.medes_name()).cold_starts()
        fixed = comparison.metrics("fixed-ka-10min").cold_starts()
        adaptive = comparison.metrics("adaptive-ka").cold_starts()
        assert medes < fixed
        assert medes < adaptive

    def test_dedup_starts_served(self, comparison):
        counts = comparison.metrics(comparison.medes_name()).start_counts()
        assert counts[StartType.DEDUP] > 0

    def test_baselines_never_dedup(self, comparison):
        for name in ("fixed-ka-10min", "adaptive-ka"):
            assert comparison.metrics(name).start_counts()[StartType.DEDUP] == 0
            assert not comparison.metrics(name).dedup_ops

    def test_improvement_factors_favor_medes_in_tail(self, comparison):
        factors = sorted(comparison.improvement_over("fixed-ka-10min"))
        assert factors  # paired requests exist
        top_decile = factors[int(len(factors) * 0.9) :]
        assert max(top_decile) >= 1.0

    def test_dedup_starts_faster_than_cold(self, comparison, workload):
        suite, _ = workload
        metrics = comparison.metrics(comparison.medes_name())
        for record in metrics.completed_records():
            if record.start_type is StartType.DEDUP:
                assert record.startup_ms < suite.get(record.function).cold_start_ms


class TestSummary:
    def test_summary_text(self, comparison):
        report = comparison.reports[comparison.medes_name()]
        text = report.summary()
        assert "medes" in text
        assert "cold" in text
        assert "requests completed" in text


class TestDrainLoop:
    """Regressions on Platform.run's post-trace drain behaviour."""

    @staticmethod
    def _pressured_platform():
        suite = FunctionBenchSuite.subset(["LinAlg"])
        config = ClusterConfig(nodes=1, node_memory_mb=384.0, content_scale=SCALE)
        return suite, build_platform(PlatformKind.MEDES, config, suite)

    def test_sampler_stops_when_trace_ends(self, monkeypatch):
        """Regression: the memory sampler used to keep ticking through
        drain-guard extensions, appending quiet-period samples that
        dragged down mean_memory_bytes."""
        from repro.platform import platform as platform_module
        from repro.workload.trace import Trace

        monkeypatch.setattr(platform_module, "MEMORY_SAMPLE_INTERVAL_MS", 1_000.0)
        suite, platform = self._pressured_platform()
        trace = Trace.from_arrivals([(float(i * 500), "LinAlg") for i in range(10)])
        # A tail too short for the in-flight requests: the drain guard
        # must extend the run past `end`, with the sampler already dead.
        report = platform.run(trace, tail_ms=100.0)
        end = trace.duration_ms + 100.0
        assert platform.sim.now > end, "workload must exercise the drain guard"
        times = report.metrics.memory_timeline.column("time_ms")
        assert len(times) > 0
        assert times.max() <= end

    def test_drain_does_not_rescan_request_records(self, log_reads):
        """Regression: the drain guard used to rescan every request
        record per extension (quadratic at cluster scale); it must now
        read only the in-flight count."""
        from repro.workload.trace import Trace

        suite, platform = self._pressured_platform()
        trace = Trace.from_arrivals([(float(i * 500), "LinAlg") for i in range(10)])
        platform.run(trace, tail_ms=100.0)
        assert platform.sim.now > trace.duration_ms + 100.0
        assert log_reads == []
        assert platform.metrics.outstanding_requests == 0
