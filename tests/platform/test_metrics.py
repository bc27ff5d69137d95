"""Tests for run metrics and paired comparisons."""

from __future__ import annotations

import dataclasses
import math

import pytest

import numpy as np

from repro.platform.metrics import (
    ColumnTimeline,
    FaultEventRecord,
    MemorySample,
    RequestRecord,
    RunMetrics,
    StartType,
    improvement_factors,
)


def completed(metrics: RunMetrics, request_id: int, function: str, *,
              arrival: float, e2e: float, start: StartType | None,
              queued: float = 0.0, startup: float = 0.0) -> RequestRecord:
    """Arrive and complete a request the way the controller does."""
    record = metrics.on_arrival(request_id, function, arrival)
    record.start_type = start
    record.queued_ms = queued
    record.startup_ms = startup
    record.exec_ms = e2e / 2
    metrics.on_completion(record, arrival + e2e)
    return record


class TestRequestRecord:
    def test_e2e_requires_completion(self):
        record = RequestRecord(request_id=0, function="f", arrival_ms=10.0)
        with pytest.raises(RuntimeError):
            _ = record.e2e_ms

    def test_e2e_and_slowdown(self):
        record = RequestRecord(request_id=0, function="f", arrival_ms=10.0)
        record.exec_ms = 50.0
        record.completion_ms = 110.0
        assert record.e2e_ms == 100.0
        assert record.slowdown == 2.0

    def test_slowdown_degenerate_exec(self):
        record = RequestRecord(request_id=0, function="f", arrival_ms=0.0)
        record.completion_ms = 10.0
        assert record.slowdown == 1.0


class TestAggregation:
    @pytest.fixture
    def metrics(self) -> RunMetrics:
        metrics = RunMetrics(platform_name="test")
        completed(metrics, 0, "a", arrival=0.0, e2e=100.0, start=StartType.COLD)
        completed(metrics, 1, "a", arrival=10.0, e2e=20.0, start=StartType.WARM)
        completed(metrics, 2, "b", arrival=20.0, e2e=500.0, start=StartType.COLD)
        completed(metrics, 3, "b", arrival=30.0, e2e=50.0, start=StartType.DEDUP)
        metrics.on_arrival(4, "b", 40.0)  # never completes
        return metrics

    def test_start_counts(self, metrics):
        counts = metrics.start_counts()
        assert counts[StartType.COLD] == 2
        assert counts[StartType.WARM] == 1
        assert counts[StartType.DEDUP] == 1

    def test_cold_starts_filtered(self, metrics):
        assert metrics.cold_starts() == 2
        assert metrics.cold_starts("a") == 1
        assert metrics.cold_starts_by_function() == {"a": 1, "b": 1}

    def test_incomplete_requests_excluded(self, metrics):
        assert len(metrics.completed_records()) == 4

    def test_percentiles(self, metrics):
        assert metrics.e2e_percentile(100) == 500.0
        assert metrics.e2e_percentile(0, "a") == 20.0
        assert math.isnan(metrics.e2e_percentile(50, "missing"))

    def test_readers_of_one_run_agree(self, metrics):
        """Regression: the fixture used to set ``completion_ms`` by hand,
        so ``e2e_percentile(50)`` read 75.0 where ``latency_percentile``
        read NaN, and 5 requests were outstanding with 4 completed."""
        assert metrics.e2e_percentile(50) == metrics.latency_percentile(50) == 75.0
        assert metrics.outstanding_requests == 1
        assert len(metrics.completion_timeline) == len(metrics.completed_records()) == 4

    def test_functions(self, metrics):
        assert metrics.functions() == ("a", "b")

    def test_dedup_share(self, metrics):
        metrics.sandboxes_created = 4
        from repro.platform.metrics import DedupOpRecord

        metrics.dedup_ops.append(
            DedupOpRecord(
                function="a",
                sandbox_id=1,
                started_ms=0.0,
                duration_ms=100.0,
                lookup_ms=10.0,
                savings_fraction=0.5,
                retained_full_bytes=100,
                same_function_pages=5,
                cross_function_pages=5,
            )
        )
        assert metrics.dedup_share() == 0.25


class TestMemoryTimeline:
    def test_mean_and_median(self):
        metrics = RunMetrics(platform_name="test")
        for i, used in enumerate([100, 200, 300]):
            metrics.memory_timeline.append(
                MemorySample(
                    time_ms=float(i),
                    used_bytes=used,
                    warm_count=1,
                    dedup_count=0,
                    total_sandboxes=1,
                )
            )
        assert metrics.mean_memory_bytes() == 200.0
        assert metrics.median_memory_bytes() == 200.0
        assert metrics.mean_sandbox_count() == 1.0

    def test_empty_timeline(self):
        metrics = RunMetrics(platform_name="test")
        assert metrics.mean_memory_bytes() == 0.0


def _sample(i: int, used: int = 100) -> MemorySample:
    return MemorySample(
        time_ms=float(i),
        used_bytes=used,
        warm_count=i,
        dedup_count=0,
        total_sandboxes=i,
    )


class TestColumnTimeline:
    """The array-backed timeline keeps the list-of-samples API."""

    def test_append_iterate_getitem(self):
        timeline = ColumnTimeline(MemorySample)
        samples = [_sample(i, used=100 * (i + 1)) for i in range(5)]
        for sample in samples:
            timeline.append(sample)
        assert len(timeline) == 5
        assert list(timeline) == samples
        assert timeline[0] == samples[0]
        assert timeline[-1] == samples[-1]
        assert timeline[2] == samples[2]
        with pytest.raises(IndexError):
            timeline[5]
        with pytest.raises(IndexError):
            timeline[-6]

    def test_append_row_matches_append(self):
        by_object = ColumnTimeline(MemorySample)
        by_row = ColumnTimeline(MemorySample)
        for i in range(3):
            sample = _sample(i)
            by_object.append(sample)
            by_row.append_row(
                sample.time_ms,
                sample.used_bytes,
                sample.warm_count,
                sample.dedup_count,
                sample.total_sandboxes,
            )
        assert by_object == by_row

    def test_equality_against_lists(self):
        timeline = ColumnTimeline(MemorySample)
        samples = [_sample(i) for i in range(3)]
        for sample in samples:
            timeline.append(sample)
        assert timeline == samples
        assert timeline == tuple(samples)
        assert not timeline == samples[:2]
        assert not timeline == [*samples[:2], _sample(99)]

    def test_equality_between_timelines(self):
        a, b = ColumnTimeline(MemorySample), ColumnTimeline(MemorySample)
        a.append(_sample(1))
        b.append(_sample(1))
        assert a == b
        b.append(_sample(2))
        assert a != b
        # Same columns, another sample type: not equal.
        twin = dataclasses.make_dataclass(
            "MemorySampleTwin", [(f.name, f.type) for f in dataclasses.fields(MemorySample)]
        )
        assert ColumnTimeline(MemorySample) != ColumnTimeline(twin)

    def test_column_views_and_dtypes(self):
        timeline = ColumnTimeline(MemorySample)
        for i in range(3):
            timeline.append(_sample(i, used=10**9 + i))
        used = timeline.column("used_bytes")
        assert used.dtype == np.int64
        assert timeline.column("time_ms").dtype == np.float64
        assert used.tolist() == [10**9, 10**9 + 1, 10**9 + 2]
        assert len(used) == 3  # view excludes unused capacity

    def test_growth_past_initial_capacity(self):
        timeline = ColumnTimeline(MemorySample)
        for i in range(1000):
            timeline.append_row(float(i), i, 0, 0, 0)
        assert len(timeline) == 1000
        assert timeline[999].used_bytes == 999
        assert timeline.column("used_bytes").sum() == 999 * 1000 // 2

    def test_construct_from_samples(self):
        samples = [_sample(i) for i in range(4)]
        timeline = ColumnTimeline(MemorySample, iter(samples))
        assert timeline == samples

    def test_percentile_parity_with_lists(self):
        metrics = RunMetrics(platform_name="test")
        values = [300, 100, 500, 200, 400]
        for i, used in enumerate(values):
            metrics.memory_timeline.append(_sample(i, used=used))
        from repro._util import percentile

        for pct in (0, 25, 50, 90, 100):
            assert metrics.memory_percentile(pct) == percentile(values, pct)
        assert metrics.median_memory_bytes() == percentile(values, 50)


class TestMttr:
    def test_overlapping_faults_measure_from_earliest(self):
        """Regression: two unhealed faults on one domain that map to the
        same heal kind (link-degraded then link-partitioned, both healed
        by link-restored) used to overwrite the open-fault start, so the
        escalation *shrank* the reported outage."""
        metrics = RunMetrics(platform_name="test")
        metrics.fault_events += [
            FaultEventRecord(time_ms=1_000.0, kind="link-degraded", domain="link:0"),
            FaultEventRecord(time_ms=9_000.0, kind="link-partitioned", domain="link:0"),
            FaultEventRecord(time_ms=21_000.0, kind="link-restored", domain="link:0"),
        ]
        assert metrics.mttr_ms() == pytest.approx(20_000.0)

    def test_domains_do_not_interfere(self):
        metrics = RunMetrics(platform_name="test")
        metrics.fault_events += [
            FaultEventRecord(time_ms=0.0, kind="node-crash", domain="node:0"),
            FaultEventRecord(time_ms=5_000.0, kind="node-crash", domain="node:1"),
            FaultEventRecord(time_ms=10_000.0, kind="node-restored", domain="node:0"),
            FaultEventRecord(time_ms=6_000.0, kind="node-restored", domain="node:1"),
        ]
        assert metrics.mttr_ms() == pytest.approx((10_000.0 + 1_000.0) / 2)

    def test_unhealed_faults_excluded(self):
        metrics = RunMetrics(platform_name="test")
        metrics.fault_events.append(
            FaultEventRecord(time_ms=0.0, kind="node-crash", domain="node:0")
        )
        assert metrics.mttr_ms() == 0.0


class TestStartCountsSkipNoneStarts:
    """Regression: a request completed without ever dispatching (e.g.
    displaced by a node crash and re-queued) has ``start_type=None``;
    counting it under a ``None`` key poisoned every ``Counter[StartType]``
    consumer (``RunReport.summary`` sorts counts by ``t.value``)."""

    def test_none_start_type_not_counted(self):
        metrics = RunMetrics(platform_name="test")
        completed(metrics, 0, "a", arrival=0.0, e2e=10.0, start=StartType.COLD)
        completed(metrics, 1, "a", arrival=1.0, e2e=10.0, start=None)
        counts = metrics.start_counts()
        assert None not in counts
        assert counts[StartType.COLD] == 1
        assert sum(counts.values()) == 1
        # The summary-style sort the None key used to crash.
        assert sorted(counts, key=lambda t: t.value) == [StartType.COLD]

    def test_none_start_still_a_completed_record(self):
        metrics = RunMetrics(platform_name="test")
        completed(metrics, 0, "a", arrival=0.0, e2e=10.0, start=None)
        assert len(metrics.completed_records()) == 1
        assert metrics.cold_starts() == 0


class TestLatencyPercentile:
    @pytest.fixture
    def metrics(self) -> RunMetrics:
        metrics = RunMetrics(platform_name="test")
        completed(metrics, 0, "a", arrival=0.0, e2e=100.0,
                 start=StartType.COLD, queued=5.0, startup=80.0)
        completed(metrics, 1, "a", arrival=10.0, e2e=20.0,
                 start=StartType.WARM, queued=1.0, startup=0.0)
        completed(metrics, 2, "b", arrival=20.0, e2e=500.0,
                 start=StartType.COLD, queued=9.0, startup=400.0)
        completed(metrics, 3, "b", arrival=30.0, e2e=50.0,
                 start=StartType.DEDUP, queued=2.0, startup=30.0)
        completed(metrics, 4, "b", arrival=40.0, e2e=40.0,
                 start=StartType.TEMPLATE, queued=2.0, startup=20.0)
        return metrics

    def test_unfiltered_matches_e2e_percentile(self, metrics):
        for pct in (0, 50, 100):
            assert metrics.latency_percentile(pct) == metrics.e2e_percentile(pct)

    def test_filter_by_start_type(self, metrics):
        assert metrics.latency_percentile(0, start_type=StartType.COLD) == 100.0
        assert metrics.latency_percentile(100, start_type=StartType.COLD) == 500.0
        assert metrics.latency_percentile(50, start_type=StartType.WARM) == 20.0
        assert metrics.latency_percentile(50, start_type=StartType.TEMPLATE) == 40.0

    def test_metric_selection(self, metrics):
        assert metrics.latency_percentile(
            100, start_type=StartType.COLD, metric="startup"
        ) == 400.0
        assert metrics.latency_percentile(
            0, start_type=StartType.COLD, metric="queued"
        ) == 5.0

    def test_empty_selection_is_nan(self):
        fresh = RunMetrics(platform_name="empty")
        assert math.isnan(fresh.latency_percentile(50))
        completed(fresh, 0, "a", arrival=0.0, e2e=10.0, start=StartType.COLD)
        # No template-started requests completed in this run.
        assert math.isnan(fresh.latency_percentile(50, start_type=StartType.TEMPLATE))

    def test_unknown_metric_rejected(self, metrics):
        with pytest.raises(ValueError, match="unknown latency metric"):
            metrics.latency_percentile(50, metric="bogus")

    def test_incomplete_requests_not_in_timeline(self):
        metrics = RunMetrics(platform_name="test")
        metrics.on_arrival(0, "a", 0.0)  # never completes
        completed(metrics, 1, "a", arrival=1.0, e2e=30.0, start=StartType.WARM)
        assert len(metrics.completion_timeline) == 1
        assert metrics.latency_percentile(50) == 30.0


class TestImprovementFactors:
    def test_pairing_by_request_id(self):
        baseline = RunMetrics(platform_name="base")
        improved = RunMetrics(platform_name="fast")
        completed(baseline, 0, "a", arrival=0.0, e2e=200.0, start=StartType.COLD)
        completed(improved, 0, "a", arrival=0.0, e2e=100.0, start=StartType.DEDUP)
        completed(baseline, 1, "a", arrival=5.0, e2e=50.0, start=StartType.WARM)
        completed(improved, 1, "a", arrival=5.0, e2e=50.0, start=StartType.WARM)
        factors = improvement_factors(baseline, improved)
        assert sorted(factors) == [1.0, 2.0]

    def test_function_filter(self):
        baseline = RunMetrics(platform_name="base")
        improved = RunMetrics(platform_name="fast")
        completed(baseline, 0, "a", arrival=0.0, e2e=200.0, start=StartType.COLD)
        completed(improved, 0, "a", arrival=0.0, e2e=100.0, start=StartType.WARM)
        completed(baseline, 1, "b", arrival=0.0, e2e=300.0, start=StartType.COLD)
        completed(improved, 1, "b", arrival=0.0, e2e=100.0, start=StartType.WARM)
        assert improvement_factors(baseline, improved, function="b") == [3.0]

    def test_unmatched_requests_skipped(self):
        baseline = RunMetrics(platform_name="base")
        improved = RunMetrics(platform_name="fast")
        completed(baseline, 0, "a", arrival=0.0, e2e=200.0, start=StartType.COLD)
        assert improvement_factors(baseline, improved) == []
