"""Edge-coverage tests across modules (small behaviours not covered
by the per-module suites)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro._util import rng_for
from repro.controller.baselines import HISTOGRAM_MAX_MS, AdaptiveKeepAlivePolicy
from repro.memory.patch import Patch, apply_patch, compute_patch
from repro.platform.metrics import RunMetrics, StartType
from repro.sim.engine import Simulator
from tests.oracles.patch_wire import deserialize


class TestSimulatorTimers:
    def test_timer_time_property(self):
        sim = Simulator(start_time=10.0)
        timer = sim.after(5.0, lambda: None)
        assert timer.time == 15.0

    def test_pending_events_counter(self):
        sim = Simulator()
        sim.after(1.0, lambda: None)
        sim.after(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_schedule_exactly_now_allowed(self):
        sim = Simulator(start_time=5.0)
        fired = []
        sim.at(5.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]


class TestPatchEdges:
    def test_deserialize_unknown_tag(self):
        base = rng_for("misc-patch").integers(0, 256, 256, dtype=np.uint8).tobytes()
        patch = compute_patch(base, base)
        blob = bytearray(patch.blob)
        blob[16] = 0x7F  # corrupt the first op tag
        with pytest.raises(ValueError, match="tag"):
            deserialize(bytes(blob))
        with pytest.raises(ValueError, match="tag"):
            apply_patch(Patch(bytes(blob)), base)

    def test_truncated_blob_rejected(self):
        with pytest.raises(Exception):
            deserialize(b"MP")
        with pytest.raises(ValueError):
            apply_patch(Patch(b"MP"), b"")


class TestAdaptiveHistogramEdges:
    def test_interarrivals_capped_at_histogram_max(self):
        policy = AdaptiveKeepAlivePolicy()
        policy.on_arrival("f", 0.0)
        policy.on_arrival("f", 10 * HISTOGRAM_MAX_MS)  # absurd gap
        entry = policy._history["f"]
        assert max(entry.intervals) <= HISTOGRAM_MAX_MS

    def test_sub_bin_gaps_kept_exact(self):
        policy = AdaptiveKeepAlivePolicy()
        policy.on_arrival("f", 0.0)
        policy.on_arrival("f", 1_500.0)  # below one histogram bin
        assert policy._history["f"].intervals == [1_500.0]


class TestMetricsEdges:
    def test_startup_percentile(self):
        metrics = RunMetrics(platform_name="t")
        for i, startup in enumerate([10.0, 20.0, 30.0]):
            record = metrics.on_arrival(i, "f", 0.0)
            record.start_type = StartType.WARM
            record.startup_ms = startup
            metrics.on_completion(record, 100.0)
        assert metrics.startup_percentile(50) == 20.0
        assert metrics.startup_percentile(50, "f") == 20.0
        assert math.isnan(metrics.startup_percentile(50, "missing"))

    def test_dedup_share_zero_without_sandboxes(self):
        assert RunMetrics(platform_name="t").dedup_share() == 0.0


class TestSavingsTimelineEdges:
    def test_longer_keep_alive_uses_more_memory(self):
        from repro.analysis.study import measure_function_savings, savings_timeline
        from repro.workload.functionbench import FunctionBenchSuite
        from repro.workload.trace import Trace

        suite = FunctionBenchSuite.subset(["Vanilla"])
        savings = measure_function_savings(suite, content_scale=1 / 256)
        arrivals = [(i * 30_000.0, "Vanilla") for i in range(10)]
        trace = Trace.from_arrivals(arrivals)
        short = savings_timeline(trace, suite, keep_alive_ms=60_000.0, savings=savings)
        long = savings_timeline(trace, suite, keep_alive_ms=600_000.0, savings=savings)
        assert sum(p.keep_alive_mb for p in long) >= sum(p.keep_alive_mb for p in short)


class TestProfileExecModel:
    def test_exec_cv_positive(self, suite):
        for profile in suite:
            assert profile.exec_cv > 0
