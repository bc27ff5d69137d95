"""Arrival injection: run behaviour is invariant in the chunk size.

``repro.platform.platform.ARRIVAL_CHUNK`` must be a pure memory-footprint
constant:
:meth:`Simulator.schedule_stream` reserves the whole trace's event
sequence numbers up front, so every arrival fires at exactly the
(time, seq) slot eager pre-scheduling would have given it and every
downstream event — sandbox lifecycle, policy timers, dedup completions —
keeps its sequence number too.  One chunk holding the whole trace *is*
eager pre-scheduling; these tests pin it to identical ``RunMetrics``
against chunk sizes small enough to force many mid-run refills, across
platform kinds and trace shapes.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform import platform as platform_module
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def run_both_injections(kind, config, suite, trace, *, chunk=2, **build_kwargs):
    """Run one platform with the whole trace as one chunk (eager), then
    streamed in chunks of ``chunk``."""
    reports = []
    for arrival_chunk in (len(trace) + 1, chunk):
        platform = build_platform(kind, config, suite, **build_kwargs)
        with mock.patch.object(platform_module, "ARRIVAL_CHUNK", arrival_chunk):
            reports.append(platform.run(trace))
    return reports


def assert_identical(eager_report, streamed_report):
    assert streamed_report.duration_ms == eager_report.duration_ms
    assert streamed_report.metrics == eager_report.metrics


@pytest.fixture(scope="module")
def azure_workload():
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen"])
    trace = AzureTraceGenerator(seed=3).generate(6.0, suite.names())
    return suite, trace


class TestPlatformKinds:
    """A dense multi-function trace, chunk=2 forcing constant refills."""

    CONFIG = ClusterConfig(nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2)

    def test_medes(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_injections(
                PlatformKind.MEDES, self.CONFIG, suite, trace, medes=MEDES
            )
        )

    def test_fixed_keep_alive(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_injections(
                PlatformKind.FIXED_KEEP_ALIVE, self.CONFIG, suite, trace
            )
        )

    def test_adaptive_keep_alive(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_injections(
                PlatformKind.ADAPTIVE_KEEP_ALIVE, self.CONFIG, suite, trace
            )
        )


class TestTraceShapes:
    def test_simultaneous_arrivals_keep_fifo(self):
        """Same-time arrivals must submit in trace order at any chunk size,
        and tie-break identically against non-arrival events."""
        suite = FunctionBenchSuite.subset(["LinAlg"])
        config = ClusterConfig(nodes=1, node_memory_mb=512.0, content_scale=SCALE)
        trace = Trace.from_arrivals([(0.0, "LinAlg")] * 6 + [(40_000.0, "LinAlg")] * 3)
        assert_identical(
            *run_both_injections(
                PlatformKind.MEDES, config, suite, trace, medes=MEDES, chunk=4
            )
        )

    def test_pressure_with_evictions(self):
        suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
        config = ClusterConfig(nodes=1, node_memory_mb=256.0, content_scale=SCALE, seed=7)
        trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
        eager, streamed = run_both_injections(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES, chunk=3
        )
        assert eager.metrics.evictions > 0, "workload must exercise eviction"
        assert_identical(eager, streamed)

    def test_empty_trace(self):
        suite = FunctionBenchSuite.subset(["LinAlg"])
        config = ClusterConfig(nodes=1, content_scale=SCALE)
        assert_identical(
            *run_both_injections(
                PlatformKind.MEDES, config, suite, Trace.from_arrivals([]), medes=MEDES
            )
        )


class TestPropertyEquivalence:
    """Hypothesis sweep: random small traces, platform kinds and chunk
    sizes all stay bit-identical to the one-chunk run."""

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(list(PlatformKind)),
        chunk=st.integers(min_value=1, max_value=5),
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=120_000.0),
                st.sampled_from(["LinAlg", "Vanilla"]),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_traces(self, kind, chunk, arrivals, seed):
        suite = FunctionBenchSuite.subset(["LinAlg", "Vanilla"])
        config = ClusterConfig(
            nodes=1, node_memory_mb=384.0, content_scale=SCALE, seed=seed
        )
        trace = Trace.from_arrivals(arrivals)
        kwargs = {"medes": MEDES} if kind is PlatformKind.MEDES else {}
        assert_identical(
            *run_both_injections(kind, config, suite, trace, chunk=chunk, **kwargs)
        )
