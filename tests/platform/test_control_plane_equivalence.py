"""Indexed vs scan control plane: bit-identical run behaviour.

The indexed control plane (``ClusterConfig.indexed_control_plane``) must
be a pure performance change: candidate sets, counters and placement
order mirror the original scan paths exactly, so every platform run
produces the *same* ``RunMetrics`` — same start types, same latencies,
same evictions, same memory timeline — in both modes.  These tests pin
that, across all three platforms and across workloads that exercise the
tricky paths (dedup churn, memory pressure, starvation eviction, the
eviction-order ablations).

``verify_accounting`` is switched on for the indexed runs, so every
``used_bytes`` and ``reclaimable_bytes`` read also asserts the
incremental counter against the recomputed per-resident sum.  Only the
indexed side reads those counters: the scan side's placement gate sums
the evictable residents itself.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import repro.sandbox.checkpoint as checkpoint_module
import repro.sandbox.sandbox as sandbox_module
from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import EvictionOrder
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def run_both_modes(kind, config, suite, trace, **build_kwargs):
    """Run one platform in scan mode and indexed mode on ``trace``."""
    reports = {}
    for indexed in (False, True):
        # Sandbox/checkpoint ids are process-global counters; reset them
        # so both runs mint identical ids and the per-op records (which
        # embed sandbox ids) compare equal.
        sandbox_module._sandbox_ids = itertools.count(1)
        checkpoint_module._checkpoint_ids = itertools.count(1)
        cfg = replace(
            config,
            indexed_control_plane=indexed,
            # The cached counter only exists on the indexed path; verify
            # it there on every read.
            verify_accounting=indexed,
        )
        platform = build_platform(kind, cfg, suite, **build_kwargs)
        reports[indexed] = platform.run(trace)
    return reports[False], reports[True]


def assert_identical(scan_report, indexed_report):
    assert indexed_report.duration_ms == scan_report.duration_ms
    assert indexed_report.metrics == scan_report.metrics


@pytest.fixture(scope="module")
def azure_workload():
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen"])
    trace = AzureTraceGenerator(seed=3).generate(6.0, suite.names())
    return suite, trace


class TestAzureWorkloadEquivalence:
    """A dense multi-function trace with dedup churn on every platform."""

    CONFIG = ClusterConfig(nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2)

    def test_medes(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_modes(PlatformKind.MEDES, self.CONFIG, suite, trace, medes=MEDES)
        )

    def test_fixed_keep_alive(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_modes(PlatformKind.FIXED_KEEP_ALIVE, self.CONFIG, suite, trace)
        )

    def test_adaptive_keep_alive(self, azure_workload):
        suite, trace = azure_workload
        assert_identical(
            *run_both_modes(PlatformKind.ADAPTIVE_KEEP_ALIVE, self.CONFIG, suite, trace)
        )


class TestPressureEquivalence:
    """Memory pressure: queueing, evictions and the starvation path."""

    def test_eviction_under_pressure(self):
        suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
        config = ClusterConfig(
            nodes=1, node_memory_mb=256.0, content_scale=SCALE, seed=7
        )
        trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert scan.metrics.evictions > 0, "workload must exercise eviction"
        assert_identical(scan, indexed)

    def test_starvation_evicts_same_base(self):
        """The desperate path (unpinned-base eviction after STARVATION_MS)
        must fire at the same time and pick the same victim."""
        suite = FunctionBenchSuite.subset(["RNNModel", "ModelTrain"])
        config = ClusterConfig(
            nodes=1, node_memory_mb=150.0, content_scale=SCALE, seed=9
        )
        trace = Trace.from_arrivals([(0.0, "RNNModel"), (20_000.0, "ModelTrain")])
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert scan.metrics.requests[1].queued_ms > 0, "request must starve first"
        assert_identical(scan, indexed)

    def test_queued_burst_same_drain_times(self):
        """Many simultaneously queued requests: the coalesced starvation
        timer must drain them at the same instants the per-request
        timers did."""
        suite = FunctionBenchSuite.subset(["LinAlg"])
        config = ClusterConfig(
            nodes=1, node_memory_mb=220.0, content_scale=SCALE, seed=4
        )
        arrivals = [(float(i * 10), "LinAlg") for i in range(12)]
        trace = Trace.from_arrivals(arrivals)
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert any(r.queued_ms > 0 for r in scan.metrics.requests.values())
        assert_identical(scan, indexed)


class TestEvictionOrderEquivalence:
    """Every eviction-order ablation picks the same victims in both modes."""

    @pytest.mark.parametrize("order", list(EvictionOrder))
    def test_order(self, order):
        suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
        config = ClusterConfig(
            nodes=1,
            node_memory_mb=256.0,
            content_scale=SCALE,
            seed=7,
            eviction_order=order,
        )
        trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
        scan, indexed = run_both_modes(
            PlatformKind.MEDES, config, suite, trace, medes=MEDES
        )
        assert scan.metrics.evictions > 0, "workload must exercise eviction"
        assert_identical(scan, indexed)
