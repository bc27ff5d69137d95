"""Checkpoint tiering off == the untiered platform, bit for bit.

``ClusterConfig.checkpoint_tiering`` follows the PR-1/PR-2 equivalence
discipline: with the flag off (the default) every run must produce the
exact ``RunMetrics`` the untiered code produced — the ``StorageConfig``
is inert, no table moves to SSD or back, restore records keep their
zero-valued tiering fields.  These tests pin that across the three
platforms and the pressure/starvation/burst workloads, by perturbing the
storage configuration wildly under a disabled flag and requiring
identical runs.

With the flag *on*, runs must stay deterministic (same seed, same
metrics) and actually exercise the tier machinery under pressure.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.storage.tiers import StorageConfig
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)

#: A deliberately extreme storage configuration: if any off-path code
#: read it, the run could not stay identical to the defaults.
PERTURBED_STORAGE = StorageConfig(remote_dram_mb=1.0, ssd_capacity_mb=1.0, prefetch=False)


def assert_storage_inert(kind, config, suite, trace, **build_kwargs):
    """Two tiering-off runs — default vs perturbed storage — must match."""
    baseline = build_platform(kind, config, suite, **build_kwargs).run(trace)
    perturbed = build_platform(
        kind, replace(config, storage=PERTURBED_STORAGE), suite, **build_kwargs
    ).run(trace)
    assert perturbed.duration_ms == baseline.duration_ms
    assert perturbed.metrics == baseline.metrics
    assert baseline.metrics.table_demotions == baseline.metrics.table_promotions == 0
    assert baseline.metrics.prefetched_restores == 0
    assert all(
        not op.prefetched and op.promote_ms == 0.0
        for op in baseline.metrics.restore_ops
    )
    return baseline


PLATFORMS = [
    pytest.param(PlatformKind.MEDES, {"medes": MEDES}, id="medes"),
    pytest.param(PlatformKind.FIXED_KEEP_ALIVE, {}, id="fixed"),
    pytest.param(PlatformKind.ADAPTIVE_KEEP_ALIVE, {}, id="adaptive"),
]


def pressure_workload():
    suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
    config = ClusterConfig(nodes=1, node_memory_mb=256.0, content_scale=SCALE, seed=7)
    trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
    return suite, config, trace


def starvation_workload():
    suite = FunctionBenchSuite.subset(["RNNModel", "ModelTrain"])
    config = ClusterConfig(nodes=1, node_memory_mb=150.0, content_scale=SCALE, seed=9)
    trace = Trace.from_arrivals([(0.0, "RNNModel"), (20_000.0, "ModelTrain")])
    return suite, config, trace


def burst_workload():
    suite = FunctionBenchSuite.subset(["LinAlg"])
    config = ClusterConfig(nodes=1, node_memory_mb=220.0, content_scale=SCALE, seed=4)
    trace = Trace.from_arrivals([(float(i * 10), "LinAlg") for i in range(12)])
    return suite, config, trace


WORKLOADS = [
    pytest.param(pressure_workload, id="pressure"),
    pytest.param(starvation_workload, id="starvation"),
    pytest.param(burst_workload, id="burst"),
]


class TestTieringOffIsInert:
    """3 platforms x 3 workloads: disabled tiering changes nothing."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("kind,kwargs", PLATFORMS)
    def test_matrix(self, kind, kwargs, workload):
        suite, config, trace = workload()
        assert_storage_inert(kind, config, suite, trace, **kwargs)


class TestTieringOnBehaviour:
    def test_deterministic_rerun(self):
        suite, config, trace = pressure_workload()
        config = replace(config, checkpoint_tiering=True)
        first = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        second = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        assert second.duration_ms == first.duration_ms
        assert second.metrics == first.metrics

    def test_pressure_exercises_tiers(self):
        suite, config, trace = pressure_workload()
        config = replace(config, checkpoint_tiering=True)
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        check_every_instant(platform)
        report = platform.run(trace)
        metrics = report.metrics
        assert metrics.table_demotions > 0, "pressure must park tables on SSD"
        assert metrics.table_promotions > 0, "parked tables must be read back"
        # Recorded restores appear once a working set repeats.
        if metrics.prefetched_restores:
            assert any(op.prefetched for op in metrics.restore_ops)

    def test_cold_tables_restore_correctly(self):
        """Restores from SSD-parked tables must still verify page by page."""
        suite, config, trace = pressure_workload()
        config = replace(config, checkpoint_tiering=True, verify_restores=True)
        report = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        assert report.metrics.table_promotions >= 0  # ran to completion, verified
        assert any(op.promote_ms > 0 for op in report.metrics.restore_ops) or (
            report.metrics.table_promotions == 0
        )

    def test_tiering_reduces_cold_starts_under_pressure(self):
        suite, config, trace = pressure_workload()
        off = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        on = build_platform(
            PlatformKind.MEDES,
            replace(config, checkpoint_tiering=True),
            suite,
            medes=MEDES,
        ).run(trace)
        assert on.metrics.cold_starts() <= off.metrics.cold_starts()
