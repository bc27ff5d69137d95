"""``ClusterConfig.faults`` determinism contract.

A faulty run under a fixed seed must reproduce itself bit-for-bit (the
seeded-chaos half of the determinism contract).  The other half — the
always-on fault layer injecting nothing leaves a healthy run unchanged —
is carried by ``tests/golden/control_plane_runs.json``: it was frozen
from runs without the fault layer, on every platform kind and
eviction-order ablation, and every run now builds the layer.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def run_with_faults(config, suite, trace, faults):
    """One Medes run of ``config`` with ``faults`` in place."""
    platform = build_platform(
        PlatformKind.MEDES, replace(config, faults=faults), suite, medes=MEDES
    )
    return platform.run(trace)


@pytest.fixture(scope="module")
def workload():
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen"])
    trace = AzureTraceGenerator(seed=3).generate(4.0, suite.names())
    return suite, trace


class TestSeededChaosReproduces:
    """The same faulty config replays bit-for-bit."""

    FAULTS = FaultsConfig(
        schedule=FaultSchedule(
            node_crashes=(NodeCrash(at_ms=45_000.0, node_id=1, restart_at_ms=90_000.0),)
        ),
        rpc_failure_prob=0.05,
        seed=13,
    )

    def test_identical_twice(self, workload):
        suite, trace = workload
        config = ClusterConfig(
            nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2
        )
        first = run_with_faults(config, suite, trace, self.FAULTS)
        second = run_with_faults(config, suite, trace, self.FAULTS)
        assert first.duration_ms == second.duration_ms
        assert first.metrics == second.metrics
        assert first.metrics.fault_events, "the crash must have been injected"

    def test_transient_seed_changes_the_run(self, workload):
        suite, trace = workload
        config = ClusterConfig(
            nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2
        )
        probed = FaultsConfig(rpc_failure_prob=0.3, seed=13)
        reseeded = FaultsConfig(rpc_failure_prob=0.3, seed=14)
        first = run_with_faults(config, suite, trace, probed)
        second = run_with_faults(config, suite, trace, reseeded)
        # Both complete; the retry streams differ under different seeds.
        assert first.metrics.rpc_retries > 0 or second.metrics.rpc_retries > 0
