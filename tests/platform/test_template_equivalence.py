"""Template sharing off == the template-free platform, bit for bit.

``ClusterConfig.template_sharing`` follows the same equivalence
discipline as tiering and faults: with the flag off (the default) no
``TemplateCatalog`` is even constructed, every template code path in the
agent/controller/platform is gated on it, and a run must produce the
exact ``RunMetrics`` the template-free code produced — even under a
wildly perturbed ``TemplateConfig``.  With the flag *on*, runs must stay
deterministic and actually fork templates under the pressure workload.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.templates.catalog import TemplateConfig
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)

#: A deliberately extreme template configuration: if any off-path code
#: read it, the run could not stay identical to the defaults.
PERTURBED_TEMPLATES = TemplateConfig(
    pool_mb=0.0,
    hot_window_ms=0.0,
)


def assert_templates_inert(kind, config, suite, trace, **build_kwargs):
    """Two template-off runs — default vs perturbed config — must match."""
    platform = build_platform(kind, config, suite, **build_kwargs)
    baseline = platform.run(trace)
    perturbed = build_platform(
        kind,
        replace(config, templates=PERTURBED_TEMPLATES),
        suite,
        **build_kwargs,
    ).run(trace)
    assert perturbed.duration_ms == baseline.duration_ms
    assert perturbed.metrics == baseline.metrics
    metrics = baseline.metrics
    assert metrics.template_ops == []
    assert StartType.TEMPLATE not in metrics.start_counts()
    assert metrics.template_segments_created == 0
    assert metrics.template_segments_shared == 0
    assert metrics.template_promotions == 0
    assert metrics.template_promote_bytes == 0
    assert platform.templates is None  # so no replica is ever dropped
    assert metrics.template_fork_fallbacks == 0
    assert metrics.template_pool_rejections == 0
    assert metrics.template_evict_parks == 0
    assert metrics.template_delta_spills == 0
    assert metrics.template_delta_spill_bytes == 0
    assert metrics.template_delta_unspill_bytes == 0
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


class TestTemplatesOffAreInert:
    """3 platforms x 3 workloads: disabled template sharing changes nothing."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("kind,kwargs", PLATFORMS)
    def test_matrix(self, kind, kwargs, workload):
        suite, config, trace = workload()
        assert_templates_inert(kind, config, suite, trace, **kwargs)


class TestTemplatesOnBehaviour:
    def test_deterministic_rerun(self):
        suite, config, trace = pressure_workload()
        config = replace(config, template_sharing=True)
        first = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        second = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        assert second.duration_ms == first.duration_ms
        assert second.metrics == first.metrics

    def test_pressure_exercises_templates(self):
        suite, config, trace = pressure_workload()
        config = replace(config, template_sharing=True)
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        check_every_instant(platform)
        report = platform.run(trace)
        metrics = report.metrics
        assert metrics.template_ops, "idle sandboxes must park as templates"
        assert metrics.start_counts()[StartType.TEMPLATE] > 0, "repeat arrivals must fork"
        assert metrics.template_segments_created > 0
        # Two functions share at least the runtime segment.
        assert metrics.template_segments_shared > 0
        # Forks promote replicas exactly once per node per segment.
        assert metrics.template_promotions > 0
        assert metrics.template_promote_bytes > 0

    def test_forks_verify_byte_exact(self):
        """Every fork is checked page by page when verification is on."""
        suite, config, trace = pressure_workload()
        config = replace(config, template_sharing=True, verify_restores=True)
        report = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        # Ran to completion, every fork verified.
        assert report.metrics.start_counts()[StartType.TEMPLATE] > 0

    def test_templates_relieve_pressure(self):
        """Sharing on must not degrade the latency tail.

        Raw cold-start and eviction counts are the wrong invariants at
        this tiny scale: the spill path frees enough DRAM that the
        cluster *scales out* — extra concurrent sandboxes (counted as
        cold starts) instead of queueing — and the last-copy spill gate
        deliberately purges redundant deltas (counted as evictions)
        just like the template-free run purges all of them.  The claim
        that survives every scale is the tail: forks and scale-out must
        serve the pressure spikes no slower than the dedup-only
        baseline.  Cold-start counts are compared on the Fig-10 ladder
        (``benchmarks/bench_template_sharing.py``) where the baseline
        genuinely purges last copies under pressure.
        """
        suite, config, trace = pressure_workload()
        off = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES).run(trace)
        on = build_platform(
            PlatformKind.MEDES,
            replace(config, template_sharing=True),
            suite,
            medes=MEDES,
        ).run(trace)
        assert on.metrics.latency_percentile(95.0) <= off.metrics.latency_percentile(95.0)
        assert on.metrics.latency_percentile(99.0) <= off.metrics.latency_percentile(99.0)
