"""Paired platform comparisons: replay one trace on several platforms.

The evaluation always compares Medes against the baselines on the
*identical* trace (same arrivals, same per-request execution times), so
latency improvements can be computed request by request (Figure 7a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import MIB
from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import RunMetrics, improvement_factors
from repro.platform.platform import PlatformKind, RunReport, build_platform
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

#: The paper's standard comparison set.
DEFAULT_KINDS = (
    PlatformKind.FIXED_KEEP_ALIVE,
    PlatformKind.ADAPTIVE_KEEP_ALIVE,
    PlatformKind.MEDES,
)


@dataclass
class Comparison:
    """Results of replaying one trace across several platforms."""

    trace: Trace
    suite: FunctionBenchSuite
    config: ClusterConfig
    reports: dict[str, RunReport] = field(default_factory=dict)

    def metrics(self, name: str) -> RunMetrics:
        return self.reports[name].metrics

    @property
    def names(self) -> list[str]:
        return list(self.reports)

    def medes_name(self) -> str:
        for name in self.reports:
            if name.startswith("medes"):
                return name
        raise KeyError("comparison does not include a Medes run")

    def improvement_over(self, baseline_name: str, *, function: str | None = None) -> list[float]:
        """Per-request e2e improvement factors of Medes over a baseline."""
        return improvement_factors(
            self.metrics(baseline_name), self.metrics(self.medes_name()), function=function
        )

    def cold_start_table(self) -> list[tuple[str, dict[str, int]]]:
        """Per-platform cold-start counts by function (Figure 7b)."""
        functions = self.trace.functions()
        rows = []
        for name, report in self.reports.items():
            by_fn = report.metrics.cold_starts_by_function()
            rows.append((name, {fn: by_fn.get(fn, 0) for fn in functions}))
        return rows

    def tail_latency_table(self, pct: float = 99.9) -> list[tuple[str, dict[str, float]]]:
        """Per-platform tail e2e latency by function (Figure 7b, bottom)."""
        functions = self.trace.functions()
        return [
            (name, {fn: report.metrics.e2e_percentile(pct, fn) for fn in functions})
            for name, report in self.reports.items()
        ]

    def memory_table(self) -> list[tuple[str, float, float]]:
        """(platform, mean MB, median MB) cluster memory usage (Figure 9a)."""
        rows = [
            (
                name,
                report.metrics.mean_memory_bytes() / MIB,
                report.metrics.median_memory_bytes() / MIB,
            )
            for name, report in self.reports.items()
        ]
        return rows

    def extra_sandboxes_vs(self, baseline_name: str) -> float:
        """Percent more sandboxes Medes kept in memory vs a baseline
        (the paper's 7.74-37.7% claim)."""
        medes = self.metrics(self.medes_name()).mean_sandbox_count()
        base = self.metrics(baseline_name).mean_sandbox_count()
        if base == 0:
            return 0.0
        return (medes / base - 1.0) * 100.0


def run_comparison(
    trace: Trace,
    suite: FunctionBenchSuite,
    config: ClusterConfig,
    *,
    medes: MedesPolicyConfig | None = None,
) -> Comparison:
    """Replay ``trace`` on each of :data:`DEFAULT_KINDS` and collect the
    reports."""
    comparison = Comparison(trace=trace, suite=suite, config=config)
    for kind in DEFAULT_KINDS:
        platform = build_platform(kind, config, suite, medes=medes)
        report = platform.run(trace)
        comparison.reports[report.platform_name] = report
    return comparison
