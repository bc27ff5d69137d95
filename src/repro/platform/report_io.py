"""Structured export of run reports and comparisons.

``report_to_dict`` / ``comparison_to_dict`` flatten the metrics into
JSON-serializable dictionaries so runs can be archived, diffed, or fed
to external dashboards; ``save_report`` writes them to disk.
"""

from __future__ import annotations

import json
import pathlib

from repro._util import MIB
from repro.platform.comparison import Comparison
from repro.platform.metrics import RunMetrics, StartType
from repro.platform.platform import RunReport


def metrics_to_dict(metrics: RunMetrics, *, include_requests: bool = False) -> dict:
    """Flatten a :class:`RunMetrics` into plain data."""
    counts = metrics.start_counts()
    result: dict = {
        "platform": metrics.platform_name,
        "requests_completed": len(metrics.completion_timeline),
        "starts": {start.value: counts.get(start, 0) for start in StartType},
        "cold_starts_by_function": metrics.cold_starts_by_function(),
        "e2e_ms": {
            "p50": metrics.e2e_percentile(50),
            "p99": metrics.e2e_percentile(99),
            "p99.9": metrics.e2e_percentile(99.9),
        },
        "memory": {
            "mean_mb": metrics.mean_memory_bytes() / MIB,
            "median_mb": metrics.median_memory_bytes() / MIB,
            "mean_sandboxes": metrics.mean_sandbox_count(),
        },
        "dedup": {
            "ops": len(metrics.dedup_ops),
            "restores": len(metrics.restore_ops),
            "dedup_share": metrics.dedup_share(),
            "bases_created": metrics.bases_created,
        },
        "evictions": metrics.evictions,
        "prewarm_spawns": metrics.prewarm_spawns,
        "sandboxes_created": metrics.sandboxes_created,
    }
    if include_requests:
        result["requests"] = [
            {
                "id": record.request_id,
                "function": record.function,
                "arrival_ms": record.arrival_ms,
                "start_type": record.start_type.value if record.start_type else None,
                "queued_ms": record.queued_ms,
                "startup_ms": record.startup_ms,
                "exec_ms": record.exec_ms,
                "e2e_ms": record.e2e_ms if record.completion_ms is not None else None,
            }
            for record in metrics.requests.values()
        ]
    return result


def report_to_dict(report: RunReport, *, include_requests: bool = False) -> dict:
    """Flatten a :class:`RunReport` (config digest + metrics)."""
    config = report.config
    return {
        "platform": report.platform_name,
        "duration_ms": report.duration_ms,
        "config": {
            "nodes": config.nodes,
            "node_memory_mb": config.node_memory_mb,
            "content_scale": config.content_scale,
            "seed": config.seed,
            "registry_shards": config.registry_shards,
            "cold_start_mode": config.cold_start_mode.value,
        },
        "metrics": metrics_to_dict(report.metrics, include_requests=include_requests),
    }


def comparison_to_dict(comparison: Comparison) -> dict:
    """Flatten a multi-platform comparison with paired improvements."""
    result: dict = {
        "functions": list(comparison.trace.functions()),
        "requests": len(comparison.trace),
        "platforms": {
            name: report_to_dict(report) for name, report in comparison.reports.items()
        },
    }
    medes = comparison.medes_name()
    improvements = {}
    for name in comparison.names:
        if name == medes:
            continue
        factors = sorted(comparison.improvement_over(name))
        if factors:
            improvements[name] = {
                "p50": factors[len(factors) // 2],
                "p99": factors[min(len(factors) - 1, int(len(factors) * 0.99))],
                "max": factors[-1],
            }
    result["medes_improvement_over"] = improvements
    return result


def save_report(
    report: RunReport,
    path: str | pathlib.Path,
    *,
    include_requests: bool = False,
) -> pathlib.Path:
    """Write a report to ``path`` as JSON; returns the path."""
    target = pathlib.Path(path)
    target.write_text(
        json.dumps(report_to_dict(report, include_requests=include_requests), indent=2)
        + "\n"
    )
    return target
