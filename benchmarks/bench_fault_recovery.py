"""Startup latency and fallback behaviour under injected node crashes.

The fault layer (DESIGN.md §11) lets a run lose nodes mid-trace and
keep serving: the controller reconciles orphaned refcounts, rehomes
dedup tables onto surviving byte-identical replicas where it can, and
falls back to cold starts where it cannot.  This benchmark replays the
same Azure-style trace on the Medes platform at 0, 1 and 2 injected
node crashes (each node restarts after a fixed outage window) and
reports the startup-latency CDF (p50/p90/p99), the cold-start and
cold-fallback rates, the recovery counters, and the measured MTTR.

The claim being measured: a single node crash degrades tail startup
latency but aborts nothing — every request completes, with the lost
dedup capacity absorbed as replica fallbacks and a bounded rise in the
cold-fallback rate.

Results go to ``BENCH_fault_recovery.json`` at the repo root.

Run standalone for the full sweep::

    PYTHONPATH=src python -m benchmarks.bench_fault_recovery

or via pytest for a reduced smoke configuration.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from benchmarks.conftest import environment, write_result

from repro.analysis.experiments import full_workload
from repro.analysis.tables import render_table
from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_fault_recovery.json"

DEFAULT_CRASH_COUNTS = (0, 1, 2)
DEFAULT_NODES = 3
DEFAULT_NODE_MB = 1024.0
DEFAULT_DURATION_MIN = 10.0
DEFAULT_SEED = 17
#: Fraction of the trace at which each successive crash lands, and the
#: outage length (crash -> restart) as a fraction of the trace.
CRASH_AT_FRACTIONS = (0.3, 0.6)
OUTAGE_FRACTION = 0.1

MEDES = MedesPolicyConfig()


def crash_schedule(crashes: int, duration_min: float) -> FaultsConfig:
    """0/1/2 staggered crash+restart events inside the trace window."""
    if crashes == 0:
        return FaultsConfig()
    duration_ms = duration_min * 60_000.0
    events = tuple(
        NodeCrash(
            at_ms=frac * duration_ms,
            node_id=index + 1,
            restart_at_ms=(frac + OUTAGE_FRACTION) * duration_ms,
        )
        for index, frac in enumerate(CRASH_AT_FRACTIONS[:crashes])
    )
    return FaultsConfig(schedule=FaultSchedule(node_crashes=events))


def run_point(crashes: int, nodes: int, duration_min: float, seed: int) -> dict:
    """One crash count: same trace, same seed, only the schedule varies."""
    suite, trace = full_workload(duration_min, seed)
    config = ClusterConfig(
        nodes=nodes,
        node_memory_mb=DEFAULT_NODE_MB,
        seed=1,
        faults=crash_schedule(crashes, duration_min),
    )
    platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
    metrics = platform.run(trace).metrics
    completed = metrics.completed_records()
    requests = len(metrics.requests)
    cold = metrics.cold_starts()
    return {
        "crashes": crashes,
        "requests": requests,
        "completed": len(completed),
        "startup_ms_p50": round(metrics.startup_percentile(50), 3),
        "startup_ms_p90": round(metrics.startup_percentile(90), 3),
        "startup_ms_p99": round(metrics.startup_percentile(99), 3),
        "cold_starts": cold,
        "cold_start_rate": round(cold / requests, 4) if requests else 0.0,
        "restore_cold_fallbacks": metrics.restore_cold_fallbacks,
        "cold_fallback_rate": (
            round(metrics.restore_cold_fallbacks / requests, 4) if requests else 0.0
        ),
        "restore_replica_fallbacks": metrics.restore_replica_fallbacks,
        "requests_rescheduled": metrics.requests_rescheduled,
        "crash_purged_sandboxes": metrics.crash_purged_sandboxes,
        "crash_reconciled_refs": metrics.crash_reconciled_refs,
        "mttr_ms": round(metrics.mttr_ms(), 3),
    }


def run_sweep(
    crash_counts: tuple[int, ...] = DEFAULT_CRASH_COUNTS,
    nodes: int = DEFAULT_NODES,
    duration_min: float = DEFAULT_DURATION_MIN,
    seed: int = DEFAULT_SEED,
) -> dict:
    results = [run_point(n, nodes, duration_min, seed) for n in crash_counts]
    return {
        "benchmark": "fault_recovery",
        "units": "startup-latency percentiles (ms) and rates per crash count",
        "config": {
            "crash_counts": list(crash_counts),
            "nodes": nodes,
            "node_memory_mb": DEFAULT_NODE_MB,
            "trace_minutes": duration_min,
            "outage_minutes": OUTAGE_FRACTION * duration_min,
            "seed": seed,
            **environment(),
        },
        "results": results,
    }


def _render(report: dict) -> str:
    rows = []
    for point in report["results"]:
        rows.append(
            [
                point["crashes"],
                f"{point['startup_ms_p50']:.1f}",
                f"{point['startup_ms_p90']:.1f}",
                f"{point['startup_ms_p99']:.1f}",
                f"{100 * point['cold_start_rate']:.1f}%",
                f"{100 * point['cold_fallback_rate']:.2f}%",
                point["restore_replica_fallbacks"],
                point["crash_purged_sandboxes"],
                f"{point['mttr_ms'] / 1000:.0f}s",
            ]
        )
    return render_table(
        [
            "crashes",
            "p50",
            "p90",
            "p99",
            "cold rate",
            "cold fallback",
            "rehomed",
            "purged",
            "MTTR",
        ],
        rows,
        title="Startup latency and fallback rates under injected node crashes",
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--crashes", type=int, nargs="+", default=list(DEFAULT_CRASH_COUNTS)
    )
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument("--duration-min", type=float, default=DEFAULT_DURATION_MIN)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    report = run_sweep(
        crash_counts=tuple(args.crashes),
        nodes=args.nodes,
        duration_min=args.duration_min,
        seed=args.seed,
    )
    OUTPUT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    text = _render(report)
    write_result("fault_recovery", text)
    print(text)
    print(f"\nwrote {OUTPUT_JSON}")


def test_fault_recovery_smoke():
    """Reduced sweep: crashes must degrade, never abort.

    Every request completes at every crash count, the crashed points
    actually injected their faults (MTTR matches the configured outage
    window), and recovery work shows up in the counters.
    """
    report = run_sweep(duration_min=4.0)
    baseline, *crashed = report["results"]
    assert baseline["mttr_ms"] == 0.0
    assert baseline["restore_cold_fallbacks"] == 0
    outage_ms = report["config"]["outage_minutes"] * 60_000.0
    for point in report["results"]:
        assert point["completed"] == point["requests"] == baseline["requests"]
    for point in crashed:
        assert abs(point["mttr_ms"] - outage_ms) < 1.0, point
        assert point["crash_purged_sandboxes"] > 0, point


if __name__ == "__main__":
    main()
