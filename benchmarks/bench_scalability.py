"""Cluster-scale trace replay: the full-platform scaling curve.

Replays Azure-style cluster traces — :class:`ClusterTraceGenerator`'s
Zipf popularity over hundreds of functions with a steady/bursty mix
under a shared diurnal envelope — against the complete Medes platform
(controller, policy, dedup data plane, registry, nodes) at growing
cluster sizes.  The default curve runs 8, 32 and 128 nodes with the
request budget proportional to nodes, so the top point replays over a
million requests, and reports per point:

* **requests/s** — completed requests per wall-clock second,
* **events/s** — simulator callbacks dispatched per wall-clock second,
* **peak RSS** — the point's own high-water resident set,
* **GC** — the replay's cyclic-GC passes per generation and their
  seconds (timed through ``gc.callbacks``; no GC setting is changed), and
  the GC-tracked objects alive when the replay ends.

Each point runs in its own subprocess (``--single``) so peak RSS is an
honest per-configuration measurement rather than the maximum across the
whole sweep, and so points never share interned state.  The parent
aggregates the per-point JSON into ``BENCH_scalability.json`` at the
repo root plus a rendered table under ``benchmarks/results/``.

Run the full curve (minutes; the 128-node point alone replays ~1M
requests)::

    PYTHONPATH=src python benchmarks/bench_scalability.py

or the CI-sized smoke curve (seconds)::

    PYTHONPATH=src python benchmarks/bench_scalability.py --smoke

The registry-population micro-benchmark that used to live here moved to
``benchmarks/bench_registry_scaling.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # script mode: `python benchmarks/bench_scalability.py`
    sys.path.insert(0, str(_REPO_ROOT))

from benchmarks.conftest import environment, write_result
from repro.analysis.tables import render_table
from repro.platform.config import ClusterConfig
from repro.platform.platform import ARRIVAL_CHUNK, PlatformKind, build_platform
from repro.workload.azure import ClusterTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite

REPO_ROOT = _REPO_ROOT
REPORT_PATH = REPO_ROOT / "BENCH_scalability.json"

#: Cluster sizes of the curve; the paper's testbed is 19 nodes, the
#: point of this benchmark is the decade above it.
NODE_POINTS = (8, 32, 128)
#: Request budget per node — 8192 x 128 nodes puts the top point past a
#: million requests even after ~1% generation shortfall.
REQUESTS_PER_NODE = 8192
#: Simulated span of every point; load density grows with the cluster.
DURATION_MIN = 60.0
#: Replicas per FunctionBench profile: 20 x 10 profiles = 200 distinct
#: functions for the Zipf popularity ranking to spread across.
COPIES = 20

#: Per-node memory and content scale are sized so the replay exercises
#: the event loop and control plane rather than degenerating into
#: permanent eviction thrash (which measures the eviction scan, not
#: scaling).  3 GB nodes stay busy but not wedged at this load.
NODE_MEMORY_MB = 3072.0
CONTENT_SCALE = 1.0 / 1024.0

SMOKE_NODE_POINTS = (2, 4)
SMOKE_REQUESTS_PER_NODE = 250
SMOKE_DURATION_MIN = 6.0
SMOKE_COPIES = 3


class GcClock:
    """A ``gc.callbacks`` hook: passes per generation and their seconds."""

    def __init__(self) -> None:
        self.passes = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.passes[info["generation"]] += 1
            self.seconds += time.perf_counter() - self._started


def run_point(
    nodes: int,
    target_requests: int,
    *,
    duration_min: float = DURATION_MIN,
    copies: int = COPIES,
    seed: int = 0,
) -> dict:
    """Generate and replay one scaling point in this process."""
    suite = FunctionBenchSuite.replicated(FunctionBenchSuite.default().names(), copies)
    generator = ClusterTraceGenerator(seed=seed)
    gen_start = time.perf_counter()
    trace = generator.generate(
        duration_min, suite.names(), target_requests=target_requests
    )
    gen_s = time.perf_counter() - gen_start

    config = ClusterConfig(
        nodes=nodes,
        node_memory_mb=NODE_MEMORY_MB,
        content_scale=CONTENT_SCALE,
        seed=seed,
    )
    platform = build_platform(PlatformKind.MEDES, config, suite)
    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    replay_start = time.perf_counter()
    try:
        report = platform.run(trace)
    finally:
        replay_s = time.perf_counter() - replay_start
        gc.callbacks.remove(gc_clock)

    events = platform.sim.events_processed
    completed = sum(report.metrics.start_counts().values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "nodes": nodes,
        "functions": len(suite),
        "target_requests": target_requests,
        "requests": len(trace),
        "completed": completed,
        "events": events,
        "gen_s": round(gen_s, 3),
        "replay_s": round(replay_s, 3),
        "req_per_s": round(completed / replay_s, 1),
        "events_per_s": round(events / replay_s, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "gc_s": round(gc_clock.seconds, 3),
        "gc_passes": gc_clock.passes,
        "gc_tracked_objects": len(gc.get_objects()),
        "pending_events_after": platform.sim.pending_events,
        "p50_e2e_ms": round(report.metrics.e2e_percentile(50), 2),
        "p99_e2e_ms": round(report.metrics.e2e_percentile(99), 2),
    }


def _spawn_point(nodes: int, target_requests: int, args: argparse.Namespace) -> dict:
    """Run one point in a child interpreter; returns its JSON record."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    command = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--single",
        "--nodes",
        str(nodes),
        "--requests",
        str(target_requests),
        "--duration-min",
        str(args.duration_min),
        "--copies",
        str(args.copies),
        "--seed",
        str(args.seed),
    ]
    output = subprocess.run(
        command, cwd=REPO_ROOT, env=env, check=True, capture_output=True, text=True
    )
    return json.loads(output.stdout.splitlines()[-1])


def run_curve(args: argparse.Namespace) -> dict:
    """Run every point of the curve in subprocesses and aggregate."""
    points = []
    for nodes in args.node_points:
        target = nodes * args.requests_per_node
        print(f"[bench_scalability] {nodes} nodes, {target} requests ...", flush=True)
        point = _spawn_point(nodes, target, args)
        print(
            f"[bench_scalability]   {point['completed']} completed in "
            f"{point['replay_s']:.1f}s: {point['req_per_s']:.0f} req/s, "
            f"{point['events_per_s']:.0f} events/s, "
            f"{point['peak_rss_mb']:.0f} MB peak RSS, {point['gc_s']:.1f}s in GC",
            flush=True,
        )
        points.append(point)
    return {
        "benchmark": "cluster_scale_replay",
        "platform": "medes",
        "smoke": bool(args.smoke),
        **environment(),
        "config": {
            "duration_min": args.duration_min,
            "copies": args.copies,
            "node_memory_mb": NODE_MEMORY_MB,
            "content_scale": CONTENT_SCALE,
            "arrival_chunk": ARRIVAL_CHUNK,
            "seed": args.seed,
        },
        "points": points,
    }


def write_report(report: dict) -> None:
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    rows = [
        (
            point["nodes"],
            point["requests"],
            point["completed"],
            point["events"],
            f"{point['req_per_s']:.0f}",
            f"{point['events_per_s']:.0f}",
            f"{point['peak_rss_mb']:.0f}",
            f"{point['gc_s']:.2f}",
            point["gc_tracked_objects"],
        )
        for point in report["points"]
    ]
    text = render_table(
        [
            "nodes",
            "requests",
            "completed",
            "events",
            "req/s",
            "events/s",
            "peak RSS MB",
            "GC s",
            "GC-tracked objects",
        ],
        rows,
        title="Cluster-scale trace replay (full Medes platform)",
    )
    write_result("scalability_cluster_replay", text)
    print(text)


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized curve")
    parser.add_argument("--single", action="store_true", help="run one point, print JSON")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--duration-min", type=float, default=None)
    parser.add_argument("--copies", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.smoke:
        args.node_points = SMOKE_NODE_POINTS
        args.requests_per_node = SMOKE_REQUESTS_PER_NODE
        args.duration_min = args.duration_min or SMOKE_DURATION_MIN
        args.copies = args.copies or SMOKE_COPIES
    else:
        args.node_points = NODE_POINTS
        args.requests_per_node = REQUESTS_PER_NODE
        args.duration_min = args.duration_min or DURATION_MIN
        args.copies = args.copies or COPIES
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.single:
        if args.nodes is None or args.requests is None:
            raise SystemExit("--single requires --nodes and --requests")
        point = run_point(
            args.nodes,
            args.requests,
            duration_min=args.duration_min,
            copies=args.copies,
            seed=args.seed,
        )
        print(json.dumps(point))
        return 0
    write_report(run_curve(args))
    return 0


# ----------------------------------------------------------- pytest leg


def test_cluster_replay_smoke():
    """One tiny in-process point: the full platform replays a generated
    cluster trace to completion and the reported rates are sane."""
    point = run_point(2, 400, duration_min=5.0, copies=2)
    assert point["completed"] == point["requests"] > 300
    assert point["events"] > point["requests"]
    assert point["req_per_s"] > 0
    assert point["events_per_s"] > point["req_per_s"]
    assert point["peak_rss_mb"] > 0
    assert sum(point["gc_passes"]) > 0 and point["gc_tracked_objects"] > 0
    # Keep-alive and idle timers legitimately outlive the drained trace.
    assert point["pending_events_after"] >= 0


if __name__ == "__main__":
    raise SystemExit(main())
