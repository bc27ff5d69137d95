"""Fig-10 pressure sweep with template sharing on vs off.

Template checkpoints (DESIGN.md §14) factor the cross-function
RUNTIME/LIBRARY regions out of every parked sandbox into shared,
refcounted template segments in the remote-DRAM pool; an idle sandbox
parks as a small per-function delta, and a restart *forks* the node's
template replicas instead of fetching base pages through the fabric.
The first fork on a node pays one batched pool promote; every later
fork moves no start-path bytes at all.

This benchmark replays the paper's Figure-10 pool-size ladder (the
40/30/20 GB points, scaled) on the Medes platform twice per point —
``template_sharing`` off (dedup-only, the paper's behaviour) and on —
and reports cold starts, start-type counts, bytes moved per start, and
startup latency percentiles per start-ladder rung (the vectorized
``RunMetrics.latency_percentile`` readers).  The claim being measured:
at every ladder point template sharing yields *fewer cold starts* and
*fewer start-path bytes moved per request* than dedup alone.

Results go to ``BENCH_template_sharing.json`` at the repo root.

Run standalone for the full ladder::

    PYTHONPATH=src python -m benchmarks.bench_template_sharing

or via pytest for a reduced smoke configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib

from benchmarks.conftest import environment, write_result

from repro.analysis.experiments import full_workload
from repro.analysis.tables import render_table
from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_template_sharing.json"

#: The Figure-10 ladder: the paper's 40/30/20 GB cluster pools, scaled.
DEFAULT_POOL_MB = (3072.0, 2304.0, 1792.0)
DEFAULT_NODES = 2
DEFAULT_DURATION_MIN = 20.0
DEFAULT_SEED = 11

MEDES = MedesPolicyConfig()


def _pct(metrics, pct, start: StartType | None, metric: str = "startup") -> float:
    value = metrics.latency_percentile(pct, start_type=start, metric=metric)
    return None if math.isnan(value) else round(value, 3)


def run_point(pool_mb: float, nodes: int, duration_min: float, seed: int) -> dict:
    """One pool size, Medes with template sharing off and on, same trace."""
    suite, trace = full_workload(duration_min, seed)
    samples = {}
    for sharing in (False, True):
        config = ClusterConfig(
            nodes=nodes,
            node_memory_mb=pool_mb / nodes,
            seed=1,
            template_sharing=sharing,
        )
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        metrics = platform.run(trace).metrics
        counts = metrics.start_counts()
        # Bytes moved: every fabric remote read (dedup parks and
        # restores fetch base pages through the fabric) plus the charged
        # template-pool segment promotes — all cluster-interconnect
        # traffic on both sides' park and start paths.  Delta spills
        # stay node-local (SSD, like §9's dedup-cold tables) and move
        # no cluster bytes, so they are charged as latency, not here.
        moved = (
            platform.fabric.stats.remote_bytes
            + metrics.template_promote_bytes
        )
        requests = len(metrics.requests)
        samples[sharing] = {
            "requests": requests,
            "cold_starts": counts.get(StartType.COLD, 0),
            "warm_starts": counts.get(StartType.WARM, 0),
            "dedup_starts": counts.get(StartType.DEDUP, 0),
            "template_starts": counts.get(StartType.TEMPLATE, 0),
            "template_parks": len(metrics.template_ops),
            "template_segments_created": metrics.template_segments_created,
            "template_segments_shared": metrics.template_segments_shared,
            "template_promotions": metrics.template_promotions,
            "template_promote_bytes": metrics.template_promote_bytes,
            "template_pool_rejections": metrics.template_pool_rejections,
            "template_fork_fallbacks": metrics.template_fork_fallbacks,
            "template_evict_parks": metrics.template_evict_parks,
            "template_delta_spills": metrics.template_delta_spills,
            "template_delta_spill_bytes": metrics.template_delta_spill_bytes,
            "template_delta_unspill_bytes": metrics.template_delta_unspill_bytes,
            "start_bytes_moved": moved,
            "bytes_per_start": round(moved / requests, 1),
            "p50_e2e_ms": _pct(metrics, 50, None, "e2e"),
            "p99_e2e_ms": _pct(metrics, 99, None, "e2e"),
            "p50_startup_cold_ms": _pct(metrics, 50, StartType.COLD),
            "p50_startup_dedup_ms": _pct(metrics, 50, StartType.DEDUP),
            "p50_startup_template_ms": _pct(metrics, 50, StartType.TEMPLATE),
        }
    off, on = samples[False], samples[True]
    assert off["requests"] == on["requests"]
    return {
        "pool_mb": pool_mb,
        "requests": off["requests"],
        "off": off,
        "on": on,
        "cold_start_delta": on["cold_starts"] - off["cold_starts"],
        "bytes_per_start_delta": round(
            on["bytes_per_start"] - off["bytes_per_start"], 1
        ),
    }


def run_sweep(
    pool_mb: tuple[float, ...] = DEFAULT_POOL_MB,
    nodes: int = DEFAULT_NODES,
    duration_min: float = DEFAULT_DURATION_MIN,
    seed: int = DEFAULT_SEED,
) -> dict:
    results = [run_point(pool, nodes, duration_min, seed) for pool in pool_mb]
    return {
        "benchmark": "template_sharing",
        "units": "cold starts and start-path bytes per Fig-10 pool point",
        "config": {
            "pool_mb": list(pool_mb),
            "nodes": nodes,
            "trace_minutes": duration_min,
            "seed": seed,
            **environment(),
        },
        "results": results,
    }


def _render(report: dict) -> str:
    rows = []
    for point in report["results"]:
        off, on = point["off"], point["on"]
        rows.append(
            [
                f"{point['pool_mb']:.0f}MB",
                off["cold_starts"],
                on["cold_starts"],
                on["template_starts"],
                f"{off['bytes_per_start'] / 1e6:.1f}",
                f"{on['bytes_per_start'] / 1e6:.1f}",
                off["p50_startup_dedup_ms"] or "-",
                on["p50_startup_template_ms"] or "-",
            ]
        )
    return render_table(
        [
            "pool",
            "cold (off)",
            "cold (tmpl)",
            "tmpl starts",
            "MB/start (off)",
            "MB/start (tmpl)",
            "p50 dedup ms",
            "p50 tmpl ms",
        ],
        rows,
        title="Fig 10 pressure sweep: template sharing off vs on",
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pool-mb", type=float, nargs="+", default=list(DEFAULT_POOL_MB)
    )
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument("--duration-min", type=float, default=DEFAULT_DURATION_MIN)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    report = run_sweep(
        pool_mb=tuple(args.pool_mb),
        nodes=args.nodes,
        duration_min=args.duration_min,
        seed=args.seed,
    )
    OUTPUT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    text = _render(report)
    write_result("template_sharing", text)
    print(text)
    print(f"\nwrote {OUTPUT_JSON}")


def test_template_sharing_smoke():
    """Reduced sweep: templates must beat dedup-only at every point.

    Both halves of the acceptance claim, at every ladder point: fewer
    cold starts AND fewer start-path bytes moved per request.
    """
    report = run_sweep(duration_min=6.0)
    for point in report["results"]:
        assert point["cold_start_delta"] < 0, point
        assert point["bytes_per_start_delta"] < 0, point
        on = point["on"]
        assert on["template_starts"] > 0, point
        assert on["template_segments_shared"] > 0, point


if __name__ == "__main__":
    main()
