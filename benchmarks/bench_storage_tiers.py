"""Fig-10 pressure sweep with tiered checkpoint storage on vs off.

The tiered store (DESIGN.md §9) gives the Medes controller somewhere to
put cold state other than the bin: under memory pressure, base
checkpoints demote to the remote-DRAM pool or a node's local SSD instead
of blocking placement, and keep-dedup expiry parks patch tables on SSD
("dedup-cold") instead of purging them.  A recorded-working-set
prefetcher overlaps the batched base-page fetch with patch application
on every repeat restore.

This benchmark replays the paper's Figure-10 pool-size ladder (the
40/30/20 GB points, scaled) on the Medes platform twice per point —
``checkpoint_tiering`` off (the paper's DRAM-only behaviour) and on —
and reports cold starts, dedup starts, demotion/promotion counts, and
the mean restore cost of first-touch vs prefetched restores.  The claim
being measured: at the tight pressure points tiering converts cold
starts into (slightly slower) dedup starts, and recorded restores beat
first-touch restores.

Results go to ``BENCH_storage_tiers.json`` at the repo root.

Run standalone for the full ladder::

    PYTHONPATH=src python -m benchmarks.bench_storage_tiers

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
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_storage_tiers.json"

#: The Figure-10 ladder: the paper's 40/30/20 GB cluster pools, scaled.
DEFAULT_POOL_MB = (3072.0, 2304.0, 1792.0)
DEFAULT_NODES = 2
DEFAULT_DURATION_MIN = 20.0
DEFAULT_SEED = 11

MEDES = MedesPolicyConfig()


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_point(pool_mb: float, nodes: int, duration_min: float, seed: int) -> dict:
    """One pool size, Medes with tiering off and on, same trace."""
    suite, trace = full_workload(duration_min, seed)
    samples = {}
    for tiering in (False, True):
        config = ClusterConfig(
            nodes=nodes,
            node_memory_mb=pool_mb / nodes,
            seed=1,
            checkpoint_tiering=tiering,
        )
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        metrics = platform.run(trace).metrics
        first_touch = [
            op.total_ms - op.promote_ms
            for op in metrics.restore_ops
            if not op.prefetched
        ]
        prefetched = [
            op.total_ms - op.promote_ms
            for op in metrics.restore_ops
            if op.prefetched
        ]
        # The same recorded restores replayed first-touch style: the
        # base read and the patch compute run serially instead of
        # overlapped (promote_ms excluded from both sides — un-parking a
        # table costs the same either way).
        prefetched_serial = [
            op.base_read_ms + op.compute_ms + op.miss_read_ms + op.restore_ms
            for op in metrics.restore_ops
            if op.prefetched
        ]
        samples[tiering] = {
            "requests": len(metrics.requests),
            "cold_starts": metrics.cold_starts(),
            "dedup_starts": len(metrics.restore_ops),
            "evictions": metrics.evictions,
            "table_demotions": metrics.table_demotions,
            "table_promotions": metrics.table_promotions,
            "checkpoint_demotions": metrics.checkpoint_demotions,
            "checkpoint_promotions": metrics.checkpoint_promotions,
            "prefetched_restores": metrics.prefetched_restores,
            "prefetch_hit_pages": metrics.prefetch_hit_pages,
            "prefetch_miss_pages": metrics.prefetch_miss_pages,
            "mean_first_touch_restore_ms": round(_mean(first_touch), 3),
            "mean_prefetched_restore_ms": round(_mean(prefetched), 3),
            "mean_prefetched_serial_ms": round(_mean(prefetched_serial), 3),
        }
    off, on = samples[False], samples[True]
    assert off["requests"] == on["requests"]
    return {
        "pool_mb": pool_mb,
        "requests": off["requests"],
        "off": off,
        "on": on,
        "cold_start_delta": on["cold_starts"] - off["cold_starts"],
    }


def run_sweep(
    pool_mb: tuple[float, ...] = DEFAULT_POOL_MB,
    nodes: int = DEFAULT_NODES,
    duration_min: float = DEFAULT_DURATION_MIN,
    seed: int = DEFAULT_SEED,
) -> dict:
    results = [run_point(pool, nodes, duration_min, seed) for pool in pool_mb]
    return {
        "benchmark": "storage_tiers",
        "units": "cold starts and mean restore ms per Fig-10 pool point",
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
                on["table_demotions"],
                on["checkpoint_demotions"],
                on["prefetched_restores"],
                f"{on['mean_prefetched_serial_ms']:.1f}",
                f"{on['mean_prefetched_restore_ms']:.1f}",
            ]
        )
    return render_table(
        [
            "pool",
            "cold (off)",
            "cold (tiered)",
            "tbl demote",
            "ckpt demote",
            "prefetched",
            "serial ms",
            "prefetched ms",
        ],
        rows,
        title="Fig 10 pressure sweep: tiered checkpoint storage off vs on",
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
    write_result("storage_tiers", text)
    print(text)
    print(f"\nwrote {OUTPUT_JSON}")


def test_storage_tiers_smoke():
    """Reduced sweep: tiering must help where it matters.

    At the tight pressure points (the 30G/20G analogues) tiering must
    not increase cold starts — parked tables keep serving dedup starts —
    and recorded restores must be faster on average than first-touch.
    """
    report = run_sweep(duration_min=6.0)
    tight = report["results"][1:]  # the 30G and 20G analogues
    assert any(p["cold_start_delta"] < 0 for p in tight), tight
    for point in tight:
        assert point["cold_start_delta"] <= 0, point
        on = point["on"]
        assert on["table_demotions"] > 0, point
        if on["prefetched_restores"]:
            assert (
                on["mean_prefetched_restore_ms"]
                < on["mean_prefetched_serial_ms"]
            ), point


if __name__ == "__main__":
    main()
