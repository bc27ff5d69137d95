"""Throughput of the dedup op: batch pipeline vs per-page reference.

The dedup op is Medes' dominant overhead (Section 7.7), so its
throughput caps every other experiment's scale.  This benchmark times
:meth:`DedupAgent.dedup` (the vectorized batch pipeline) against
``tests/oracles/dedup_scalar.py::dedup_reference`` (the original
page-at-a-time loop: per-page ``page_fingerprint``, per-page
``choose_base_page``, and a fresh ``store.get`` per patched page) on identical inputs, and records
pages/sec for both into ``BENCH_dedup_throughput.json`` at the repo
root — the start of the perf trajectory.

Methodology: the box this runs on shows heavy timing jitter, so each
(batch, reference) sample is taken *paired* — the two paths run
back-to-back on byte-identical sandbox images, repeated ``reps`` times,
keeping the per-path minimum.  Ratios from paired minima are stable
where wall-clock means are not.  ``level`` is the agent's patch level:
level 1 (the default, sparse anchor probing) leaves less scalar work to
vectorize than level 2 (dense probing, the VectorCDC-style content
scanning case), so both are reported.

Standalone, it also fits each level's op time as intercept + slope x
nonzero pages over content scales 1/512 to 1/32 (:func:`fit_op_cost`),
so the op's fixed cost is tracked beside its throughput.

Run standalone for the full matrix::

    PYTHONPATH=src:. python benchmarks/bench_dedup_throughput.py

from the repo root (the reference lives in ``tests/oracles/``), or via
pytest for a reduced smoke configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import time

from benchmarks.conftest import environment, write_result
from repro.analysis.tables import render_table
from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import FingerprintConfig, image_fingerprints
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.functionbench import FunctionBenchSuite
from tests.oracles.dedup_scalar import dedup_reference

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_dedup_throughput.json"

DEFAULT_PROFILES = ("Vanilla", "LinAlg", "ImagePro", "MapReduce")
DEFAULT_SCALE_DENOM = 32
DEFAULT_OPS = 4
DEFAULT_REPS = 5
#: Content scales of the op-cost fit: 15-20 up to ~200 content pages.
FIT_SCALE_DENOMS = (512, 256, 128, 64, 32)


def _make_agent(profile, profile_name: str, scale: float, level: int) -> DedupAgent:
    """One agent with its own store/registry, seeded with one base."""
    cfg = FingerprintConfig()
    store = CheckpointStore()
    registry = FingerprintRegistry(cfg)
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=scale,
        fingerprint_config=cfg,
        patch_level=level,
    )
    base_image = profile.synthesize(100, content_scale=scale, executed=True)
    checkpoint = BaseCheckpoint(
        function=profile_name,
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=profile.memory_bytes,
    )
    store.add(checkpoint)
    for index, fp in enumerate(image_fingerprints(base_image, cfg)):
        registry.register_page(PageRef(checkpoint.checkpoint_id, 1, index), fp)
    return agent


def run_config(
    suite,
    profile_name: str,
    *,
    aslr: bool,
    level: int,
    scale: float,
    ops: int,
    reps: int,
) -> dict:
    """Paired batch-vs-reference timing of ``ops`` dedup ops."""
    profile = suite.get(profile_name)

    def make_sandbox(seed: int) -> Sandbox:
        sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
        sandbox.image = profile.synthesize(
            seed, content_scale=scale, aslr=aslr, executed=True
        )
        sandbox.image.checksum()  # exclude the (cached) checkpoint digest
        return sandbox

    agent_batch = _make_agent(profile, profile_name, scale, level)
    agent_ref = _make_agent(profile, profile_name, scale, level)
    for k in range(2):  # warm caches and allocator
        agent_batch.dedup(make_sandbox(200 + k))
        dedup_reference(agent_ref, make_sandbox(200 + k))

    total_batch = total_ref = 0.0
    pages = 0
    op_minima: list[tuple[int, float]] = []  # (nonzero pages, batch seconds) per op
    batch_samples: list[float] = []  # pages/s, one per (op, rep) run
    ref_samples: list[float] = []
    for k in range(ops):
        best_batch = best_ref = math.inf
        outcome = None
        for _ in range(reps):
            s_batch, s_ref = make_sandbox(300 + k), make_sandbox(300 + k)
            op_pages = s_batch.image.num_pages
            t0 = time.perf_counter()
            outcome = agent_batch.dedup(s_batch)
            dt = time.perf_counter() - t0
            best_batch = min(best_batch, dt)
            batch_samples.append(op_pages / dt)
            t0 = time.perf_counter()
            dedup_reference(agent_ref, s_ref)
            dt = time.perf_counter() - t0
            best_ref = min(best_ref, dt)
            ref_samples.append(op_pages / dt)
        pages += len(outcome.table.entries)
        op_minima.append((int(outcome.table.memo.counts.size), best_batch))
        total_batch += best_batch
        total_ref += best_ref
    return {
        "profile": profile_name,
        "aslr": aslr,
        "level": level,
        "pages": pages,
        "batch_pages_per_s": round(pages / total_batch, 1),
        "reference_pages_per_s": round(pages / total_ref, 1),
        # Per-run dispersion (all reps, not just the minima), so
        # bench-to-bench noise is visible next to the headline numbers.
        "batch_pages_per_s_median": round(statistics.median(batch_samples), 1),
        "batch_pages_per_s_stdev": round(_stdev(batch_samples), 1),
        "reference_pages_per_s_median": round(statistics.median(ref_samples), 1),
        "reference_pages_per_s_stdev": round(_stdev(ref_samples), 1),
        "speedup": round(total_ref / total_batch, 3),
        "op_minima": op_minima,
    }


def fit_op_cost(
    profiles=DEFAULT_PROFILES,
    levels=(1, 2),
    scale_denoms=FIT_SCALE_DENOMS,
    ops: int = 2,
    reps: int = 3,
) -> dict:
    """Least-squares fit of a dedup op's time as intercept + slope x
    nonzero pages, per level, over the paired minima of every op at
    every content scale in ``scale_denoms``: the intercept is the op's
    fixed cost, the slope its cost per page."""
    suite = FunctionBenchSuite.default()
    fits = {}
    for level in levels:
        points = [
            point
            for denom in scale_denoms
            for name in profiles
            for point in run_config(
                suite, name, aslr=False, level=level, scale=1.0 / denom, ops=ops, reps=reps
            )["op_minima"]
        ]
        pages = [float(p) for p, _ in points]
        seconds = [s for _, s in points]
        slope, intercept = statistics.linear_regression(pages, seconds)
        fits[str(level)] = {
            "intercept_us": round(intercept * 1e6, 1),
            "slope_us_per_page": round(slope * 1e6, 2),
            "ops": len(points),
            "pages": [int(min(pages)), int(max(pages))],
        }
    return {
        "scales": [f"1/{denom}" for denom in scale_denoms],
        "ops_per_scale_and_profile": ops,
        "reps_per_op": reps,
        **environment(),
        "by_level": fits,
    }


def _stdev(samples: list[float]) -> float:
    return statistics.stdev(samples) if len(samples) > 1 else 0.0


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def run_matrix(
    profiles=DEFAULT_PROFILES,
    levels=(1, 2),
    scale_denom: int = DEFAULT_SCALE_DENOM,
    ops: int = DEFAULT_OPS,
    reps: int = DEFAULT_REPS,
) -> dict:
    suite = FunctionBenchSuite.default()
    scale = 1.0 / scale_denom
    results = [
        run_config(
            suite, name, aslr=aslr, level=level,
            scale=scale, ops=ops, reps=reps,
        )
        for level in levels
        for name in profiles
        for aslr in (False, True)
    ]
    by_level = {
        level: _geomean([r["speedup"] for r in results if r["level"] == level])
        for level in levels
    }
    return {
        "benchmark": "dedup_throughput",
        "units": "pages/sec of the dedup op, paired min-of-reps",
        "config": {
            "content_scale": f"1/{scale_denom}",
            "ops_per_config": ops,
            "reps_per_op": reps,
            **environment(),
        },
        "results": results,
        "summary": {
            "geomean_speedup_by_level": {
                str(level): round(v, 3) for level, v in by_level.items()
            },
            "max_speedup": round(max(r["speedup"] for r in results), 3),
            "min_speedup": round(min(r["speedup"] for r in results), 3),
        },
    }


def _render(report: dict) -> str:
    rows = [
        [
            r["profile"],
            "on" if r["aslr"] else "off",
            str(r["level"]),
            f"{r['batch_pages_per_s']:,.0f}",
            f"{r['reference_pages_per_s']:,.0f}",
            f"{r['speedup']:.2f}x",
        ]
        for r in report["results"]
    ]
    return render_table(
        ["function", "aslr", "level", "batch p/s", "reference p/s", "speedup"],
        rows,
        title="Dedup-op throughput: batch pipeline vs per-page reference",
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", default=",".join(DEFAULT_PROFILES))
    parser.add_argument("--levels", default="1,2")
    parser.add_argument("--scale-denom", type=int, default=DEFAULT_SCALE_DENOM)
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    args = parser.parse_args(argv)
    report = run_matrix(
        profiles=tuple(args.profiles.split(",")),
        levels=tuple(int(x) for x in args.levels.split(",")),
        scale_denom=args.scale_denom,
        ops=args.ops,
        reps=args.reps,
    )
    report["op_cost_fit"] = fit_op_cost(
        profiles=tuple(args.profiles.split(",")),
        levels=tuple(int(x) for x in args.levels.split(",")),
        reps=args.reps,
    )
    for result in report["results"]:
        del result["op_minima"]
    OUTPUT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    text = _render(report)
    write_result("dedup_throughput", text)
    print(text)
    for level, fit in report["op_cost_fit"]["by_level"].items():
        print(
            f"level {level} op cost: {fit['intercept_us']:.0f} us + "
            f"{fit['slope_us_per_page']:.2f} us x nonzero pages ({fit['ops']} ops)"
        )
    print(f"\nwrote {OUTPUT_JSON}")


def test_dedup_throughput_smoke():
    """Reduced matrix: the batch path must beat the reference path."""
    report = run_matrix(profiles=("Vanilla",), levels=(1, 2), ops=2, reps=3)
    for result in report["results"]:
        assert result["speedup"] > 1.0, result
    # Dense probing is the VectorCDC-style case: the win must be large.
    level2 = [r["speedup"] for r in report["results"] if r["level"] == 2]
    assert _geomean(level2) > 2.0


if __name__ == "__main__":
    main()
