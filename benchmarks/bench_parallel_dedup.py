"""Scaling curve of the parallel dedup data plane (workers × profiles).

For each (profile, workers) cell this benchmark runs the dedup op twice
on byte-identical sandbox images — once through the serial pipeline,
once through the parallel data plane (`src/repro/parallel/`) — and
records two families of numbers into ``BENCH_parallel_dedup.json``:

* ``wall_*`` — measured wall-clock pages/sec of the *scaled* content
  work, paired min-of-reps like ``bench_dedup_throughput``.  These are
  honest about the machine (see the ``cpus`` field): on one or two
  cores, with scaled ops a few milliseconds long, forked workers
  cannot beat the serial path in wall-clock, they only pay IPC
  overhead.
* ``model_*`` — the overlap cost model's full-scale data-plane time
  for the same ops (``DedupTimings`` with stage-overlap accounting vs
  the serial stage sum, checkpoint prologue excluded from both since
  this PR does not parallelize the runtime freeze).  This is what the
  simulator charges and what Medes' offloaded hashing + batched
  registry traffic (Section 4.3) actually buys: the registry round-trip
  collapses from one RPC per page to one per batch, and the fingerprint
  / patch stages divide across workers while lookups and base reads
  pipeline behind them.

Every paired run also verifies the parallel page table is bit-identical
to the serial one, so the speedups are measured over equivalent work.

Run standalone for the full matrix::

    PYTHONPATH=src python benchmarks/bench_parallel_dedup.py

``--smoke`` runs the reduced CI configuration (also exercised by the
pytest smoke test below).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import time

from benchmarks.conftest import write_result
from repro.analysis.tables import render_table
from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import FingerprintConfig, image_fingerprints
from repro.parallel import ParallelConfig
from repro.parallel.pool import WorkerPool
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.functionbench import FunctionBenchSuite

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_parallel_dedup.json"

DEFAULT_PROFILES = ("Vanilla", "LinAlg", "ImagePro")
DEFAULT_WORKERS = (1, 2, 4, 8)
DEFAULT_SCALE_DENOM = 16
DEFAULT_OPS = 3
DEFAULT_REPS = 3
#: Execution/model batch size: small enough that even scaled images
#: split into several batches, so the pipeline actually pipelines.
BATCH_PAGES = 64


def _make_agents(
    profile, profile_name: str, scale: float, parallel: ParallelConfig
) -> tuple[DedupAgent, DedupAgent]:
    """A (parallel, serial) agent pair over one shared store/registry.

    Sharing the store matters for the identity check: page-table entries
    embed checkpoint ids, which are only comparable when both agents
    dedup against the same base checkpoints.
    """
    cfg = FingerprintConfig()
    store = CheckpointStore()
    registry = FingerprintRegistry(cfg)
    fabric = RdmaFabric()

    def make(par: ParallelConfig | None) -> DedupAgent:
        return DedupAgent(
            0,
            registry=registry,
            store=store,
            fabric=fabric,
            costs=CostModel(),
            content_scale=scale,
            fingerprint_config=cfg,
            parallel=par,
            overlap_costs=par,
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
    return make(parallel), make(None)


def _stdev(samples: list[float]) -> float:
    return statistics.stdev(samples) if len(samples) > 1 else 0.0


def run_config(
    suite,
    profile_name: str,
    *,
    workers: int,
    scale: float,
    ops: int,
    reps: int,
) -> dict:
    """Paired parallel-vs-serial timing of ``ops`` dedup ops."""
    profile = suite.get(profile_name)
    parallel = ParallelConfig(workers=workers, batch_pages=BATCH_PAGES)

    def make_sandbox(seed: int) -> Sandbox:
        sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
        sandbox.image = profile.synthesize(
            seed, content_scale=scale, aslr=False, executed=True
        )
        sandbox.image.checksum()  # exclude the (cached) checkpoint digest
        return sandbox

    agent_par, agent_ser = _make_agents(profile, profile_name, scale, parallel)
    for k in range(2):  # warm pools, caches and allocator
        agent_par.dedup(make_sandbox(200 + k))
        agent_ser.dedup(make_sandbox(200 + k))

    total_par = total_ser = 0.0
    pages = full_pages = 0
    model_par_ms = model_ser_ms = 0.0
    par_samples: list[float] = []  # wall pages/s, one per (op, rep)
    ser_samples: list[float] = []
    tables_identical = True
    for k in range(ops):
        best_par = best_ser = math.inf
        outcome_par = outcome_ser = None
        for _ in range(reps):
            s_par, s_ser = make_sandbox(300 + k), make_sandbox(300 + k)
            op_pages = s_par.image.num_pages
            t0 = time.perf_counter()
            outcome_par = agent_par.dedup(s_par)
            dt = time.perf_counter() - t0
            best_par = min(best_par, dt)
            par_samples.append(op_pages / dt)
            t0 = time.perf_counter()
            outcome_ser = agent_ser.dedup(s_ser)
            dt = time.perf_counter() - t0
            best_ser = min(best_ser, dt)
            ser_samples.append(op_pages / dt)
        tables_identical = tables_identical and (
            outcome_par.table.entries == outcome_ser.table.entries
            and outcome_par.table.stats == outcome_ser.table.stats
        )
        pages += len(outcome_par.table.entries)
        full_pages += agent_par._full_scale(len(outcome_par.table.entries))[0]
        total_par += best_par
        total_ser += best_ser
        # Modeled full-scale data-plane time of this op (checkpoint
        # freeze excluded from both sides: it is serial either way).
        t_par, t_ser = outcome_par.timings, outcome_ser.timings
        model_par_ms += t_par.total_ms - t_par.checkpoint_ms
        model_ser_ms += t_ser.total_ms - t_ser.checkpoint_ms
    agent_par.close()
    return {
        "profile": profile_name,
        "workers": workers,
        "pages": pages,
        "tables_identical": tables_identical,
        "wall_parallel_pages_per_s": round(pages / total_par, 1),
        "wall_serial_pages_per_s": round(pages / total_ser, 1),
        "wall_speedup": round(total_ser / total_par, 3),
        "wall_parallel_pages_per_s_median": round(statistics.median(par_samples), 1),
        "wall_parallel_pages_per_s_stdev": round(_stdev(par_samples), 1),
        "wall_serial_pages_per_s_median": round(statistics.median(ser_samples), 1),
        "wall_serial_pages_per_s_stdev": round(_stdev(ser_samples), 1),
        "model_parallel_dataplane_ms": round(model_par_ms, 2),
        "model_serial_dataplane_ms": round(model_ser_ms, 2),
        "model_parallel_pages_per_s": round(full_pages / (model_par_ms / 1e3), 1),
        "model_serial_pages_per_s": round(full_pages / (model_ser_ms / 1e3), 1),
        "model_speedup": round(model_ser_ms / model_par_ms, 3),
    }


def run_matrix(
    profiles=DEFAULT_PROFILES,
    workers=DEFAULT_WORKERS,
    scale_denom: int = DEFAULT_SCALE_DENOM,
    ops: int = DEFAULT_OPS,
    reps: int = DEFAULT_REPS,
) -> dict:
    suite = FunctionBenchSuite.default()
    scale = 1.0 / scale_denom
    results = [
        run_config(suite, name, workers=w, scale=scale, ops=ops, reps=reps)
        for name in profiles
        for w in workers
    ]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    headline = [r for r in results if r["workers"] == 4] or results
    return {
        "benchmark": "parallel_dedup",
        "units": "pages/sec of the dedup op; wall_* = measured scaled "
        "content work (paired min-of-reps), model_* = overlap cost model's "
        "full-scale data-plane time (checkpoint freeze excluded)",
        "headline": "model_speedup: the stage-overlap model vs the serial "
        "stage-sum — what the parallel data plane buys a deployment with "
        "the cores to run it; wall_* shows what this box (see cpus) "
        "actually measured",
        "config": {
            "content_scale": f"1/{scale_denom}",
            "batch_pages": BATCH_PAGES,
            "ops_per_config": ops,
            "reps_per_op": reps,
            "cpus": cpus,
            "python": platform.python_version(),
        },
        "results": results,
        "summary": {
            "model_speedup_at_workers4": {
                r["profile"]: r["model_speedup"] for r in headline
            },
            "all_tables_identical": all(r["tables_identical"] for r in results),
        },
    }


def _render(report: dict) -> str:
    rows = [
        [
            r["profile"],
            str(r["workers"]),
            f"{r['wall_parallel_pages_per_s']:,.0f}",
            f"{r['wall_speedup']:.2f}x",
            f"{r['model_parallel_pages_per_s']:,.0f}",
            f"{r['model_speedup']:.2f}x",
            "yes" if r["tables_identical"] else "NO",
        ]
        for r in report["results"]
    ]
    return render_table(
        ["function", "workers", "wall p/s", "wall x", "model p/s", "model x", "identical"],
        rows,
        title=f"Parallel dedup data plane ({report['config']['cpus']} cpu(s); "
        "model = overlap cost model, full-scale)",
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", default=",".join(DEFAULT_PROFILES))
    parser.add_argument("--workers", default=",".join(map(str, DEFAULT_WORKERS)))
    parser.add_argument("--scale-denom", type=int, default=DEFAULT_SCALE_DENOM)
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced CI configuration"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_matrix(
            profiles=("Vanilla", "LinAlg"),
            workers=(1, 4),
            scale_denom=64,
            ops=2,
            reps=2,
        )
    else:
        report = run_matrix(
            profiles=tuple(args.profiles.split(",")),
            workers=tuple(int(x) for x in args.workers.split(",")),
            scale_denom=args.scale_denom,
            ops=args.ops,
            reps=args.reps,
        )
    WorkerPool.shutdown_all()
    OUTPUT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    text = _render(report)
    write_result("parallel_dedup", text)
    print(text)
    print(f"\nwrote {OUTPUT_JSON}")


def test_parallel_dedup_smoke():
    """Reduced matrix: tables bit-identical, modeled win at 4 workers."""
    report = run_matrix(
        profiles=("Vanilla", "LinAlg"), workers=(1, 4), scale_denom=64, ops=2, reps=2
    )
    WorkerPool.shutdown_all()
    assert report["summary"]["all_tables_identical"]
    at4 = [r for r in report["results"] if r["workers"] == 4]
    assert len(at4) >= 2
    for r in at4:
        # The acceptance bar: >=2.5x modeled data-plane pages/s on at
        # least two profiles (here: on every profile in the matrix).
        assert r["model_speedup"] >= 2.5, r
    for r in report["results"]:
        assert r["wall_parallel_pages_per_s"] > 0
        assert r["model_parallel_pages_per_s"] > r["model_serial_pages_per_s"]


if __name__ == "__main__":
    main()
