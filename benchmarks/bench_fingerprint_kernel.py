"""Throughput of the fingerprint kernel: legacy batch loop vs vectorized.

The fingerprint scan is the per-page fixed cost of every dedup op
(Section 4.1.2: one rolling-marker pass plus ~5 chunk hashes per page),
so its pages/sec bounds how fast the data plane can drain dedup queues.
This benchmark pins the VectorCDC-style rewrite against the kernel it
replaced, on identical buffers:

* ``legacy`` — the pre-rewrite batch path, reimplemented inline below:
  one vectorized marker scan, then a *hit-by-hit Python loop* for the
  spacing/cardinality thinning, a Python list of ``raw[s : s + 64]``
  slice objects, and ``hash_bytes_many`` over those slices.
* ``sha1`` — the current kernel: segmented vectorized thinning
  (``batch_enforce_spacing``), one fancy-indexed gather
  (``gather_chunks``), and slice-free row hashing (``hash_rows_sha1``).
  Bit-identical output to ``legacy`` and to the per-page oracle.

Methodology matches ``bench_dedup_throughput``: heavy timing jitter on
this box, so each (legacy, sha1) sample is taken *paired* —
back-to-back on the same buffer, repeated ``reps`` times, keeping each
path's minimum.  The sweep doubles the page count up to 256 Ki pages
(a 1 GiB buffer at 4 KiB pages) to show the ratio holding at scale,
where the legacy path's per-hit interpreter dispatch dominates.

Run standalone for the full sweep::

    PYTHONPATH=src:. python benchmarks/bench_fingerprint_kernel.py

from the repo root (``hash_bytes_many`` lives in ``tests/oracles/``),
or via pytest for a reduced smoke configuration.  Results land in
``BENCH_fingerprint_kernel.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import time

import numpy as np

from benchmarks.conftest import environment, write_result
from repro._util import rng_for
from repro.analysis.tables import render_table
from repro.memory.chunks import batch_marker_ends
from repro.memory.fingerprint import FingerprintConfig, batch_fingerprint_arrays
from tests.oracles.chunk_hashes import hash_bytes_many

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_fingerprint_kernel.json"

DEFAULT_PAGE_SIZE = 4096
DEFAULT_SIZES = (4096, 16384, 65536, 262144)
DEFAULT_REPS = 3


def legacy_batch_fingerprints(
    data: np.ndarray, page_size: int, cfg: FingerprintConfig
) -> tuple[list[list[int]], list[int]]:
    """The pre-rewrite batch kernel, preserved as the baseline.

    This is the kernel the vectorized rewrite replaced (verbatim control
    flow, trimmed of the PageFingerprint packaging): the marker scan was
    already vectorized, but the greedy spacing/cardinality thinning ran
    hit by hit in Python, and chunk hashing materialized one ``bytes``
    slice per sampled chunk.  Returns (offsets per page, flat digests)
    so the comparison excludes object construction both sides share.
    """
    num_pages = len(data) // page_size
    ends = batch_marker_ends(data, page_size, min_position=cfg.chunk_size - 1)
    out: list[list[int]] = [[] for _ in range(num_pages)]
    spacing = cfg.chunk_size
    cardinality = cfg.cardinality
    delta = cfg.chunk_size - 1
    page = -1
    last = -1
    kept = 0
    for pos in ends.tolist():
        p = pos // page_size
        if p != page:
            page, last, kept = p, -1, 0
        if kept >= cardinality:
            continue
        if last < 0 or pos - last >= spacing:
            out[p].append(pos - p * page_size - delta)
            last = pos
            kept += 1
    raw = data.tobytes()
    chunk_size = cfg.chunk_size
    chunks = [
        raw[index * page_size + s : index * page_size + s + chunk_size]
        for index in range(num_pages)
        for s in out[index]
    ]
    return out, hash_bytes_many(chunks, cfg.digest_bits).tolist()


def make_buffer(num_pages: int, page_size: int) -> np.ndarray:
    """A deterministic uniform-random buffer (~16 marker hits/page)."""
    rng = rng_for("fingerprint-kernel-bench", num_pages, page_size)
    return rng.integers(0, 256, size=num_pages * page_size, dtype=np.uint8)


def run_size(num_pages: int, page_size: int, reps: int) -> dict:
    """Paired min-of-reps timing of both kernels on one buffer."""
    data = make_buffer(num_pages, page_size)
    sha1_cfg = FingerprintConfig()

    # Warm-up (allocator, caches) + output equivalence check.
    legacy_offsets, legacy_digests = legacy_batch_fingerprints(
        data, page_size, sha1_cfg
    )
    digests, offsets, counts = batch_fingerprint_arrays(data, page_size, sha1_cfg)
    assert digests.tolist() == legacy_digests
    assert [page.tolist() for page in np.split(offsets, np.cumsum(counts)[:-1])] == legacy_offsets

    best = {"legacy": math.inf, "sha1": math.inf}
    for _ in range(reps):
        t0 = time.perf_counter()
        legacy_batch_fingerprints(data, page_size, sha1_cfg)
        best["legacy"] = min(best["legacy"], time.perf_counter() - t0)
        t0 = time.perf_counter()
        batch_fingerprint_arrays(data, page_size, sha1_cfg)
        best["sha1"] = min(best["sha1"], time.perf_counter() - t0)
    chunks = int(counts.sum())
    return {
        "pages": num_pages,
        "buffer_mb": round(num_pages * page_size / (1024 * 1024), 1),
        "chunks": chunks,
        "legacy_pages_per_s": round(num_pages / best["legacy"], 1),
        "sha1_pages_per_s": round(num_pages / best["sha1"], 1),
        "sha1_speedup": round(best["legacy"] / best["sha1"], 3),
    }


def run_sweep(
    sizes=DEFAULT_SIZES, page_size: int = DEFAULT_PAGE_SIZE, reps: int = DEFAULT_REPS
) -> dict:
    results = [run_size(n, page_size, reps) for n in sizes]
    largest = results[-1]
    return {
        "benchmark": "fingerprint_kernel",
        "units": "pages/sec of the batch fingerprint kernel, paired min-of-reps",
        "config": {
            "page_size": page_size,
            "reps": reps,
            "chunk_size": FingerprintConfig().chunk_size,
            "cardinality": FingerprintConfig().cardinality,
            **environment(),
        },
        "results": results,
        "summary": {
            "sha1_speedup_at_max_pages": largest["sha1_speedup"],
            "max_pages": largest["pages"],
        },
    }


def _render(report: dict) -> str:
    rows = [
        [
            f"{r['pages']:,}",
            f"{r['buffer_mb']:,.0f}",
            f"{r['legacy_pages_per_s']:,.0f}",
            f"{r['sha1_pages_per_s']:,.0f}",
            f"{r['sha1_speedup']:.2f}x",
        ]
        for r in report["results"]
    ]
    return render_table(
        ["pages", "MB", "legacy p/s", "sha1 p/s", "sha1"],
        rows,
        title="Fingerprint kernel throughput: legacy batch loop vs vectorized",
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", default=",".join(str(n) for n in DEFAULT_SIZES)
    )
    parser.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    args = parser.parse_args(argv)
    report = run_sweep(
        sizes=tuple(int(x) for x in args.sizes.split(",")),
        page_size=args.page_size,
        reps=args.reps,
    )
    OUTPUT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    text = _render(report)
    write_result("fingerprint_kernel", text)
    print(text)
    print(f"\nwrote {OUTPUT_JSON}")


def test_fingerprint_kernel_smoke():
    """Reduced sweep: the vectorized kernel must beat the legacy loop.

    The legacy marker scan was already vectorized, so at small page
    counts the two SHA-1 paths are near parity (the win is the per-hit
    Python loop, whose cost grows with the buffer) — the speedup gate
    applies at the largest smoke size only.
    """
    report = run_sweep(sizes=(4096, 16384), reps=2)
    assert report["results"][-1]["sha1_speedup"] > 1.0, report["results"]


if __name__ == "__main__":
    main()
