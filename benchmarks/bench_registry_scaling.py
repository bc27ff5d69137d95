"""Fingerprint-registry scaling micro-benchmark (paper Section 4.3).

Measures how the fingerprint registry behaves as the cluster grows:
lookup latency versus registry population — per page through the scalar
``choose_base_page`` (a batch of one through the lookup kernel) and
through one ``choose_base_pages`` over the whole query set, the path a
dedup op takes — shard load balance, and the single-digest routing
property that makes key partitioning safe.

(Moved here from ``bench_scalability.py``, which now holds the
full-platform cluster-scale replay curve.)
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.analysis.tables import render_table
from repro.core.registry import FingerprintRegistry, PageRef, ShardedFingerprintRegistry
from repro.memory.fingerprint import FingerprintBatch, digest_arrays, page_fingerprint
from repro.workload.functionbench import FunctionBenchSuite

SCALE = 1.0 / 64.0
#: Pages per ``choose_base_pages`` call on the batch path (≈ one image).
BATCH_PAGES = 256


def _populate(registry, base_count: int):
    """Register `base_count` base sandboxes' pages; returns query set."""
    suite = FunctionBenchSuite.default()
    queries = []
    for index in range(base_count):
        profile = suite.profiles[index % len(suite)]
        image = profile.synthesize(
            9_000 + index, content_scale=SCALE, executed=True
        )
        for page_index in range(image.num_pages):
            fingerprint = page_fingerprint(image.page(page_index))
            registry.register_page(
                PageRef(index + 1, index % 8, page_index), fingerprint
            )
            if page_index % 11 == 0 and fingerprint.digests:
                queries.append(fingerprint)
    return queries


def _timed_us(run) -> float:
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) * 1e6


@pytest.fixture(scope="module")
def scaling_data():
    rows = []
    measurements = {}
    for base_count in (2, 8, 24):
        registry = FingerprintRegistry()
        queries = _populate(registry, base_count)
        start = time.perf_counter()
        hits = sum(
            1 for q in queries if registry.choose_base_page(q, 0) is not None
        )
        elapsed_us = (time.perf_counter() - start) / max(1, len(queries)) * 1e6
        # The form a dedup op holds its fingerprints in: flat arrays — an
        # image of BATCH_PAGES pages at every population, so the per-page
        # figures compare (the kernel's fixed cost amortises the same).
        image = (queries * (BATCH_PAGES // len(queries) + 1))[:BATCH_PAGES]
        digests, counts = digest_arrays(image)
        batch = FingerprintBatch(digests, np.zeros(len(digests), np.int64), counts)
        batch_us = min(
            _timed_us(lambda: registry.choose_base_pages(batch, 0)) for _ in range(5)
        ) / BATCH_PAGES
        measurements[base_count] = (elapsed_us, hits / max(1, len(queries)), batch_us)
        rows.append(
            (
                base_count,
                registry.digest_count,
                f"{registry.memory_bytes() / 1024:.0f}KB",
                f"{elapsed_us:.1f}",
                f"{batch_us:.2f}",
                f"{hits / max(1, len(queries)) * 100:.0f}%",
            )
        )
    text = render_table(
        [
            "base sandboxes",
            "digests",
            "registry size",
            "scalar us/page",
            "batch us/page",
            "hit rate",
        ],
        rows,
        title="Sec 4.3: registry scaling with base-sandbox population",
    )
    write_result("scalability_registry", text)
    return measurements


def test_registry_lookup_stays_flat(benchmark, scaling_data):
    """Lookups stay near-constant as the registry grows (a binary search
    into a sorted digest column: logarithmic, not linear) — the property
    that lets the paper claim per-page lookups scale."""
    small_us, _, small_batch_us = scaling_data[2]
    large_us, large_hit_rate, large_batch_us = scaling_data[24]
    # 12x more bases must not make lookups an order of magnitude slower,
    # page at a time or a whole image at once.
    assert large_us < max(small_us, 5.0) * 8
    assert large_batch_us < max(small_batch_us, 1.0) * 8
    assert large_hit_rate > 0.9

    registry = FingerprintRegistry()
    queries = _populate(registry, 4)

    def lookup_all():
        return sum(1 for q in queries if registry.choose_base_page(q, 0) is not None)

    hits = benchmark(lookup_all)
    assert hits > 0


def test_sharding_divides_load(benchmark):
    """Shards see roughly even digest load (key partitioning works)."""
    sharded = ShardedFingerprintRegistry(8)
    _populate(sharded, 8)
    assert sharded.load_imbalance() < 1.25
    per_shard = [shard.digest_count for shard in sharded.shards]
    assert min(per_shard) > 0

    benchmark(sharded.load_imbalance)
