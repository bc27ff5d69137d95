"""Ablations of Medes' design choices (DESIGN.md section 4 extensions).

Each ablation toggles one mechanism on the representative workload:

* **value-sampled vs fixed-offset fingerprints** — the paper's Section-8
  argument against Difference Engine's random-offset chunks, measured as
  per-sandbox savings under ASLR (where content shifts);
* **dedup abort** — serving an arriving request by aborting an in-flight
  dedup op instead of paying a cold start;
* **base demarcation threshold** — per-function bases always (threshold
  1.0) vs cross-function coverage first (default 0.45) vs never (0.0);
* **eviction order** — how much baseline quality the keep-alive
  comparison rests on;
* **registry sharding** — Section 4.3: sharding must not change results.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.analysis.experiments import representative_config, representative_workload
from repro.analysis.study import measure_function_savings
from repro.analysis.tables import render_table
from repro.memory.fingerprint import FingerprintConfig, SamplingStrategy
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import EvictionOrder
from repro.workload.functionbench import FunctionBenchSuite

SCALE = 1.0 / 64.0


@pytest.fixture(scope="module")
def workload():
    return representative_workload(duration_min=10.0)


def _run_medes(suite, trace, config):
    return build_platform(PlatformKind.MEDES, config, suite).run(trace).metrics


def test_ablation_fingerprint_strategy(benchmark):
    """Value sampling survives sub-page content shifts; fixed offsets
    (Difference Engine's scheme, Section 8) do not.

    Page-aligned content matches equally well under either scheme, so
    the discriminating case is content shifted by a non-page amount —
    16B-granularity stack randomization, relocated heap objects.  For a
    population of shifted page copies, we count how often each scheme's
    fingerprint still overlaps the original page's fingerprint (the
    precondition for finding the right base page).
    """
    import numpy as np

    from repro._util import rng_for
    from repro.memory.fingerprint import page_fingerprint

    rng = rng_for("ablation-shift")
    value_hits = fixed_hits = 0
    trials = 60
    value_config = FingerprintConfig(strategy=SamplingStrategy.VALUE_SAMPLED)
    fixed_config = FingerprintConfig(strategy=SamplingStrategy.FIXED_OFFSETS)
    for trial in range(trials):
        page = rng.integers(0, 256, size=4096, dtype=np.uint8)
        shift = int(rng.integers(1, 128)) * 16  # 16B-granularity shift
        shifted = np.roll(page, shift)
        if page_fingerprint(page, value_config).overlap(
            page_fingerprint(shifted, value_config)
        ):
            value_hits += 1
        if page_fingerprint(page, fixed_config).overlap(
            page_fingerprint(shifted, fixed_config)
        ):
            fixed_hits += 1

    # Context: end-to-end savings on (page-aligned) ASLR'd sandboxes,
    # where the two schemes are expected to be comparable.
    suite = FunctionBenchSuite.default()
    value_savings = measure_function_savings(
        suite, content_scale=SCALE, aslr=True, fingerprint=value_config
    )
    fixed_savings = measure_function_savings(
        suite, content_scale=SCALE, aslr=True, fingerprint=fixed_config
    )
    mean_value = sum(m.savings_fraction for m in value_savings.values()) / len(suite)
    mean_fixed = sum(m.savings_fraction for m in fixed_savings.values()) / len(suite)

    text = render_table(
        ["metric", "value-sampled", "fixed-offset (DE)"],
        [
            (
                "shifted-page fingerprint match rate",
                f"{value_hits}/{trials}",
                f"{fixed_hits}/{trials}",
            ),
            (
                "mean savings, ASLR'd sandboxes",
                f"{mean_value * 100:.1f}%",
                f"{mean_fixed * 100:.1f}%",
            ),
        ],
        title="Ablation: fingerprint sampling strategy (Sec 8 vs Difference Engine)",
    )
    write_result("ablation_fingerprint_strategy", text)

    # The paper's claim: value sampling identifies shifted redundancy.
    assert value_hits > fixed_hits * 2
    assert value_hits > trials * 0.6
    # On aligned content the schemes are comparable (within a few points).
    assert abs(mean_value - mean_fixed) < 0.08

    benchmark(
        measure_function_savings,
        FunctionBenchSuite.subset(["LinAlg"]),
        content_scale=SCALE,
        aslr=True,
    )


def test_ablation_dedup_abort(benchmark, workload):
    """Aborting in-flight dedups avoids cold starts at zero memory cost."""
    suite, trace = workload
    with_abort = _run_medes(
        suite, trace, representative_config(enable_dedup_abort=True)
    )
    without = _run_medes(
        suite, trace, representative_config(enable_dedup_abort=False)
    )
    text = render_table(
        ["variant", "cold starts", "dedup ops"],
        [
            ("abort enabled", with_abort.cold_starts(), len(with_abort.dedup_ops)),
            ("abort disabled", without.cold_starts(), len(without.dedup_ops)),
        ],
        title="Ablation: aborting in-flight dedup ops for arriving requests",
    )
    write_result("ablation_dedup_abort", text)
    assert with_abort.cold_starts() <= without.cold_starts() * 1.05

    benchmark(with_abort.start_counts)


def test_ablation_base_demarcation(benchmark, workload):
    """Trial-based base demarcation vs always/never per-function bases."""
    suite, trace = workload
    rows = []
    results = {}
    for label, threshold in (("never", 0.0), ("trial (default)", 0.45), ("always", 1.0)):
        metrics = _run_medes(
            suite, trace, representative_config(base_savings_threshold=threshold)
        )
        results[label] = metrics
        rows.append((label, metrics.cold_starts(), metrics.bases_created))
    text = render_table(
        ["demarcation", "cold starts", "bases created"],
        rows,
        title="Ablation: base-sandbox demarcation policy",
    )
    write_result("ablation_base_demarcation", text)

    # More aggressive demarcation creates more bases...
    assert results["always"].bases_created >= results["trial (default)"].bases_created
    assert results["trial (default)"].bases_created >= results["never"].bases_created
    # ...and the trial policy is at least as good as never having bases.
    assert results["trial (default)"].cold_starts() <= results["never"].cold_starts() * 1.05

    benchmark(results["trial (default)"].cold_starts)


def test_ablation_eviction_order(benchmark, workload):
    """Medes beats the fixed baseline under every eviction order."""
    suite, trace = workload
    rows = []
    for order in EvictionOrder:
        config = representative_config(eviction_order=order)
        medes = _run_medes(suite, trace, config)
        fixed = (
            build_platform(PlatformKind.FIXED_KEEP_ALIVE, config, suite)
            .run(trace)
            .metrics
        )
        rows.append((order.value, fixed.cold_starts(), medes.cold_starts()))
        assert medes.cold_starts() < fixed.cold_starts(), order
    text = render_table(
        ["eviction order", "fixed KA cold starts", "Medes cold starts"],
        rows,
        title="Ablation: eviction-order robustness",
    )
    write_result("ablation_eviction_order", text)

    benchmark(list, EvictionOrder)


def test_ablation_registry_sharding(benchmark, workload):
    """Section 4.3: a sharded controller registry changes nothing."""
    suite, trace = workload
    single = _run_medes(suite, trace, representative_config(registry_shards=1))
    sharded = _run_medes(suite, trace, representative_config(registry_shards=4))
    text = render_table(
        ["registry", "cold starts", "dedup ops"],
        [
            ("1 shard", single.cold_starts(), len(single.dedup_ops)),
            ("4 shards", sharded.cold_starts(), len(sharded.dedup_ops)),
        ],
        title="Ablation: controller registry sharding (Sec 4.3)",
    )
    write_result("ablation_registry_sharding", text)
    assert sharded.cold_starts() == single.cold_starts()
    assert len(sharded.dedup_ops) == len(single.dedup_ops)

    benchmark(single.start_counts)
