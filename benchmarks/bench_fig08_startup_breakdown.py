"""Figure 8: dedup start-time breakdown vs cold starts.

Per function: the three restore phases (base page reading, original
page computing, sandbox restoration) against the cold-start cost.  The
benchmark measures a complete restore op on real content.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.analysis.experiments import run_fig8
from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import page_fingerprint
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.functionbench import FunctionBenchSuite

SCALE = 1.0 / 64.0


@pytest.fixture(scope="module")
def fig8():
    result = run_fig8(content_scale=SCALE)
    write_result("fig08_startup_breakdown", result.render())
    return result


def test_fig8_dedup_starts_beat_cold_starts(benchmark, fig8):
    for function, cold, read, compute, fixed, dedup_total in fig8.rows:
        restore_total = read + compute + fixed
        # Dedup starts are consistently much faster than cold starts.
        assert restore_total < 0.5 * cold, function
        # And the background dedup op is in the paper's seconds band.
        assert 500 < dedup_total < 6_000, function

    # Larger functions need more base pages: RNNModel restores slowest.
    by_function = {fn: read + compute + fixed for fn, _, read, compute, fixed, _ in fig8.rows}
    assert by_function["RNNModel"] == max(by_function.values())

    # Benchmark: a full restore op (content + cost model) for LinAlg.
    suite = FunctionBenchSuite.default()
    profile = suite.get("LinAlg")
    store = CheckpointStore()
    registry = FingerprintRegistry()
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=SCALE,
    )
    base_image = profile.synthesize(11, content_scale=SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function="LinAlg",
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=profile.memory_bytes,
    )
    store.add(checkpoint)
    for index in range(base_image.num_pages):
        registry.register_page(
            PageRef(checkpoint.checkpoint_id, 1, index),
            page_fingerprint(base_image.page(index)),
        )
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=12, created_at=0.0)
    sandbox.image = profile.synthesize(12, content_scale=SCALE, executed=True)
    table = agent.dedup(sandbox).table

    outcome = benchmark(agent.restore, table)
    assert np.array_equal(outcome.image.page_digests(), table.page_digests)
