"""Property-based end-to-end invariants of the platform.

Hypothesis generates small arbitrary traces; after every run, the
platform must satisfy the core invariants regardless of the arrival
pattern: every request completes exactly once, refcounts balance,
memory accounting is consistent, and restores are byte-exact.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

FUNCTIONS = ("Vanilla", "LinAlg", "RNNModel")

arrival_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=120_000.0),
        st.sampled_from(FUNCTIONS),
    ),
    min_size=1,
    max_size=12,
)


def run_platform(arrivals, *, node_memory_mb=256.0):
    suite = FunctionBenchSuite.subset(list(FUNCTIONS))
    trace = Trace.from_arrivals(arrivals)
    config = ClusterConfig(
        nodes=2,
        node_memory_mb=node_memory_mb,
        content_scale=1.0 / 256.0,
        seed=5,
        verify_restores=True,
    )
    platform = build_platform(
        PlatformKind.MEDES,
        config,
        suite,
        medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
    )
    report = platform.run(trace)
    return platform, report


class TestEndToEndInvariants:
    @settings(max_examples=15, deadline=None)
    @given(arrival_lists)
    def test_all_requests_complete_once(self, arrivals):
        _, report = run_platform(arrivals)
        assert len(report.metrics.requests) == len(arrivals)
        for record in report.metrics.requests.values():
            assert record.completion_ms is not None
            assert record.completion_ms >= record.arrival_ms
            assert record.start_type in StartType

    @settings(max_examples=15, deadline=None)
    @given(arrival_lists)
    def test_refcounts_balance(self, arrivals):
        platform, _ = run_platform(arrivals)
        expected: Counter[int] = Counter()
        for node in platform.nodes:
            for sandbox in node.sandboxes.values():
                if sandbox.dedup_table is not None:
                    expected.update(sandbox.dedup_table.base_refs)
        for checkpoint in platform.store:
            assert checkpoint.refcount == expected.get(checkpoint.checkpoint_id, 0)
            assert checkpoint.refcount >= 0

    @settings(max_examples=15, deadline=None)
    @given(arrival_lists)
    def test_node_accounting_consistent(self, arrivals):
        platform, _ = run_platform(arrivals)
        for node in platform.nodes:
            expected = sum(s.memory_bytes() for s in node.sandboxes.values())
            expected += sum(c.memory_bytes() for c in node.checkpoints.values())
            assert node.used_bytes() == expected
            assert node.reclaimable_bytes() == node.recomputed_reclaimable_bytes()
            assert node.reclaimable_bytes() <= expected

    @settings(max_examples=10, deadline=None)
    @given(arrival_lists)
    def test_pressured_runs_also_complete(self, arrivals):
        """Even a pool fitting ~1 large sandbox never loses requests."""
        _, report = run_platform(arrivals, node_memory_mb=100.0)
        assert all(
            r.completion_ms is not None for r in report.metrics.requests.values()
        )

    @settings(max_examples=10, deadline=None)
    @given(arrival_lists)
    def test_e2e_at_least_exec_plus_startup(self, arrivals):
        _, report = run_platform(arrivals)
        for record in report.metrics.requests.values():
            floor = record.exec_ms + record.startup_ms + record.queued_ms
            assert record.e2e_ms >= floor - 1e-6
