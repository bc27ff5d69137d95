"""Determinism and constraint-satisfaction properties of the core."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.optimizer import (
    FunctionModel,
    Objective,
    mean_startup_ms,
    memory_usage,
    solve,
)
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import page_fingerprint
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from tests.conftest import TEST_SCALE


def build_agent(profile):
    store = CheckpointStore()
    registry = FingerprintRegistry()
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=TEST_SCALE,
    )
    base_image = profile.synthesize(700, content_scale=TEST_SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function=profile.name,
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
    return agent


class TestDedupDeterminism:
    def test_identical_inputs_identical_tables(self, linalg_profile):
        """Two independently-built agents dedup the same sandbox to
        byte-identical page tables — the whole pipeline is deterministic."""
        outcomes = []
        for _ in range(2):
            agent = build_agent(linalg_profile)
            sandbox = Sandbox(
                profile=linalg_profile, node_id=0, instance_seed=701, created_at=0.0
            )
            sandbox.image = linalg_profile.synthesize(
                701, content_scale=TEST_SCALE, executed=True
            )
            outcomes.append(agent.dedup(sandbox))
        first, second = outcomes
        assert np.array_equal(first.table.page_digests, second.table.page_digests)
        assert first.table.retained_content_bytes == second.table.retained_content_bytes
        assert first.table.stats == second.table.stats
        assert np.array_equal(first.table.entries, second.table.entries)
        assert first.timings == second.timings


model_strategy = st.builds(
    FunctionModel,
    lambda_max=st.floats(min_value=0.0, max_value=0.1),
    warm_start_ms=st.floats(min_value=1.0, max_value=50.0),
    dedup_start_ms=st.floats(min_value=50.0, max_value=600.0),
    exec_ms=st.floats(min_value=50.0, max_value=3000.0),
    warm_bytes=st.integers(min_value=1 << 20, max_value=128 << 20),
    dedup_bytes=st.integers(min_value=0, max_value=32 << 20),
    restore_overhead_bytes=st.integers(min_value=0, max_value=4 << 20),
)


class TestSolverConstraintSatisfaction:
    @given(model_strategy, st.integers(min_value=1, max_value=20),
           st.floats(min_value=1.0, max_value=10.0))
    def test_feasible_latency_solutions_satisfy_all_constraints(self, m, total, alpha):
        solution = solve(m, total, Objective.LATENCY, alpha=alpha)
        if not solution.feasible:
            return
        assert solution.warm + solution.dedup == total
        # Latency bound (eq. 4 <= alpha * s_W).
        startup = mean_startup_ms(m, solution.warm, solution.dedup)
        assert startup <= alpha * m.warm_start_ms + 1e-6
        # Throughput bound (eq. 2).
        capacity = (
            solution.warm / m.reuse_warm_ms + solution.dedup / m.reuse_dedup_ms
        )
        assert capacity >= m.lambda_max - 1e-9

    @given(model_strategy, st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.1, max_value=2.0))
    def test_feasible_memory_solutions_satisfy_budget(self, m, total, scale):
        budget = scale * total * m.warm_bytes
        solution = solve(m, total, Objective.MEMORY, budget_bytes=budget)
        if not solution.feasible:
            return
        assert memory_usage(m, solution.warm, solution.dedup) <= budget + 1e-6
        capacity = (
            solution.warm / m.reuse_warm_ms + solution.dedup / m.reuse_dedup_ms
        )
        assert capacity >= m.lambda_max - 1e-9
