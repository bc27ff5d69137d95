"""Batch dedup pipeline vs the per-page reference: exact equivalence.

The vectorized batch path (`DedupAgent.dedup`) must be a pure
performance transformation of the original page-at-a-time loop
(`DedupAgent.dedup_reference`): identical page-table entries, identical
stats and refcounts, and byte-identical restores — for both sampling
strategies, with and without ASLR, at both patch levels.  The images are
executed ones: their dirty pages reach the anchor fallback, where the
batch path alone consults the copy-coverage bound and skips the matcher
for pages it will discard (asserted, so the pin cannot go vacuous).
"""

from __future__ import annotations

import pytest

from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import (
    FingerprintConfig,
    SamplingStrategy,
    image_fingerprints,
)
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from tests.conftest import TEST_SCALE


def _build_agents(suite, config: FingerprintConfig, level: int):
    """Two agents (batch / reference) over one shared store + registry.

    The registry holds a same-function base (LinAlg) and a
    cross-function base (Vanilla) so base choice exercises both.
    """
    store = CheckpointStore()
    registry = FingerprintRegistry(config)
    fabric = RdmaFabric()
    agents = tuple(
        DedupAgent(
            0,
            registry=registry,
            store=store,
            fabric=fabric,
            costs=CostModel(),
            content_scale=TEST_SCALE,
            fingerprint_config=config,
            patch_level=level,
        )
        for _ in range(2)
    )
    for function, seed, node in [("LinAlg", 100, 1), ("Vanilla", 101, 2)]:
        profile = suite.get(function)
        image = profile.synthesize(seed, content_scale=TEST_SCALE, executed=True)
        checkpoint = BaseCheckpoint(
            function=function,
            node_id=node,
            image=image,
            owner_sandbox_id=seed,
            full_size_bytes=profile.memory_bytes,
        )
        store.add(checkpoint)
        for index, fingerprint in enumerate(image_fingerprints(image, config)):
            registry.register_page(
                PageRef(checkpoint.checkpoint_id, node, index), fingerprint
            )
    return agents


def _make_sandbox(profile, seed: int, aslr: bool) -> Sandbox:
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
    sandbox.image = profile.synthesize(
        seed, content_scale=TEST_SCALE, aslr=aslr, executed=True
    )
    return sandbox


@pytest.mark.parametrize(
    "strategy", [SamplingStrategy.VALUE_SAMPLED, SamplingStrategy.FIXED_OFFSETS]
)
@pytest.mark.parametrize("aslr", [False, True])
@pytest.mark.parametrize("level", [1, 2])
def test_batch_path_matches_reference(suite, strategy, aslr, level, codec_calls):
    config = FingerprintConfig(strategy=strategy)
    agent_batch, agent_ref = _build_agents(suite, config, level)
    profile = suite.get("LinAlg")
    for seed in (300, 301, 302):
        outcome_batch = agent_batch.dedup(_make_sandbox(profile, seed, aslr))
        outcome_ref = agent_ref.dedup_reference(_make_sandbox(profile, seed, aslr))

        assert outcome_batch.table.entries == outcome_ref.table.entries
        assert outcome_batch.table.stats == outcome_ref.table.stats
        assert outcome_batch.table.base_refs == outcome_ref.table.base_refs
        assert (
            outcome_batch.table.original_checksum
            == outcome_ref.table.original_checksum
        )
        assert outcome_batch.timings == outcome_ref.timings

        restored_batch = agent_batch.restore(outcome_batch.table, verify=True)
        restored_ref = agent_ref.restore(outcome_ref.table, verify=True)
        assert (
            restored_batch.image.data.tobytes() == restored_ref.image.data.tobytes()
        )
        assert (
            restored_batch.image.checksum() == outcome_batch.table.original_checksum
        )
    # Dirty pages reached the fallback and the bound skipped some of them;
    # a base was sorted only for a page the matcher ran on, and a word
    # table built only for a page that was bounded.
    assert codec_calls["bound"] > codec_calls["matcher"] >= codec_calls["sorted_halves"]
    assert codec_calls["word_bits"] <= codec_calls["bound"]


def test_cross_function_dedup_matches(suite):
    """A Vanilla sandbox deduping against LinAlg + Vanilla bases."""
    config = FingerprintConfig()
    agent_batch, agent_ref = _build_agents(suite, config, level=1)
    profile = suite.get("Vanilla")
    for seed in (400, 401):
        outcome_batch = agent_batch.dedup(_make_sandbox(profile, seed, False))
        outcome_ref = agent_ref.dedup_reference(_make_sandbox(profile, seed, False))
        assert outcome_batch.table.entries == outcome_ref.table.entries
        assert outcome_batch.table.stats == outcome_ref.table.stats
        assert outcome_batch.table.base_refs == outcome_ref.table.base_refs
