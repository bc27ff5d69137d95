"""Batch dedup pipeline vs the per-page reference: exact equivalence.

The vectorized batch path (`DedupAgent.dedup`) must be a pure
performance transformation of the original page-at-a-time loop
(`tests/oracles/dedup_scalar.py::dedup_reference`): identical page-table
entries, identical stats and refcounts, and byte-identical restores —
for both sampling strategies, with and without ASLR, at both patch
levels.  The images are
executed ones: their dirty pages reach the anchor fallback, where the
batch path alone consults the copy-coverage bound and skips the matcher
for pages it will discard (asserted, so the pin cannot go vacuous).
Every comparison runs on a healthy fabric in the global domain, again
with a base's node unreachable, in a tenant's domain, and under a
transient-RPC fault stream — the inputs the classification rules
branch on — and once with all three at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.faults.retry import TransientFaults
from repro.memory.fingerprint import FingerprintConfig, SamplingStrategy, image_fingerprints
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from tests.conftest import TEST_SCALE
from tests.oracles.dedup_scalar import dedup_reference

#: Healthy default; then each input the rules branch on: the LinAlg
#: base's node down (its pages must stay unique), sandbox and bases in a
#: tenant's domain, and RPCs failing transiently; then all at once, with
#: the Vanilla base's node down instead.
SCENARIOS = (
    {},
    {"failed_node": 1},
    {"domain": "tenant-a"},
    {"rpc_failure_prob": 0.4},
    {"domain": "tenant-a", "failed_node": 2, "rpc_failure_prob": 0.4},
)

#: The bases every scenario registers: (function, instance seed, node).
BASES = (("LinAlg", 100, 1), ("Vanilla", 101, 2))


def _transients(probability: float) -> TransientFaults | None:
    """Each agent's own copy of one fault stream, so the same ops draw
    the same plans.  Seed 9 at p=0.4 retries on its first draws and
    exhausts none of its first 24."""
    if not probability:
        return None
    return TransientFaults(probability, seed=9)


def _build_agents(
    suite,
    *,
    config: FingerprintConfig | None = None,
    level: int = 1,
    domain: str = "",
    failed_node: int | None = None,
    rpc_failure_prob: float = 0.0,
) -> tuple[DedupAgent, DedupAgent]:
    """Two node-0 agents over one shared store + registry: one for the
    batch path, one for the oracle.

    The registry holds :data:`BASES`, registered under ``domain``: a
    same-function base (LinAlg, node 1) and a cross-function base
    (Vanilla, node 2), so base choice exercises both.
    """
    store = CheckpointStore()
    config = config or FingerprintConfig()
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
            transients=_transients(rpc_failure_prob),
        )
        for _ in range(2)
    )
    for function, seed, node in BASES:
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
                PageRef(checkpoint.checkpoint_id, node, index), fingerprint, domain
            )
    if failed_node is not None:
        fabric.fail_peer(failed_node)
    return agents


def _make_sandbox(profile, seed: int, aslr: bool, domain: str = "") -> Sandbox:
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
    sandbox.domain = domain
    sandbox.image = profile.synthesize(
        seed, content_scale=TEST_SCALE, aslr=aslr, executed=True
    )
    return sandbox


def _columns(table) -> tuple:
    """A page table's columns, comparable with ``==``."""
    return (
        table.entries.tolist(),
        table.patched.tolist(),
        table.base_checkpoint.tolist(),
        table.base_node.tolist(),
        table.base_page.tolist(),
        table.patches,
        table.unique.tobytes(),
    )


def _assert_scenario_bit(scenario: dict, outcomes: list) -> None:
    """The scenario reached the rules it is there for."""
    base_nodes = {node for outcome in outcomes for node in outcome.table.base_node.tolist()}
    assert base_nodes == {1, 2} - {scenario.get("failed_node")}
    retries = sum(outcome.timings.retries for outcome in outcomes)
    assert (retries > 0) == bool(scenario.get("rpc_failure_prob"))
    assert all(outcome.table.stats.patched_pages for outcome in outcomes)


@pytest.mark.parametrize(
    "strategy", [SamplingStrategy.VALUE_SAMPLED, SamplingStrategy.FIXED_OFFSETS]
)
@pytest.mark.parametrize("aslr", [False, True])
@pytest.mark.parametrize("level", [1, 2])
def test_batch_path_matches_reference(suite, strategy, aslr, level, codec_calls):
    config = FingerprintConfig(strategy=strategy)
    profile = suite.get("LinAlg")
    for scenario in SCENARIOS:
        agent_batch, agent_ref = _build_agents(
            suite, config=config, level=level, **scenario
        )
        domain = scenario.get("domain", "")
        outcomes = []
        for seed in (300, 301, 302):
            outcome_batch = agent_batch.dedup(_make_sandbox(profile, seed, aslr, domain))
            outcome_ref = dedup_reference(
                agent_ref, _make_sandbox(profile, seed, aslr, domain)
            )
            outcomes.append(outcome_batch)

            assert _columns(outcome_batch.table) == _columns(outcome_ref.table)
            assert outcome_batch.table.stats == outcome_ref.table.stats
            assert outcome_batch.table.base_refs == outcome_ref.table.base_refs
            assert np.array_equal(
                outcome_batch.table.page_digests, outcome_ref.table.page_digests
            )
            assert outcome_batch.timings == outcome_ref.timings

            restored_batch = agent_batch.restore(outcome_batch.table, verify=True)
            restored_ref = agent_ref.restore(outcome_ref.table, verify=True)
            assert (
                restored_batch.image.data.tobytes() == restored_ref.image.data.tobytes()
            )
            assert np.array_equal(
                restored_batch.image.page_digests(), outcome_batch.table.page_digests
            )
            assert restored_batch.timings == restored_ref.timings
        _assert_scenario_bit(scenario, outcomes)
    # Dirty pages reached the fallback and the bound skipped some of them;
    # a base was sorted only for a page the matcher ran on, and a word
    # table built only for a page that was bounded.
    assert codec_calls["bound"] > codec_calls["matcher"] >= codec_calls["sorted_halves"]
    assert codec_calls["word_bits"] <= codec_calls["bound"]


def test_cross_function_dedup_matches(suite):
    """A Vanilla sandbox deduping against LinAlg + Vanilla bases."""
    config = FingerprintConfig()
    profile = suite.get("Vanilla")
    for scenario in SCENARIOS:
        agent_batch, agent_ref = _build_agents(suite, config=config, **scenario)
        domain = scenario.get("domain", "")
        outcomes = []
        for seed in (400, 401):
            outcome_batch = agent_batch.dedup(_make_sandbox(profile, seed, False, domain))
            outcome_ref = dedup_reference(
                agent_ref, _make_sandbox(profile, seed, False, domain)
            )
            outcomes.append(outcome_batch)
            assert _columns(outcome_batch.table) == _columns(outcome_ref.table)
            assert outcome_batch.table.stats == outcome_ref.table.stats
            assert outcome_batch.table.base_refs == outcome_ref.table.base_refs
            assert outcome_batch.timings == outcome_ref.timings
        _assert_scenario_bit(scenario, outcomes)
