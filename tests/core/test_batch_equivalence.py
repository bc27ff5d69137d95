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
Every comparison runs on a healthy fabric in the global domain and
again with a base's node unreachable, in a tenant's domain, and under a
transient-RPC fault stream — the inputs the classification rules
branch on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.fingerprint import FingerprintConfig, SamplingStrategy
from tests.oracles.dedup_scalar import dedup_reference
from tests.parallel.test_parallel_equivalence import (
    _assert_scenario_bit,
    _build_agents,
    _make_sandbox,
)

#: Healthy default; then each input the rules branch on: the LinAlg
#: base's node down (its pages must stay unique), sandbox and bases in a
#: tenant's domain, and RPCs failing transiently.
SCENARIOS = (
    {},
    {"failed_node": 1},
    {"domain": "tenant-a"},
    {"rpc_failure_prob": 0.4},
)


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
            suite, None, config=config, level=level, **scenario
        )
        domain = scenario.get("domain", "")
        outcomes = []
        for seed in (300, 301, 302):
            outcome_batch = agent_batch.dedup(_make_sandbox(profile, seed, aslr, domain))
            outcome_ref = dedup_reference(
                agent_ref, _make_sandbox(profile, seed, aslr, domain)
            )
            outcomes.append(outcome_batch)

            assert outcome_batch.table.entries == outcome_ref.table.entries
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
        agent_batch, agent_ref = _build_agents(suite, None, config=config, **scenario)
        domain = scenario.get("domain", "")
        outcomes = []
        for seed in (400, 401):
            outcome_batch = agent_batch.dedup(_make_sandbox(profile, seed, False, domain))
            outcome_ref = dedup_reference(
                agent_ref, _make_sandbox(profile, seed, False, domain)
            )
            outcomes.append(outcome_batch)
            assert outcome_batch.table.entries == outcome_ref.table.entries
            assert outcome_batch.table.stats == outcome_ref.table.stats
            assert outcome_batch.table.base_refs == outcome_ref.table.base_refs
            assert outcome_batch.timings == outcome_ref.timings
        _assert_scenario_bit(scenario, outcomes)
