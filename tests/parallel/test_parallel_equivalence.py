"""Parallel data plane vs the serial agent paths: exact equivalence.

The staged pipeline (any ``workers``/``batch_pages``/``depth``) must be
a pure execution transformation of :meth:`DedupAgent.dedup` and
:meth:`DedupAgent.restore`: bit-identical page tables (entries, stats,
refcounts) and byte-identical restored images, across profiles and
ASLR.  ``workers=1`` (the inline engine, the default ParallelConfig)
is the pinned configuration the ISSUE's acceptance criteria names;
``workers>1`` exercises the forked shared-memory pool.

The page-classification rules live once, in the agent's per-op
accumulator; the scenarios here feed both drivers the inputs those
rules branch on — a base whose node is unreachable, a non-global dedup
domain, a transient-RPC fault stream — not just the healthy default.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.faults.retry import RetryPolicy, TransientFaults
from repro.memory.fingerprint import FingerprintConfig, image_fingerprints
from repro.parallel import ParallelConfig
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from tests.conftest import TEST_SCALE


#: The rules' unhappy inputs, all at once: the Vanilla base's node is
#: down (its pages must stay unique), sandbox and bases live in a
#: non-global domain, and RPCs fail transiently.
HOSTILE = {"domain": "tenant-a", "failed_node": 2, "rpc_failure_prob": 0.4}

#: The bases every scenario registers: (function, instance seed, node).
BASES = (("LinAlg", 100, 1), ("Vanilla", 101, 2))


def _transients(probability: float) -> TransientFaults | None:
    """Each agent's own copy of one fault stream, so the same ops draw
    the same plans.  Seed 9 at p=0.4 retries on its first draws and
    exhausts none of its first 24."""
    if not probability:
        return None
    return TransientFaults(probability, RetryPolicy(), seed=9)


def _build_agents(
    suite,
    parallel: ParallelConfig | None,
    *,
    config: FingerprintConfig | None = None,
    level: int = 1,
    domain: str = "",
    failed_node: int | None = None,
    rpc_failure_prob: float = 0.0,
    bases: tuple[tuple[str, int, int], ...] = BASES,
):
    """Two agents — a serial one and one on ``parallel`` (``None``: a
    second serial one) — over one shared store + registry.

    The registry holds ``bases``, ``(function, instance seed, node)``
    each, registered under ``domain``; the store numbers them in that
    order.  By default a same-function base (LinAlg, node 1) and a
    cross-function base (Vanilla, node 2), so base choice exercises both.
    """
    store = CheckpointStore()
    config = config or FingerprintConfig()
    registry = FingerprintRegistry(config)
    fabric = RdmaFabric()
    serial, pipelined = (
        DedupAgent(
            0,
            registry=registry,
            store=store,
            fabric=fabric,
            costs=CostModel(),
            content_scale=TEST_SCALE,
            fingerprint_config=config,
            patch_level=level,
            parallel=engine,
            transients=_transients(rpc_failure_prob),
        )
        for engine in (None, parallel)
    )
    for function, seed, node in bases:
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
    return serial, pipelined


def _make_sandbox(profile, seed: int, aslr: bool, domain: str = "") -> Sandbox:
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
    sandbox.domain = domain
    sandbox.image = profile.synthesize(
        seed, content_scale=TEST_SCALE, aslr=aslr, executed=True
    )
    return sandbox


def _assert_scenario_bit(scenario: dict, outcomes: list) -> None:
    """The scenario reached the rules it is there for."""
    base_nodes = {
        entry.base.node_id
        for outcome in outcomes
        for entry in outcome.table.entries
        if entry.base is not None
    }
    assert base_nodes == {1, 2} - {scenario.get("failed_node")}
    retries = sum(outcome.timings.retries for outcome in outcomes)
    assert (retries > 0) == bool(scenario.get("rpc_failure_prob"))
    assert all(outcome.table.stats.patched_pages for outcome in outcomes)


def _assert_equivalent(
    serial: DedupAgent, pipelined: DedupAgent, profile, seed, aslr, domain: str = ""
):
    outcome_serial = serial.dedup(_make_sandbox(profile, seed, aslr, domain))
    outcome_parallel = pipelined.dedup(_make_sandbox(profile, seed, aslr, domain))

    assert outcome_parallel.table.entries == outcome_serial.table.entries
    assert outcome_parallel.table.stats == outcome_serial.table.stats
    assert outcome_parallel.table.base_refs == outcome_serial.table.base_refs
    assert np.array_equal(
        outcome_parallel.table.page_digests, outcome_serial.table.page_digests
    )
    assert outcome_parallel.timings == outcome_serial.timings

    restored_serial = serial.restore(outcome_serial.table, verify=True)
    restored_parallel = pipelined.restore(outcome_parallel.table, verify=True)
    assert (
        restored_parallel.image.data.tobytes()
        == restored_serial.image.data.tobytes()
    )
    assert restored_parallel.timings == restored_serial.timings
    return outcome_serial


@settings(max_examples=15)
@given(
    function=st.sampled_from(["Vanilla", "LinAlg", "ImagePro"]),
    aslr=st.booleans(),
    workers=st.integers(min_value=1, max_value=3),
    batch_pages=st.integers(min_value=1, max_value=64),
    depth=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=300, max_value=305),
    domain=st.sampled_from(["", "tenant-a"]),
    failed_node=st.sampled_from([None, 1, 2]),
    rpc_failure_prob=st.sampled_from([0.0, 0.4]),
)
def test_parallel_pipeline_matches_serial(
    suite, function, aslr, workers, batch_pages, depth, seed,
    domain, failed_node, rpc_failure_prob,
):
    parallel = ParallelConfig(workers=workers, batch_pages=batch_pages, depth=depth)
    serial, pipelined = _build_agents(
        suite,
        parallel,
        domain=domain,
        failed_node=failed_node,
        rpc_failure_prob=rpc_failure_prob,
    )
    try:
        _assert_equivalent(serial, pipelined, suite.get(function), seed, aslr, domain)
    finally:
        pipelined.close()


def test_default_workers1_pinned_bit_identical(suite):
    """The acceptance-criteria pin: default ParallelConfig == serial."""
    for scenario in ({}, HOSTILE):
        serial, pipelined = _build_agents(suite, ParallelConfig(), **scenario)
        assert pipelined.parallel == ParallelConfig(workers=1, batch_pages=512, depth=4)
        domain = scenario.get("domain", "")
        try:
            outcomes = [
                _assert_equivalent(
                    serial, pipelined, suite.get(function), 310, aslr, domain
                )
                for function in ("Vanilla", "LinAlg", "ImagePro")
                for aslr in (False, True)
            ]
        finally:
            pipelined.close()
        _assert_scenario_bit(scenario, outcomes)


def test_pool_engine_matches_serial_across_profiles(suite):
    """The forked shm pool (workers=2), non-property smoke for CI."""
    for scenario in ({}, HOSTILE):
        serial, pipelined = _build_agents(
            suite, ParallelConfig(workers=2, batch_pages=16, depth=3), **scenario
        )
        try:
            for function in ("Vanilla", "LinAlg", "ImagePro"):
                _assert_equivalent(
                    serial, pipelined, suite.get(function), 320, False,
                    scenario.get("domain", ""),
                )
        finally:
            pipelined.close()


def test_serial_and_pooled_dedup_skip_the_same_pages(suite, codec_calls):
    """The unique-page cutoff reaches the codec on both paths.

    An executed image's dirty pages reach the anchor fallback; the
    serial agent and the pool's ``"patch"`` task both hand
    ``compute_patches`` their ``unique_cap``, so both triage the same
    rows, extract runs for the same rows, take the copy-coverage bound
    for the same pages, skip the matcher — and the sort of the base —
    for the same pages, and build the same page table.
    """
    # The inline engine runs the pool's task code in this process, where
    # the counters can see it.
    serial, pipelined = _build_agents(
        suite, ParallelConfig(workers=1, batch_pages=8, depth=2)
    )
    try:
        seen = []
        for agent in (serial, pipelined):
            codec_calls.update(dict.fromkeys(codec_calls, 0))
            outcome = agent.dedup(_make_sandbox(suite.get("LinAlg"), 330, True))
            seen.append((dict(codec_calls), outcome.table.entries))
        assert seen[0] == seen[1]
        assert seen[0][0]["bound"] > seen[0][0]["matcher"] >= seen[0][0]["sorted_halves"]
    finally:
        pipelined.close()


def test_pooled_ops_survive_arena_turnover_against_cached_bases(suite):
    """Pooled ops against the same base pages, the arena closed between them.

    Each op gets a fresh shared-memory segment; by the sixth the workers
    have evicted and closed the first ones (they keep four mapped) while
    their anchor caches still hold index handles made during those ops.
    A handle that kept a view of an arena page would fail the close
    (``BufferError``, surfaced as a ``WorkerError``); the tables must
    stay those of the serial agent throughout.
    """
    serial, pipelined = _build_agents(
        suite, ParallelConfig(workers=2, batch_pages=16, depth=2)
    )
    try:
        for seed in range(340, 346):
            _assert_equivalent(serial, pipelined, suite.get("LinAlg"), seed, True)
            pipelined.close()  # the next op stages into a new arena
    finally:
        pipelined.close()


def test_pool_caches_keep_stores_apart(suite):
    """Two stores in one process, each with a checkpoint 1 of other content.

    Each store numbers its checkpoints from 1, while the pool's workers,
    and their anchor caches, serve every store in the process.  The
    second store holds the same two bases numbered the other way round,
    so every address the first store's ops cache names another page in
    the second.  Ops interleaved over both stores must each see their own
    store's bases: tables equal to the serial agent's, restores
    byte-exact.  RNNModel subjects at level 2 patch pages through the
    anchor matcher, where a cached index is read.
    """
    pairs = [
        _build_agents(suite, ParallelConfig(workers=2, batch_pages=8), level=2, bases=bases)
        for bases in (BASES, BASES[::-1])
    ]
    first, second = (serial.store.get(1) for serial, _ in pairs)
    assert first.function != second.function
    try:
        for seed in range(350, 356):
            for serial, pipelined in pairs:
                _assert_equivalent(serial, pipelined, suite.get("RNNModel"), seed, True)
    finally:
        for _, pipelined in pairs:
            pipelined.close()
