"""A restored sandbox re-dedups from its memo, exactly.

Each dedup op leaves a memo on its table (``DedupMemo``: the patch
level, the fingerprints and, per page that got a base, the pair and its
outcome); a landing restore hands it to ``Sandbox.kept_choices``.  The
next op skips fingerprinting, still asks the registry, and reuses the
outcome of every page whose fresh choice is the memo's pair at the same
level.  Here each re-dedup runs three ways — with the memo, with the
memo cleared, and through the page-at-a-time ``dedup_reference`` — after
a change between the ops: none, a base added, a base retired, or a
level-2 agent.  The three must agree column for column, patch blobs,
stats, refcounts and timings included, in every scenario of
``test_batch_equivalence``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.controller.controller as controller_module
import repro.core.agent as agent_module
import repro.core.registry as registry_module
from repro._util import hash_bytes
from repro.core.agent import DedupAgent, DedupMemo
from repro.core.costs import CostModel
from repro.core.policy import MedesPolicyConfig
from repro.core.registry import FingerprintRegistry, PageRef
from repro.invariants import check
from repro.memory.fingerprint import (
    FingerprintConfig,
    SamplingStrategy,
    batch_page_fingerprints,
    digest_arrays,
    image_fingerprints,
)
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.checkpoint import BaseCheckpoint
from repro.sandbox.node import AccountingError
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import TEST_SCALE, check_every_instant
from tests.core.test_batch_equivalence import (
    SCENARIOS,
    _build_agents,
    _columns,
    _make_sandbox,
    _transients,
)
from tests.oracles.dedup_scalar import dedup_reference

CHANGES = ("none", "base added", "base retired", "level 2")
#: The re-deduped function: a cross-function sandbox against the
#: scenarios' LinAlg and Vanilla bases, one whose pair outcomes differ
#: between patch levels 1 and 2.
FUNCTION = "RNNModel"


@pytest.fixture
def work(monkeypatch) -> dict[str, int]:
    """Pages fingerprinted and pairs encoded by the agent so far."""
    work = {"fingerprinted": 0, "encoded": 0}
    fingerprint, encode = agent_module.batch_page_fingerprints, agent_module.compute_patches

    def counting_fingerprint(*args, **kwargs):
        batch = fingerprint(*args, **kwargs)
        work["fingerprinted"] += len(batch)
        return batch

    def counting_encode(targets, *args, **kwargs):
        work["encoded"] += len(targets)
        return encode(targets, *args, **kwargs)

    monkeypatch.setattr(agent_module, "batch_page_fingerprints", counting_fingerprint)
    monkeypatch.setattr(agent_module, "compute_patches", counting_encode)
    return work


def _restored(suite, scenario: dict, change: str):
    """One world: a :data:`FUNCTION` sandbox deduped, restored (holding the memo
    as a landing restore leaves it), then ``change``; returns the
    sandbox, the agent for its next op and the first op's table."""
    agent, _ = _build_agents(suite, **scenario)
    sandbox = _make_sandbox(suite.get(FUNCTION), 300, False, scenario.get("domain", ""))
    first = agent.dedup(sandbox).table
    sandbox.image = agent.restore(first, verify=True).image
    sandbox.kept_choices = first.memo
    registry, store = agent.registry, agent.store
    if change == "base added":
        profile = suite.get(FUNCTION)
        image = profile.synthesize(103, content_scale=TEST_SCALE, executed=True)
        checkpoint = BaseCheckpoint(
            function=FUNCTION, node_id=0, image=image, owner_sandbox_id=103,
            full_size_bytes=profile.memory_bytes,
        )  # fmt: skip
        store.add(checkpoint)
        for index, fingerprint in enumerate(image_fingerprints(image, registry.config)):
            registry.register_page(
                PageRef(checkpoint.checkpoint_id, 0, index), fingerprint, sandbox.domain
            )
    elif change == "base retired":
        registry.deregister_checkpoint(first.base_refs.most_common(1)[0][0])
    elif change == "level 2":
        agent = DedupAgent(
            0, registry=registry, store=store, fabric=agent.fabric, costs=CostModel(),
            content_scale=TEST_SCALE, patch_level=2,
            transients=_transients(scenario.get("rpc_failure_prob", 0.0)),
        )  # fmt: skip
    return sandbox, agent, first


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: ",".join(s) or "healthy")
def test_re_dedup_matches_without_memo_and_reference(suite, work, scenario, change):
    sandbox, agent, first = _restored(suite, scenario, change)
    before = dict(work)
    memo = agent.dedup(sandbox)
    chosen = len(memo.table.memo.pairs)
    reused = chosen - (work["encoded"] - before["encoded"])
    assert work["fingerprinted"] == before["fingerprinted"]

    sandbox, agent, _ = _restored(suite, scenario, change)
    sandbox.kept_choices = None
    cleared = agent.dedup(sandbox)
    sandbox, agent, _ = _restored(suite, scenario, change)
    reference = dedup_reference(agent, sandbox)

    for outcome in (cleared, reference):
        assert _columns(memo.table) == _columns(outcome.table)
        assert [p.blob for p in memo.table.patches] == [p.blob for p in outcome.table.patches]
        assert memo.table.stats == outcome.table.stats
        assert memo.table.base_refs == outcome.table.base_refs
        assert np.array_equal(memo.table.page_digests, outcome.table.page_digests)
        assert memo.timings == outcome.timings
    assert agent.restore(memo.table, verify=True).image.data.tobytes() == (
        sandbox.image.data.tobytes()
    )
    # The change reached the rule it is there for: nothing re-encoded
    # when nothing changed, every pair re-encoded across levels, and
    # some of the memo's pairs not picked again when the registry moved.
    if change == "none":
        assert reused == chosen == len(first.memo.pairs) > 0
    elif change == "level 2":
        assert reused == 0 < chosen
    else:
        assert reused < len(first.memo.pairs)


def test_an_unchanged_re_dedup_fingerprints_and_encodes_nothing(suite, work, codec_calls):
    """The tripwire: with the registry as the first op left it, the
    re-dedup makes no fingerprint call and encodes no page."""
    sandbox, agent, first = _restored(suite, {}, "none")
    assert work["fingerprinted"] > 0 and work["encoded"] > 0
    work.update(fingerprinted=0, encoded=0)
    codec_calls.update(dict.fromkeys(codec_calls, 0))
    again = agent.dedup(sandbox)
    assert work == {"fingerprinted": 0, "encoded": 0}
    assert set(codec_calls.values()) == {0}
    assert again.table.memo.outcomes == first.memo.outcomes
    assert all(
        new is old for new, old in zip(again.table.memo.outcomes, first.memo.outcomes)
    )  # kept patches are shared, not copied


def _replayed(fingerprint: FingerprintConfig | None = None):
    """One LinAlg sandbox on one node deduped, restored at 20 s and
    deduped again, checked at every instant."""
    config = ClusterConfig(
        nodes=1,
        node_memory_mb=512.0,
        content_scale=1.0 / 256.0,
        seed=9,
        verify_restores=True,
        fingerprint=fingerprint or FingerprintConfig(),
    )
    platform = build_platform(
        PlatformKind.MEDES,
        config,
        FunctionBenchSuite.subset(["Vanilla", "LinAlg"]),
        medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
    )
    check_every_instant(platform)
    arrivals = [(0.0, "LinAlg"), (1.0, "LinAlg"), (20_000.0, "LinAlg"), (20_001.0, "LinAlg")]
    platform.run(Trace.from_arrivals(arrivals))
    return platform


def test_a_landed_restore_hands_over_the_memo_and_a_dedup_takes_it(monkeypatch):
    """In a platform: the restore's table memo becomes the sandbox's
    kept choices, the next dedup op starts from them, and no parked
    sandbox keeps any (checked at every instant)."""
    seen: list = []
    dedup = DedupAgent.dedup

    def recording(agent, sandbox):
        kept = sandbox.kept_choices
        outcome = dedup(agent, sandbox)
        seen.append((sandbox.sandbox_id, kept, outcome.table.memo))
        return outcome

    monkeypatch.setattr(DedupAgent, "dedup", recording)
    _replayed()
    by_sandbox: dict[int, list] = {}
    for sandbox_id, kept, memo in seen:
        by_sandbox.setdefault(sandbox_id, []).append((kept, memo))
    redone = [ops for ops in by_sandbox.values() if len(ops) > 1]
    assert redone, "no sandbox re-deduped"
    for ops in redone:
        assert ops[0][0] is None
        assert all(kept is memo for (_, memo), (kept, _) in zip(ops, ops[1:]))


@pytest.mark.parametrize("fault", ["level", "page"])
def test_a_kept_memo_off_its_level_or_pages_is_caught(fault):
    """The other two halves of the ``kept choices`` invariant: a warm
    sandbox's memo at another patch level, or naming a page past its
    image."""
    platform = _replayed()
    warm = next(
        s for node in platform.nodes for s in node.sandboxes.values() if s.image is not None
    )
    level = platform.agents[warm.node_id].patch_level + (fault == "level")
    page = warm.image.num_pages if fault == "page" else 0
    empty = np.empty(0, dtype=np.int64)
    warm.kept_choices = DedupMemo(level, empty, empty, np.array([[page, 1, 0]]), (None,))
    with pytest.raises(AccountingError, match="^kept choices: "):
        check(platform)


@pytest.mark.parametrize("strategy", list(SamplingStrategy))
def test_a_base_made_from_a_trial_op_registers_what_a_fresh_scan_does(monkeypatch, strategy):
    """A trial op that saved too little turns its sandbox into a base.
    Under value sampling the base registers the op's memo, a zero page
    counting no chunk, with no second scan; fixed offsets sample zero
    pages too, so that base is scanned.  Either way it registers what a
    fresh scan does, and the page digests of one row hash over the image
    are what page-by-page hashing gives."""
    config = FingerprintConfig(strategy=strategy)
    scans = []
    scan = registry_module.batch_page_fingerprints
    monkeypatch.setattr(
        registry_module,
        "batch_page_fingerprints",
        lambda *args, **kwargs: scans.append(args) or scan(*args, **kwargs),
    )
    registered = {}
    register = FingerprintRegistry.register_pages

    def recording_register(registry, refs, fingerprints, domain):
        registered[refs[0].checkpoint_id] = [a.copy() for a in digest_arrays(fingerprints)]
        return register(registry, refs, fingerprints, domain)

    monkeypatch.setattr(FingerprintRegistry, "register_pages", recording_register)
    made = []
    make_base = controller_module.ClusterController._make_base

    def recording_make_base(controller, sandbox, trial=None):
        make_base(controller, sandbox, trial)
        checkpoint = controller.store.get(sandbox.base_checkpoint_id)
        made.append((trial is not None, checkpoint, controller.registry))

    monkeypatch.setattr(controller_module.ClusterController, "_make_base", recording_make_base)
    _replayed(config)
    assert made and all(from_trial for from_trial, _, _ in made)
    assert len(scans) == (0 if strategy is SamplingStrategy.VALUE_SAMPLED else len(made))
    for _, checkpoint, registry in made:
        image = checkpoint.image
        fresh = batch_page_fingerprints(image.data, image.page_size, config)
        digests, counts = registered[checkpoint.checkpoint_id]
        assert np.array_equal(digests, fresh.digests)
        assert np.array_equal(counts, fresh.counts)
        zero = ~image.data.reshape(image.num_pages, -1).any(axis=1)
        assert zero.any() and counts[zero].any() == (strategy is SamplingStrategy.FIXED_OFFSETS)
        for index in range(image.num_pages):
            ref = PageRef(checkpoint.checkpoint_id, checkpoint.node_id, index)
            assert ref in registry.page_replicas(hash_bytes(image.page_bytes(index)))
