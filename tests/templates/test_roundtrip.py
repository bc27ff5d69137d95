"""Template fork + delta must reconstruct images byte-exactly.

The property the whole subsystem rests on (DESIGN.md §14): factoring an
image into shared-segment patches plus private pages, then forking it
back from the catalog's template content, is the identity — across every
profile, ASLR on and off, fresh and executed (mutated) states, and
content scales.  The agent-level test pins the stronger cross-path
claim: a template fork restores the *same bytes* as the dedup
base-fetch+patch restore of an identical sandbox.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import page_fingerprint
from repro.memory.synth import template_region_content
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.storage.tiers import StorageConfig
from repro.templates.catalog import TemplateCatalog, TemplateConfig, TemplateSegment
from repro.templates.delta import build_delta_table, reconstruct_image
from repro.workload.functionbench import FunctionBenchSuite
from tests.conftest import TEST_SCALE

SUITE = FunctionBenchSuite.default()


def segment_content_for(image):
    """Template bytes for every shareable region, as the catalog builds
    them (instance-independent: no ASLR, seed-0 pointers)."""
    return {
        ("", region.spec.content_key, region.size): template_region_content(
            region.spec, region.size
        )
        for region in image.regions
        if TemplateCatalog.eligible(region)
    }


def as_segments(segment_content):
    """Catalog-style segments over ``segment_content`` (what
    ``build_delta_table`` patches against; forks only need the bytes)."""
    return {
        key: TemplateSegment(
            segment_id=number, key=key, content=content, full_bytes=len(content)
        )
        for number, (key, content) in enumerate(segment_content.items(), start=1)
    }


class TestDeltaRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(SUITE.names()),
        seed=st.integers(min_value=0, max_value=2**32),
        aslr=st.booleans(),
        executed=st.booleans(),
    )
    def test_fork_reconstructs_byte_identical(self, name, seed, aslr, executed):
        profile = SUITE.get(name)
        image = profile.synthesize(
            seed, content_scale=TEST_SCALE, aslr=aslr, executed=executed
        )
        segments = segment_content_for(image)
        assert segments, "every profile has shareable runtime/library regions"
        table = build_delta_table(
            image,
            as_segments(segments),
            content_scale=TEST_SCALE,
            full_size_bytes=profile.memory_bytes,
        )
        forked = reconstruct_image(table, segments, verify=True)
        assert forked.checksum() == image.checksum()
        assert np.array_equal(forked.data, image.data)
        # Metadata survives too: a forked sandbox is indistinguishable.
        assert forked.regions == image.regions
        assert forked.aslr == image.aslr
        assert forked.executed == image.executed

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(SUITE.names()),
        seed=st.integers(min_value=0, max_value=2**16),
        scale_denom=st.sampled_from([64, 256]),
    )
    def test_round_trip_across_content_scales(self, name, seed, scale_denom):
        profile = SUITE.get(name)
        scale = 1.0 / scale_denom
        image = profile.synthesize(seed, content_scale=scale, executed=True)
        segments = segment_content_for(image)
        table = build_delta_table(
            image, as_segments(segments), content_scale=scale, full_size_bytes=profile.memory_bytes
        )
        forked = reconstruct_image(table, segments, verify=True)
        assert np.array_equal(forked.data, image.data)

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(SUITE.names()),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_delta_retains_less_than_the_image(self, name, seed):
        """Parking as a delta must actually shed the shared regions."""
        profile = SUITE.get(name)
        image = profile.synthesize(seed, content_scale=TEST_SCALE, executed=True)
        segments = segment_content_for(image)
        table = build_delta_table(
            image,
            as_segments(segments),
            content_scale=TEST_SCALE,
            full_size_bytes=profile.memory_bytes,
        )
        assert table.retained_content_bytes < image.nbytes
        assert 0.0 < table.savings_fraction < 1.0
        # Page partition is exact: shared spans + uniques + zeros.
        covered = table.patched_pages + len(table.unique_pages) + len(table.zero_pages)
        assert covered == image.num_pages

    def test_delta_table_runs_the_matcher_without_a_cutoff(self, linalg_profile, codec_calls):
        """Every region patch is kept, so there is no discard cutoff to
        bound against: regions that fall back go straight to the anchor
        matcher and no copy-coverage word table is ever built."""
        image = linalg_profile.synthesize(3, content_scale=TEST_SCALE, aslr=True, executed=True)
        segments = as_segments(segment_content_for(image))
        build_delta_table(
            image, segments, content_scale=TEST_SCALE, full_size_bytes=linalg_profile.memory_bytes
        )
        assert codec_calls["matcher"] > 0
        assert codec_calls["bound"] == codec_calls["word_bits"] == 0

    def test_partial_segment_content_still_round_trips(self, linalg_profile):
        """Regions without a published segment fall back to private
        pages — the table is bigger but the fork stays byte-exact."""
        image = linalg_profile.synthesize(3, content_scale=TEST_SCALE, executed=True)
        segments = segment_content_for(image)
        assert len(segments) >= 2
        partial = dict(list(segments.items())[:1])
        table = build_delta_table(
            image,
            as_segments(partial),
            content_scale=TEST_SCALE,
            full_size_bytes=linalg_profile.memory_bytes,
        )
        full_table = build_delta_table(
            image,
            as_segments(segments),
            content_scale=TEST_SCALE,
            full_size_bytes=linalg_profile.memory_bytes,
        )
        forked = reconstruct_image(table, partial, verify=True)
        assert np.array_equal(forked.data, image.data)
        assert table.retained_content_bytes > full_table.retained_content_bytes


@pytest.fixture
def template_agent(linalg_profile):
    """A node-0 agent with a catalog AND a LinAlg base checkpoint on
    node 1, so both park/restore paths are available on the same state
    (the remote base makes the dedup restore pay its base-read cost)."""
    store = CheckpointStore()
    registry = FingerprintRegistry()
    catalog = TemplateCatalog(
        TemplateConfig(pool_mb=512.0), StorageConfig(), content_scale=TEST_SCALE
    )
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=TEST_SCALE,
        templates=catalog,
    )
    base_image = linalg_profile.synthesize(100, content_scale=TEST_SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function="LinAlg",
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=linalg_profile.memory_bytes,
    )
    store.add(checkpoint)
    for index in range(base_image.num_pages):
        registry.register_page(
            PageRef(checkpoint.checkpoint_id, 1, index),
            page_fingerprint(base_image.page(index)),
        )
    return agent, catalog


def make_sandbox(profile, seed=200) -> Sandbox:
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=seed, created_at=0.0)
    sandbox.image = profile.synthesize(seed, content_scale=TEST_SCALE, executed=True)
    return sandbox


class TestForkMatchesDedupRestore:
    def test_both_paths_restore_identical_bytes(self, template_agent, linalg_profile):
        """Fork+delta == base-fetch+patch, byte for byte."""
        agent, _catalog = template_agent
        sandbox = make_sandbox(linalg_profile, seed=7)
        original = sandbox.image.checksum()

        dedup_outcome = agent.dedup(sandbox)
        restored = agent.restore(dedup_outcome.table, verify=True)

        templatize = agent.templatize(sandbox)
        fork = agent.fork_restore(templatize.table, now=0.0, verify=True)

        assert restored.image.checksum() == original
        assert fork.image.checksum() == original
        assert np.array_equal(fork.image.data, restored.image.data)

    def test_fork_is_cheaper_than_dedup_restore(self, template_agent, linalg_profile):
        """The point of the subsystem: once replicas are warm, a fork
        moves no base bytes and beats the dedup restore."""
        agent, _catalog = template_agent
        sandbox = make_sandbox(linalg_profile, seed=9)
        dedup_outcome = agent.dedup(sandbox)
        restore = agent.restore(dedup_outcome.table)
        templatize = agent.templatize(sandbox)
        first_fork = agent.fork_restore(templatize.table, now=0.0)
        warm_fork = agent.fork_restore(templatize.table, now=1.0)
        assert first_fork.promoted_bytes > 0
        assert warm_fork.promoted_bytes == 0
        assert warm_fork.timings.promote_ms == 0.0
        assert warm_fork.timings.total_ms < restore.timings.total_ms

    def test_second_function_shares_segments(self, template_agent, suite):
        """Cross-function sharing: a second function importing the same
        runtime publishes nothing new for it."""
        agent, _catalog = template_agent
        first = agent.templatize(make_sandbox(suite.get("LinAlg"), seed=11))
        second = agent.templatize(make_sandbox(suite.get("Vanilla"), seed=12))
        assert second.segments_shared >= 1  # at minimum the runtime
        shared_keys = set(first.table.segment_keys) & set(second.table.segment_keys)
        assert shared_keys


class TestSegmentAnchorIndexes:
    """A segment's anchor indexes live exactly as long as the segment."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Levels of every ``build_anchor_index`` call, in order."""
        import repro.memory.patch as patch_codec

        levels = []
        real = patch_codec.build_anchor_index

        def spy(base, level=1):
            levels.append(level)
            return real(base, level)

        monkeypatch.setattr(patch_codec, "build_anchor_index", spy)
        return levels

    def test_second_templatize_builds_no_index(
        self, template_agent, linalg_profile, builds
    ):
        agent, catalog = template_agent
        first = agent.templatize(make_sandbox(linalg_profile, seed=21))
        segments = catalog.segments_for(first.table.segment_keys)
        assert builds, "executed regions reach the anchor fallback"
        assert len(builds) == sum(len(s.anchor_indexes) for s in segments)
        del builds[:]
        second = agent.templatize(make_sandbox(linalg_profile, seed=22))
        assert second.segments_created == 0
        assert builds == []
        # Patching against the kept indexes changes nothing a fork sees.
        for outcome, seed in ((first, 21), (second, 22)):
            fork = agent.fork_restore(outcome.table, now=0.0, verify=True)
            assert fork.image.checksum() == make_sandbox(
                linalg_profile, seed=seed
            ).image.checksum()

    def test_other_level_builds_its_own_index(
        self, template_agent, linalg_profile, builds
    ):
        agent, catalog = template_agent
        outcome = agent.templatize(make_sandbox(linalg_profile, seed=23))
        segment = next(
            s for s in catalog.segments_for(outcome.table.segment_keys) if s.anchor_indexes
        )
        del builds[:]
        kept = segment.anchor_index(1)  # from the templatize, already sorted
        assert kept.level == 1 and kept.sorted_anchors() is kept.anchors
        assert builds == []
        other = segment.anchor_index(2)  # level 1 cannot serve it
        assert other.level == 2 and other.anchors is None
        assert builds == []  # a handle sorts nothing until it is probed
        other.sorted_anchors()
        assert segment.anchor_index(2) is other
        assert segment.anchor_index(2).sorted_anchors() is other.anchors
        assert builds == [2]

    def test_retiring_a_segment_drops_its_indexes(
        self, template_agent, linalg_profile, builds
    ):
        agent, catalog = template_agent
        outcome = agent.templatize(make_sandbox(linalg_profile, seed=24))
        segments = catalog.segments_for(outcome.table.segment_keys)
        assert any(s.anchor_indexes for s in segments)
        catalog.release(outcome.table.segment_keys)
        for segment in segments:
            catalog.retire(segment)
            assert not segment.anchor_indexes
        # Re-publishing starts over: new segments, new indexes.
        del builds[:]
        again = agent.templatize(make_sandbox(linalg_profile, seed=24))
        assert again.segments_created == len(segments)
        assert builds
