"""Tests for deterministic content synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.layout import AslrBehavior, RegionSpec, SharingScope
from repro.memory.synth import (
    POOL_BLOCK,
    POOL_BLOCKS,
    base_region_content,
    build_region,
    common_pool,
    template_region_content,
)
from tests.oracles import synth_scalar


def spec(**overrides) -> RegionSpec:
    base = dict(
        name="r",
        scope=SharingScope.FUNCTION,
        content_key="test-key",
        fraction=1.0,
    )
    base.update(overrides)
    return RegionSpec(**base)


class TestCommonPool:
    def test_shape_and_dtype(self):
        pool = common_pool()
        assert pool.shape == (POOL_BLOCKS, POOL_BLOCK)
        assert pool.dtype == np.uint8

    def test_cached_identity(self):
        assert common_pool() is common_pool()


class TestBaseContent:
    def test_deterministic(self):
        a = base_region_content(spec(), 4096)
        b = base_region_content(spec(), 4096)
        assert np.array_equal(a, b)

    def test_prefix_stable(self):
        short = base_region_content(spec(), 4096)
        long = base_region_content(spec(), 64 * 1024)
        assert np.array_equal(long[:4096], short)

    def test_different_keys_differ(self):
        a = base_region_content(spec(content_key="k1"), 8192)
        b = base_region_content(spec(content_key="k2"), 8192)
        assert not np.array_equal(a, b)

    def test_zero_fill(self):
        content = base_region_content(spec(zero_fill=True), 4096)
        assert not content.any()

    def test_common_fill_shares_blocks_across_keys(self):
        a = base_region_content(spec(content_key="ka", common_fill=1.0), 64 * 1024)
        b = base_region_content(spec(content_key="kb", common_fill=1.0), 64 * 1024)
        blocks_a = {a[i : i + POOL_BLOCK].tobytes() for i in range(0, len(a), POOL_BLOCK)}
        blocks_b = {b[i : i + POOL_BLOCK].tobytes() for i in range(0, len(b), POOL_BLOCK)}
        assert blocks_a & blocks_b  # recurring pool blocks appear in both

    def test_no_common_fill_no_shared_blocks(self):
        a = base_region_content(spec(content_key="ka", common_fill=0.0), 32 * 1024)
        b = base_region_content(spec(content_key="kb", common_fill=0.0), 32 * 1024)
        blocks_a = {a[i : i + POOL_BLOCK].tobytes() for i in range(0, len(a), POOL_BLOCK)}
        blocks_b = {b[i : i + POOL_BLOCK].tobytes() for i in range(0, len(b), POOL_BLOCK)}
        assert not (blocks_a & blocks_b)


class TestBuildRegion:
    def test_instance_determinism(self):
        a = build_region(spec(mutation_rate=1e-3), 16 * 4096, instance_seed=5)
        b = build_region(spec(mutation_rate=1e-3), 16 * 4096, instance_seed=5)
        assert np.array_equal(a, b)

    def test_instances_diverge_via_mutations(self):
        a = build_region(spec(mutation_rate=1e-3), 16 * 4096, instance_seed=1)
        b = build_region(spec(mutation_rate=1e-3), 16 * 4096, instance_seed=2)
        diff = int((a != b).sum())
        assert 0 < diff < len(a) * 0.05

    def test_no_mutations_identical_instances(self):
        a = build_region(spec(), 16 * 4096, instance_seed=1)
        b = build_region(spec(), 16 * 4096, instance_seed=2)
        assert np.array_equal(a, b)

    def test_pointers_shared_without_aslr(self):
        region = spec(pointer_interval=256)
        a = build_region(region, 16 * 4096, instance_seed=1)
        b = build_region(region, 16 * 4096, instance_seed=2)
        assert np.array_equal(a, b)

    def test_pointers_diverge_with_aslr(self):
        region = spec(pointer_interval=256)
        a = build_region(region, 16 * 4096, instance_seed=1, aslr=True)
        b = build_region(region, 16 * 4096, instance_seed=2, aslr=True)
        diff = int((a != b).sum())
        assert diff > 0
        # Only the randomized pointer bytes differ: a small fraction.
        assert diff < len(a) * 0.05

    def test_shared_pointer_values_are_memoised_read_only(self):
        from repro.memory.synth import _shared_pointer_values

        shared = _shared_pointer_values("test-key", 64)
        assert shared is _shared_pointer_values("test-key", 64)
        assert not shared.flags.writeable
        before = shared.copy()
        build_region(spec(pointer_interval=256), 16 * 4096, instance_seed=3, aslr=True)
        assert np.array_equal(shared, before)  # the ASLR bytes went into a copy

    def test_template_is_memoised_read_only_and_instances_copy_it(self):
        region = spec(pointer_interval=256, mutation_rate=0.01, dirty_page_rate=0.5)
        template = template_region_content(region, 16 * 4096)
        assert template is template_region_content(region, 16 * 4096)
        # Keyed by what the bytes depend on, not by the whole spec.
        assert template is template_region_content(
            spec(pointer_interval=256, name="other", fraction=0.5), 16 * 4096
        )
        assert not template.flags.writeable
        with pytest.raises(ValueError):
            template[0] = 1
        before = template.copy()
        for aslr in (False, True):
            built = build_region(region, 16 * 4096, instance_seed=4, aslr=aslr, executed=True)
            assert built.flags.writeable and not np.shares_memory(built, template)
        assert np.array_equal(template, before)

    def test_overlapping_pointer_sites_are_refused(self):
        with pytest.raises(ValueError, match="overlap"):
            build_region(spec(pointer_interval=8), 16 * 4096, instance_seed=1)

    def test_dirty_pages_only_when_executed(self):
        region = spec(dirty_page_rate=0.5)
        fresh_a = build_region(region, 32 * 4096, instance_seed=1)
        fresh_b = build_region(region, 32 * 4096, instance_seed=2)
        assert np.array_equal(fresh_a, fresh_b)
        executed_a = build_region(region, 32 * 4096, instance_seed=1, executed=True)
        executed_b = build_region(region, 32 * 4096, instance_seed=2, executed=True)
        assert not np.array_equal(executed_a, executed_b)

    def test_dirty_pages_are_page_granular(self):
        region = spec(dirty_page_rate=0.5)
        fresh = build_region(region, 32 * 4096, instance_seed=9)
        executed = build_region(region, 32 * 4096, instance_seed=9, executed=True)
        changed_pages = 0
        for page in range(32):
            sl = slice(page * 4096, (page + 1) * 4096)
            page_diff = (fresh[sl] != executed[sl]).mean()
            # A page is either untouched or substantially rewritten.
            assert page_diff == 0.0 or page_diff > 0.5
            changed_pages += page_diff > 0.5
        assert 0 < changed_pages < 32

    def test_fine_aslr_shifts_content(self):
        region = spec(aslr=AslrBehavior.FINE)
        plain = build_region(region, 16 * 4096, instance_seed=3)
        shifted = build_region(region, 16 * 4096, instance_seed=3, aslr=True)
        assert len(plain) == len(shifted)
        # Content is a rotation of the original: same multiset of bytes.
        assert sorted(plain.tobytes()) == sorted(shifted.tobytes())

    def test_page_aslr_does_not_shift_region_content(self):
        region = spec(aslr=AslrBehavior.PAGE)
        plain = build_region(region, 16 * 4096, instance_seed=3)
        with_aslr = build_region(region, 16 * 4096, instance_seed=3, aslr=True)
        assert np.array_equal(plain, with_aslr)


@pytest.mark.parametrize("aslr", [False, True])
@pytest.mark.parametrize("executed", [False, True])
def test_build_region_bytes_are_those_of_the_pre_memo_composition(suite, aslr, executed):
    """Every region of every FunctionBench profile, byte for byte."""
    from tests.conftest import TEST_SCALE

    for profile in suite.profiles:
        image = profile.synthesize(5, content_scale=TEST_SCALE, aslr=aslr, executed=executed)
        for placed in image.regions:
            expected = synth_scalar.build_region(
                placed.spec, placed.size, 5, aslr=aslr, executed=executed
            )
            assert image.data[placed.offset : placed.end].tobytes() == expected.tobytes()
